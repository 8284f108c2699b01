//! The benchmark's only window into the program: a wrapper actor that
//! delegates every callback to the real machine and afterwards notes what
//! the machine committed, plus (when tracing) how long the callback took.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use guesstimate_core::{MachineId, OpId};
use guesstimate_net::{Actor, Channel, Ctx, Tracer};
use guesstimate_runtime::multigroup::node_of;
use guesstimate_runtime::{GMsg, Machine, Msg, MultiMachine};
use guesstimate_telemetry::Telemetry;

use crate::stats::Span;

/// What the wrapper needs from the actor under test. A plain [`Machine`]
/// has one commit log; a [`MultiMachine`] has one per hosted sync group.
pub trait Probe: Actor {
    /// Number of commit logs (`C` sequences) this node keeps.
    fn logs(&self) -> usize;
    /// The protocol instance behind commit log `log`.
    fn machine(&self, log: usize) -> &Machine;
    /// The replica index of an operation's issuer.
    fn issuer(id: MachineId) -> usize;
    /// The round a protocol message belongs to, if any.
    fn round_of(msg: &Self::Msg) -> Option<u64>;
    /// Digest of the whole committed state (merged across groups).
    fn state_digest(&self) -> u64;
    /// Cross-group operations resolved on this node.
    fn cross_resolved(&self) -> u64 {
        0
    }
    /// True once every protocol instance takes part in rounds.
    fn in_cohort(&self) -> bool {
        (0..self.logs()).all(|l| self.machine(l).in_cohort())
    }
    /// Installs a live telemetry handle.
    fn install_telemetry(&mut self, telemetry: Telemetry);
    /// Installs a protocol tracer.
    fn install_tracer(&mut self, tracer: Arc<dyn Tracer>);
}

fn msg_round(msg: &Msg) -> Option<u64> {
    match msg {
        Msg::BeginSync { round, .. }
        | Msg::Ops { round, .. }
        | Msg::FlushDone { round, .. }
        | Msg::BeginApply { round, .. }
        | Msg::OpsRequest { round }
        | Msg::Ack { round, .. }
        | Msg::SyncComplete { round }
        | Msg::RoundUpdate { round, .. } => Some(*round),
        _ => None,
    }
}

impl Probe for Machine {
    fn logs(&self) -> usize {
        1
    }
    fn machine(&self, _log: usize) -> &Machine {
        self
    }
    fn issuer(id: MachineId) -> usize {
        id.index() as usize
    }
    fn round_of(msg: &Msg) -> Option<u64> {
        msg_round(msg)
    }
    fn state_digest(&self) -> u64 {
        self.committed_digest()
    }
    fn install_telemetry(&mut self, telemetry: Telemetry) {
        self.set_telemetry(telemetry);
    }
    fn install_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        self.set_tracer(tracer);
    }
}

impl Probe for MultiMachine {
    fn logs(&self) -> usize {
        self.table().num_groups() as usize
    }
    fn machine(&self, log: usize) -> &Machine {
        self.group(log as u32)
            .expect("full-overlap hosting: every node hosts every group")
    }
    fn issuer(id: MachineId) -> usize {
        node_of(id).index() as usize
    }
    fn round_of(msg: &GMsg) -> Option<u64> {
        match msg {
            GMsg::Inner { msg, .. } => msg_round(msg),
            GMsg::CrossSubmit { .. } => None,
        }
    }
    fn state_digest(&self) -> u64 {
        self.merged_committed_digest()
    }
    fn cross_resolved(&self) -> u64 {
        MultiMachine::cross_resolved(self)
    }
    fn install_telemetry(&mut self, telemetry: Telemetry) {
        self.set_telemetry(telemetry);
    }
    fn install_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        for g in self.group_ids() {
            if let Some(m) = self.group_mut(g) {
                m.set_tracer(Arc::clone(&tracer));
            }
        }
    }
}

/// Nanoseconds since `epoch`, never 0 (which marks "not committed here").
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64 + 1
}

/// Commit instants one replica observed: `stamps[log][issuer][seq]` is the
/// wall-clock nanosecond (since the run's epoch, never 0) at which
/// operation `(issuer, seq)` of commit log `log` entered `C` here.
pub type Stamps = Vec<Vec<Vec<u64>>>;

/// The wrapper actor. See the module docs.
pub struct Observed<A: Probe> {
    inner: A,
    replica: u32,
    epoch: Instant,
    seen: Vec<usize>,
    stamps: Stamps,
    /// Entries of `C` noted so far, readable without the actor lock.
    committed: Arc<AtomicU64>,
    spans: Option<Vec<Span>>,
    /// Modelled size of the largest `join_info` message delivered here.
    join_info_bytes: u64,
}

impl<A: Probe> Observed<A> {
    /// Wraps `inner` as replica number `replica`; `committed` is published
    /// after every callback, `trace` turns span recording on.
    pub fn new(
        inner: A,
        replica: u32,
        epoch: Instant,
        committed: Arc<AtomicU64>,
        trace: bool,
    ) -> Self {
        let logs = inner.logs();
        Observed {
            inner,
            replica,
            epoch,
            seen: vec![0; logs],
            stamps: vec![Vec::new(); logs],
            committed,
            spans: trace.then(Vec::new),
            join_info_bytes: 0,
        }
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The wrapped actor, for issuing. Call [`Observed::note`] afterwards.
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Takes the commit instants recorded so far.
    pub fn take_stamps(&mut self) -> Stamps {
        let logs = self.stamps.len();
        std::mem::replace(&mut self.stamps, vec![Vec::new(); logs])
    }

    /// True once operation `(issuer, seq)` of commit log `log` is in `C` here.
    pub fn is_stamped(&self, log: usize, issuer: usize, seq: u64) -> bool {
        let slots = self.stamps.get(log).and_then(|s| s.get(issuer));
        slots
            .and_then(|s| s.get(seq as usize))
            .is_some_and(|&t| t != 0)
    }

    /// Takes the handler spans recorded so far (empty unless tracing).
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Modelled size of the largest `join_info` message delivered here.
    pub fn join_info_bytes(&self) -> u64 {
        self.join_info_bytes
    }

    /// Stamps every operation that entered a commit log since the last
    /// call. All of them share one instant: they committed in the callback
    /// that just returned.
    pub fn note(&mut self) {
        let mut now = 0;
        let mut total = 0;
        for log in 0..self.seen.len() {
            let done: &[OpId] = self.inner.machine(log).completed_ops();
            total += done.len() as u64;
            // A restart or a join snapshot may replace `C`; never re-stamp.
            let from = self.seen[log].min(done.len());
            if from < done.len() && now == 0 {
                now = ns_since(self.epoch);
            }
            for id in &done[from..] {
                let issuer = A::issuer(id.machine());
                let per_issuer = &mut self.stamps[log];
                if per_issuer.len() <= issuer {
                    per_issuer.resize(issuer + 1, Vec::new());
                }
                let slots = &mut per_issuer[issuer];
                let seq = id.seq() as usize;
                if slots.len() <= seq {
                    slots.resize((seq + 1).max(slots.len() * 2), 0);
                }
                slots[seq] = now;
            }
            self.seen[log] = done.len();
        }
        self.committed.store(total, Ordering::Release);
    }

    fn record(&mut self, name: &'static str, start_ns: u64, id: u64) {
        let end_ns = ns_since(self.epoch);
        let replica = self.replica;
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                name,
                replica,
                start_ns,
                end_ns,
                parent: None,
                id,
            });
        }
    }
}

/// Span name of an `on_message` callback, by the program's own message
/// kind label.
fn handler_name(kind: &'static str) -> &'static str {
    match kind {
        "begin_sync" => "runtime.on_message.begin_sync",
        "ops" => "runtime.on_message.ops",
        "flush_done" => "runtime.on_message.flush_done",
        "begin_apply" => "runtime.on_message.begin_apply",
        "ack" => "runtime.on_message.ack",
        "sync_complete" => "runtime.on_message.sync_complete",
        "async_op" => "runtime.on_message.async_op",
        _ => "runtime.on_message.other",
    }
}

/// Span name of an `on_timer` callback.
pub const TIMER_SPAN: &str = "runtime.on_timer";

impl<A: Probe> Actor for Observed<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, A::Msg>) {
        self.inner.on_start(ctx);
        self.note();
    }

    fn on_message(
        &mut self,
        from: MachineId,
        channel: Channel,
        msg: A::Msg,
        ctx: &mut Ctx<'_, A::Msg>,
    ) {
        let kind = A::msg_kind(&msg);
        if kind == "join_info" {
            self.join_info_bytes = self.join_info_bytes.max(A::msg_size(&msg));
        }
        if self.spans.is_some() {
            let id = A::round_of(&msg).unwrap_or(0);
            let start = ns_since(self.epoch);
            self.inner.on_message(from, channel, msg, ctx);
            self.record(handler_name(kind), start, id);
        } else {
            self.inner.on_message(from, channel, msg, ctx);
        }
        self.note();
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, A::Msg>) {
        if self.spans.is_some() {
            let start = ns_since(self.epoch);
            self.inner.on_timer(tag, ctx);
            self.record(TIMER_SPAN, start, 0);
        } else {
            self.inner.on_timer(tag, ctx);
        }
        self.note();
    }

    fn msg_size(msg: &A::Msg) -> u64 {
        A::msg_size(msg)
    }

    fn msg_kind(msg: &A::Msg) -> &'static str {
        A::msg_kind(msg)
    }
}
