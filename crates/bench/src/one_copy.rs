//! One-copy serializability over the simulated mesh: the blocking end of
//! the §1 spectrum, the baseline of ablations A2 and A3. "One copy
//! serializability is the best form of consistency we can hope for.
//! However, this programming model is inherently slow."
//!
//! A fixed *sequencer* machine (id 0) assigns every submitted operation a
//! global sequence number and broadcasts the committed operation; every
//! machine (including the submitter) applies commits strictly in sequence
//! order. There is **no guesstimated state**: reads observe only committed
//! state, so an operation's effect becomes visible to its own issuer only
//! after a full round trip through the sequencer — the latency the
//! responsiveness ablation (A2) measures against GUESSTIMATE's immediate
//! local execution.
//!
//! The baseline assumes a fault-free mesh (its job is to bound the *best*
//! case of the blocking model, not to re-solve fault tolerance).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use guesstimate_core::{
    execute, Callback, Closures, CompletionFn, GState, MachineId, ObjectId, ObjectStore, OpId,
    OpRegistry, SharedOp, Value,
};
use guesstimate_net::{Actor, Channel, Ctx, SimTime};

/// An operation in flight: object creation or a shared operation.
#[derive(Debug, Clone)]
pub enum OcOp {
    /// Materialize a new object.
    Create {
        /// New object id.
        object: ObjectId,
        /// Registered type name.
        type_name: String,
        /// Initial state snapshot.
        init: Value,
    },
    /// An application operation.
    Shared(SharedOp),
}

/// Mesh messages of the baseline.
#[derive(Debug, Clone)]
pub enum OcMsg {
    /// Client → sequencer: order this operation.
    Submit {
        /// Issue identity (client, client-local seq).
        id: OpId,
        /// The operation.
        op: OcOp,
    },
    /// Sequencer → all: operation `id` is commit number `seq`.
    Commit {
        /// Global sequence number (dense from 0).
        seq: u64,
        /// Issue identity.
        id: OpId,
        /// The operation.
        op: OcOp,
    },
}

/// Per-client counters.
#[derive(Debug, Clone, Default)]
pub struct OcStats {
    /// Operations that failed at commit (precondition false in the global
    /// order) — the one-copy model has no separate issue-time failure.
    pub failed: u64,
    /// Submit → locally-applied latency of each own operation.
    pub latencies: Vec<SimTime>,
}

/// A machine in the one-copy system. Machine 0 is the sequencer (and also a
/// regular client).
pub struct OneCopyMachine {
    id: MachineId,
    registry: Arc<OpRegistry>,
    store: ObjectStore,
    // Sequencer state.
    next_seq: u64,
    // Client state.
    next_op: u64,
    next_obj: u64,
    applied_up_to: u64, // number of commits applied
    reorder: BTreeMap<u64, (OpId, OcOp)>,
    submit_times: HashMap<OpId, SimTime>,
    completions: Closures,
    stats: OcStats,
}

/// The fixed sequencer id.
pub const SEQUENCER: MachineId = MachineId::new(0);

impl OneCopyMachine {
    /// Creates a machine; machine 0 acts as the sequencer.
    pub fn new(id: MachineId, registry: Arc<OpRegistry>) -> Self {
        OneCopyMachine {
            id,
            registry,
            store: ObjectStore::new(),
            next_seq: 0,
            next_op: 0,
            next_obj: 0,
            applied_up_to: 0,
            reorder: BTreeMap::new(),
            submit_times: HashMap::new(),
            completions: Closures::default(),
            stats: OcStats::default(),
        }
    }

    /// The machine's counters.
    pub fn stats(&self) -> &OcStats {
        &self.stats
    }

    /// Digest of the (single, committed) replica.
    pub fn digest(&self) -> u64 {
        self.store.digest()
    }

    /// Reads committed state (the only state there is).
    pub fn read<T: GState, R>(&self, id: ObjectId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.store.get_as::<T>(id).map(f)
    }

    /// Submits an object creation; visible once the commit round-trips.
    pub fn create_instance<T: GState>(&mut self, init: T, ctx: &mut Ctx<'_, OcMsg>) -> ObjectId {
        assert!(
            self.registry.has_type(T::TYPE_NAME),
            "create_instance: type {:?} not registered",
            T::TYPE_NAME
        );
        let object = ObjectId::new(self.id, self.next_obj);
        self.next_obj += 1;
        let op = OcOp::Create {
            object,
            type_name: T::TYPE_NAME.to_owned(),
            init: GState::snapshot(&init),
        };
        self.submit(op, None, ctx);
        object
    }

    /// Submits a shared operation, with an optional completion routine that
    /// fires (with the commit-time boolean) when the commit is applied here.
    pub fn issue(
        &mut self,
        op: SharedOp,
        completion: Option<CompletionFn>,
        ctx: &mut Ctx<'_, OcMsg>,
    ) {
        self.submit(OcOp::Shared(op), completion, ctx);
    }

    fn submit(&mut self, op: OcOp, completion: Option<CompletionFn>, ctx: &mut Ctx<'_, OcMsg>) {
        let id = OpId::new(self.id, self.next_op);
        self.next_op += 1;
        self.submit_times.insert(id, ctx.now());
        if let Some(c) = completion {
            self.completions.insert(id, c);
        }
        if self.id == SEQUENCER {
            self.sequence(id, op, ctx);
        } else {
            ctx.send(SEQUENCER, Channel::Operations, OcMsg::Submit { id, op });
        }
    }

    /// Sequencer: assign the next global number and broadcast.
    fn sequence(&mut self, id: OpId, op: OcOp, ctx: &mut Ctx<'_, OcMsg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.broadcast(
            Channel::Operations,
            OcMsg::Commit {
                seq,
                id,
                op: op.clone(),
            },
        );
        self.enqueue_commit(seq, id, op, ctx);
    }

    fn enqueue_commit(&mut self, seq: u64, id: OpId, op: OcOp, ctx: &mut Ctx<'_, OcMsg>) {
        self.reorder.insert(seq, (id, op));
        while let Some((id, op)) = self.reorder.remove(&self.applied_up_to) {
            self.applied_up_to += 1;
            let ok = match &op {
                OcOp::Create {
                    object,
                    type_name,
                    init,
                } => {
                    let mut obj = self
                        .registry
                        .construct(type_name)
                        .expect("type registered on all machines");
                    obj.restore(init).expect("snapshot matches type");
                    self.store.insert(*object, obj);
                    true
                }
                OcOp::Shared(op) => execute(op, &mut self.store, &self.registry)
                    .map(|o| o.is_success())
                    .unwrap_or(false),
            };
            if id.machine() == self.id {
                if !ok {
                    self.stats.failed += 1;
                }
                if let Some(t) = self.submit_times.remove(&id) {
                    self.stats.latencies.push(ctx.now().saturating_since(t));
                }
                self.completions.run(Callback::Completed(id, ok));
            }
        }
    }
}

impl Actor for OneCopyMachine {
    type Msg = OcMsg;

    fn on_message(
        &mut self,
        _from: MachineId,
        _channel: Channel,
        msg: OcMsg,
        ctx: &mut Ctx<'_, OcMsg>,
    ) {
        match msg {
            OcMsg::Submit { id, op } => {
                if self.id == SEQUENCER {
                    self.sequence(id, op, ctx);
                }
            }
            OcMsg::Commit { seq, id, op } => self.enqueue_commit(seq, id, op, ctx),
        }
    }
}

/// Builds a one-copy cluster of `n` machines (machine 0 = sequencer).
pub fn one_copy_cluster(
    n: u32,
    registry: OpRegistry,
    netcfg: guesstimate_net::NetConfig,
) -> guesstimate_net::SimNet<OneCopyMachine> {
    let registry = Arc::new(registry);
    let mut net = guesstimate_net::SimNet::new(netcfg);
    for i in 0..n {
        net.add_machine(
            MachineId::new(i),
            OneCopyMachine::new(MachineId::new(i), registry.clone()),
        );
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use guesstimate_core::{canonical, Footprint, ROOT};
    use guesstimate_net::{LatencyModel, NetConfig, SimNet};

    #[derive(Clone, Default)]
    struct Cnt(i64);
    canonical!(impl GState for Cnt as "Cnt" (0));

    impl Cnt {
        fn add_capped(&mut self, d: i64, cap: i64) -> bool {
            if self.0 + d > cap {
                return false;
            }
            self.0 += d;
            true
        }
    }

    fn add_capped_footprint() -> Footprint {
        Footprint::new().reads([ROOT]).writes([ROOT])
    }

    guesstimate_core::methods! {
        Cnt;
        /// `add_capped(d, cap)`: adds `d` unless the sum would exceed `cap`.
        fn add_capped(d: i64, cap: i64) => add_capped_footprint();
    }

    fn registry() -> OpRegistry {
        let mut r = OpRegistry::new();
        register_methods(&mut r);
        r
    }

    fn cluster(n: u32) -> SimNet<OneCopyMachine> {
        one_copy_cluster(
            n,
            registry(),
            NetConfig::lan(3).with_latency(LatencyModel::constant_ms(10)),
        )
    }

    #[test]
    fn ops_are_not_visible_before_the_round_trip() {
        let mut net = cluster(3);
        let obj = {
            let mut out = None;
            net.call(MachineId::new(1), |m, ctx| {
                out = Some(m.create_instance(Cnt(0), ctx))
            });
            out.unwrap()
        };
        // Not visible anywhere yet — not even on the creator.
        assert!(net
            .actor(MachineId::new(1))
            .unwrap()
            .read::<Cnt, _>(obj, |c| c.0)
            .is_none());
        // After the sequencer round trip (10ms there + 10ms back) it is.
        net.run_until(SimTime::from_millis(50));
        for i in 0..3 {
            assert_eq!(
                net.actor(MachineId::new(i))
                    .unwrap()
                    .read::<Cnt, _>(obj, |c| c.0),
                Some(0),
                "machine {i}"
            );
        }
    }

    #[test]
    fn global_order_resolves_conflicts_identically() {
        let mut net = cluster(4);
        let obj = {
            let mut out = None;
            net.call(MachineId::new(0), |m, ctx| {
                out = Some(m.create_instance(Cnt(0), ctx))
            });
            out.unwrap()
        };
        net.run_until(SimTime::from_millis(100));
        // All four try to claim the last 2 units.
        for i in 0..4 {
            net.schedule_call(
                SimTime::from_millis(100 + i as u64),
                MachineId::new(i),
                move |m: &mut OneCopyMachine, ctx| {
                    m.issue(add_capped(obj, 1, 2), None, ctx);
                },
            );
        }
        net.run_until(SimTime::from_secs(1));
        let digests: Vec<u64> = (0..4)
            .map(|i| net.actor(MachineId::new(i)).unwrap().digest())
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            net.actor(MachineId::new(0))
                .unwrap()
                .read::<Cnt, _>(obj, |c| c.0),
            Some(2)
        );
        let failed: u64 = (0..4)
            .map(|i| net.actor(MachineId::new(i)).unwrap().stats().failed)
            .sum();
        assert_eq!(failed, 2, "two losers in the global order");
    }

    #[test]
    fn latency_is_at_least_a_round_trip_for_non_sequencer() {
        let mut net = cluster(2);
        let obj = {
            let mut out = None;
            net.call(MachineId::new(0), |m, ctx| {
                out = Some(m.create_instance(Cnt(0), ctx))
            });
            out.unwrap()
        };
        net.run_until(SimTime::from_millis(100));
        net.call(MachineId::new(1), |m, ctx| {
            m.issue(add_capped(obj, 1, 10), None, ctx);
        });
        net.run_until(SimTime::from_secs(1));
        let stats = net.actor(MachineId::new(1)).unwrap().stats().clone();
        assert_eq!(stats.latencies.len(), 1);
        assert!(
            stats.latencies[0] >= SimTime::from_millis(20),
            "submit + commit broadcast = 2 hops at 10ms, got {}",
            stats.latencies[0]
        );
    }

    #[test]
    fn sequencer_self_commits_in_one_hop_broadcast() {
        let mut net = cluster(2);
        let obj = {
            let mut out = None;
            net.call(MachineId::new(0), |m, ctx| {
                out = Some(m.create_instance(Cnt(0), ctx))
            });
            out.unwrap()
        };
        // The sequencer applies its own ops immediately (seq order local).
        assert_eq!(
            net.actor(MachineId::new(0))
                .unwrap()
                .read::<Cnt, _>(obj, |c| c.0),
            Some(0)
        );
        let s = net.actor(MachineId::new(0)).unwrap().stats().clone();
        assert_eq!(s.latencies.len(), 1);
        assert_eq!(s.latencies[0], SimTime::ZERO);
    }

    #[test]
    fn out_of_order_commit_delivery_is_reapplied_in_sequence() {
        // Heavy jitter: commit broadcasts for seq k+1 routinely overtake
        // seq k; the reorder buffer must hold them until the gap fills.
        let netcfg = NetConfig::lan(9).with_latency(LatencyModel::Uniform {
            lo: SimTime::from_millis(1),
            hi: SimTime::from_millis(80),
        });
        let mut net = one_copy_cluster(3, registry(), netcfg);
        let obj = {
            let mut out = None;
            net.call(MachineId::new(0), |m, ctx| {
                out = Some(m.create_instance(Cnt(0), ctx))
            });
            out.unwrap()
        };
        net.run_until(SimTime::from_millis(300));
        // A burst of increments from every machine.
        for i in 0..3u32 {
            for k in 0..10u64 {
                net.schedule_call(
                    SimTime::from_millis(300 + 5 * k + u64::from(i)),
                    MachineId::new(i),
                    move |m: &mut OneCopyMachine, ctx| {
                        m.issue(add_capped(obj, 1, 100), None, ctx);
                    },
                );
            }
        }
        net.run_until(SimTime::from_secs(5));
        for i in 0..3 {
            let m = net.actor(MachineId::new(i)).unwrap();
            assert_eq!(m.read::<Cnt, _>(obj, |c| c.0), Some(30), "machine {i}");
        }
        let digests: Vec<u64> = (0..3)
            .map(|i| net.actor(MachineId::new(i)).unwrap().digest())
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn completion_fires_with_commit_result() {
        use std::sync::atomic::{AtomicI32, Ordering};
        let seen = Arc::new(AtomicI32::new(-1));
        let mut net = cluster(2);
        let obj = {
            let mut out = None;
            net.call(MachineId::new(0), |m, ctx| {
                out = Some(m.create_instance(Cnt(0), ctx))
            });
            out.unwrap()
        };
        net.run_until(SimTime::from_millis(100));
        let s = seen.clone();
        net.call(MachineId::new(1), |m, ctx| {
            m.issue(
                add_capped(obj, 5, 2),
                Some(Box::new(move |b| s.store(b as i32, Ordering::SeqCst))),
                ctx,
            );
        });
        net.run_until(SimTime::from_secs(1));
        assert_eq!(seen.load(Ordering::SeqCst), 0, "failed at commit");
    }
}
