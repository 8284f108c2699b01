//! # guesstimate-net
//!
//! The network substrate for the GUESSTIMATE runtime — a from-scratch
//! replacement for the .NET 3.5 **PeerChannel** peer-to-peer technology the
//! paper builds on (§4): *"PeerChannel allows multiple machines to be
//! combined together to form a mesh. Any member of the mesh can broadcast
//! messages to all other members via a channel associated with the mesh. The
//! GUESSTIMATE runtime uses two meshes, one for sending signals and another
//! for passing operations."*
//!
//! This crate provides:
//!
//! * [`Channel`] — the two logical meshes (*Signals* and *Operations*).
//! * [`Actor`] — the event-driven interface a protocol participant
//!   implements (`on_start` / `on_message` / `on_timer`); the GUESSTIMATE
//!   synchronizer in `guesstimate-runtime` is an `Actor`, which lets the
//!   *same* protocol logic run under all three drivers below.
//! * [`Mesh`] — the one virtual-time mesh: actors, clock, causal stamps,
//!   counters and fan-out, with a scheduler that picks the next event. It
//!   is used as one of two drivers:
//!   * [`SimNet`] — a deterministic, seeded discrete-event driver
//!     ([`Timeline`]: earliest event first). All of the paper's figures
//!     are network-delay dominated, so reproducing them on a simulated
//!     clock preserves their shape while making experiments repeatable.
//!   * [`SchedNet`] — a controlled-scheduler driver for the model checker
//!     (`guesstimate-mc`, [`Choices`]): every delivery, drop, join
//!     admission and timer firing is an externally chosen event, so a
//!     checker can enumerate interleavings instead of following the
//!     simulator's fixed order.
//! * [`ThreadedNet`] — a real-thread, wall-clock driver with the same
//!   semantics, for interactive examples and wall-clock measurement (its
//!   module doc states how punctually it delivers).
//! * [`LatencyModel`] — constant / uniform / normal / log-normal / spiky
//!   link-latency distributions (LAN-like defaults match the §7 testbed).
//! * [`FaultPlan`] — message loss, duplication, machine stall windows and
//!   crashes; used to reproduce the §7 failure/recovery events and the
//!   Figure 5 outliers.
//! * [`Tracer`] / [`TraceEvent`] — a structured, allocation-light protocol
//!   trace stream; the runtime emits one event per protocol transition
//!   (round start, flush windows, apply, acks, completion, recovery) under
//!   every driver.
//!
//! ## Example
//!
//! ```
//! use guesstimate_core::MachineId;
//! use guesstimate_net::{Actor, Channel, Ctx, NetConfig, SimNet};
//!
//! /// Every machine broadcasts "hello" when asked and counts what it hears.
//! struct Hello {
//!     heard: usize,
//! }
//!
//! impl Actor for Hello {
//!     type Msg = String;
//!     fn on_message(
//!         &mut self,
//!         _from: MachineId,
//!         _channel: Channel,
//!         _msg: String,
//!         _ctx: &mut Ctx<'_, String>,
//!     ) {
//!         self.heard += 1;
//!     }
//! }
//!
//! let mut net = SimNet::new(NetConfig::lan(42));
//! for i in 0..3 {
//!     net.add_machine(MachineId::new(i), Hello { heard: 0 });
//! }
//! for i in 0..3 {
//!     net.schedule_call(
//!         guesstimate_net::SimTime::from_millis(i as u64),
//!         MachineId::new(i),
//!         |_, ctx| ctx.broadcast(Channel::Signals, "hello".to_owned()),
//!     );
//! }
//! net.run_until(guesstimate_net::SimTime::from_millis(1_000));
//! for i in 0..3 {
//!     assert_eq!(net.actor(MachineId::new(i)).unwrap().heard, 2);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod actor;
mod channel;
mod fault;
mod latency;
mod mesh;
mod metrics;
mod sched;
mod sim;
mod threaded;
mod time;
mod trace;

pub use actor::{Action, Actor, Ctx, Outbox};
pub use channel::Channel;
pub use fault::{FaultEvent, FaultPlan, PartitionWindow, StallWindow};
pub use latency::LatencyModel;
pub use mesh::Mesh;
pub use metrics::NetMetrics;
pub use sched::{Choices, PendingMsg, SchedNet, TamperHook};
pub use sim::{NetConfig, SimNet, Timeline};
pub use threaded::{ThreadedHandle, ThreadedNet};
pub use time::SimTime;
pub use trace::{NoopTracer, RecordingTracer, ReplayCause, TraceEvent, TraceRecord, Tracer};
