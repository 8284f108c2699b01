//! Convenience constructors for whole clusters.

use std::sync::Arc;

use guesstimate_core::{MachineId, OpRegistry};
use guesstimate_net::{
    LatencyModel, NetConfig, SimNet, SimTime, ThreadedHandle, ThreadedNet, Tracer,
};
use guesstimate_telemetry::Telemetry;

use crate::config::MachineConfig;
use crate::machine::Machine;

/// Builds a simulated cluster of `n` machines (machine 0 is the master),
/// all sharing one operation registry.
///
/// Machines join through the real membership protocol, so run the returned
/// net for a second or two of virtual time before expecting all members to
/// participate (or call [`run_until_cohort`] to do that for you).
///
/// # Examples
///
/// ```
/// use guesstimate_core::OpRegistry;
/// use guesstimate_net::{LatencyModel, NetConfig};
/// use guesstimate_runtime::{sim_cluster, MachineConfig};
///
/// let registry = OpRegistry::new();
/// let net = sim_cluster(
///     3,
///     registry,
///     MachineConfig::default(),
///     NetConfig::lan(7).with_latency(LatencyModel::constant_ms(5)),
/// );
/// assert_eq!(net.members().len(), 3);
/// ```
pub fn sim_cluster(
    n: u32,
    registry: OpRegistry,
    cfg: MachineConfig,
    netcfg: NetConfig,
) -> SimNet<Machine> {
    sim_cluster_instrumented(n, registry, cfg, netcfg, None, Telemetry::noop())
}

/// [`sim_cluster`] with a shared trace sink and a shared [`Telemetry`]
/// handle installed on every machine.
///
/// Each machine emits [`guesstimate_net::TraceEvent`]s to `tracer` as the
/// protocol progresses; pass a [`guesstimate_net::RecordingTracer`] (or any
/// custom sink) to observe per-stage protocol behaviour. All machines
/// record into the same instrument set, so one
/// [`Telemetry::render_prometheus`] / [`Telemetry::render_json`] snapshot
/// after the run covers the whole cluster. `None` and [`Telemetry::noop`]
/// give exactly [`sim_cluster`] (the hooks cost one branch each).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use guesstimate_core::OpRegistry;
/// use guesstimate_net::{LatencyModel, NetConfig, RecordingTracer};
/// use guesstimate_runtime::{sim_cluster_instrumented, MachineConfig};
/// use guesstimate_telemetry::Telemetry;
///
/// let tracer = Arc::new(RecordingTracer::new());
/// let telemetry = Telemetry::new();
/// let net = sim_cluster_instrumented(
///     3,
///     OpRegistry::new(),
///     MachineConfig::default(),
///     NetConfig::lan(7).with_latency(LatencyModel::constant_ms(5)),
///     Some(tracer.clone()),
///     telemetry.clone(),
/// );
/// assert_eq!(net.members().len(), 3);
/// // Before the sim runs, only the join-request broadcasts (message sends
/// // stamped by the driver) have been traced — no protocol events yet.
/// assert!(tracer
///     .snapshot()
///     .iter()
///     .all(|r| matches!(r.event, guesstimate_net::TraceEvent::MsgSent { .. })));
/// assert_eq!(telemetry.ops_committed(), 0, "nothing recorded before the sim runs");
/// ```
pub fn sim_cluster_instrumented(
    n: u32,
    registry: OpRegistry,
    cfg: MachineConfig,
    netcfg: NetConfig,
    tracer: Option<Arc<dyn Tracer>>,
    telemetry: Telemetry,
) -> SimNet<Machine> {
    let registry = Arc::new(registry);
    let mut net = SimNet::new(netcfg);
    if let Some(t) = &tracer {
        // Share the sink with the driver so message send/receive stamps land
        // in the same stream as the machines' protocol events.
        net.set_tracer(t.clone());
    }
    let machine = |i: u32| {
        let id = MachineId::new(i);
        let mut m = if i == 0 {
            Machine::new_master(id, registry.clone(), cfg.clone())
        } else {
            Machine::new_member(id, registry.clone(), cfg.clone())
        };
        if let Some(t) = &tracer {
            m.set_tracer(t.clone());
        }
        m.set_telemetry(telemetry.clone());
        m
    };
    for i in 0..n {
        net.add_machine(MachineId::new(i), machine(i));
    }
    net
}

/// Runs the simulation until every machine participates in rounds (or the
/// deadline passes). Returns `true` once the full cohort is active.
pub fn run_until_cohort(net: &mut SimNet<Machine>, deadline: SimTime) -> bool {
    let step = SimTime::from_millis(100);
    let mut t = net.now();
    loop {
        let all_in = net
            .members()
            .iter()
            .all(|&m| net.actor(m).map(Machine::in_cohort).unwrap_or(false));
        if all_in {
            return true;
        }
        if t >= deadline {
            return false;
        }
        t += step;
        net.run_until(t);
    }
}

/// Builds a threaded (wall-clock) cluster of `n` machines; returns the net
/// and one handle per machine (index 0 is the master).
pub fn threaded_cluster(
    n: u32,
    registry: OpRegistry,
    cfg: MachineConfig,
    latency: LatencyModel,
    seed: u64,
) -> (ThreadedNet<Machine>, Vec<ThreadedHandle<Machine>>) {
    let registry = Arc::new(registry);
    let net = ThreadedNet::new(latency, seed);
    let mut handles = Vec::with_capacity(n as usize);
    for i in 0..n {
        let id = MachineId::new(i);
        let m = if i == 0 {
            Machine::new_master(id, registry.clone(), cfg.clone())
        } else {
            Machine::new_member(id, registry.clone(), cfg.clone())
        };
        handles.push(net.add_machine(id, m));
    }
    (net, handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::counter_registry;

    #[test]
    fn sim_cluster_assembles_cohort() {
        let cfg = MachineConfig::default()
            .with_sync_period(SimTime::from_millis(100))
            .with_stall_timeout(SimTime::from_millis(500));
        let netcfg = NetConfig::lan(5).with_latency(LatencyModel::constant_ms(10));
        let mut net = sim_cluster(4, counter_registry(), cfg, netcfg);
        assert!(run_until_cohort(&mut net, SimTime::from_secs(5)));
        assert_eq!(
            net.actor(MachineId::new(0)).unwrap().members().len(),
            4,
            "master admitted everyone"
        );
    }

    #[test]
    fn run_until_cohort_times_out_when_blocked() {
        // Join messages always dropped: the cohort never assembles.
        let faults = guesstimate_net::FaultPlan::new().with_drop_prob(1.0);
        let netcfg = NetConfig::lan(5)
            .with_latency(LatencyModel::constant_ms(10))
            .with_faults(faults);
        let mut net = sim_cluster(2, counter_registry(), MachineConfig::default(), netcfg);
        assert!(!run_until_cohort(&mut net, SimTime::from_secs(3)));
    }
}
