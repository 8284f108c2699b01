//! Quickstart: the GUESSTIMATE programming model in one file.
//!
//! Three machines share a seat-reservation counter. Operations execute
//! immediately on each machine's *guesstimated* state (no blocking), are
//! committed in a globally agreed order by the background synchronizer, and
//! completion routines report the commit-time outcome — including the rare
//! *conflict* where an operation that succeeded optimistically loses the
//! race at commit time.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use guesstimate::core::{canonical, Footprint, OpRegistry};
use guesstimate::net::{LatencyModel, NetConfig, SimTime};
use guesstimate::runtime::{run_until_cohort, sim_cluster, MachineConfig};
use guesstimate::MachineId;

/// The shared object: seats on a flight. Derives the paper's
/// `GSharedObject` contract via `GState`: the state codec writes its
/// snapshot (a map from field name to value) and restore from the fields.
#[derive(Clone, Default)]
struct Flight {
    booked: i64,
    capacity: i64,
}

canonical!(impl GState for Flight as "Flight" { booked, capacity });

impl Flight {
    /// The shared operation: returns whether it succeeded, and changes
    /// nothing when it fails.
    fn book(&mut self, n: i64) -> bool {
        if n <= 0 || self.booked + n > self.capacity {
            return false; // precondition: never oversell
        }
        self.booked += n;
        true
    }
}

/// What `book` may read and write, for the commute analysis.
fn book_footprint() -> Footprint {
    Footprint::new()
        .reads(["booked", "capacity"])
        .writes(["booked"])
}

// One row per shared operation: the typed constructor `book(obj, n)`, the
// apply function the registry replays on every machine, the declared
// effect, and the argument domain (`[1, 2]`, plus `i64`'s edge values) the
// checkers enumerate all come from it.
guesstimate::core::methods! {
    Flight;
    /// Book `n` seats.
    fn book(n: i64 = [1, 2]) => book_footprint();
}

fn main() {
    // 1. Register the shared type and its operations — the reflection-free
    //    analog of `Guesstimate.CreateOperation(obj, "book", n)`.
    let mut registry = OpRegistry::new();
    register_methods(&mut registry);

    // 2. Build a 3-machine mesh (machine 0 is the master) and let the
    //    membership protocol assemble the cohort.
    let mut net = sim_cluster(
        3,
        registry,
        MachineConfig::default().with_sync_period(SimTime::from_millis(200)),
        NetConfig::lan(42).with_latency(LatencyModel::lan_ms(25)),
    );
    assert!(run_until_cohort(&mut net, SimTime::from_secs(10)));
    println!("cohort assembled: {:?}", net.members());

    // 3. Machine 0 creates the shared object (visible locally at once,
    //    replicated to everyone at the next synchronization).
    let m0 = MachineId::new(0);
    let flight = net.actor_mut(m0).unwrap().create_instance(Flight {
        booked: 0,
        capacity: 10,
    });
    net.run_until(net.now() + SimTime::from_secs(1));

    // 4. Everyone books seats — non-blocking, against the local guesstimate.
    let confirmed = Arc::new(AtomicU64::new(0));
    let lost = Arc::new(AtomicU64::new(0));
    for i in 0..3u32 {
        let (confirmed, lost) = (confirmed.clone(), lost.clone());
        net.call(MachineId::new(i), move |m, _| {
            let op = book(flight, 4);
            let issued = m
                .issue_with_completion(
                    op,
                    Box::new(move |committed| {
                        // The paper's completion pattern: tell the user
                        // whether the optimistic booking really committed.
                        if committed {
                            confirmed.fetch_add(1, Ordering::SeqCst);
                        } else {
                            lost.fetch_add(1, Ordering::SeqCst);
                        }
                    }),
                )
                .unwrap();
            println!(
                "machine m{i}: booked 4 seats optimistically (issue ok: {issued}), local view = {:?}/10",
                m.read::<Flight, _>(flight, |f| f.booked).unwrap()
            );
        });
    }

    // 5. Let the synchronizer commit everything and report.
    net.run_until(net.now() + SimTime::from_secs(3));
    let final_booked = net
        .actor(m0)
        .unwrap()
        .read::<Flight, _>(flight, |f| f.booked)
        .unwrap();
    println!();
    println!("after synchronization:");
    println!("  committed bookings : {final_booked}/10 seats");
    println!(
        "  confirmed / lost   : {} / {}",
        confirmed.load(Ordering::SeqCst),
        lost.load(Ordering::SeqCst)
    );
    for i in 0..3u32 {
        let m = net.actor(MachineId::new(i)).unwrap();
        println!(
            "  m{i}: committed digest {:#018x}, conflicts {}",
            m.committed_digest(),
            m.stats().conflicts
        );
    }
    // Three optimistic 4-seat bookings, capacity 10: exactly one must lose.
    assert_eq!(final_booked, 8);
    assert_eq!(confirmed.load(Ordering::SeqCst), 2);
    assert_eq!(lost.load(Ordering::SeqCst), 1);
    println!("\nexactly one optimistic booking lost the commit-order race — the");
    println!("losing machine's completion routine was told, and every replica agrees.");
}
