//! Segmented-fabric scale tests (PR 7).
//!
//! The bus fabric partitions the fleet into segments joined by
//! deterministic store-and-forward gateways. These tests pin the two
//! properties segmentation must preserve: fault transparency across a
//! segment boundary (a crash mid-conversation leaves the run
//! digest-equal to its fault-free twin) and result preservation when an
//! unsegmented scenario is re-run over 1 or k segments. A last test
//! pins the scheduler's side of scale: events grow linearly with a
//! saturated cluster's run queue.

use auros::{programs, RunDigest, System, SystemBuilder, VTime};

const CLUSTERS: u16 = 8;
const DEADLINE: VTime = VTime(100_000_000);

/// One pingpong pair per cluster, chained around the ring — the scale
/// benchmark's workload in miniature. With `segment_size = 4` the pairs
/// rooted at clusters 3 and 7 converse across a segment boundary, so
/// every round trip crosses a gateway.
fn build(segment_size: u16, rounds: u64, crash: Option<(VTime, u16)>) -> System {
    let mut b = SystemBuilder::new(CLUSTERS);
    b.config_mut().bus_segment_size = segment_size;
    for c in 0..CLUSTERS {
        let name = format!("s{c}");
        b.spawn(c, programs::pingpong(&name, rounds, true));
        b.spawn((c + 1) % CLUSTERS, programs::pingpong(&name, rounds, false));
    }
    if let Some((at, cluster)) = crash {
        b.crash_at(at, cluster);
    }
    b.build()
}

fn digest_of(mut sys: System) -> RunDigest {
    assert!(sys.run(DEADLINE), "workload must complete");
    sys.digest()
}

/// A cluster on the far side of a segment boundary dies while its
/// conversations are mid-flight through the gateway. The backups take
/// over and the run's externally visible record — every exit status,
/// file, and terminal — must match the fault-free twin's exactly.
#[test]
fn cross_segment_crash_matches_fault_free_twin() {
    let clean = digest_of(build(4, 40, None));
    // Cluster 4 opens segment {4..7}; both of its resident processes
    // (the "s4" initiator and the "s3" responder) talk across the
    // boundary to segment {0..3}. By 20k ticks the rendezvous is done
    // and tokens are crossing the gateway in both directions.
    let crashed = digest_of(build(4, 40, Some((VTime(20_000), 4))));
    assert_eq!(
        clean.fingerprint(),
        crashed.fingerprint(),
        "crash across a segment boundary must be invisible in the digest"
    );
    assert_eq!(clean, crashed);
}

/// The same crash with the boundary moved so the victim and its peers
/// share one segment — segmentation must not change the verdict, only
/// the route.
#[test]
fn same_segment_crash_matches_fault_free_twin() {
    let clean = digest_of(build(0, 40, None));
    let crashed = digest_of(build(0, 40, Some((VTime(20_000), 4))));
    assert_eq!(clean, crashed, "crash recovery is digest-clean on the single broadcast domain");
}

/// Re-running the unsegmented scenario over a fabric of one segment and
/// over k segments preserves every per-cluster result. Gateways add
/// latency, so makespans may differ — but each process's exit checksum
/// is a pure function of the message contents it saw, which
/// store-and-forward must not alter.
#[test]
fn segmentation_preserves_per_cluster_results() {
    let broadcast = digest_of(build(0, 25, None));
    // One segment spanning the whole fleet: the fabric path with no
    // gateways in play.
    let one_segment = digest_of(build(CLUSTERS, 25, None));
    // Two segments: every ring neighbour pair at the boundary crosses.
    let two_segments = digest_of(build(4, 25, None));
    assert_eq!(
        broadcast.exits, one_segment.exits,
        "a fleet-wide segment must reproduce the broadcast domain's exits"
    );
    assert_eq!(
        broadcast.exits, two_segments.exits,
        "gateway store-and-forward must not change any process's result"
    );
    assert_eq!(broadcast.terminals, two_segments.terminals);
    assert_eq!(broadcast.files, two_segments.files);
}

/// `k` compute loops and a pingpong responder on cluster 0 (two work
/// processors), the initiator on cluster 1; returns the events stepped.
fn saturated_events(k: u64) -> u64 {
    let mut b = SystemBuilder::new(3);
    for i in 0..k {
        b.spawn(0, programs::compute_loop(150 + i, 2));
    }
    b.spawn(1, programs::pingpong("s", 20, true));
    b.spawn(0, programs::pingpong("s", 20, false));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "workload must complete");
    sys.world.events_processed
}

/// A saturated cluster keeps at most one `Dispatch` queued per tick, so
/// the events a run steps grow with the work, not with the square of
/// the run queue. Quadrupling the queue quadruples the work; a scheduler
/// that re-posts one `Dispatch` per waiting process grows ~15x instead.
#[test]
fn events_grow_linearly_with_the_run_queue() {
    let small = saturated_events(8);
    let large = saturated_events(32);
    assert!(large <= 4 * small, "events grew {large} / {small}: more than linear in the run queue");
}
