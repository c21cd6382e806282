//! The reliable-delivery layer under explicit transient wire faults.
//!
//! §5.1's atomic delivery and §3.3's transparency are promises about
//! what *applications* observe; these tests inject the faults the wire
//! can actually commit — losing a frame, mangling its bits, echoing it,
//! delivering it late — and hold the run to the same oracle as a
//! fault-free twin: identical exit statuses, identical files, identical
//! terminal output, structurally sound survivors. The wire may
//! misbehave; the message system may not.

use auros::bus::BusKind;
use auros::chaos;
use auros::oracle::check_survival;
use auros::{programs, BackupMode, Dur, System, SystemBuilder, VTime};

/// Hard stop for each run, far beyond normal completion.
const DEADLINE: VTime = VTime(5_000_000);

/// Cross-cluster rendezvous traffic in the paper's flagship fullback
/// mode: every frame carries the §5.1 three-way delivery, so every
/// injected wire fault attacks an atomic broadcast.
fn workload(b: &mut SystemBuilder) {
    b.spawn_with_mode(0, programs::pingpong("wire", 40, true), BackupMode::Fullback);
    b.spawn_with_mode(1, programs::pingpong("wire", 40, false), BackupMode::Fullback);
    b.spawn_with_mode(2, programs::file_writer("/wire", 6, 32), BackupMode::Fullback);
}

/// The published bus ledgers agree with the kernel's: the bus carried
/// exactly the frames and bytes the kernel sent, every retry window is a
/// protocol or failover retransmission, and busy time splits into the
/// kernel's transmissions plus gateway-forwarded copies.
fn assert_ledgers_agree(sys: &System) {
    let m = sys.metrics();
    let pair = |field: &str| m.get(&format!("bus.a.{field}")) + m.get(&format!("bus.b.{field}"));
    assert_eq!(pair("frames"), m.get("kernel.bus_frames"));
    assert_eq!(pair("bytes"), m.get("kernel.bus_bytes"));
    assert_eq!(
        pair("retries"),
        m.get("kernel.proto_retransmits") + m.get("kernel.frames_retransmitted")
    );
    assert_eq!(
        pair("busy_ticks"),
        m.get("kernel.bus_busy_ticks") + m.get("fabric.gateway_forward_ticks")
    );
    assert_eq!(m.get("kernel.now_ticks"), sys.now().ticks());
}

fn clean_digest() -> auros::RunDigest {
    let mut b = SystemBuilder::new(3);
    workload(&mut b);
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "fault-free workload must complete");
    sys.digest()
}

#[test]
fn drop_corrupt_duplicate_delay_mix_is_invisible_to_applications() {
    let clean = clean_digest();

    let mut b = SystemBuilder::new(3);
    workload(&mut b);
    b.drop_frame_at(VTime(3_000))
        .corrupt_frame_at(VTime(6_000))
        .duplicate_frame_at(VTime(9_000))
        .delay_frame_at(VTime(12_000), Dur(2_000))
        .drop_frame_at(VTime(15_000));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "faulted workload must complete");

    // Externally indistinguishable from the fault-free twin.
    assert_eq!(sys.digest(), clean, "transient wire faults leaked to applications");
    let survival = check_survival(&sys);
    assert!(survival.ok(), "survivors unsound: {:?}", survival.violations);

    // Every armed fault fired, and the protocol machinery answered it.
    let s = &sys.world.stats;
    assert_eq!(s.wire_drops, 2, "both armed drops must fire");
    assert_eq!(s.wire_corruptions, 1);
    assert_eq!(s.wire_duplicates, 1);
    assert_eq!(s.wire_delays, 1);
    assert_eq!(s.corruptions_caught, s.wire_corruptions, "a corruption escaped the checksum");
    assert!(s.naks >= 1, "the caught corruption must be NAKed");
    assert!(s.proto_retransmits >= 3, "drops and corruption all force retransmission");
    assert!(s.dup_suppressed >= 1, "the echoed frame must be suppressed");
    assert_eq!(s.frames_abandoned, 0, "no frame may be given up under this mix");
    assert_ledgers_agree(&sys);
}

#[test]
fn transient_faulted_run_is_deterministic_across_reruns() {
    let run = || {
        let mut b = SystemBuilder::new(3);
        workload(&mut b);
        b.drop_frame_at(VTime(3_000))
            .corrupt_frame_at(VTime(6_000))
            .duplicate_frame_at(VTime(9_000))
            .delay_frame_at(VTime(12_000), Dur(2_000));
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        let fingerprint = sys.digest().fingerprint();
        let s = &sys.world.stats;
        (
            fingerprint,
            sys.now(),
            (s.proto_retransmits, s.naks, s.dup_suppressed, s.frames_reordered),
        )
    };
    assert_eq!(run(), run(), "same plan, same seed, different run");
}

#[test]
fn delayed_frame_is_reordered_back_not_lost() {
    let clean = clean_digest();
    let mut b = SystemBuilder::new(3);
    workload(&mut b);
    // Late enough for successors on the same link to overtake it.
    b.delay_frame_at(VTime(5_000), Dur(3_000));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.digest(), clean);
    let s = &sys.world.stats;
    assert_eq!(s.wire_delays, 1);
    assert_eq!(s.frames_abandoned, 0);
}

#[test]
fn flaky_bus_window_trips_quarantine_then_probes_heal_it() {
    let clean = clean_digest();

    let mut b = SystemBuilder::new(3);
    workload(&mut b);
    // Every window bus A grants in [4000, 14000) suffers a wire fault:
    // enough consecutive casualties to trip quarantine (default 3).
    b.flaky_bus(VTime(4_000), VTime(14_000), BusKind::A);
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "flaky-window workload must complete");

    assert_eq!(sys.digest(), clean, "a flaky bus window leaked to applications");
    let survival = check_survival(&sys);
    assert!(survival.ok(), "survivors unsound: {:?}", survival.violations);

    let s = &sys.world.stats;
    assert!(s.wire_faults() >= 3, "the window must actually strike traffic");
    assert!(s.quarantines >= 1, "sustained flakiness must bench the bus");
    assert!(s.probes >= 1, "a benched bus must be probed");
    assert_eq!(s.heals, s.quarantines, "every benched bus must heal after the window");
    assert!(
        !sys.world.bus.is_quarantined(BusKind::A) && !sys.world.bus.is_quarantined(BusKind::B),
        "no bus may stay benched at rest"
    );
    assert_ledgers_agree(&sys);
}

#[test]
fn backpressure_forces_sync_and_bounds_backup_queue_depth() {
    let clean = clean_digest();

    let mut b = SystemBuilder::new(3);
    workload(&mut b);
    // Make the ordinary read-count sync trigger unreachable, so only
    // backpressure can trim the backup queues...
    b.config_mut().sync_max_reads = 1_000_000;
    b.config_mut().sync_max_fuel = u64::MAX;
    // ...and bound them tightly.
    let limit = 4usize;
    b.config_mut().backup_queue_limit = Some(limit);
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "backpressured workload must complete");

    assert_eq!(sys.digest(), clean, "forced syncs leaked to applications");
    let s = &sys.world.stats;
    assert!(s.forced_syncs >= 1, "the queue bound must force at least one sync");
    // The demand is raised when a queue *reaches* the limit and the sync
    // completes a bus round-trip later, so the depth may overshoot by
    // the handful of messages still in flight — but it must stay a
    // small constant, not grow with the workload's 40 rounds.
    assert!(
        s.max_backup_queue_depth <= (limit as u64) * 3,
        "backup queue depth {} not bounded near the limit {limit}",
        s.max_backup_queue_depth
    );

    // Without the bound (and without read-triggered syncs) the deepest
    // queue grows with the workload instead.
    let mut b = SystemBuilder::new(3);
    workload(&mut b);
    b.config_mut().sync_max_reads = 1_000_000;
    b.config_mut().sync_max_fuel = u64::MAX;
    let mut unbounded = b.build();
    assert!(unbounded.run(DEADLINE));
    assert!(
        unbounded.world.stats.max_backup_queue_depth > s.max_backup_queue_depth,
        "bound had no effect: {} vs {}",
        unbounded.world.stats.max_backup_queue_depth,
        s.max_backup_queue_depth
    );
}

#[test]
fn transient_plans_in_the_sweep_report_their_machinery() {
    // A focused mini-sweep: sample until both transient shapes appear,
    // then check their outcomes were held to the full oracle.
    let report = chaos::run_sweep(&chaos::ChaosConfig {
        seed: 0xA42_0005,
        plans: 40,
        ..chaos::ChaosConfig::default()
    });
    assert!(report.failures.is_empty(), "oracle failures:\n{}", report.summary());
    assert!(report.count_of(chaos::PlanKind::TransientMix) > 0);
    assert!(report.count_of(chaos::PlanKind::FlakyBusWindow) > 0);
    for o in &report.outcomes {
        if matches!(o.kind, chaos::PlanKind::TransientMix | chaos::PlanKind::FlakyBusWindow) {
            assert!(o.survived, "transient plan {} must survive:\n{}", o.index, report.summary());
        }
    }
}
