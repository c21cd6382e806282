//! Direct kernel-level tests: the World without any servers installed.
//!
//! Register-only guest programs have empty address spaces, so spawning,
//! synchronization, crash handling, and promotion can all be exercised
//! without a page server — pinning the kernel's own invariants at a
//! lower level than the facade tests.

use auros_bus::proto::BackupMode;
use auros_bus::ClusterId;
use auros_kernel::world::Event;
use auros_kernel::{Config, ProcessState, World};
use auros_sim::VTime;
use auros_vm::inst::regs::*;
use auros_vm::{Program, ProgramBuilder};

/// A register-only program: loops `n` times over arithmetic, exits with
/// a checksum. Touches no memory at all.
fn reg_program(n: u64) -> Program {
    let mut b = ProgramBuilder::new("regs");
    b.li(R4, 1);
    b.li(R5, n);
    let top = b.here();
    b.li(R6, 2_654_435_761);
    b.mul(R4, R4, R6);
    b.addi(R4, R4, 13);
    b.compute(25);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R4);
    b.trap(auros_vm::Sys::Exit);
    b.build()
}

fn reg_checksum(n: u64) -> u64 {
    let mut v: u64 = 1;
    for _ in 0..n {
        v = v.wrapping_mul(2_654_435_761).wrapping_add(13);
    }
    v
}

#[test]
fn spawn_run_exit_without_servers() {
    let mut w = World::new(Config::small());
    let pid = w.spawn_user(ClusterId(0), reg_program(50), BackupMode::Quarterback, None);
    assert!(w.run_to_completion(VTime(10_000_000)));
    assert_eq!(w.exit_status(pid), Some(reg_checksum(50)));
    // Head-of-family backup existed at creation and was released on exit
    // (the Exited control reached the backup cluster).
    w.run_until(w.now() + auros_sim::Dur(10_000));
    assert!(!w.clusters[1].backups.contains_key(&pid));
}

#[test]
fn fuel_trigger_syncs_and_updates_backup_record() {
    let mut w = World::new(Config { sync_max_fuel: 2_000, ..Config::small() });
    let pid = w.spawn_user(ClusterId(0), reg_program(800), BackupMode::Quarterback, None);
    // Run partway: syncs must have refreshed the backup record.
    w.run_until(VTime(15_000));
    let record = w.clusters[1].backups.get(&pid).expect("backup record exists");
    assert!(record.sync_seq >= 1, "at least one sync applied");
    assert_eq!(record.primary_cluster, ClusterId(0));
    assert!(w.stats.total_syncs() >= 1);
    assert!(w.run_to_completion(VTime(10_000_000)));
}

#[test]
fn crash_promotes_register_only_process() {
    let run = |crash: bool| {
        let mut w = World::new(Config { clusters: 3, sync_max_fuel: 2_000, ..Config::default() });
        let pid = w.spawn_user(ClusterId(0), reg_program(1200), BackupMode::Quarterback, None);
        if crash {
            w.queue.schedule(VTime(12_000), Event::Crash { cluster: ClusterId(0) });
        }
        assert!(w.run_to_completion(VTime(50_000_000)), "must finish (crash={crash})");
        (pid, w.exit_status(pid).expect("exited"))
    };
    let (_, clean) = run(false);
    let (_, crashed) = run(true);
    assert_eq!(clean, crashed, "promotion must reproduce the identical checksum");
    assert_eq!(clean, reg_checksum(1200));
}

#[test]
fn partial_failure_without_servers() {
    let mut w = World::new(Config { sync_max_fuel: 2_000, clusters: 3, ..Config::default() });
    let victim = w.spawn_user(ClusterId(0), reg_program(1500), BackupMode::Quarterback, None);
    let bystander = w.spawn_user(ClusterId(0), reg_program(300), BackupMode::Quarterback, None);
    w.queue.schedule(VTime(10_000), Event::PartialFailure { pid: victim });
    assert!(w.run_to_completion(VTime(50_000_000)));
    assert_eq!(w.exit_status(victim), Some(reg_checksum(1500)));
    assert_eq!(w.exit_status(bystander), Some(reg_checksum(300)));
    assert!(w.clusters.iter().all(|c| c.alive), "no cluster went down");
    let promotions: u64 = w.stats.clusters.iter().map(|c| c.promotions).sum();
    assert_eq!(promotions, 1, "only the victim moved");
}

#[test]
fn promotion_resumes_mid_computation_not_from_scratch() {
    // The promoted process continues from its last sync, not from the
    // program start: its fuel-used counter (snapshotted) stays monotone.
    let mut w = World::new(Config { sync_max_fuel: 2_000, clusters: 3, ..Config::default() });
    let pid = w.spawn_user(ClusterId(0), reg_program(2_000), BackupMode::Quarterback, None);
    w.run_until(VTime(20_000));
    let record = w.clusters[1].backups.get(&pid).expect("record exists");
    let synced_fuel =
        record.image.as_any().downcast_ref::<auros_vm::Snapshot>().expect("user image").fuel_used;
    assert!(synced_fuel > 0, "the sync point is mid-run");
    w.queue.schedule(w.now(), Event::Crash { cluster: ClusterId(0) });
    assert!(w.run_to_completion(VTime(50_000_000)));
    assert_eq!(w.exit_status(pid), Some(reg_checksum(2_000)));
}

#[test]
fn exited_process_is_not_promoted_after_crash() {
    let mut w = World::new(Config { clusters: 3, ..Config::default() });
    let pid = w.spawn_user(ClusterId(0), reg_program(10), BackupMode::Quarterback, None);
    assert!(w.run_to_completion(VTime(10_000_000)));
    let done_at = w.now();
    // Let the Exited control land, then crash the old host.
    w.run_until(done_at + auros_sim::Dur(5_000));
    w.queue.schedule(w.now(), Event::Crash { cluster: ClusterId(0) });
    w.run_until(w.now() + auros_sim::Dur(50_000));
    let promotions: u64 = w.stats.clusters.iter().map(|c| c.promotions).sum();
    assert_eq!(promotions, 0, "nothing to promote");
    assert_eq!(w.exit_status(pid), Some(reg_checksum(10)));
}

#[test]
fn crash_handling_occupies_work_processors_for_the_window() {
    let mut w = World::new(Config { clusters: 3, ..Config::default() });
    let pid = w.spawn_user(ClusterId(1), reg_program(10_000), BackupMode::Quarterback, None);
    w.queue.schedule(VTime(5_000), Event::Crash { cluster: ClusterId(2) });
    assert!(w.run_to_completion(VTime(100_000_000)));
    assert_eq!(w.exit_status(pid), Some(reg_checksum(10_000)));
    // Survivors ran crash handling (the §7.10.1 high-priority processes).
    assert!(w.stats.clusters[0].crash_busy.as_ticks() > 0);
    assert!(w.stats.clusters[1].crash_busy.as_ticks() > 0);
    assert_eq!(w.stats.clusters[2].crash_busy.as_ticks(), 0, "the dead cluster does not");
}

#[test]
fn run_token_staleness_guards_double_crash_events() {
    // Scheduling a crash for an already-dead cluster is a no-op.
    let mut w = World::new(Config { clusters: 3, ..Config::default() });
    let pid = w.spawn_user(ClusterId(0), reg_program(500), BackupMode::Quarterback, None);
    w.queue.schedule(VTime(5_000), Event::Crash { cluster: ClusterId(0) });
    w.queue.schedule(VTime(6_000), Event::Crash { cluster: ClusterId(0) });
    assert!(w.run_to_completion(VTime(50_000_000)));
    assert_eq!(w.exit_status(pid), Some(reg_checksum(500)));
    assert_eq!(w.stats.crashes, 1, "one crash announced, not two");
}

#[test]
fn process_state_names_are_stable() {
    // A tiny guard against accidental enum re-ordering in sync records.
    let s = format!("{:?}", ProcessState::Runnable);
    assert_eq!(s, "Runnable");
}

#[test]
fn dispatch_marker_lifecycle() {
    // Four processes on two workers: cluster 0 runs saturated.
    let mut w = World::new(Config { clusters: 3, ..Config::default() });
    for _ in 0..4 {
        w.spawn_user(ClusterId(0), reg_program(2_000), BackupMode::Quarterback, None);
    }
    let marker = |w: &World| w.clusters[0].dispatch_at();
    while marker(&w).is_none() {
        assert!(w.step(), "the run queue outgrows the workers");
    }
    // Set where the saturated scheduler queued its Dispatch, for a
    // later tick.
    let at = marker(&w).expect("set");
    assert!(at > w.now());

    // A Dispatch from an earlier tick fires first and leaves it alone.
    w.queue.schedule(w.now(), Event::Dispatch { cluster: ClusterId(0) });
    let before = w.events_processed;
    w.run_until(VTime(at.ticks() - 1));
    assert!(w.events_processed > before, "the stale Dispatch fired");
    assert_eq!(marker(&w), Some(at), "a stale Dispatch must not clear a later tick's marker");

    // Its own tick's Dispatch clears it; a re-post sets a later one.
    w.run_until(at);
    assert!(marker(&w).is_none_or(|t| t > at), "cleared by its own tick's Dispatch");

    // A crash leaves the dead incarnation's marker in place; a restore
    // that lands before that Dispatch fires starts without one.
    let crash_at = w.now() + auros_sim::Dur(1_000);
    w.queue.schedule(crash_at, Event::Crash { cluster: ClusterId(0) });
    w.run_until(crash_at);
    let pending = marker(&w).expect("the crash found cluster 0 saturated");
    let restore_at = crash_at + auros_sim::Dur(1);
    assert!(pending > restore_at, "the restore comes before the queued Dispatch");
    w.queue.schedule(restore_at, Event::Restore { cluster: ClusterId(0) });
    w.run_until(restore_at);
    assert!(w.clusters[0].alive);
    assert_eq!(marker(&w), None, "a restored cluster has no queued Dispatch");
    // The dead incarnation's Dispatch then fires on the fresh cluster as
    // a stale event: it finds no marker and an empty run queue.
    w.run_until(pending);
    assert_eq!(marker(&w), None);
}
