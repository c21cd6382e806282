//! Crash-handling and recovery tests (§6, §7.10): a single cluster
//! failure must be transparent — every externally visible outcome equals
//! the fault-free run's.

use auros::sim::{TraceKind, TraceLog};
use auros::{programs, BackupMode, RunDigest, SystemBuilder, VTime};

const DEADLINE: VTime = VTime(400_000_000);

/// Builds, optionally crashes cluster `victim` at `at`, runs, digests.
///
/// Promotion and suppression counts come from the flight recorder's
/// typed events, cross-checked against the stats ledgers — a promotion
/// the ledger counts but the recorder never saw (or vice versa) is a
/// bug in its own right.
fn pingpong_run(crash: Option<(u64, u16)>, rounds: u64) -> (RunDigest, u64, u64) {
    let mut b = SystemBuilder::new(3);
    b.spawn(0, programs::pingpong("pp", rounds, true));
    b.spawn(1, programs::pingpong("pp", rounds, false));
    if let Some((at, victim)) = crash {
        b.crash_at(VTime(at), victim);
    }
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE), "workload survives");
    let promotions =
        sys.world.trace.count_where(|k| matches!(*k, TraceKind::PromotingBackup { .. })) as u64;
    let suppressed =
        sys.world.trace.count_where(|k| matches!(*k, TraceKind::SendSuppressed { .. })) as u64;
    let ledger_promotions: u64 = sys.world.stats.clusters.iter().map(|c| c.promotions).sum();
    assert_eq!(promotions, ledger_promotions, "recorder and ledger disagree on promotions");
    assert_eq!(
        suppressed,
        sys.world.stats.total_suppressed(),
        "recorder and ledger disagree on suppressed sends"
    );
    (sys.digest(), promotions, suppressed)
}

#[test]
fn crash_of_initiator_cluster_is_transparent() {
    let (clean, _, _) = pingpong_run(None, 120);
    for at in [3_000, 9_000, 15_000, 24_000] {
        let (crashed, promotions, _) = pingpong_run(Some((at, 0)), 120);
        assert!(promotions > 0, "crash at {at} must promote backups");
        assert_eq!(clean, crashed, "digest mismatch for crash at {at}");
    }
}

#[test]
fn crash_of_responder_cluster_is_transparent() {
    let (clean, _, _) = pingpong_run(None, 120);
    for at in [4_000, 8_000, 13_000] {
        let (crashed, promotions, _) = pingpong_run(Some((at, 1)), 120);
        assert!(promotions > 0, "crash at {at} must promote backups");
        assert_eq!(clean, crashed, "digest mismatch for crash at {at}");
    }
}

#[test]
fn crash_of_bystander_cluster_is_harmless() {
    let (clean, _, _) = pingpong_run(None, 60);
    // Cluster 2 hosts the process server; its crash must also be
    // transparent (system servers are backed up too, §7.6).
    let (crashed, _, _) = pingpong_run(Some((8_000, 2)), 60);
    assert_eq!(clean, crashed);
}

#[test]
fn duplicate_sends_are_suppressed_not_resent() {
    // Crash long enough after a sync that the primary sent messages the
    // backup will re-execute: the suppression counter must fire and the
    // digest must still match (§5.4).
    let (clean, _, _) = pingpong_run(None, 200);
    let mut saw_suppression = false;
    for at in [6_000, 10_000, 14_000, 18_000, 22_000] {
        let (crashed, _, suppressed) = pingpong_run(Some((at, 0)), 200);
        assert_eq!(clean, crashed, "crash at {at}");
        saw_suppression |= suppressed > 0;
    }
    assert!(saw_suppression, "at least one crash point must exercise suppression");
}

#[test]
fn bank_workload_survives_server_side_crash() {
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.spawn(0, programs::bank_server("bank", 128));
        b.spawn(1, programs::bank_client("bank", 128, 16, 99));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.digest()
    };
    let clean = run(None);
    for at in [5_000, 12_000, 25_000, 40_000] {
        assert_eq!(clean, run(Some(at)), "bank crash at {at}");
    }
}

#[test]
fn file_workload_survives_fileserver_crash() {
    // The file server's primary lives in cluster 0; crashing it mid-write
    // exercises the shadow-block recovery (§7.9).
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.spawn(2, programs::file_writer("/wal", 12, 256));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "writer survives fs crash");
        sys.digest()
    };
    let clean = run(None);
    for at in [4_000, 9_000, 16_000, 30_000] {
        assert_eq!(clean, run(Some(at)), "fs crash at {at}");
    }
}

#[test]
fn pipeline_survives_middle_stage_crash() {
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.spawn(0, programs::producer("p1", 60));
        b.spawn(1, programs::pipeline_stage("p1", "p2", 60));
        b.spawn(2, programs::consumer("p2", 60));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 1);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.digest()
    };
    let clean = run(None);
    for at in [6_000, 14_000, 28_000] {
        assert_eq!(clean, run(Some(at)), "pipeline crash at {at}");
    }
}

#[test]
fn forked_children_survive_crash_of_their_cluster() {
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        // A slow forker: children compute long enough to straddle the
        // crash.
        b.spawn(0, programs::forker(3, 20_000));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "family survives");
        sys.digest()
    };
    let clean = run(None);
    for at in [4_000, 10_000, 20_000] {
        assert_eq!(clean, run(Some(at)), "fork crash at {at}");
    }
}

#[test]
fn fullback_reprotects_and_survives_second_crash() {
    let run = |crashes: &[(u64, u16)]| {
        let mut b = SystemBuilder::new(4);
        b.spawn_with_mode(0, programs::pingpong("pp", 150, true), BackupMode::Fullback);
        b.spawn_with_mode(1, programs::pingpong("pp", 150, false), BackupMode::Fullback);
        for (at, victim) in crashes {
            b.crash_at(VTime(*at), *victim);
        }
        let mut sys = b.build();
        sys.world.trace = TraceLog::capture_all();
        assert!(sys.run(DEADLINE), "fullbacks survive {crashes:?}");
        sys
    };
    let clean = run(&[]).digest();
    // First crash kills cluster 0 (initiator + servers). The fullback is
    // re-protected at a new cluster, cluster 2, which also holds the
    // responder's backup; a second crash of that cluster while the pair
    // still runs must also be survivable.
    assert_eq!(clean, run(&[(8_000, 0)]).digest());
    let mut sys = run(&[(8_000, 0), (16_000, 2)]);
    assert_eq!(clean, sys.digest());
    assert_eq!(sys.world.stats.recoveries.len(), 2, "both crashes are handled");
    // Both fullbacks lost their backups in the second crash and are
    // re-protected again, on cluster 3.
    let placed: Vec<_> = sys
        .world
        .trace
        .snapshot()
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceKind::BackupPlaced { cluster, .. } => Some((e.at, cluster)),
            _ => None,
        })
        .collect();
    assert_eq!(placed.len(), 3, "{placed:?}");
    assert!(placed[1..].iter().all(|(at, c)| *at > VTime(16_000) && *c == 3), "{placed:?}");
}

#[test]
fn halfback_gets_new_backup_when_cluster_returns() {
    let run = |plan: &[(u64, u16, bool)]| {
        // plan: (time, cluster, is_restore)
        let mut b = SystemBuilder::new(3);
        b.spawn_with_mode(0, programs::pingpong("pp", 200, true), BackupMode::Halfback);
        b.spawn_with_mode(1, programs::pingpong("pp", 200, false), BackupMode::Halfback);
        for (at, cluster, restore) in plan {
            if *restore {
                b.restore_at(VTime(*at), *cluster);
            } else {
                b.crash_at(VTime(*at), *cluster);
            }
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.digest()
    };
    let clean = run(&[]);
    let crashed = run(&[(8_000, 0, false)]);
    let restored = run(&[(8_000, 0, false), (30_000, 0, true)]);
    assert_eq!(clean, crashed);
    assert_eq!(clean, restored);
}

#[test]
fn restore_reprotects_halfbacks_for_a_second_crash() {
    // crash c0 → restore c0 → crash c1. Only survivable because the
    // halfbacks got new backups at the restored cluster (§7.3).
    let mut b = SystemBuilder::new(3);
    b.spawn_with_mode(0, programs::pingpong("pp", 400, true), BackupMode::Halfback);
    b.spawn_with_mode(1, programs::pingpong("pp", 400, false), BackupMode::Halfback);
    b.crash_at(VTime(8_000), 0);
    b.restore_at(VTime(40_000), 0);
    b.crash_at(VTime(90_000), 1);
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "double crash with restoration in between");

    let mut clean_b = SystemBuilder::new(3);
    clean_b.spawn_with_mode(0, programs::pingpong("pp", 400, true), BackupMode::Halfback);
    clean_b.spawn_with_mode(1, programs::pingpong("pp", 400, false), BackupMode::Halfback);
    let mut clean = clean_b.build();
    assert!(clean.run(DEADLINE));
    assert_eq!(clean.digest(), sys.digest());
}

#[test]
fn terminal_session_survives_tty_cluster_crash() {
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.terminals(1); // tty server in cluster 0, backup in 1
        b.spawn(2, programs::tty_session("tty:0", 3));
        b.type_at(VTime(30_000), 0, b"one\n");
        b.type_at(VTime(80_000), 0, b"two\n");
        b.type_at(VTime(130_000), 0, b"three\n");
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "session survives");
        sys.digest()
    };
    let clean = run(None);
    for at in [50_000, 100_000] {
        assert_eq!(clean, run(Some(at)), "tty crash at {at}");
    }
}

#[test]
fn alarm_survives_procserver_crash() {
    // The alarm lives in the process server's state; crashing its
    // cluster mid-countdown must still deliver the signal (§7.5.2).
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        // Process server lives in cluster 2 (last).
        b.spawn(0, programs::alarm_waiter(60_000));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 2);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "alarm still fires");
        sys.exit_of(0)
    };
    assert_eq!(run(None), Some(1));
    assert_eq!(run(Some(20_000)), Some(1));
}

#[test]
fn unprotected_quarterback_dies_with_second_crash_of_its_host() {
    // After its first promotion a quarterback runs unprotected (§7.3):
    // a second crash of its new host kills it for good. This is the
    // *expected* behaviour, not a failure of the system.
    let mut b = SystemBuilder::new(3);
    b.spawn_with_mode(0, programs::pingpong("pp", 4000, true), BackupMode::Quarterback);
    b.spawn_with_mode(2, programs::pingpong("pp", 4000, false), BackupMode::Quarterback);
    b.crash_at(VTime(8_000), 0); // promote initiator onto cluster 1
    b.crash_at(VTime(30_000), 1); // kill the promoted, unprotected copy
    let mut sys = b.build();
    let done = sys.run(VTime(2_000_000));
    assert!(!done, "the workload cannot complete");
    assert!(sys.exit_of(0).is_none(), "the initiator died unprotected");
}

#[test]
fn crash_handling_pauses_then_resumes_unaffected_work() {
    // §8.4: processes unaffected by the crash resume before everything
    // is rebuilt; here we just assert they complete and that crash
    // handling consumed work-processor time on survivors.
    let mut b = SystemBuilder::new(3);
    b.spawn(1, programs::compute_loop(2_000, 4));
    b.crash_at(VTime(10_000), 2);
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE));
    let crash_busy: u64 = sys.world.stats.clusters.iter().map(|c| c.crash_busy.as_ticks()).sum();
    assert!(crash_busy > 0, "survivors ran crash-handling processes");
    // The typed event stream shows the §7.10.1 shape: detection of the
    // right victim, handling on the survivors, and dispatches of the
    // unaffected process *after* handling completed (resumption).
    let events = sys.world.trace.snapshot();
    let detected = events
        .iter()
        .position(|e| matches!(e.kind, TraceKind::CrashDetected { dead: 2 }))
        .expect("crash of c2 detected");
    let begun = events
        .iter()
        .position(|e| matches!(e.kind, TraceKind::CrashHandlingBegin { dead: 2, .. }))
        .expect("crash handling began");
    let done = events
        .iter()
        .rposition(|e| matches!(e.kind, TraceKind::CrashHandlingDone { dead: 2 }))
        .expect("crash handling completed");
    assert!(detected <= begun && begun < done, "detect -> begin -> done, in order");
    assert!(
        events[done..].iter().any(|e| matches!(e.kind, TraceKind::Dispatched { .. })),
        "unaffected work resumed after crash handling"
    );
}

#[test]
fn recovery_is_transparent_under_memory_pressure() {
    // Eviction + demand paging + crash: the §7.6 paging path and the
    // §7.10.2 rollforward must compose.
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().resident_page_limit = Some(4);
        b.config_mut().sync_max_fuel = 4_000;
        b.spawn(0, programs::compute_loop(60, 10));
        b.spawn(1, programs::bank_server("mp", 32));
        b.spawn(2, programs::bank_client("mp", 32, 8, 3));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "paging workload survives");
        sys.digest()
    };
    let clean = run(None);
    for at in [10_000, 25_000, 50_000] {
        assert_eq!(clean, run(Some(at)), "crash at {at} under paging");
    }
}

#[test]
fn partial_failure_promotes_only_the_victim() {
    // §10 extension: the cluster survives; a colocated process keeps
    // running in place while the victim's backup takes over elsewhere.
    let run = |fail: bool| {
        let mut b = SystemBuilder::new(3);
        let victim = b.spawn(0, programs::pingpong("pf", 150, true));
        let _peer = b.spawn(1, programs::pingpong("pf", 150, false));
        let bystander = b.spawn(0, programs::compute_loop(200, 3));
        if fail {
            b.fail_process_at(VTime(10_000), victim);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "all processes finish");
        assert!(sys.world.clusters.iter().all(|c| c.alive), "no cluster went down");
        let _ = bystander;
        sys.digest()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn partial_failure_digest_matches_across_offsets() {
    let run = |fail_at: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        let s = b.spawn(0, programs::bank_server("pfb", 96));
        b.spawn(1, programs::bank_client("pfb", 96, 8, 11));
        if let Some(at) = fail_at {
            b.fail_process_at(VTime(at), s);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.digest()
    };
    let clean = run(None);
    for at in [5_000, 15_000, 30_000] {
        assert_eq!(clean, run(Some(at)), "partial failure at {at}");
    }
}

#[test]
fn fullback_partial_failure_reprotects() {
    let mut b = SystemBuilder::new(4);
    let v = b.spawn_with_mode(0, programs::pingpong("pff", 300, true), BackupMode::Fullback);
    b.spawn_with_mode(1, programs::pingpong("pff", 300, false), BackupMode::Fullback);
    // Fail the initiator twice: first in cluster 0, then (after
    // promotion to cluster 1 and re-protection) again.
    b.fail_process_at(VTime(8_000), v);
    b.fail_process_at(VTime(40_000), v);
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "two partial failures of the same fullback");
    assert!(sys.exit_of(v).is_some());
}

#[test]
fn nondeterministic_events_stay_consistent_across_crashes() {
    // §10 extension: Sys::Rand results are piggybacked on outgoing
    // messages. After ANY crash, sender and receiver must still agree on
    // the values (escaped ones replay; un-escaped ones are re-decided,
    // which is invisible because nobody saw them).
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        let s = b.spawn(0, programs::rand_streamer("nd", 120));
        let c = b.spawn(1, programs::consumer("nd", 120));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "nondet stream survives");
        (sys.exit_of(s), sys.exit_of(c))
    };
    let (clean_s, clean_c) = run(None);
    assert_eq!(clean_s, clean_c, "fault-free: sums agree");
    for at in [5_000, 12_000, 25_000, 50_000] {
        let (s, c) = run(Some(at));
        assert_eq!(s, c, "crash at {at}: sender and receiver must agree");
    }
}

#[test]
fn escaped_nondet_values_replay_identically() {
    // Force frequent syncs so most values escape before the crash; then
    // the crashed run's stream equals the fault-free run's bit-for-bit
    // (every consumed value was logged at the sender's backup).
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().sync_max_reads = 4;
        let s = b.spawn(0, programs::rand_streamer("ndr", 60));
        let c = b.spawn(1, programs::consumer("ndr", 60));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        let _ = s;
        sys.exit_of(c)
    };
    // Determinism of the fault-free run itself.
    assert_eq!(run(None), run(None));
    // Sender/receiver agreement is asserted by the previous test; here
    // just confirm the crashed run is reproducible too.
    assert_eq!(run(Some(15_000)), run(Some(15_000)));
}

#[test]
fn sync_of_process_blocked_in_open_survives_crash() {
    // The child blocks in `open` (its request escaped); the parent's
    // fuel-triggered sync forces the child's first sync, which must
    // record the pending call. A crash then promotes the child mid-open;
    // the late rendezvous partner finally arrives and the promoted child
    // completes the call from its saved queue — without re-sending the
    // open request (§5.4 + §7.8 pending-call machinery).
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().sync_max_fuel = 8_000;
        let fam = b.spawn(0, programs::fork_blocked_opener("late-rv", 40_000));
        b.spawn(1, programs::delayed_producer("late-rv", 120_000));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "family + late producer complete");
        let parent_pid = sys.pids[fam];
        let child = auros::bus::proto::derive_child_pid(parent_pid, 0);
        (sys.exit_of(fam), sys.world.exit_status(child))
    };
    let clean = run(None);
    assert_eq!(clean, (Some(7), Some(9991)));
    // Crash after the parent's sync (~>10k) but before the producer
    // opens (~<120k ticks of compute ≈ 120k+ virtual ticks).
    for at in [30_000, 60_000, 90_000] {
        assert_eq!(run(Some(at)), clean, "crash at {at} while child blocked in open");
    }
}

#[test]
fn sync_of_process_blocked_in_read_survives_crash() {
    // Same shape, but the child blocks in `read` — the rewound-trap
    // family: the snapshot's pc sits on the read trap and the call
    // simply re-executes after promotion.
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().sync_max_fuel = 8_000;
        let c = b.spawn(0, programs::consumer("slow-stream", 3));
        b.spawn(1, programs::delayed_producer("slow-stream", 150_000));
        // The producer sends one value; give the consumer just one to
        // read by... the consumer wants 3; feed the rest from a second
        // producer after recovery.
        b.spawn(2, programs::producer("aux", 1));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        // The consumer cannot finish (only 1 of 3 values arrive): run to
        // a fixed horizon and compare in-flight state by digest.
        sys.run(VTime(600_000));
        let _ = c;
        sys.digest()
    };
    let clean = run(None);
    for at in [40_000, 100_000] {
        assert_eq!(run(Some(at)), clean, "crash at {at} while consumer blocked in read");
    }
}

#[test]
fn which_replays_cross_channel_arrival_order() {
    // §7.5.1: messages get arrival sequence numbers so `which` can be
    // replicated by the backup. The selector's checksum is order-
    // sensitive (checksum = 2*checksum + value + fd), so any divergence
    // in the replayed cross-channel order shows up immediately.
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().sync_max_reads = 16;
        let sel = b.spawn(0, programs::selector("wx", "wy", 80));
        b.spawn(1, programs::producer("wx", 40));
        b.spawn(2, programs::producer("wy", 40));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "selector finishes");
        sys.exit_of(sel)
    };
    let clean = run(None);
    assert!(clean.is_some());
    for at in [5_000, 9_000, 14_000, 20_000] {
        assert_eq!(run(Some(at)), clean, "which-order diverged for crash at {at}");
    }
}

#[test]
fn sequential_failures_with_restores_soak() {
    // A long OLTP workload rides out an alternating sequence of cluster
    // crashes and restorations — each failure single at a time, per the
    // §3.1 fault model, with halfback re-protection in between.
    let run = |faults: bool| {
        let mut b = SystemBuilder::new(3);
        b.default_mode(BackupMode::Halfback);
        b.spawn(0, programs::bank_server_multi("soak", 2, 600));
        b.spawn(1, programs::bank_client_at("soak0", 300, 16, 0, 21));
        b.spawn(2, programs::bank_client_at("soak1", 300, 16, 16, 22));
        if faults {
            b.crash_at(VTime(15_000), 0);
            b.restore_at(VTime(60_000), 0);
            b.crash_at(VTime(110_000), 1);
            b.restore_at(VTime(160_000), 1);
            b.crash_at(VTime(210_000), 2);
            b.restore_at(VTime(260_000), 2);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "soak workload completes (faults={faults})");
        sys.digest()
    };
    assert_eq!(run(false), run(true), "three crash/restore cycles, zero visible effect");
}

#[test]
fn held_frames_are_not_double_delivered_after_promotion() {
    // Regression test: a frame held on a survivor's outgoing queue
    // during crash handling has its primary target redirected to the
    // promoted cluster; its stale DestBackup target for the same end
    // must be dropped, or the promotion fallback delivers the message
    // twice. Caught originally by a bank client colocated with the
    // server's backup sending exactly during the crash window.
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(4);
        b.spawn(0, programs::bank_server_multi("hd", 3, 360));
        b.spawn(1, programs::bank_client_at("hd0", 120, 32, 0, 1));
        b.spawn(2, programs::bank_client_at("hd1", 120, 32, 32, 2));
        b.spawn(3, programs::bank_client_at("hd2", 120, 32, 64, 3));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.digest()
    };
    let clean = run(None);
    // Sweep densely across the sync window where the original bug bit.
    for at in (42_000..50_000).step_by(1_000) {
        assert_eq!(clean, run(Some(at)), "double delivery at crash offset {at}");
    }
}

#[test]
fn grandchildren_survive_family_cluster_crash() {
    // §7.7: "All members of a family must have their backups in a single
    // cluster." A crash of the family's home replays parent, child, and
    // grandchild — including the child's own replayed fork.
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().sync_max_fuel = 6_000;
        let fam = b.spawn(0, programs::nested_forker(25_000));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "family completes (crash={crash:?})");
        let parent = sys.pids[fam];
        let child = auros::bus::proto::derive_child_pid(parent, 0);
        let grandchild = auros::bus::proto::derive_child_pid(child, 0);
        (sys.exit_of(fam), sys.world.exit_status(child), sys.world.exit_status(grandchild))
    };
    let clean = run(None);
    assert_eq!(clean, (Some(1), Some(2), Some(3)));
    for at in [4_000, 10_000, 18_000, 30_000] {
        assert_eq!(clean, run(Some(at)), "family crash at {at}");
    }
}

#[test]
fn client_latency_spike_during_recovery_is_bounded() {
    // §3.3: the delay a correspondent observes during its peer's
    // recovery is one bounded spike, not a lasting slowdown.
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.spawn(0, programs::bank_server("lat", 200));
        let client = b.spawn(1, programs::bank_client("lat", 200, 16, 3));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.wait_stats(client)
    };
    let (total_c, waits_c, max_clean) = run(None);
    let (total_x, waits_x, max_crash) = run(Some(10_000));
    assert_eq!(waits_c, waits_x, "same number of round trips");
    assert!(
        max_crash > max_clean,
        "the recovery wait is the longest single wait: {max_crash} vs {max_clean}"
    );
    // The spike is bounded by detection + crash handling + replay —
    // well under 20k ticks at default settings.
    assert!(max_crash < 20_000, "recovery delay too long: {max_crash}");
    // Amortized over the run, the slowdown stays small.
    let avg_c = total_c / waits_c.max(1);
    let avg_x = total_x / waits_x.max(1);
    assert!(avg_x < avg_c * 2, "average latency must not blow up: {avg_x} vs {avg_c}");
}

#[test]
fn fork_under_memory_pressure_faults_pages_first() {
    // `fork` needs the parent's whole address space materialized; with a
    // residency limit the kernel demand-pages the rest in before copying
    // (the rewound-trap path), and the family still survives a crash.
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().resident_page_limit = Some(3);
        b.config_mut().sync_max_fuel = 5_000;
        let fam = b.spawn(0, programs::forker(2, 30_000));
        // Warm several pages before forking happens via compute_loop in
        // a sibling to create paging traffic.
        b.spawn(1, programs::compute_loop(50, 8));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "family completes under paging pressure");
        let parent = sys.pids[fam];
        let kids: Vec<_> = (0..2)
            .map(|i| sys.world.exit_status(auros::bus::proto::derive_child_pid(parent, i)))
            .collect();
        (sys.exit_of(fam), kids)
    };
    let clean = run(None);
    assert_eq!(clean.0, Some(2));
    for at in [8_000, 20_000] {
        assert_eq!(clean, run(Some(at)), "fork+eviction crash at {at}");
    }
}

// ---------------------------------------------------------------------
// Dual-bus failover (§7.1)
// ---------------------------------------------------------------------

#[test]
fn bus_failover_mid_frame_is_transparent() {
    // The active bus dies while frames are in flight; the standby takes
    // over and the in-flight frames are retransmitted. No frame may be
    // lost or doubled: the run must be externally indistinguishable
    // from the fault-free twin.
    let run = |fail_at: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.spawn(0, programs::pingpong("bus", 150, true));
        b.spawn(1, programs::pingpong("bus", 150, false));
        if let Some(at) = fail_at {
            b.bus_fail_at(VTime(at));
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "workload survives bus failure at {fail_at:?}");
        let (failovers, retransmitted) =
            (sys.world.stats.bus_failovers, sys.world.stats.frames_retransmitted);
        (sys.digest(), failovers, retransmitted)
    };
    let (clean, failovers, _) = run(None);
    assert_eq!(failovers, 0);
    let mut retransmitted_somewhere = false;
    for at in [2_000, 5_000, 9_000, 14_000, 21_000] {
        let (digest, failovers, retransmitted) = run(Some(at));
        assert_eq!(digest, clean, "bus failure at {at} must be transparent");
        assert_eq!(failovers, 1, "exactly one failover at {at}");
        retransmitted_somewhere |= retransmitted > 0;
    }
    assert!(retransmitted_somewhere, "at least one failure point must catch a frame mid-flight");
}

// ---------------------------------------------------------------------
// Disk mirror failure (§7.9)
// ---------------------------------------------------------------------

#[test]
fn disk_half_failure_is_transparent() {
    // One mirror of the file-system disk pair fails mid-workload; the
    // survivor carries on and every file read back is intact.
    let run = |fail_at: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.spawn(0, programs::file_writer("/half", 12, 256));
        if let Some(at) = fail_at {
            b.disk_half_fail_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "workload survives mirror failure at {fail_at:?}");
        let faults = sys.world.stats.disk_half_faults;
        (sys.digest(), faults)
    };
    let (clean, faults) = run(None);
    assert_eq!(faults, 0);
    assert!(!clean.files.is_empty(), "the workload writes files");
    for at in [3_000, 10_000, 20_000] {
        let (digest, faults) = run(Some(at));
        assert_eq!(digest, clean, "mirror failure at {at} must be transparent");
        assert_eq!(faults, 1);
    }
}

// ---------------------------------------------------------------------
// Sequenced double failures (§7.10.2)
// ---------------------------------------------------------------------

#[test]
fn second_crash_of_the_fresh_backup_host_is_survivable() {
    // Crash A promotes the fullback and re-creates its backup at a new
    // cluster X. A later crash of X destroys the *freshly created*
    // backup; §7.10.2 requires the system to re-protect once more and
    // still finish indistinguishably.
    let build = |crashes: &[(u64, u16)]| {
        let mut b = SystemBuilder::new(4);
        b.spawn_with_mode(0, programs::pingpong("pp", 400, true), BackupMode::Fullback);
        b.spawn_with_mode(2, programs::pingpong("pp", 400, false), BackupMode::Fullback);
        for (at, victim) in crashes {
            b.crash_at(VTime(*at), *victim);
        }
        b.build()
    };
    let mut clean = build(&[]);
    assert!(clean.run(DEADLINE));

    // Probe run: find where re-protection placed the initiator's new
    // backup after the first crash (runs are deterministic, so the
    // probe predicts the real run exactly).
    let mut probe = build(&[(8_000, 0)]);
    probe.run_until(VTime(25_000));
    let ping = probe.pids[0];
    let fresh_host = probe
        .world
        .clusters
        .iter()
        .find(|c| c.alive && c.backups.contains_key(&ping))
        .map(|c| c.id.0)
        .expect("the promoted fullback was re-protected");
    assert_ne!(fresh_host, 1, "the new backup cannot sit with the promoted primary");

    let mut sys = build(&[(8_000, 0), (60_000, fresh_host)]);
    assert!(sys.run(DEADLINE), "double crash with re-protection in between");
    assert_eq!(clean.digest(), sys.digest());
    let survival = auros::oracle::check_survival(&sys);
    assert!(survival.ok(), "survivors unsound: {:?}", survival.violations);
    assert_eq!(sys.world.stats.recoveries.len(), 2, "two crash episodes recorded");
}

#[test]
fn second_crash_of_the_reprotected_primary_resends_nothing() {
    // Crash A promotes the fullback writer on cluster 3 and re-protects
    // it on cluster 0 (§7.3). From then on every write must also reach
    // the new backup, which counts it; a later crash of cluster 3 then
    // suppresses exactly the writes already sent (§5.4) and the file
    // holds each chunk once. With every read a sync trigger disabled,
    // the whole post-promotion stream rides on those counts.
    let build = |crashes: &[(u64, u16)]| {
        let mut b = SystemBuilder::new(5);
        b.config_mut().sync_max_reads = 0;
        b.spawn_with_mode(2, programs::file_writer("/f", 30, 64), BackupMode::Fullback);
        for (at, victim) in crashes {
            b.crash_at(VTime(*at), *victim);
        }
        b.build()
    };
    let mut clean = build(&[]);
    assert!(clean.run(DEADLINE));

    // Probe run: at the second crash the writer runs on cluster 3 with
    // its fresh backup on cluster 0.
    let mut probe = build(&[(500, 2)]);
    probe.run_until(VTime(8_526));
    let writer = probe.pids[0];
    assert!(probe.world.clusters[3].procs.get(&writer).is_some_and(|p| !p.is_dead()));
    assert!(probe.world.clusters[0].backups.contains_key(&writer), "re-protected on c0");

    let mut sys = build(&[(500, 2), (8_526, 3)]);
    assert!(sys.run(DEADLINE), "double crash with re-protection in between");
    let file_len = |s: &mut auros::System| s.file_contents("/f").map(|f| f.len());
    assert_eq!(file_len(&mut clean), file_len(&mut sys), "each chunk written once");
    assert_eq!(clean.digest(), sys.digest());
}

#[test]
fn rapid_second_crash_before_reprotection_is_reported() {
    // The second crash lands on the fullback's backup host *before*
    // re-protection completes: both copies are gone, which is outside
    // the fault model. The run must report it — the workload never
    // completes — rather than finish with corrupt output.
    let mut b = SystemBuilder::new(4);
    b.spawn_with_mode(0, programs::pingpong("pp", 150, true), BackupMode::Fullback);
    b.spawn_with_mode(2, programs::pingpong("pp", 150, false), BackupMode::Fullback);
    b.crash_at(VTime(8_000), 0); // initiator's primary
    b.crash_at(VTime(8_400), 1); // its backup host, mid-crash-handling
    let mut sys = b.build();
    let done = sys.run(VTime(5_000_000));
    assert!(!done, "the destroyed pair is reported, not papered over");
    assert!(sys.exit_of(0).is_none(), "the initiator never finishes");
}
