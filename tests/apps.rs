//! The application library end to end: traffic-DSL-driven apps held
//! against their executable models, under fault plans that kill every
//! pipeline stage, and the dead-letter conservation oracle proving that
//! quarantine-with-diversion loses nothing and duplicates nothing.

use auros::apps::{AppKind, AppWorkload};
use auros::chaos::{run_sweep, ChaosConfig, Scenario};
use auros::{SystemBuilder, VTime};
use proptest::prelude::*;

const CLUSTERS: u16 = 4;
const DEADLINE: VTime = VTime(5_000_000);

fn build(app: &AppWorkload, faults: impl FnOnce(&mut SystemBuilder)) -> auros::System {
    let mut b = SystemBuilder::new(CLUSTERS);
    app.install(&mut b);
    faults(&mut b);
    b.build()
}

/// Runs `app` under `faults`; asserts completion, the model check, and
/// conservation.
fn run_checked(app: &AppWorkload, faults: impl FnOnce(&mut SystemBuilder)) -> auros::System {
    let mut sys = build(app, faults);
    assert!(sys.run(DEADLINE), "{:?} workload must complete", app.kind);
    let violations = app.check(&mut sys);
    assert!(violations.is_empty(), "{:?} model violations: {violations:?}", app.kind);
    let conservation = app.check_conservation(&mut sys);
    assert!(conservation.is_empty(), "{:?} conservation: {conservation:?}", app.kind);
    sys
}

// ---------------------------------------------------------------------
// Fault-free goldens: every app matches its model exactly.
// ---------------------------------------------------------------------

#[test]
fn kv_fault_free_matches_model() {
    run_checked(&AppWorkload::kv(0xA5), |_| {});
}

#[test]
fn chat_fault_free_matches_model() {
    run_checked(&AppWorkload::chat(0xA5), |_| {});
}

#[test]
fn etl_fault_free_matches_model() {
    let mut sys = run_checked(&AppWorkload::etl(0xA5), |_| {});
    assert_eq!(sys.world.dead_letter_count(), 0);
    let out = sys.file_contents("/etl_out").expect("committed output exists");
    assert!(!out.is_empty() && out.len() % 8 == 0);
}

// ---------------------------------------------------------------------
// No acked write lost / zero staleness across crash plans.
// ---------------------------------------------------------------------

#[test]
fn kv_survives_a_cluster_crash_with_no_acked_write_lost() {
    // Crash a client's home cluster mid-traffic: the promoted client
    // replays, and the durable state + ack ledgers still match the
    // model bit for bit.
    for cluster in [0u16, 2] {
        run_checked(&AppWorkload::kv(0xB7), |b| {
            b.crash_at(VTime(6_500), cluster);
        });
    }
}

#[test]
fn kv_survives_a_poisoned_reply_via_quarantine() {
    // Poison a client's reply stream: quarantine defuses the message in
    // place (no diversion for KV), the reincarnation re-consumes it,
    // and the run still matches the model exactly.
    let sys = run_checked(&AppWorkload::kv(0xB8), |b| {
        b.poison_at(VTime(3_000), 1);
    });
    assert_eq!(sys.world.stats.quarantined_poisons, 1);
    assert_eq!(sys.world.stats.diverted_records, 0, "KV must not divert");
}

#[test]
fn chat_zero_staleness_survives_hub_cluster_crash() {
    run_checked(&AppWorkload::chat(0xB9), |b| {
        b.crash_at(VTime(5_500), 0);
    });
}

#[test]
fn chat_zero_staleness_survives_poisoned_subscriber() {
    let app = AppWorkload::chat(0xBA);
    let subs_at = app.poisonable_spawns()[1];
    let sys = run_checked(&app, |b| {
        b.poison_at(VTime(3_500), subs_at);
    });
    assert_eq!(sys.world.stats.quarantined_poisons, 1);
}

// ---------------------------------------------------------------------
// Dead-letter conservation: kill each ETL stage mid-flight.
// ---------------------------------------------------------------------

#[test]
fn etl_survives_partial_failure_of_each_stage_exactly() {
    // A crashed-and-promoted stage replays exactly: committed output is
    // byte-identical to fault-free, dead letters stay empty.
    let clean = run_checked(&AppWorkload::etl(0xC1), |_| {}).file_contents("/etl_out");
    for stage in 0..3 {
        let mut sys = run_checked(&AppWorkload::etl(0xC1), |b| {
            b.fail_process_at(VTime(5_200), stage);
        });
        assert_eq!(sys.world.dead_letter_count(), 0);
        assert_eq!(
            sys.file_contents("/etl_out"),
            clean,
            "stage {stage} replay must commit identical output"
        );
    }
}

#[test]
fn etl_survives_cluster_crash_of_each_stage_exactly() {
    let clean = run_checked(&AppWorkload::etl(0xC2), |_| {}).file_contents("/etl_out");
    for cluster in 0..3u16 {
        let mut sys = run_checked(&AppWorkload::etl(0xC2), |b| {
            b.crash_at(VTime(6_000), cluster);
        });
        assert_eq!(sys.file_contents("/etl_out"), clean);
    }
}

#[test]
fn etl_diverts_a_poisoned_record_and_conserves_the_stream() {
    // Poison the worker: after three kills the record is quarantined
    // *and diverted* — purged from the saved queues so the pipeline
    // flows around it. The committed output then misses exactly the
    // diverted records, which is what check_conservation (inside
    // run_checked) proves.
    for (stage, label) in [(1usize, "worker"), (2usize, "logger")] {
        let app = AppWorkload::etl(0xC3);
        let mut sys = build(&app, |b| {
            b.poison_at(VTime(3_200), stage);
        });
        assert!(sys.run(DEADLINE), "{label}: diverted pipeline must still complete");
        // The full model no longer matches — the diverted record is
        // *supposed* to be missing — so the conservation oracle is the
        // arbiter here.
        let conservation = app.check_conservation(&mut sys);
        assert!(conservation.is_empty(), "{label}: conservation violated: {conservation:?}");
        let stats = &sys.world.stats;
        assert_eq!(stats.quarantined_poisons, 1, "{label}: poison must be quarantined");
        assert_eq!(stats.diverted_records, 1, "{label}: quarantine must divert");
        let letters = sys.world.dead_letter_records();
        assert_eq!(letters.len(), 1);
        let (_, dl) = letters[0];
        assert!(dl.diverted);
        assert_eq!(dl.victim, sys.pids[stage]);
        // The committed output really is short by exactly one record.
        let out = sys.file_contents("/etl_out").expect("output exists");
        let app = AppWorkload::etl(0xC3);
        let expected = app.trace.total_ops() as usize - 1;
        assert_eq!(out.len() / 8, expected, "{label}: one record diverted out of the stream");
    }
}

// ---------------------------------------------------------------------
// The degradation matrix: every app under the two canonical fault plans
// and fault-free, at one fixed seed. Faults pay in latency, never in
// correctness (§3.3, §6).
// ---------------------------------------------------------------------

const MATRIX_SEED: u64 = 0xBE57;
const APPS: [AppKind; 3] = [AppKind::KvStore, AppKind::ChatFanout, AppKind::EtlPipeline];

/// Frame-level faults timed inside every app's traffic window, so each
/// lands on a live flow.
fn transient_mix(b: &mut SystemBuilder) {
    b.drop_frame_at(VTime(2_500));
    b.corrupt_frame_at(VTime(3_500));
    b.duplicate_frame_at(VTime(4_500));
    b.drop_frame_at(VTime(6_000));
}

/// Two cluster crashes in sequence; the second spares the first
/// victim's dual-ported partner, which would be outside the fault model.
fn cascade_failover(b: &mut SystemBuilder) {
    b.crash_at(VTime(4_000), 0);
    b.crash_at(VTime(11_000), 2);
}

#[test]
fn matrix_fault_free() {
    for kind in APPS {
        run_checked(&AppWorkload::new(kind, MATRIX_SEED), |_| {});
    }
}

#[test]
fn matrix_transient_mix() {
    for kind in APPS {
        run_checked(&AppWorkload::new(kind, MATRIX_SEED), transient_mix);
    }
}

#[test]
fn matrix_cascade_failover() {
    for kind in APPS {
        run_checked(&AppWorkload::new(kind, MATRIX_SEED), cascade_failover);
    }
}

// ---------------------------------------------------------------------
// Determinism properties: the DSL and the models are pure.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn same_seed_same_arrival_stream_and_app_digests(seed in 0u64..1_000_000) {
        for kind in [AppKind::KvStore, AppKind::ChatFanout, AppKind::EtlPipeline] {
            let a = AppWorkload::new(kind, seed);
            let b = AppWorkload::new(kind, seed);
            prop_assert_eq!(a.trace.stream_bytes(), b.trace.stream_bytes());
            prop_assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
            let (ma, mb) = (a.model(), b.model());
            prop_assert_eq!(ma.exits, mb.exits);
            prop_assert_eq!(ma.files, mb.files);
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams(seed in 0u64..1_000_000) {
        for kind in [AppKind::KvStore, AppKind::ChatFanout, AppKind::EtlPipeline] {
            let a = AppWorkload::new(kind, seed);
            let b = AppWorkload::new(kind, seed + 1);
            prop_assert_ne!(a.trace.stream_bytes(), b.trace.stream_bytes());
        }
    }
}

// ---------------------------------------------------------------------
// The chaos sweep over every app scenario.
// ---------------------------------------------------------------------

#[test]
fn apps_smoke_chaos_sweep_over_every_scenario() {
    for scenario in [Scenario::KvStore, Scenario::ChatFanout, Scenario::EtlPipeline] {
        let cfg = ChaosConfig { seed: 0xA42_0004, plans: 12, scenario, ..ChaosConfig::default() };
        let report = run_sweep(&cfg);
        assert!(report.failures.is_empty(), "{scenario:?} sweep failed:\n{}", report.summary());
        assert!(report.survived() > 0, "{scenario:?}: no plan survived");
    }
}
