//! Experiments E1–E9 (see `DESIGN.md` §3 for the index).
//!
//! Every function is deterministic: identical binaries print identical
//! tables, so `EXPERIMENTS.md` can quote them verbatim.

use auros::kernel::config::FtStrategy;
use auros::kernel::ServerLogic;
use auros::{programs, BackupMode, System, SystemBuilder, VTime};
use auros_baseline as baseline;

use crate::table::Table;

const DEADLINE: VTime = VTime(4_000_000_000);

fn run(mut sys: System) -> System {
    assert!(sys.run(DEADLINE), "experiment workload must complete");
    sys
}

/// E1 (§8.1): three-way delivery is transmitted once over the bus; the
/// two backup copies are absorbed by the executive processor.
pub fn e1_delivery() -> Table {
    let mut t = Table::new(
        "E1 — §8.1 multiple message handling (per-message costs, FT on/off)",
        &["rounds", "ft", "bus_frames", "bus_bytes", "deliveries", "exec_busy", "work_busy"],
    );
    let mut ratios = Vec::new();
    for rounds in [50u64, 200, 800] {
        let mut frames = [0u64; 2];
        let mut deliveries = [0u64; 2];
        for (i, ft) in [true, false].into_iter().enumerate() {
            let mut b = SystemBuilder::new(2);
            if !ft {
                b.without_fault_tolerance();
            }
            b.spawn(0, programs::pingpong("e1", rounds, true));
            b.spawn(1, programs::pingpong("e1", rounds, false));
            let sys = run(b.build());
            let s = &sys.world.stats;
            frames[i] = s.bus_frames;
            deliveries[i] = s.clusters.iter().map(|c| c.deliveries).sum();
            t.row(vec![
                rounds.to_string(),
                ft.to_string(),
                s.bus_frames.to_string(),
                s.bus_bytes.to_string(),
                deliveries[i].to_string(),
                s.total_exec_busy().as_ticks().to_string(),
                s.total_work_busy().as_ticks().to_string(),
            ]);
        }
        ratios.push(deliveries[0] as f64 / deliveries[1].max(1) as f64);
    }
    t.conclude(format!(
        "one bus transmission per message in both modes; FT multiplies *deliveries* \
         (executive work) by ~{:.1}x while work processors are untouched",
        ratios.iter().sum::<f64>() / ratios.len() as f64
    ));
    t
}

/// E2 (§8.3): the primary is delayed only for enqueue time at sync; cost
/// scales with dirty pages and is tunable via the sync thresholds.
pub fn e2_sync_cost() -> Table {
    let mut t = Table::new(
        "E2 — §8.3 synchronization cost (dirty pages x sync cadence)",
        &["pages", "sync_max_fuel", "syncs", "pages_flushed", "flushed/sync", "work_overhead_%"],
    );
    for pages in [2u64, 8, 32] {
        // The no-FT reference for this page count.
        let reference = {
            let mut b = SystemBuilder::new(2);
            b.without_fault_tolerance();
            b.spawn(0, programs::compute_loop(120, pages));
            run(b.build()).world.stats.total_work_busy().as_ticks()
        };
        for fuel in [2_000u64, 10_000, 50_000] {
            let mut b = SystemBuilder::new(2);
            b.config_mut().sync_max_fuel = fuel;
            b.spawn(0, programs::compute_loop(120, pages));
            let sys = run(b.build());
            let s = &sys.world.stats;
            let syncs = s.total_syncs();
            let flushed: u64 = s.clusters.iter().map(|c| c.pages_flushed).sum();
            let work = s.total_work_busy().as_ticks();
            t.row(vec![
                pages.to_string(),
                fuel.to_string(),
                syncs.to_string(),
                flushed.to_string(),
                format!("{:.1}", flushed as f64 / syncs.max(1) as f64),
                format!("{:.1}", 100.0 * (work as f64 - reference as f64) / reference as f64),
            ]);
        }
    }
    t.conclude(
        "per-sync cost tracks the dirty-page count; longer intervals amortize it — \
         the §8.3 claim that sync delays the primary only for enqueue time",
    );
    t
}

/// E3 (§2 vs §5): message-based backup vs explicit checkpointing.
pub fn e3_vs_checkpoint() -> Table {
    let mut t = Table::new(
        "E3 — §2 explicit checkpointing vs the message system (OLTP, data-space sweep)",
        &["table_pages", "strategy", "makespan", "work_busy", "bus_bytes", "state_saves"],
    );
    let mut slowdowns = Vec::new();
    for pages in [4u64, 16, 48] {
        let mut spans = [0u64; 2];
        for (i, strat) in
            [FtStrategy::MessageSystem, FtStrategy::Checkpoint].into_iter().enumerate()
        {
            let sample =
                baseline::measure(baseline::oltp_builder(3, strat, 1, 64, pages).build(), DEADLINE);
            spans[i] = sample.makespan;
            t.row(vec![
                pages.to_string(),
                format!("{strat:?}"),
                sample.makespan.to_string(),
                sample.work_busy.to_string(),
                sample.bus_bytes.to_string(),
                sample.state_saves.to_string(),
            ]);
        }
        slowdowns.push(spans[1] as f64 / spans[0] as f64);
    }
    t.conclude(format!(
        "checkpointing runs {:.1}–{:.1}x slower and the gap widens with the data space — \
         §2's \"uses up a large portion of the added computing power\", measured",
        slowdowns.iter().cloned().fold(f64::MAX, f64::min),
        slowdowns.iter().cloned().fold(0.0, f64::max),
    ));
    t
}

/// E4 (§8.4, §6): recovery rolls forward from the last sync; the delay
/// grows with the work done since it; bystanders resume quickly.
pub fn e4_recovery() -> Table {
    let mut t = Table::new(
        "E4 — §8.4 crash handling and recovery (rollforward vs sync cadence)",
        &[
            "variant",
            "crash_at",
            "promote_latency",
            "replayed_sends",
            "page_faults",
            "makespan_delta",
        ],
    );
    for max_reads in [4u64, 16, 64] {
        let build = |crash: Option<u64>| {
            let mut b = SystemBuilder::new(3);
            b.config_mut().sync_max_reads = max_reads;
            b.spawn(0, programs::pingpong("e4", 400, true));
            b.spawn(1, programs::pingpong("e4", 400, false));
            if let Some(at) = crash {
                b.crash_at(VTime(at), 0);
            }
            let mut sys = b.build();
            sys.world.trace.enable(auros::sim::TraceCategory::Crash);
            assert!(sys.run(DEADLINE), "experiment workload must complete");
            sys
        };
        let clean = build(None);
        let clean_span = clean.now().ticks();
        for crash_at in [10_000u64, 30_000] {
            let sys = build(Some(crash_at));
            let s = &sys.world.stats;
            // Time from failure to the first backup promotion: polling
            // detection plus the crash-handling window (§7.10).
            let promote_at = sys
                .world
                .trace
                .events()
                .find(|e| matches!(e.kind, auros::sim::TraceKind::PromotingBackup { .. }))
                .map(|e| e.at.ticks())
                .unwrap_or(crash_at);
            t.row(vec![
                format!("reads<={max_reads}"),
                crash_at.to_string(),
                (promote_at - crash_at).to_string(),
                s.total_suppressed().to_string(),
                s.clusters.iter().map(|c| c.page_faults).sum::<u64>().to_string(),
                format!("{:+}", sys.now().ticks() as i64 - clean_span as i64),
            ]);
        }
    }
    // Page-heavy rows: the promoted process demand-pages its address
    // space back in (§7.10.2), so recovery paging grows with the data
    // space.
    for pages in [8u64, 32, 96] {
        let build = |crash: Option<u64>| {
            let mut b = SystemBuilder::new(3);
            b.spawn(0, programs::bank_server("e4b", 512));
            b.spawn(1, programs::bank_client("e4b", 512, pages, 5));
            if let Some(at) = crash {
                b.crash_at(VTime(at), 0);
            }
            let mut sys = b.build();
            sys.world.trace.enable(auros::sim::TraceCategory::Crash);
            assert!(sys.run(DEADLINE), "experiment workload must complete");
            sys
        };
        let clean_span = build(None).now().ticks();
        let sys = build(Some(30_000));
        let s = &sys.world.stats;
        let promote_at = sys
            .world
            .trace
            .events()
            .find(|e| matches!(e.kind, auros::sim::TraceKind::PromotingBackup { .. }))
            .map(|e| e.at.ticks())
            .unwrap_or(30_000);
        t.row(vec![
            format!("bank/{pages}p"),
            "30000".to_string(),
            (promote_at - 30_000).to_string(),
            s.total_suppressed().to_string(),
            s.clusters.iter().map(|c| c.page_faults).sum::<u64>().to_string(),
            format!("{:+}", sys.now().ticks() as i64 - clean_span as i64),
        ]);
    }
    t.conclude(
        "promotion waits for polling detection plus the crash-handling window; \
         replayed sends grow with the sync interval and recovery paging grows with \
         the data space (demand-paged rollforward, §7.10.2) — the §5 trade-offs the \
         thresholds tune. Makespan deltas stay small either way: unaffected \
         processes resume before recovery completes (§8.4).",
    );
    t
}

/// E5 (§7.3): backup-mode survival and re-protection cost.
pub fn e5_backup_modes() -> Table {
    let mut t = Table::new(
        "E5 — §7.3 backup modes under repeated failures",
        &["mode", "one_crash", "crash_restore_crash", "backups_created", "crash_busy"],
    );
    for mode in [BackupMode::Quarterback, BackupMode::Halfback, BackupMode::Fullback] {
        let survive = |plan: &[(u64, u16, bool)]| -> (bool, u64, u64) {
            let mut b = SystemBuilder::new(4);
            b.spawn_with_mode(0, programs::pingpong("e5", 600, true), mode);
            b.spawn_with_mode(1, programs::pingpong("e5", 600, false), mode);
            for (at, c, restore) in plan {
                if *restore {
                    b.restore_at(VTime(*at), *c);
                } else {
                    b.crash_at(VTime(*at), *c);
                }
            }
            let mut sys = b.build();
            let ok = sys.run(VTime(5_000_000));
            let s = &sys.world.stats;
            (
                ok,
                s.clusters.iter().map(|c| c.backups_created).sum(),
                s.clusters.iter().map(|c| c.crash_busy.as_ticks()).sum(),
            )
        };
        let (one, created, busy) = survive(&[(8_000, 0, false)]);
        let (crc, _, _) = survive(&[(8_000, 0, false), (25_000, 0, true), (60_000, 1, false)]);
        t.row(vec![
            format!("{mode:?}"),
            one.to_string(),
            crc.to_string(),
            created.to_string(),
            busy.to_string(),
        ]);
    }
    t.conclude(
        "quarterbacks survive exactly one failure; halfbacks re-protect on restoration; \
         fullbacks re-protect immediately (and pay for it in backup creations)",
    );
    t
}

/// E6 (§7.7, §8.2): deferred backup creation — short-lived children
/// never get a backup process at all.
pub fn e6_deferred_backup() -> Table {
    let mut t = Table::new(
        "E6 — §7.7 deferred backup creation (child lifetime sweep)",
        &["child_work", "sync_max_fuel", "children", "child_backups", "births"],
    );
    for child_work in [500u32, 20_000, 200_000] {
        for fuel in [5_000u64, 50_000] {
            let mut b = SystemBuilder::new(2);
            b.config_mut().sync_max_fuel = fuel;
            let children = 6u64;
            b.spawn(0, programs::forker(children, child_work));
            let sys = run(b.build());
            // Child backups = records created at the backup cluster for
            // pids other than the head of family and the servers.
            let head = sys.pids[0];
            let child_pids: Vec<_> =
                (0..children).map(|i| auros::bus::proto::derive_child_pid(head, i)).collect();
            let child_backups =
                sys.world.stats.clusters.iter().map(|c| c.backups_created).sum::<u64>();
            let births: usize = sys.world.clusters.iter().map(|c| c.births.len()).sum();
            let _ = child_pids;
            t.row(vec![
                child_work.to_string(),
                fuel.to_string(),
                children.to_string(),
                // Subtract the servers' and head's creation-time backups (4).
                child_backups.saturating_sub(4).to_string(),
                births.to_string(),
            ]);
        }
    }
    t.conclude(
        "short-lived children never get a backup process (only a birth notice); \
         long-lived ones are protected at their first sync — §7.7's deferral, measured",
    );
    t
}

/// E7 (§7.9): file server sync via shadow blocks.
pub fn e7_fileserver() -> Table {
    let mut t = Table::new(
        "E7 — §7.9 file server sync and shadow-block robustness",
        &["chunks", "disk_commits", "disk_bytes", "sync_image_bytes", "crash_consistent"],
    );
    for chunks in [8u64, 24, 64] {
        let build = |crash: Option<u64>| {
            let mut b = SystemBuilder::new(3);
            b.spawn(2, programs::file_writer("/e7", chunks, 256));
            if let Some(at) = crash {
                b.crash_at(VTime(at), 0);
            }
            run(b.build())
        };
        let mut clean = build(None);
        let mut crashed = build(Some(9_000));
        let consistent = clean.file_contents("/e7") == crashed.file_contents("/e7");
        let (commits, image) =
            clean.with_fs(|fs, disk| (disk.commits, fs.image_size())).expect("fs alive");
        t.row(vec![
            chunks.to_string(),
            commits.to_string(),
            (chunks * 256).to_string(),
            image.to_string(),
            consistent.to_string(),
        ]);
    }
    t.conclude(
        "the sync message stays small while the data rides the dual-ported disk, and a \
         crash mid-stream recovers the identical file — §7.9's design, verified",
    );
    t
}

/// E8 (§5.4): duplicate-send suppression gives exactly-once delivery.
pub fn e8_suppression() -> Table {
    let mut t = Table::new(
        "E8 — §5.4 duplicate-send suppression (crash offset sweep)",
        &["crash_at", "promotions", "suppressed", "exactly_once"],
    );
    let build = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        b.config_mut().sync_max_reads = 48; // long intervals: more replay
        b.spawn(0, programs::producer("e8", 300));
        b.spawn(1, programs::consumer("e8", 300));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        run(b.build())
    };
    let clean = build(None).digest();
    for crash_at in [4_000u64, 8_000, 12_000, 16_000, 20_000] {
        let mut sys = build(Some(crash_at));
        let s = &sys.world.stats;
        let promotions: u64 = s.clusters.iter().map(|c| c.promotions).sum();
        let suppressed = s.total_suppressed();
        let ok = sys.digest() == clean;
        t.row(vec![
            crash_at.to_string(),
            promotions.to_string(),
            suppressed.to_string(),
            ok.to_string(),
        ]);
        assert!(ok, "exactly-once violated at crash offset {crash_at}");
    }
    t.conclude(
        "every crash offset re-sends nothing the dead primary already delivered: the \
         write counts at the sender's backup make rollforward exactly-once",
    );
    t
}

/// E9 (§2, §3.2): in the absence of failure the duplicate hardware runs
/// additional primaries — throughput scales, unlike lockstep.
pub fn e9_utilization() -> Table {
    let mut t = Table::new(
        "E9 — §3.2 hardware utilization (throughput, tx per Mtick)",
        &["clusters", "no_ft", "message_system", "lockstep", "msg/lockstep"],
    );
    for n in [2u16, 4, 6, 8] {
        let none = baseline::throughput(baseline::Strategy::NoFt, n, 32);
        let msg = baseline::throughput(baseline::Strategy::MessageSystem, n, 32);
        let lock = baseline::throughput(baseline::Strategy::Lockstep, n, 32);
        t.row(vec![
            n.to_string(),
            format!("{none:.1}"),
            format!("{msg:.1}"),
            format!("{lock:.1}"),
            format!("{:.2}", msg / lock),
        ]);
    }
    t.conclude(
        "the message system tracks the no-FT ceiling and pulls away from lockstep as \
         clusters are added — §2's utilization argument, measured",
    );
    t
}

/// E10 (ablation): what breaks without each invariant the design rests
/// on — §5.4's write counts and §5.1's atomic delivery.
pub fn e10_ablations() -> Table {
    use auros::kernel::config::Ablations;
    let mut t = Table::new(
        "E10 — ablations: remove one invariant, count broken recoveries",
        &["variant", "crash_points", "divergent_digests", "hung_workloads"],
    );
    let variants: [(&str, Ablations); 3] = [
        ("full system", Ablations::default()),
        ("no §5.4 suppression", Ablations { no_suppression: true, ..Default::default() }),
        ("no §5.1 atomic delivery", Ablations { no_atomic_delivery: true, ..Default::default() }),
    ];
    let offsets = [4_000u64, 8_000, 12_000, 16_000, 20_000, 24_000];
    for (name, abl) in variants {
        let run = |crash: Option<u64>| {
            let mut b = SystemBuilder::new(3);
            b.config_mut().ablations = abl;
            b.config_mut().sync_max_reads = 24;
            // An order- and count-sensitive workload: a selector over two
            // producers, plus a stream whose sum detects duplicates.
            b.spawn(0, programs::producer("xa", 150));
            b.spawn(1, programs::consumer("xa", 150));
            b.spawn(0, programs::selector("xb", "xc", 60));
            b.spawn(1, programs::producer("xb", 30));
            b.spawn(2, programs::producer("xc", 30));
            if let Some(at) = crash {
                b.crash_at(VTime(at), 0);
            }
            let mut sys = b.build();
            let done = sys.run(VTime(800_000_000));
            (done, sys.digest())
        };
        let (_, clean) = run(None);
        let mut divergent = 0;
        let mut dupes = 0;
        for at in offsets {
            let (done, d) = run(Some(at));
            if !done || d != clean {
                divergent += 1;
            }
            if !done {
                dupes += 1; // the workload wedged (lost or surplus messages)
            }
        }
        t.row(vec![
            name.to_string(),
            offsets.len().to_string(),
            divergent.to_string(),
            dupes.to_string(),
        ]);
    }
    t.conclude(
        "with both invariants intact every recovery is invisible; removing either one          corrupts recoveries — the §5 machinery is load-bearing, not belt-and-braces",
    );
    t
}

/// E11 (§3.3): "a user at a terminal should notice at most a short
/// delay during recovery" — client-observed service latency with and
/// without a failure.
pub fn e11_client_latency() -> Table {
    let mut t = Table::new(
        "E11 — §3.3 client-observed latency (bank round-trips, ticks)",
        &["scenario", "round_trips", "avg_wait", "max_wait", "makespan"],
    );
    let run = |label: &str, ft: bool, crash: Option<u64>| -> Vec<String> {
        let mut b = SystemBuilder::new(3);
        if !ft {
            b.without_fault_tolerance();
        }
        b.spawn(0, programs::bank_server("e11", 400));
        let client = b.spawn(1, programs::bank_client("e11", 400, 16, 3));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE), "latency workload must complete");
        let (total, waits, max) = sys.wait_stats(client);
        vec![
            label.to_string(),
            waits.to_string(),
            (total / waits.max(1)).to_string(),
            max.to_string(),
            sys.now().ticks().to_string(),
        ]
    };
    t.row(run("no FT", false, None));
    t.row(run("FT, fault-free", true, None));
    t.row(run("FT, server cluster crashes", true, Some(20_000)));
    t.conclude(
        "fault tolerance costs a few ticks per round-trip; the one failure shows up as \
         a single bounded max-wait spike (detection + crash window + replay) — §3.3's \
         \"short delay during recovery\", quantified",
    );
    t
}

/// Runs every experiment, in order.
pub fn all() -> Vec<Table> {
    vec![
        e1_delivery(),
        e2_sync_cost(),
        e3_vs_checkpoint(),
        e4_recovery(),
        e5_backup_modes(),
        e6_deferred_backup(),
        e7_fileserver(),
        e8_suppression(),
        e9_utilization(),
        e10_ablations(),
        e11_client_latency(),
    ]
}

/// The harness's printed output: a two-line header, then each table
/// followed by a blank line. EXPERIMENTS.md quotes it verbatim under
/// "Raw tables".
pub fn report(tables: &[Table]) -> String {
    let mut out = String::from(
        "auros experiment harness — reproducing the paper's evaluation\n\
         (Figure 1 is regenerated by `cargo run --example quickstart`)\n",
    );
    for table in tables {
        out.push_str(&format!("{table}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shows_single_transmission_and_executive_absorption() {
        let t = e1_delivery();
        assert_eq!(t.rows.len(), 6);
    }

    #[test]
    fn e8_asserts_exactly_once_internally() {
        let t = e8_suppression();
        assert!(t.rows.iter().all(|r| r[3] == "true"));
    }

    #[test]
    fn e10_full_system_never_diverges_and_ablations_do() {
        let t = e10_ablations();
        assert_eq!(t.rows[0][2], "0", "full system: no divergent digest");
        let broken: u64 =
            t.rows[1][2].parse::<u64>().unwrap() + t.rows[2][2].parse::<u64>().unwrap();
        assert!(broken > 0, "at least one ablation must visibly break recovery: {t}");
    }
}
