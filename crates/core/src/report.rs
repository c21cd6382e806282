//! Human-readable run reports.
//!
//! §8 of the paper is an accounting argument — *where* does the overhead
//! of fault tolerance land? [`render`] turns a finished run's ledgers
//! into the same split the paper argues about: work-processor time,
//! executive-processor time, bus traffic, syncs, and recovery activity,
//! per cluster.

use std::fmt::Write as _;

use crate::System;

/// Renders a run summary from the system's ledgers.
pub fn render(sys: &System) -> String {
    let s = &sys.world.stats;
    let mut out = String::new();
    let now = s.now.ticks().max(1);
    let _ = writeln!(out, "run summary at t={}", s.now);
    let _ = writeln!(
        out,
        "  bus: {} frames, {} bytes, {}% utilized",
        s.bus_frames,
        s.bus_bytes,
        s.bus_busy.as_ticks() * 100 / now
    );
    let _ = writeln!(
        out,
        "  {:<9} {:>10} {:>10} {:>9} {:>7} {:>7} {:>11} {:>11}",
        "cluster", "work_busy", "exec_busy", "crash", "syncs", "promos", "msgs(prim)", "msgs(bkup)"
    );
    for (i, c) in s.clusters.iter().enumerate() {
        let alive = if sys.world.clusters[i].alive { "" } else { " DOWN" };
        let _ = writeln!(
            out,
            "  c{i:<8} {:>10} {:>10} {:>9} {:>7} {:>7} {:>11} {:>11}{alive}",
            c.work_busy.as_ticks(),
            c.exec_busy.as_ticks(),
            c.crash_busy.as_ticks(),
            c.syncs,
            c.promotions,
            c.primary_msgs,
            c.backup_msgs,
        );
    }
    let _ = writeln!(
        out,
        "  totals: {} syncs, {} pages flushed, {} suppressed duplicate sends, {} exits",
        s.total_syncs(),
        s.clusters.iter().map(|c| c.pages_flushed).sum::<u64>(),
        s.total_suppressed(),
        s.exits
    );
    for r in &s.recoveries {
        match r.latency() {
            Some(l) => {
                let _ = writeln!(
                    out,
                    "  recovery: {} crashed at {}; {} backups promoted, last at {} (latency {} ticks)",
                    r.dead,
                    r.crashed_at,
                    r.promotions,
                    r.last_promotion.expect("latency implies promotion"),
                    l.as_ticks()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  recovery: {} crashed at {}; no backups promoted",
                    r.dead, r.crashed_at
                );
            }
        }
    }
    if s.bus_failovers > 0 {
        let _ = writeln!(
            out,
            "  bus: {} failover(s), {} in-flight frames retransmitted on the standby",
            s.bus_failovers, s.frames_retransmitted
        );
    }
    if s.disk_half_faults > 0 {
        let _ = writeln!(out, "  disk: {} mirror half(s) failed", s.disk_half_faults);
    }
    if s.wire_faults() > 0 {
        let _ = writeln!(
            out,
            "  wire: {} transient fault(s) injected ({} dropped, {} corrupted, {} duplicated, {} delayed)",
            s.wire_faults(),
            s.wire_drops,
            s.wire_corruptions,
            s.wire_duplicates,
            s.wire_delays
        );
        let _ = writeln!(
            out,
            "  link: {} corruption(s) caught, {} NAK(s), {} retransmit(s), {} duplicate(s) suppressed, {} frame(s) reordered, {} abandoned",
            s.corruptions_caught,
            s.naks,
            s.proto_retransmits,
            s.dup_suppressed,
            s.frames_reordered,
            s.frames_abandoned
        );
    }
    if s.quarantines > 0 {
        let _ = writeln!(
            out,
            "  quarantine: {} bus(es) benched, {} healed after {} probe(s)",
            s.quarantines, s.heals, s.probes
        );
    }
    if s.forced_syncs > 0 || s.max_backup_queue_depth > 0 {
        let _ = writeln!(
            out,
            "  backpressure: {} forced sync(s), deepest backup queue {}",
            s.forced_syncs, s.max_backup_queue_depth
        );
    }
    // The supervision section appears only when the supervisor acted, so
    // fault-free reports stay byte-identical.
    if s.injected_poisons > 0 || s.supervised_restarts > 0 || s.give_ups > 0 {
        let _ = writeln!(
            out,
            "  supervision: {} restart(s) granted ({} backoff ticks), {} poison kill(s), \
             {} of {} poison(s) quarantined, {} give-up(s)",
            s.supervised_restarts,
            s.backoff_ticks,
            s.poison_kills,
            s.quarantined_poisons,
            s.injected_poisons,
            s.give_ups
        );
    }
    // Dead letters likewise appear only when quarantine actually filed
    // one, so fault-free reports stay byte-identical.
    let letters = sys.world.dead_letter_records();
    if !letters.is_empty() {
        let _ = writeln!(
            out,
            "  dead letters: {} filed, {} diverted out of the stream",
            letters.len(),
            s.diverted_records
        );
        for (msg, dl) in &letters {
            let how = if dl.diverted { "diverted" } else { "quarantined in place" };
            let _ = writeln!(
                out,
                "    msg {} poisoned {} (record {:#x}): {}",
                msg, dl.victim, dl.record, how
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{programs, SystemBuilder, VTime};

    #[test]
    fn report_covers_every_cluster_and_totals() {
        let mut b = SystemBuilder::new(3);
        b.spawn(0, programs::pingpong("r", 30, true));
        b.spawn(1, programs::pingpong("r", 30, false));
        b.crash_at(VTime(5_000), 2);
        let mut sys = b.build();
        assert!(sys.run(VTime(100_000_000)));
        let r = render(&sys);
        for c in ["c0", "c1", "c2", "DOWN", "totals:", "bus:"] {
            assert!(r.contains(c), "missing {c} in:\n{r}");
        }
        assert!(!r.contains("dead letters"), "fault-free report must omit dead letters");
    }

    #[test]
    fn report_lists_diverted_dead_letters() {
        let app = crate::apps::AppWorkload::etl(0xC3);
        let mut b = SystemBuilder::new(4);
        app.install(&mut b);
        b.poison_at(VTime(3_200), 1);
        let mut sys = b.build();
        assert!(sys.run(VTime(5_000_000)));
        let r = render(&sys);
        assert!(r.contains("dead letters: 1 filed, 1 diverted"), "missing dead-letter line:\n{r}");
        assert!(r.contains("diverted"), "missing diversion detail:\n{r}");
    }
}
