//! Time and event ledgers.
//!
//! §8 of the paper argues about *where* the overhead of fault tolerance
//! lands: backup message copies are absorbed by the executive processor
//! (§8.1), backup maintenance is the executive's job (§8.2), sync delays
//! the primary only for enqueue time (§8.3). The ledgers here let the
//! benches measure exactly those splits.

use auros_bus::ClusterId;
use auros_sim::{Dur, VTime};

/// Per-cluster accounting.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// Work-processor busy time (user execution + syscalls + servers).
    pub work_busy: Dur,
    /// Executive-processor busy time (message send/receive/distribution,
    /// backup maintenance).
    pub exec_busy: Dur,
    /// Work-processor time spent inside crash handling (§7.10.1).
    pub crash_busy: Dur,
    /// Delivery tags processed (a 3-way frame counts up to 3 across the
    /// system).
    pub deliveries: u64,
    /// Messages enqueued for primary destinations.
    pub primary_msgs: u64,
    /// Messages saved for destination backups.
    pub backup_msgs: u64,
    /// Sync operations performed by primaries in this cluster.
    pub syncs: u64,
    /// Full data-space checkpoints (the §2 comparator strategy).
    pub checkpoints: u64,
    /// Dirty pages flushed at sync.
    pub pages_flushed: u64,
    /// Page faults serviced.
    pub page_faults: u64,
    /// Backup processes created here.
    pub backups_created: u64,
    /// Backups promoted to primary here.
    pub promotions: u64,
    /// Messages whose re-send was suppressed during rollforward (§5.4).
    pub suppressed_sends: u64,
}

/// One cluster-crash recovery episode: from the instant the hardware
/// died to the last backup promoted on the dead cluster's behalf
/// (§7.10.2). The paper's availability argument rests on this window
/// being short; the ledger makes it measurable per fault.
#[derive(Clone, Debug)]
pub struct RecoveryRecord {
    /// The cluster that died.
    pub dead: ClusterId,
    /// When it died.
    pub crashed_at: VTime,
    /// When the last backup was promoted on its behalf, if any were.
    pub last_promotion: Option<VTime>,
    /// How many backups were promoted for this crash.
    pub promotions: u64,
}

impl RecoveryRecord {
    /// Crash-to-last-promotion latency, if any promotion happened.
    pub fn latency(&self) -> Option<Dur> {
        self.last_promotion.map(|t| t.since(self.crashed_at))
    }
}

/// Whole-world accounting.
#[derive(Clone, Debug, Default)]
pub struct WorldStats {
    /// Per-cluster ledgers, indexed by cluster id.
    pub clusters: Vec<ClusterStats>,
    /// Bus frames transmitted.
    pub bus_frames: u64,
    /// Bus payload bytes.
    pub bus_bytes: u64,
    /// Bus busy ticks.
    pub bus_busy: Dur,
    /// Processes that exited normally.
    pub exits: u64,
    /// Cluster crashes handled.
    pub crashes: u64,
    /// Injected bus failures that found a healthy standby.
    pub bus_failovers: u64,
    /// Frames whose in-flight transmission was repeated on the standby
    /// bus after a failover.
    pub frames_retransmitted: u64,
    /// Injected single-mirror disk failures.
    pub disk_half_faults: u64,
    /// Transient wire faults injected: frames silently dropped.
    pub wire_drops: u64,
    /// Transient wire faults injected: frames mangled in transit.
    pub wire_corruptions: u64,
    /// Transient wire faults injected: frames duplicated.
    pub wire_duplicates: u64,
    /// Transient wire faults injected: frames delayed.
    pub wire_delays: u64,
    /// Mangled frames the receiver checksum rejected. Equals
    /// `wire_corruptions` at the end of a settled run: no corruption
    /// escapes detection.
    pub corruptions_caught: u64,
    /// NAKs sent back to the transmitting executive after a checksum
    /// rejection.
    pub naks: u64,
    /// Protocol-level retransmissions (ack-timeout- or NAK-driven; bus
    /// failover retransmissions stay in `frames_retransmitted`).
    pub proto_retransmits: u64,
    /// Frames given up on after `MAX_RETRANSMITS` attempts.
    pub frames_abandoned: u64,
    /// Frames the link layer suppressed as already-consumed duplicates.
    pub dup_suppressed: u64,
    /// Frames held behind a link-sequence gap and delivered later, in
    /// order.
    pub frames_reordered: u64,
    /// Buses benched after repeated wire faults.
    pub quarantines: u64,
    /// Quarantined buses returned to service by a clean probe.
    pub heals: u64,
    /// Probe frames sent on quarantined buses.
    pub probes: u64,
    /// Synchronizations forced by backup-queue backpressure.
    pub forced_syncs: u64,
    /// Poison triggers armed by the fault plan.
    pub injected_poisons: u64,
    /// Deaths caused by consuming a poisoned message.
    pub poison_kills: u64,
    /// Poisoned messages moved into the dead-letter ledger.
    pub quarantined_poisons: u64,
    /// Quarantined messages whose saved backup copies were purged
    /// ([`crate::Config::divert_quarantined`]): the reincarnation rolls
    /// forward past them instead of re-consuming them.
    pub diverted_records: u64,
    /// Process reincarnations granted by the supervisor (partial-failure
    /// promotions; cluster-crash promotions are accounted separately).
    pub supervised_restarts: u64,
    /// Total virtual ticks spent waiting out supervision backoff.
    pub backoff_ticks: u64,
    /// Processes the supervisor stopped reincarnating after their
    /// restart budget ran dry.
    pub give_ups: u64,
    /// Deepest backup message queue observed anywhere.
    pub max_backup_queue_depth: u64,
    /// Power-of-two histogram of completed blocked-wait intervals,
    /// fleet-wide: bucket `b` counts waits whose tick count has highest
    /// set bit `b` (zero-tick waits land in bucket 0; the top bucket
    /// saturates). Fed from the single site that closes wait intervals,
    /// so it agrees exactly with the per-process wait ledgers.
    pub wait_hist: [u64; 32],
    /// One entry per cluster crash, in injection order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Virtual time of the last processed event.
    pub now: VTime,
}

impl WorldStats {
    /// Creates ledgers for `n` clusters.
    pub fn new(n: u16) -> WorldStats {
        WorldStats { clusters: vec![ClusterStats::default(); n as usize], ..Default::default() }
    }

    /// Sum of work-processor busy time across clusters.
    pub fn total_work_busy(&self) -> Dur {
        self.clusters.iter().fold(Dur::ZERO, |a, c| a + c.work_busy)
    }

    /// Sum of executive busy time across clusters.
    pub fn total_exec_busy(&self) -> Dur {
        self.clusters.iter().fold(Dur::ZERO, |a, c| a + c.exec_busy)
    }

    /// Total sync operations.
    pub fn total_syncs(&self) -> u64 {
        self.clusters.iter().map(|c| c.syncs).sum()
    }

    /// Total suppressed duplicate sends.
    pub fn total_suppressed(&self) -> u64 {
        self.clusters.iter().map(|c| c.suppressed_sends).sum()
    }

    /// Total transient wire faults injected, of every kind.
    pub fn wire_faults(&self) -> u64 {
        self.wire_drops + self.wire_corruptions + self.wire_duplicates + self.wire_delays
    }

    /// Records one completed blocked-wait interval into the
    /// power-of-two latency histogram.
    pub(crate) fn record_wait(&mut self, d: Dur) {
        let t = d.as_ticks();
        let b = if t == 0 { 0 } else { (63 - t.leading_zeros() as usize).min(31) };
        self.wait_hist[b] += 1;
    }

    /// Opens a recovery episode for a crash of `dead` at `now`.
    pub fn note_crash(&mut self, dead: ClusterId, now: VTime) {
        self.recoveries.push(RecoveryRecord {
            dead,
            crashed_at: now,
            last_promotion: None,
            promotions: 0,
        });
    }

    /// Credits one backup promotion to the most recent crash of `dead`.
    ///
    /// Promotions with no matching episode (partial failures of a live
    /// cluster) are ignored — they are not crash recovery.
    pub fn note_promotion(&mut self, dead: ClusterId, now: VTime) {
        if let Some(r) = self.recoveries.iter_mut().rev().find(|r| r.dead == dead) {
            r.last_promotion = Some(now);
            r.promotions += 1;
        }
    }

    /// The worst crash-to-last-promotion latency seen, if any.
    pub fn max_recovery_latency(&self) -> Option<Dur> {
        self.recoveries.iter().filter_map(|r| r.latency()).max()
    }

    /// Publishes the fleet-wide ledgers into the metrics registry under
    /// static `kernel.*` names. Per-cluster figures stay in
    /// [`Self::clusters`] and recovery latencies in [`Self::recoveries`];
    /// readers take those from the ledger itself.
    pub fn publish_metrics(&self, reg: &mut auros_sim::MetricsRegistry) {
        for (name, v) in [
            ("kernel.bus_frames", self.bus_frames),
            ("kernel.bus_bytes", self.bus_bytes),
            ("kernel.bus_busy_ticks", self.bus_busy.as_ticks()),
            ("kernel.exits", self.exits),
            ("kernel.crashes", self.crashes),
            ("kernel.bus_failovers", self.bus_failovers),
            ("kernel.frames_retransmitted", self.frames_retransmitted),
            ("kernel.disk_half_faults", self.disk_half_faults),
            ("kernel.wire_drops", self.wire_drops),
            ("kernel.wire_corruptions", self.wire_corruptions),
            ("kernel.wire_duplicates", self.wire_duplicates),
            ("kernel.wire_delays", self.wire_delays),
            ("kernel.corruptions_caught", self.corruptions_caught),
            ("kernel.naks", self.naks),
            ("kernel.proto_retransmits", self.proto_retransmits),
            ("kernel.frames_abandoned", self.frames_abandoned),
            ("kernel.dup_suppressed", self.dup_suppressed),
            ("kernel.frames_reordered", self.frames_reordered),
            ("kernel.quarantines", self.quarantines),
            ("kernel.heals", self.heals),
            ("kernel.probes", self.probes),
            ("kernel.forced_syncs", self.forced_syncs),
            ("kernel.injected_poisons", self.injected_poisons),
            ("kernel.poison_kills", self.poison_kills),
            ("kernel.quarantined_poisons", self.quarantined_poisons),
            ("kernel.diverted_records", self.diverted_records),
            ("kernel.supervised_restarts", self.supervised_restarts),
            ("kernel.backoff_ticks", self.backoff_ticks),
            ("kernel.give_ups", self.give_ups),
            ("kernel.max_backup_queue_depth", self.max_backup_queue_depth),
            ("kernel.now_ticks", self.now.ticks()),
        ] {
            reg.set(name, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_clusters() {
        let mut s = WorldStats::new(3);
        s.clusters[0].work_busy = Dur(10);
        s.clusters[2].work_busy = Dur(5);
        s.clusters[1].exec_busy = Dur(7);
        s.clusters[0].syncs = 2;
        s.clusters[1].syncs = 3;
        assert_eq!(s.total_work_busy(), Dur(15));
        assert_eq!(s.total_exec_busy(), Dur(7));
        assert_eq!(s.total_syncs(), 5);
    }

    #[test]
    fn recovery_latency_tracks_latest_episode_of_a_cluster() {
        let mut s = WorldStats::new(3);
        s.note_crash(ClusterId(0), VTime(100));
        s.note_promotion(ClusterId(0), VTime(150));
        s.note_promotion(ClusterId(0), VTime(400));
        // The same cluster crashes again after a restore: a fresh episode.
        s.note_crash(ClusterId(0), VTime(1_000));
        s.note_promotion(ClusterId(0), VTime(1_050));
        assert_eq!(s.recoveries.len(), 2);
        assert_eq!(s.recoveries[0].latency(), Some(Dur(300)));
        assert_eq!(s.recoveries[0].promotions, 2);
        assert_eq!(s.recoveries[1].latency(), Some(Dur(50)));
        assert_eq!(s.max_recovery_latency(), Some(Dur(300)));
    }

    #[test]
    fn promotion_without_episode_is_ignored() {
        let mut s = WorldStats::new(2);
        s.note_promotion(ClusterId(1), VTime(5));
        assert!(s.recoveries.is_empty());
        assert_eq!(s.max_recovery_latency(), None);
    }
}
