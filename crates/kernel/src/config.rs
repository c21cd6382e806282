//! System configuration and the cost model.
//!
//! The cost model calibrates *where* virtual time is spent. Absolute
//! values are nominal 1983-ish magnitudes (1 tick ≈ 1 µs); the
//! experiments in `EXPERIMENTS.md` depend only on the ratios — e.g. that
//! a bus transmission is much cheaper than copying a data space, which is
//! the heart of the paper's argument against explicit checkpointing (§2).

use auros_bus::proto::BackupMode;
use auros_sim::Dur;

/// Per-operation virtual-time costs, fixed for every configuration.
pub(crate) mod cost {
    use auros_sim::Dur;

    /// Fixed bus acquisition + arbitration latency per frame.
    pub const BUS_LATENCY: Dur = Dur(20);
    /// Transmission time per 16 bytes of frame.
    pub const BUS_PER_16_BYTES: Dur = Dur(1);
    /// Executive-processor time to take one frame from the outgoing
    /// queue and start transmission (§7.4.2 step 2).
    pub const EXEC_SEND: Dur = Dur(5);
    /// Executive-processor time to receive and distribute one delivery
    /// tag of an incoming frame (§7.4.2; §8.1 bills this to the
    /// executive, never to a work processor).
    pub const EXEC_RECV: Dur = Dur(4);
    /// Fixed work-processor time for entering and leaving a system call.
    pub const SYSCALL_FIXED: Dur = Dur(10);
    /// Work-processor copy cost per 64 bytes moved between guest memory
    /// and a message.
    pub const COPY_PER_64_BYTES: Dur = Dur(1);
    /// Work-processor time to place one dirty page on the outgoing queue
    /// at sync (§7.8 part one).
    pub const PAGE_ENQUEUE: Dur = Dur(12);
    /// Work-processor time to build and enqueue the sync message itself
    /// (§7.8 part two).
    pub const SYNC_BUILD: Dur = Dur(25);
    /// Context-switch cost charged when a process is dispatched.
    pub const DISPATCH: Dur = Dur(5);
    /// Work-processor time for a server to handle one request, before
    /// payload-dependent additions.
    pub const SERVER_HANDLE: Dur = Dur(15);
    /// Fixed duration of the two high-priority crash-handling processes
    /// (§7.10.1), before the per-routing-entry scan cost.
    pub const CRASH_FIXED: Dur = Dur(2_000);
    /// Per-routing-entry crash-scan cost.
    pub const CRASH_PER_ENTRY: Dur = Dur(2);
    /// Failure-detector polling interval (§7.10: "periodic polling of
    /// every cluster will discover the shutdown").
    pub const POLL_INTERVAL: Dur = Dur(5_000);
    /// Executive time to create one backup PCB or routing entry.
    pub const EXEC_BACKUP_MAINTENANCE: Dur = Dur(8);
    /// Reliable delivery: how long after a frame's nominal delivery time
    /// the sender waits for the implicit acknowledgement before
    /// suspecting a drop and retransmitting (virtual time only, D2).
    pub const ACK_TIMEOUT: Dur = Dur(600);
    /// Reliable delivery: base retransmit backoff; attempt *n* waits
    /// `RETRANSMIT_BACKOFF << min(n, 6)` before re-reserving the bus.
    pub const RETRANSMIT_BACKOFF: Dur = Dur(150);
    /// Reliable delivery: time for a receiver's NAK (checksum failure
    /// report) to reach the sending executive.
    pub const NAK_LATENCY: Dur = Dur(8);
    /// Quarantine: interval between probe frames sent on a benched bus
    /// to decide whether it has healed.
    pub const PROBE_INTERVAL: Dur = Dur(4_000);
    /// Wire-duplicate fault model: lag between the two copies of a
    /// duplicated frame.
    pub const DUP_LAG: Dur = Dur(7);
    /// Segmented fleets: fixed store-and-forward latency an inter-segment
    /// gateway adds to a frame that leaves its sender's bus segment.
    /// Unused (and unobservable) when the bus is a single segment.
    pub const GATEWAY_LATENCY: Dur = Dur(30);

    /// Bus transmission time for a frame of `bytes` bytes.
    pub fn bus_xmit(bytes: usize) -> Dur {
        BUS_LATENCY + BUS_PER_16_BYTES.saturating_mul(bytes.div_ceil(16) as u64)
    }

    /// Guest/kernel copy cost for `bytes` bytes.
    pub fn copy(bytes: usize) -> Dur {
        COPY_PER_64_BYTES.saturating_mul(bytes.div_ceil(64) as u64)
    }
}

/// Work processors per cluster (the Auragen 4000 has two).
pub const WORK_PROCESSORS: u8 = 2;
/// Virtual ticks per fuel unit.
pub(crate) const TICKS_PER_FUEL: u64 = 1;
/// Reliable delivery: how many times a frame is retransmitted before
/// being abandoned (its link slots are skipped so later traffic is not
/// stalled behind a hopeless frame).
pub(crate) const MAX_RETRANSMITS: u32 = 8;
/// Quarantine trigger: consecutive faulted transmission windows on one
/// bus before traffic moves to the standby.
pub(crate) const QUARANTINE_AFTER: u32 = 3;
/// Supervision: the sliding virtual-time window the restart budget is
/// counted over.
pub(crate) const RESTART_WINDOW: Dur = Dur(400_000);
/// Supervision: base backoff between reincarnations; restart *k* (k ≥ 2)
/// of a window waits `RESTART_BACKOFF << min(k - 2, 6)` before the
/// backup is promoted.
pub(crate) const RESTART_BACKOFF: Dur = Dur(500);

/// The one per-operation cost a configuration may vary; every other cost
/// is a constant in `cost`.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Interval of kernel reports to the process server (§7.6).
    pub report_interval: Dur,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { report_interval: Dur(20_000) }
    }
}

/// Which fault-tolerance strategy the kernel runs (§2's design space).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FtStrategy {
    /// The paper's contribution: three-way message delivery to inactive
    /// backups with periodic synchronization (§5).
    #[default]
    MessageSystem,
    /// §2's explicit-checkpointing comparator: the primary's entire data
    /// space is copied to the backup cluster before every send (the
    /// consistency-preserving discipline), blocking the primary for the
    /// copy — "the frequent copying of the primary's data space slows
    /// down the primary and uses up a large portion of the added
    /// computing power."
    Checkpoint,
    /// No fault tolerance at all (the utilization reference point).
    None,
}

/// Ablation switches: each disables one invariant the design rests on,
/// so the benches can demonstrate what breaks without it (E10).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ablations {
    /// Disable §5.4 duplicate-send suppression: a promoted backup
    /// re-sends everything it replays.
    pub no_suppression: bool,
    /// Break §5.1's atomic multi-destination delivery: each target
    /// receives its copy at a slightly different (deterministically
    /// jittered) time, so a primary and its backup may observe different
    /// message orders.
    pub no_atomic_delivery: bool,
}

/// Whole-system configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of clusters (the paper supports 2–32).
    pub clusters: u16,
    /// Scheduling quantum, in fuel units (≈ instructions).
    pub quantum: u64,
    /// Sync trigger: reads since last sync (§7.8; tunable per system).
    pub sync_max_reads: u64,
    /// Sync trigger: fuel executed since last sync (§7.8's execution
    /// time interval).
    pub sync_max_fuel: u64,
    /// Default backup mode for user processes (§7.3: quarterback).
    pub default_mode: BackupMode,
    /// Optional per-process resident-page limit; exceeding it evicts
    /// pages through the page server.
    pub resident_page_limit: Option<usize>,
    /// The fault-tolerance strategy (experiments E1/E3/E9 compare them).
    pub strategy: FtStrategy,
    /// Ablation switches (all off in normal operation).
    pub ablations: Ablations,
    /// Cost model.
    pub costs: CostModel,
    /// Random seed for workload components that ask the world for one.
    pub seed: u64,
    /// Backpressure: bound on a backup message queue's depth. When a
    /// queue reaches the bound, the backup's kernel demands a
    /// synchronization from the owner's primary — the paper's
    /// message-count sync trigger (§5.2) driven from the memory-pressure
    /// side. `None` (the default) disables the bound.
    pub backup_queue_limit: Option<usize>,
    /// Supervision: how many process reincarnations (partial-failure
    /// promotions, §7.10.3) are granted within one `RESTART_WINDOW`
    /// before the supervisor gives up on the process.
    pub restart_budget: u32,
    /// Supervision: consecutive deaths on the same message before the
    /// message is quarantined into the dead-letter ledger as poison.
    pub poison_after: u32,
    /// Supervision: when `true`, quarantining a poisoned message also
    /// *diverts* it — the saved backup copies of the message are purged,
    /// so the victim's next reincarnation replays past it instead of
    /// re-consuming it. This is the dead-letter-queue semantic
    /// application pipelines want (a showstopper record is removed from
    /// the stream and accounted in the ledger, never committed
    /// downstream). `false` (the default, and the historical behavior)
    /// keeps the quarantined message deliverable, so runs remain
    /// byte-identical with their fault-free twin. Diversion is safe
    /// because poison kills at the read, before any post-read send
    /// escapes (§5.4's suppression accounting never covers the poisoned
    /// position), so replay up to that point is exact and divergence
    /// after it is ordinary, supervised recovery.
    pub divert_quarantined: bool,
    /// Fleet scaling: clusters per bus segment. `0` (the default) keeps
    /// the paper's single broadcast domain — required for ≤ 32 clusters
    /// to stay byte-identical with every historical run. A non-zero
    /// value partitions the fleet into `ceil(clusters / size)` segments,
    /// each with its own dual bus pair, joined by deterministic
    /// store-and-forward gateways (`cost::GATEWAY_LATENCY`).
    pub bus_segment_size: u16,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            clusters: 3,
            quantum: 500,
            sync_max_reads: 32,
            sync_max_fuel: 50_000,
            default_mode: BackupMode::Quarterback,
            resident_page_limit: None,
            strategy: FtStrategy::MessageSystem,
            ablations: Ablations::default(),
            costs: CostModel::default(),
            seed: 0,
            backup_queue_limit: None,
            restart_budget: 8,
            poison_after: 3,
            divert_quarantined: false,
            bus_segment_size: 0,
        }
    }
}

impl Config {
    /// Whether message-system backups are maintained.
    pub fn ft_enabled(&self) -> bool {
        self.strategy == FtStrategy::MessageSystem
    }

    /// A minimal two-cluster configuration.
    pub fn small() -> Config {
        Config { clusters: 2, ..Config::default() }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters < 2 {
            return Err("at least two clusters are required for backups".into());
        }
        if self.bus_segment_size == 0 {
            if self.clusters > 32 {
                return Err("one broadcast domain supports at most 32 clusters; larger fleets \
                     must set bus_segment_size to partition the bus into segments"
                    .into());
            }
        } else {
            if self.bus_segment_size < 2 || self.bus_segment_size > 32 {
                return Err("a bus segment is a broadcast domain of 2–32 clusters".into());
            }
            if self.clusters > 4096 {
                return Err("fleet configurations support at most 4096 clusters".into());
            }
        }
        if self.quantum == 0 {
            return Err("quantum must be positive".into());
        }
        if matches!(self.backup_queue_limit, Some(n) if n < 2) {
            return Err("a backup queue bound below 2 would demand a sync per message".into());
        }
        if self.restart_budget == 0 {
            return Err("a restart budget of zero would forbid partial-failure recovery".into());
        }
        if self.poison_after == 0 {
            return Err("poison_after must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(Config::default().validate().is_ok());
        assert!(Config::small().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Config { clusters: 1, ..Config::default() }.validate().is_err());
        assert!(Config { clusters: 64, ..Config::default() }.validate().is_err());
        assert!(Config { quantum: 0, ..Config::default() }.validate().is_err());
        assert!(Config { backup_queue_limit: Some(1), ..Config::default() }.validate().is_err());
        assert!(Config { backup_queue_limit: Some(2), ..Config::default() }.validate().is_ok());
        assert!(Config { restart_budget: 0, ..Config::default() }.validate().is_err());
        assert!(Config { poison_after: 0, ..Config::default() }.validate().is_err());
    }

    #[test]
    fn segmented_fleets_lift_the_cluster_cap() {
        // Unsegmented: 64 clusters is rejected (one broadcast domain).
        assert!(Config { clusters: 64, ..Config::default() }.validate().is_err());
        // Segmented: fleets up to 4096 clusters are valid.
        let seg = |clusters, size| Config { clusters, bus_segment_size: size, ..Config::default() };
        assert!(seg(64, 16).validate().is_ok());
        assert!(seg(4096, 32).validate().is_ok());
        assert!(seg(5000, 32).validate().is_err(), "4096 is the fleet ceiling");
        assert!(seg(64, 1).validate().is_err(), "a 1-cluster segment cannot host backups");
        assert!(seg(64, 33).validate().is_err(), "a segment is still a ≤32 broadcast domain");
        // Segmenting a paper-sized machine is allowed (k-segment twins).
        assert!(seg(8, 4).validate().is_ok());
    }

    #[test]
    fn bus_cost_scales_with_size() {
        assert!(cost::bus_xmit(1024) > cost::bus_xmit(16));
        assert_eq!(cost::bus_xmit(0), cost::BUS_LATENCY);
    }

    #[test]
    fn copy_cost_rounds_up() {
        assert_eq!(cost::copy(1), cost::copy(64));
        assert!(cost::copy(65) > cost::copy(64));
    }
}
