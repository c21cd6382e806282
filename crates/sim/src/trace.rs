//! The flight recorder: a structured, typed trace log.
//!
//! The kernel and servers emit trace events describing what happened and
//! *where* (which cluster, which processor class). Tests assert against the
//! trace — e.g. that backup message copies were handled by the executive
//! processor and never billed to a work processor (paper §8.1) — and the
//! bench harness aggregates it into the experiment tables.
//!
//! Events are **typed**: every emission is a [`TraceKind`] variant carrying
//! structured fields (frame ids, endpoints, sync generations, crash causes),
//! not free text. The [`fmt::Display`] impl renders the same human-readable
//! lines the log always produced, so text is a *view* of the event, never
//! the event itself. On top of the typed stream the log maintains a rolling
//! FNV-1a fingerprint per category — updated at emission time, so it is
//! invariant to ring-buffer eviction — and supports a bounded ring mode
//! that makes capture-all affordable inside chaos sweeps.
//!
//! [`first_divergence`] compares two recorded streams and reports the first
//! event where they part ways, with surrounding context; the determinism
//! suite and the chaos oracle use it to localize digest mismatches.

use std::collections::VecDeque;
use std::fmt;

use crate::time::VTime;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one 64-bit word into an FNV-1a accumulator, byte by byte.
fn fold(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Broad category of a trace event, used for filtering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceCategory {
    /// Bus transmissions and deliveries.
    Bus,
    /// Message enqueue/dequeue on routing-table entries.
    Message,
    /// Primary/backup synchronization operations.
    Sync,
    /// Process lifecycle: fork, exit, backup creation, promotion.
    Process,
    /// Scheduling decisions and quantum accounting.
    Sched,
    /// Page traffic between processes and the page server.
    Paging,
    /// File, raw, and tty server activity.
    Server,
    /// Crash detection, crash handling, and recovery.
    Crash,
    /// Signal generation and delivery.
    Signal,
}

impl TraceCategory {
    /// Every category, in fingerprint-slot order.
    pub const ALL: [TraceCategory; 9] = [
        TraceCategory::Bus,
        TraceCategory::Message,
        TraceCategory::Sync,
        TraceCategory::Process,
        TraceCategory::Sched,
        TraceCategory::Paging,
        TraceCategory::Server,
        TraceCategory::Crash,
        TraceCategory::Signal,
    ];

    /// Stable slot index of this category (fingerprint array position).
    pub fn index(self) -> usize {
        match self {
            TraceCategory::Bus => 0,
            TraceCategory::Message => 1,
            TraceCategory::Sync => 2,
            TraceCategory::Process => 3,
            TraceCategory::Sched => 4,
            TraceCategory::Paging => 5,
            TraceCategory::Server => 6,
            TraceCategory::Crash => 7,
            TraceCategory::Signal => 8,
        }
    }

    /// The category's bit in the enablement mask.
    pub fn bit(self) -> u16 {
        1u16 << self.index()
    }
}

/// Where an event happened: a specific cluster, or the shared fabric
/// (bus, link layer, devices) that belongs to no single cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Loc {
    /// System-wide machinery: the intercluster bus, link ledger, devices.
    World,
    /// One cluster, by id.
    Cluster(u16),
}

impl Loc {
    /// The cluster id, if the event is cluster-local.
    pub fn cluster(self) -> Option<u16> {
        match self {
            Loc::World => None,
            Loc::Cluster(c) => Some(c),
        }
    }

    /// Stable word for fingerprinting (0 = world, c+1 = cluster c).
    fn code(self) -> u64 {
        match self {
            Loc::World => 0,
            Loc::Cluster(c) => c as u64 + 1,
        }
    }
}

/// Which physical bus of the dual pair, mirrored into the trace layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceBus {
    /// Bus A.
    A,
    /// Bus B.
    B,
}

impl fmt::Display for TraceBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceBus::A => f.write_str("A"),
            TraceBus::B => f.write_str("B"),
        }
    }
}

/// A transient wire fault, mirrored into the trace layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceWireFault {
    /// The frame vanished.
    Drop,
    /// The frame arrived mangled; the receiver checksum caught it.
    Corrupt,
    /// The frame arrived twice.
    Duplicate,
    /// The frame arrived late by this many ticks.
    Delay(u64),
}

impl fmt::Display for TraceWireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceWireFault::Drop => f.write_str("Drop"),
            TraceWireFault::Corrupt => f.write_str("Corrupt"),
            TraceWireFault::Duplicate => f.write_str("Duplicate"),
            TraceWireFault::Delay(d) => write!(f, "Delay(Dur({d}))"),
        }
    }
}

impl TraceWireFault {
    fn code(self) -> u64 {
        match self {
            TraceWireFault::Drop => 1,
            TraceWireFault::Corrupt => 2,
            TraceWireFault::Duplicate => 3,
            TraceWireFault::Delay(d) => 4u64.wrapping_add(d << 2),
        }
    }
}

/// Why the link protocol retransmitted or abandoned a flight.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RetryWhy {
    /// No acknowledgement arrived inside the timeout.
    AckTimeout,
    /// The receiver's checksum rejected the frame and NAKed it.
    Nak,
    /// No healthy bus was available to carry the retry.
    NoHealthyBus,
}

impl fmt::Display for RetryWhy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryWhy::AckTimeout => f.write_str("ack timeout"),
            RetryWhy::Nak => f.write_str("NAK"),
            RetryWhy::NoHealthyBus => f.write_str("no healthy bus"),
        }
    }
}

/// A channel endpoint, mirrored into the trace layer as raw ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceEnd {
    /// The channel's globally unique id.
    pub channel: u64,
    /// `true` for side B, `false` for side A.
    pub side_b: bool,
}

impl fmt::Display for TraceEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Matches the old `{:?}` rendering of the kernel's ChanEnd, so
        // recorded lines are stable across the typed-event migration.
        write!(
            f,
            "ChanEnd {{ channel: ChannelId({}), side: {} }}",
            self.channel,
            if self.side_b { "B" } else { "A" }
        )
    }
}

/// A guest fault that killed a process (crash cause, §7.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceFault {
    /// Jump or fall-through to an instruction index outside the program.
    BadPc(u64),
    /// Access outside the representable address space.
    BadAddress(u64),
    /// `sigreturn` without an active signal frame.
    StraySigReturn,
    /// Signal handler nesting too deep.
    SignalOverflow,
}

impl fmt::Display for TraceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFault::BadPc(pc) => write!(f, "jump to invalid pc {pc}"),
            TraceFault::BadAddress(a) => write!(f, "access to invalid address {a:#x}"),
            TraceFault::StraySigReturn => f.write_str("sigreturn without active signal frame"),
            TraceFault::SignalOverflow => f.write_str("signal handler nesting too deep"),
        }
    }
}

impl TraceFault {
    fn code(self) -> u64 {
        match self {
            TraceFault::BadPc(pc) => 1u64.wrapping_add(pc << 2),
            TraceFault::BadAddress(a) => 2u64.wrapping_add(a << 2),
            TraceFault::StraySigReturn => 3,
            TraceFault::SignalOverflow => 4,
        }
    }
}

/// Renders a signal number with its conventional name.
fn sig_name(f: &mut fmt::Formatter<'_>, sig: u8) -> fmt::Result {
    match sig {
        2 => f.write_str("SIGINT"),
        9 => f.write_str("SIGKILL"),
        10 => f.write_str("SIGUSR1"),
        14 => f.write_str("SIGALRM"),
        n => write!(f, "SIG{n}"),
    }
}

/// What happened: one typed, allocation-free trace event.
///
/// Process and cluster ids are raw (`p{n}` / `c{n}` in rendered form);
/// endpoints, faults, and bus identities are mirrored by the small
/// trace-layer types above so the substrate stays free of kernel types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceKind {
    // ---------------------------------------------------------- Bus ----
    /// A frame could not be launched: no healthy bus (§7.4.2 dual pair).
    FrameLostNoBus,
    /// A transient wire fault hit one transmission window.
    WireFault {
        /// The bus that carried the faulted window.
        bus: TraceBus,
        /// The in-flight ledger entry hit.
        flight: u64,
        /// Transmission attempt number (0 = first).
        attempt: u64,
        /// What the wire did to the frame.
        fault: TraceWireFault,
    },
    /// A flaky bus was benched after repeated faulted windows.
    BusQuarantined {
        /// The benched bus.
        bus: TraceBus,
        /// Consecutive faulted windows that triggered the bench.
        after: u64,
        /// The bus now carrying traffic.
        survivor: TraceBus,
    },
    /// The link protocol retransmitted a flight.
    Retransmit {
        /// The new attempt number.
        attempt: u64,
        /// The in-flight ledger entry.
        flight: u64,
        /// Why the retry happened.
        why: RetryWhy,
        /// The bus granted the retry window.
        bus: TraceBus,
    },
    /// A flight exhausted its retransmit budget and was dropped for good.
    FlightAbandoned {
        /// The in-flight ledger entry.
        flight: u64,
        /// Total transmission attempts made.
        attempts: u64,
        /// Why the last retry was not granted.
        why: RetryWhy,
        /// The lost message.
        msg: u64,
    },
    /// A probe of a quarantined bus came back clean; it returns to duty.
    ProbeHealed {
        /// The healed bus.
        bus: TraceBus,
    },
    /// A probe of a quarantined bus was lost; quarantine continues.
    ProbeLost {
        /// The still-benched bus.
        bus: TraceBus,
    },
    /// The active bus failed; in-flight frames moved to the standby.
    BusFailover {
        /// Frames retransmitted on the survivor.
        retransmitted: u64,
        /// The surviving bus.
        survivor: TraceBus,
    },
    /// Both buses of the dual pair have failed.
    BothBusesFailed {
        /// In-flight frames lost with the fabric.
        lost: u64,
    },
    /// A receiver checksum rejected a corrupted frame and NAKed it.
    ChecksumReject {
        /// The rejected message.
        msg: u64,
        /// The transmitting cluster, NAK destination.
        src: u16,
    },
    /// The link layer suppressed a duplicate frame (§5.4 at the wire).
    LinkDupSuppressed {
        /// The suppressed message.
        msg: u64,
    },
    /// A frame arrived ahead of a link-sequence gap and is held.
    FrameHeld {
        /// The held message.
        msg: u64,
    },
    /// A link-sequence gap closed; a held frame is delivered in order.
    GapClosed {
        /// The released message.
        msg: u64,
    },
    /// One frame reached all its target clusters (§5.1 atomic delivery).
    FrameDeliver {
        /// The delivered message.
        msg: u64,
        /// The transmitting cluster.
        src: u16,
        /// Number of target clusters.
        targets: u64,
    },
    // ------------------------------------------------------ Message ----
    /// A re-sent message was recognized and suppressed (§5.4).
    SendSuppressed {
        /// The sending process.
        src: u64,
        /// The endpoint of the duplicate send.
        end: TraceEnd,
    },
    /// A message was queued on the primary destination's entry (§7.4.2).
    PrimaryDelivery {
        /// The delivered message.
        msg: u64,
        /// The destination endpoint.
        end: TraceEnd,
        /// The endpoint's owning process.
        owner: u64,
    },
    /// A message copy was saved on the destination's backup entry.
    BackupSave {
        /// The saved message.
        msg: u64,
        /// The backed-up endpoint.
        end: TraceEnd,
        /// Position in the backup queue.
        seq: u64,
        /// The sending process.
        src: u64,
    },
    /// A backup queue hit its bound; sync demanded from the primary (§7.8).
    SyncDemanded {
        /// The process whose backup queue filled.
        owner: u64,
        /// The primary's cluster, target of the demand.
        primary: u16,
    },
    /// A process consumed a queued message.
    Consumed {
        /// The reading process.
        pid: u64,
        /// The consumed message.
        msg: u64,
        /// The endpoint read from.
        end: TraceEnd,
        /// The original sender.
        src: u64,
    },
    // --------------------------------------------------------- Sync ----
    /// A primary began a synchronization (§5.2), flushing dirty pages.
    SyncStart {
        /// The syncing process.
        pid: u64,
        /// The new sync generation.
        gen: u64,
        /// Dirty pages flushed with the record.
        flushed: u64,
    },
    /// Backpressure forced a synchronization of a process (§7.8).
    ForcedSync {
        /// The process forced to sync.
        pid: u64,
    },
    /// A backup cluster applied a sync record.
    SyncApplied {
        /// The process whose backup advanced.
        pid: u64,
        /// The applied generation.
        gen: u64,
        /// `true` if this sync created the backup.
        is_new: bool,
    },
    /// A process wrote an explicit checkpoint (baseline comparison, §2).
    Checkpoint {
        /// The checkpointing process.
        pid: u64,
        /// Serialized state size.
        bytes: u64,
        /// Checkpoint ordinal.
        number: u64,
    },
    // ------------------------------------------------------ Process ----
    /// A birth notice reached the parent's backup (§7.5.1).
    BirthNotice {
        /// The forking parent.
        parent: u64,
        /// The parent's fork ordinal.
        fork_index: u64,
        /// The child created.
        child: u64,
    },
    /// A process was killed by a guest fault.
    Killed {
        /// The dead process.
        pid: u64,
        /// The fault that killed it.
        fault: TraceFault,
    },
    /// A process exited normally.
    Finished {
        /// The exiting process.
        pid: u64,
        /// Its exit status.
        status: u64,
    },
    /// A process forked a child.
    Forked {
        /// The parent.
        pid: u64,
        /// The child.
        child: u64,
        /// The parent's fork ordinal.
        index: u64,
    },
    // -------------------------------------------------------- Sched ----
    /// The work processor dispatched a process for a quantum.
    Dispatched {
        /// The process given the processor.
        pid: u64,
    },
    // ------------------------------------------------------- Paging ----
    /// The kernel evicted a page to the page server.
    PageEvicted {
        /// The owning process.
        pid: u64,
        /// The evicted page number.
        page: u64,
        /// Whether the page carried modifications.
        dirty: bool,
    },
    /// The kernel installed a faulted page.
    PageInstalled {
        /// The owning process.
        pid: u64,
        /// The installed page number.
        page: u64,
    },
    // -------------------------------------------------------- Crash ----
    /// A cluster stopped (fault injection or hardware model).
    ClusterCrashed,
    /// Kernel polling noticed a silent cluster (§7.10 detection).
    CrashDetected {
        /// The dead cluster.
        dead: u16,
    },
    /// Crash handling began: scanning routing entries for casualties.
    CrashHandlingBegin {
        /// The dead cluster being handled.
        dead: u16,
        /// Routing entries to scan.
        entries: u64,
    },
    /// Crash handling for a dead cluster completed.
    CrashHandlingDone {
        /// The handled cluster.
        dead: u16,
    },
    /// A replacement backup was placed for a survivor (§7.10.1).
    BackupPlaced {
        /// The process re-protected.
        pid: u64,
        /// The cluster hosting the new backup.
        cluster: u16,
    },
    /// No cluster could host a replacement backup; running unprotected.
    NoBackupCluster {
        /// The now-unprotected process.
        pid: u64,
    },
    /// A backup is being promoted to primary (§7.10.1 step 5).
    PromotingBackup {
        /// The process whose backup takes over.
        pid: u64,
        /// The sync generation it rolls forward from.
        gen: u64,
    },
    /// A backup could not be promoted (missing program text).
    PromotionAbandoned {
        /// The unpromotable process.
        pid: u64,
    },
    /// A partial failure killed one process; the cluster stays up (§7.10.3).
    PartialFailure {
        /// The process lost.
        pid: u64,
    },
    /// Crash handling re-ran a fork the dead parent had performed.
    ForkReplayed {
        /// The recreated child.
        child: u64,
        /// The replaying parent.
        parent: u64,
    },
    /// A repaired cluster returned to service.
    ClusterRestored,
    /// One half of a mirrored device failed (§7.9).
    DiskHalfFailed {
        /// The device index.
        device: u64,
        /// `true` if the second half died (first otherwise).
        second: bool,
    },
    // ------------------------------------------------------- Signal ----
    /// An uncaught signal killed its target (§7.5.2).
    SignalKilled {
        /// The dead process.
        owner: u64,
        /// The fatal signal number.
        sig: u8,
    },
    /// A process entered a signal handler.
    SignalHandling {
        /// The handling process.
        pid: u64,
        /// The delivered signal number.
        sig: u8,
        /// The handler's program counter.
        handler: u64,
    },
    // -------------------------------------------- Crash (supervision) ----
    /// The supervisor granted a process reincarnation.
    SupervisionRestart {
        /// The process being reincarnated.
        pid: u64,
        /// Restart ordinal within the sliding window (1 = first).
        restart: u64,
        /// Backoff ticks before the promotion (0 = immediate).
        delay: u64,
    },
    /// A poisoned message killed its consumer.
    SupervisionPoisonKill {
        /// The process killed mid-consume.
        pid: u64,
        /// The poisoned message.
        msg: u64,
    },
    /// A message was quarantined into the dead-letter ledger after
    /// repeatedly killing its consumer.
    SupervisionQuarantine {
        /// The repeatedly killed process.
        pid: u64,
        /// The quarantined message.
        msg: u64,
        /// Consecutive deaths the message caused before quarantine.
        deaths: u64,
    },
    /// The restart budget ran dry; the supervisor stopped reincarnating.
    SupervisionGiveUp {
        /// The process abandoned.
        pid: u64,
        /// Restarts spent inside the window before giving up.
        restarts: u64,
    },
    /// A quarantined message was diverted: its saved backup copies were
    /// purged, so the next reincarnation rolls forward past it.
    SupervisionDivert {
        /// The repeatedly killed process.
        pid: u64,
        /// The diverted message.
        msg: u64,
    },
}

impl TraceKind {
    /// The category this kind belongs to.
    pub fn category(&self) -> TraceCategory {
        use TraceKind::*;
        match self {
            FrameLostNoBus
            | WireFault { .. }
            | BusQuarantined { .. }
            | Retransmit { .. }
            | FlightAbandoned { .. }
            | ProbeHealed { .. }
            | ProbeLost { .. }
            | BusFailover { .. }
            | BothBusesFailed { .. }
            | ChecksumReject { .. }
            | LinkDupSuppressed { .. }
            | FrameHeld { .. }
            | GapClosed { .. }
            | FrameDeliver { .. } => TraceCategory::Bus,
            SendSuppressed { .. }
            | PrimaryDelivery { .. }
            | BackupSave { .. }
            | SyncDemanded { .. }
            | Consumed { .. } => TraceCategory::Message,
            SyncStart { .. } | ForcedSync { .. } | SyncApplied { .. } | Checkpoint { .. } => {
                TraceCategory::Sync
            }
            BirthNotice { .. } | Killed { .. } | Finished { .. } | Forked { .. } => {
                TraceCategory::Process
            }
            Dispatched { .. } => TraceCategory::Sched,
            PageEvicted { .. } | PageInstalled { .. } => TraceCategory::Paging,
            ClusterCrashed
            | CrashDetected { .. }
            | CrashHandlingBegin { .. }
            | CrashHandlingDone { .. }
            | BackupPlaced { .. }
            | NoBackupCluster { .. }
            | PromotingBackup { .. }
            | PromotionAbandoned { .. }
            | PartialFailure { .. }
            | ForkReplayed { .. }
            | ClusterRestored
            | DiskHalfFailed { .. }
            | SupervisionRestart { .. }
            | SupervisionPoisonKill { .. }
            | SupervisionQuarantine { .. }
            | SupervisionGiveUp { .. }
            | SupervisionDivert { .. } => TraceCategory::Crash,
            SignalKilled { .. } | SignalHandling { .. } => TraceCategory::Signal,
        }
    }

    /// Folds the kind (discriminant and every field) into an FNV-1a
    /// accumulator. Codes are stable: appending new variants must not
    /// renumber existing ones or recorded fingerprints shift.
    fn fold_into(&self, mut h: u64) -> u64 {
        use TraceKind::*;
        let words: (u64, [u64; 4]) = match *self {
            FrameLostNoBus => (1, [0; 4]),
            WireFault { bus, flight, attempt, fault } => {
                (2, [bus as u64, flight, attempt, fault.code()])
            }
            BusQuarantined { bus, after, survivor } => (3, [bus as u64, after, survivor as u64, 0]),
            Retransmit { attempt, flight, why, bus } => {
                (4, [attempt, flight, why as u64, bus as u64])
            }
            FlightAbandoned { flight, attempts, why, msg } => {
                (5, [flight, attempts, why as u64, msg])
            }
            ProbeHealed { bus } => (6, [bus as u64, 0, 0, 0]),
            ProbeLost { bus } => (7, [bus as u64, 0, 0, 0]),
            BusFailover { retransmitted, survivor } => (8, [retransmitted, survivor as u64, 0, 0]),
            BothBusesFailed { lost } => (9, [lost, 0, 0, 0]),
            ChecksumReject { msg, src } => (10, [msg, src as u64, 0, 0]),
            LinkDupSuppressed { msg } => (11, [msg, 0, 0, 0]),
            FrameHeld { msg } => (12, [msg, 0, 0, 0]),
            GapClosed { msg } => (13, [msg, 0, 0, 0]),
            FrameDeliver { msg, src, targets } => (14, [msg, src as u64, targets, 0]),
            SendSuppressed { src, end } => (15, [src, end.channel, end.side_b as u64, 0]),
            PrimaryDelivery { msg, end, owner } => {
                (16, [msg, end.channel, end.side_b as u64, owner])
            }
            BackupSave { msg, end, seq, src } => {
                (17, [msg, end.channel ^ ((end.side_b as u64) << 63), seq, src])
            }
            SyncDemanded { owner, primary } => (18, [owner, primary as u64, 0, 0]),
            Consumed { pid, msg, end, src } => {
                (19, [pid, msg, end.channel ^ ((end.side_b as u64) << 63), src])
            }
            SyncStart { pid, gen, flushed } => (20, [pid, gen, flushed, 0]),
            ForcedSync { pid } => (21, [pid, 0, 0, 0]),
            SyncApplied { pid, gen, is_new } => (22, [pid, gen, is_new as u64, 0]),
            Checkpoint { pid, bytes, number } => (23, [pid, bytes, number, 0]),
            BirthNotice { parent, fork_index, child } => (24, [parent, fork_index, child, 0]),
            Killed { pid, fault } => (25, [pid, fault.code(), 0, 0]),
            Finished { pid, status } => (26, [pid, status, 0, 0]),
            Forked { pid, child, index } => (27, [pid, child, index, 0]),
            Dispatched { pid } => (28, [pid, 0, 0, 0]),
            PageEvicted { pid, page, dirty } => (29, [pid, page, dirty as u64, 0]),
            PageInstalled { pid, page } => (30, [pid, page, 0, 0]),
            ClusterCrashed => (31, [0; 4]),
            CrashDetected { dead } => (32, [dead as u64, 0, 0, 0]),
            CrashHandlingBegin { dead, entries } => (33, [dead as u64, entries, 0, 0]),
            CrashHandlingDone { dead } => (34, [dead as u64, 0, 0, 0]),
            BackupPlaced { pid, cluster } => (35, [pid, cluster as u64, 0, 0]),
            NoBackupCluster { pid } => (36, [pid, 0, 0, 0]),
            PromotingBackup { pid, gen } => (37, [pid, gen, 0, 0]),
            PromotionAbandoned { pid } => (38, [pid, 0, 0, 0]),
            PartialFailure { pid } => (39, [pid, 0, 0, 0]),
            ForkReplayed { child, parent } => (40, [child, parent, 0, 0]),
            ClusterRestored => (41, [0; 4]),
            DiskHalfFailed { device, second } => (42, [device, second as u64, 0, 0]),
            SignalKilled { owner, sig } => (43, [owner, sig as u64, 0, 0]),
            SignalHandling { pid, sig, handler } => (44, [pid, sig as u64, handler, 0]),
            SupervisionRestart { pid, restart, delay } => (45, [pid, restart, delay, 0]),
            SupervisionPoisonKill { pid, msg } => (46, [pid, msg, 0, 0]),
            SupervisionQuarantine { pid, msg, deaths } => (47, [pid, msg, deaths, 0]),
            SupervisionGiveUp { pid, restarts } => (48, [pid, restarts, 0, 0]),
            SupervisionDivert { pid, msg } => (49, [pid, msg, 0, 0]),
        };
        h = fold(h, words.0);
        for w in words.1 {
            h = fold(h, w);
        }
        h
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceKind::*;
        match *self {
            FrameLostNoBus => f.write_str("frame lost: no healthy bus"),
            WireFault { bus, flight, attempt, fault } => {
                write!(f, "wire fault on {bus}: flight {flight} attempt {attempt} {fault}")
            }
            BusQuarantined { bus, after, survivor } => write!(
                f,
                "{bus} quarantined after {after} consecutive wire faults; \
                 traffic moves to {survivor}"
            ),
            Retransmit { attempt, flight, why, bus } => {
                write!(f, "retransmit #{attempt} of flight {flight} ({why}) on {bus}")
            }
            FlightAbandoned { flight, attempts, why, msg } => write!(
                f,
                "flight {flight} abandoned after {attempts} attempts ({why}): \
                 MsgId({msg}) is lost"
            ),
            ProbeHealed { bus } => {
                write!(f, "probe on {bus} came back clean; healed to standby")
            }
            ProbeLost { bus } => write!(f, "probe on {bus} lost; quarantine continues"),
            BusFailover { retransmitted, survivor } => write!(
                f,
                "active bus failed; {retransmitted} in-flight frames \
                 retransmitted on {survivor}"
            ),
            BothBusesFailed { lost } => {
                write!(f, "both buses failed; {lost} in-flight frames lost")
            }
            ChecksumReject { msg, src } => {
                write!(f, "checksum rejected corrupted MsgId({msg}); NAK to c{src}")
            }
            LinkDupSuppressed { msg } => {
                write!(f, "duplicate MsgId({msg}) suppressed by link layer")
            }
            FrameHeld { msg } => write!(f, "MsgId({msg}) held behind a link-sequence gap"),
            GapClosed { msg } => {
                write!(f, "gap closed; held MsgId({msg}) delivered in order")
            }
            FrameDeliver { msg, src, targets } => {
                write!(f, "deliver MsgId({msg}) from c{src} to {targets} targets")
            }
            SendSuppressed { src, end } => {
                write!(f, "p{src} suppressed duplicate send on {end}")
            }
            PrimaryDelivery { msg, end, owner } => {
                write!(f, "primary delivery MsgId({msg}) on {end} for p{owner}")
            }
            BackupSave { msg, end, seq, src } => {
                write!(f, "backup save MsgId({msg}) on {end} seq {seq} src p{src}")
            }
            SyncDemanded { owner, primary } => {
                write!(f, "backup queue for p{owner} at its bound; demanding sync from c{primary}")
            }
            Consumed { pid, msg, end, src } => {
                write!(f, "p{pid} consumed MsgId({msg}) on {end} src p{src}")
            }
            SyncStart { pid, gen, flushed } => {
                write!(f, "p{pid} syncs (gen {gen}) flushing {flushed} pages")
            }
            ForcedSync { pid } => write!(f, "backpressure: forced sync of p{pid}"),
            SyncApplied { pid, gen, is_new } => {
                write!(f, "applied sync gen {gen} for p{pid} (new={is_new})")
            }
            Checkpoint { pid, bytes, number } => {
                write!(f, "p{pid} checkpoints {bytes} bytes (#{number})")
            }
            BirthNotice { parent, fork_index, child } => {
                write!(f, "birth notice: p{parent} fork #{fork_index} -> p{child}")
            }
            Killed { pid, fault } => write!(f, "p{pid} killed: {fault}"),
            Finished { pid, status } => write!(f, "p{pid} finished with status {status}"),
            Forked { pid, child, index } => {
                write!(f, "p{pid} forks p{child} (index {index})")
            }
            Dispatched { pid } => write!(f, "dispatched p{pid} for a quantum"),
            PageEvicted { pid, page, dirty } => {
                write!(f, "p{pid} evicted page PageNo({page}) (dirty={dirty})")
            }
            PageInstalled { pid, page } => {
                write!(f, "installed page PageNo({page}) for p{pid}")
            }
            ClusterCrashed => f.write_str("cluster crashed"),
            CrashDetected { dead } => write!(f, "polling detected crash of c{dead}"),
            CrashHandlingBegin { dead, entries } => {
                write!(f, "crash handling for c{dead} begins ({entries} entries to scan)")
            }
            CrashHandlingDone { dead } => write!(f, "crash handling for c{dead} complete"),
            BackupPlaced { pid, cluster } => {
                write!(f, "new backup for p{pid} placed at c{cluster}")
            }
            NoBackupCluster { pid } => {
                write!(f, "no cluster available for p{pid}'s new backup; running unprotected")
            }
            PromotingBackup { pid, gen } => {
                write!(f, "promoting backup of p{pid} (sync gen {gen})")
            }
            PromotionAbandoned { pid } => {
                write!(f, "backup of p{pid} lacks program text; promotion abandoned")
            }
            PartialFailure { pid } => {
                write!(f, "partial failure kills p{pid}; cluster stays up")
            }
            ForkReplayed { child, parent } => {
                write!(f, "replayed fork recreates p{child} from p{parent}")
            }
            ClusterRestored => f.write_str("cluster restored to service"),
            DiskHalfFailed { device, second } => write!(
                f,
                "device {device} lost its {} half; continuing on the survivor",
                if second { "second" } else { "first" }
            ),
            SignalKilled { owner, sig } => {
                write!(f, "p{owner} killed by uncaught ")?;
                sig_name(f, sig)
            }
            SignalHandling { pid, sig, handler } => {
                write!(f, "p{pid} handling ")?;
                sig_name(f, sig)?;
                write!(f, " at pc {handler}")
            }
            SupervisionRestart { pid, restart, delay } => {
                write!(f, "supervisor grants p{pid} restart #{restart} (backoff {delay} ticks)")
            }
            SupervisionPoisonKill { pid, msg } => {
                write!(f, "poisoned MsgId({msg}) kills consumer p{pid}")
            }
            SupervisionQuarantine { pid, msg, deaths } => write!(
                f,
                "MsgId({msg}) quarantined to the dead-letter ledger after \
                 {deaths} deaths of p{pid}"
            ),
            SupervisionGiveUp { pid, restarts } => {
                write!(f, "restart budget exhausted after {restarts} restarts; p{pid} abandoned")
            }
            SupervisionDivert { pid, msg } => {
                write!(f, "MsgId({msg}) diverted: saved copies purged, p{pid} replays past it")
            }
        }
    }
}

/// One trace record.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceEvent {
    /// Virtual time the event occurred.
    pub at: VTime,
    /// Where the event occurred.
    pub loc: Loc,
    /// The typed event.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// The event's category (derived from its kind).
    pub fn category(&self) -> TraceCategory {
        self.kind.category()
    }

    /// The cluster the event occurred in, if cluster-local.
    pub fn cluster(&self) -> Option<u16> {
        self.loc.cluster()
    }

    /// The rendered description (the old free-text `what`).
    pub fn what(&self) -> String {
        self.kind.to_string()
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.loc {
            Loc::Cluster(c) => {
                write!(f, "[{:>10}] c{} {:?}: {}", self.at, c, self.category(), self.kind)
            }
            Loc::World => {
                write!(f, "[{:>10}] -- {:?}: {}", self.at, self.category(), self.kind)
            }
        }
    }
}

/// The flight recorder: a trace log with per-category enablement, rolling
/// per-category fingerprints, and an optional bounded ring buffer.
///
/// Disabled by default so that benches pay nothing for tracing; tests turn
/// on the categories they assert against. Fingerprints are updated at
/// emission time for every *captured* category, so they are invariant to
/// ring eviction: a bounded log and an unbounded log fed the same events
/// report identical fingerprints.
#[derive(Debug, Default)]
pub struct TraceLog {
    events: VecDeque<TraceEvent>,
    /// Bit `TraceCategory::index()` set ⇒ category captured.
    enabled: u16,
    capture_all: bool,
    /// Ring capacity; 0 = unbounded.
    cap: usize,
    /// Events evicted by the ring (capture happened; storage did not).
    evicted: u64,
    /// Rolling FNV-1a fingerprint per category slot.
    fps: [u64; 9],
}

impl TraceLog {
    /// Creates a log with all categories disabled.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Creates a log capturing every category, unbounded.
    pub fn capture_all() -> TraceLog {
        TraceLog { capture_all: true, ..TraceLog::default() }
    }

    /// Creates a log capturing every category into a bounded ring that
    /// keeps only the most recent `cap` events. Fingerprints still cover
    /// every emitted event, evicted or not.
    pub fn ring(cap: usize) -> TraceLog {
        TraceLog { capture_all: true, cap, ..TraceLog::default() }
    }

    /// Enables capture of one category.
    pub fn enable(&mut self, cat: TraceCategory) {
        self.enabled |= cat.bit();
    }

    /// Returns `true` if events of `cat` are being captured.
    #[inline]
    pub fn wants(&self, cat: TraceCategory) -> bool {
        self.capture_all || self.enabled & cat.bit() != 0
    }

    /// Records a typed event if its category is enabled.
    ///
    /// Kinds are plain `Copy` data, so a disabled category costs the
    /// `wants` branch and nothing else — no allocation, no formatting.
    #[inline]
    pub fn emit(&mut self, at: VTime, loc: Loc, kind: TraceKind) {
        let cat = kind.category();
        if !self.wants(cat) {
            return;
        }
        let slot = cat.index();
        let mut h = if self.fps[slot] == 0 { FNV_OFFSET } else { self.fps[slot] };
        h = fold(h, at.0);
        h = fold(h, loc.code());
        self.fps[slot] = kind.fold_into(h);
        if self.cap > 0 && self.events.len() >= self.cap {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(TraceEvent { at, loc, kind });
    }

    /// All retained events, in emission order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring since the last [`clear`](Self::clear).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained events of one category.
    pub fn of(&self, cat: TraceCategory) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.category() == cat)
    }

    /// Count of retained events satisfying a typed predicate.
    pub fn count_where(&self, pred: impl Fn(&TraceKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Count of retained events of one category whose rendered text
    /// contains `needle`. Prefer [`count_where`](Self::count_where) with a
    /// typed match; this exists for quick exploratory assertions.
    pub fn count_matching(&self, cat: TraceCategory, needle: &str) -> usize {
        self.of(cat).filter(|e| e.kind.to_string().contains(needle)).count()
    }

    /// The rolling fingerprint of one category: an FNV-1a hash of every
    /// event of that category ever emitted to this log (0 = none yet).
    /// Unaffected by ring eviction and by which *other* categories are
    /// enabled.
    pub fn fingerprint(&self, cat: TraceCategory) -> u64 {
        self.fps[cat.index()]
    }

    /// All nine per-category fingerprints, in [`TraceCategory::ALL`] order.
    pub fn fingerprints(&self) -> [u64; 9] {
        self.fps
    }

    /// A contiguous copy of the retained events (differ input).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }

    /// Discards all captured events and fingerprints, keeping enablement
    /// and ring configuration.
    pub fn clear(&mut self) {
        self.events.clear();
        self.evicted = 0;
        self.fps = [0; 9];
    }
}

/// How far [`first_divergence`] looks around the divergence point.
pub const DIVERGENCE_CONTEXT: usize = 3;

/// The first point where two recorded event streams part ways.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index (into both streams) of the first differing event.
    pub index: usize,
    /// The left stream's event at `index`, if it has one.
    pub left: Option<TraceEvent>,
    /// The right stream's event at `index`, if it has one.
    pub right: Option<TraceEvent>,
    /// Up to [`DIVERGENCE_CONTEXT`] matching events before the divergence.
    pub context: Vec<TraceEvent>,
}

impl Divergence {
    /// Virtual time of the divergence: the earlier of the two sides'
    /// timestamps (an absent side counts as the end of its run).
    pub fn at(&self) -> VTime {
        match (self.left, self.right) {
            (Some(l), Some(r)) => l.at.min(r.at),
            (Some(l), None) => l.at,
            (None, Some(r)) => r.at,
            (None, None) => VTime::ZERO,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "streams diverge at event #{} (vt {}):", self.index, self.at())?;
        for e in &self.context {
            writeln!(f, "    = {e}")?;
        }
        match self.left {
            Some(e) => writeln!(f, "  left  > {e}")?,
            None => writeln!(f, "  left  > (stream ends)")?,
        }
        match self.right {
            Some(e) => writeln!(f, "  right > {e}")?,
            None => writeln!(f, "  right > (stream ends)")?,
        }
        Ok(())
    }
}

/// Compares two recorded streams and reports the first divergent event
/// with surrounding context, or `None` if one stream is a prefix-equal
/// twin of the other (same length, same events).
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<Divergence> {
    let shared = left.len().min(right.len());
    let index = (0..shared).find(|&i| left[i] != right[i]).unwrap_or(shared);
    if index == left.len() && index == right.len() {
        return None;
    }
    let from = index.saturating_sub(DIVERGENCE_CONTEXT);
    Some(Divergence {
        index,
        left: left.get(index).copied(),
        right: right.get(index).copied(),
        context: left[from..index].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TraceKind {
        TraceKind::Dispatched { pid: n }
    }

    #[test]
    fn disabled_categories_are_not_captured() {
        let mut log = TraceLog::new();
        log.emit(VTime(1), Loc::World, TraceKind::FrameLostNoBus);
        assert!(log.is_empty());
        assert_eq!(log.fingerprint(TraceCategory::Bus), 0);
    }

    #[test]
    fn enabled_categories_are_captured() {
        let mut log = TraceLog::new();
        log.enable(TraceCategory::Sync);
        log.emit(VTime(1), Loc::Cluster(0), TraceKind::ForcedSync { pid: 1 });
        log.emit(VTime(2), Loc::World, TraceKind::FrameLostNoBus);
        assert_eq!(log.len(), 1);
        assert_eq!(log.of(TraceCategory::Sync).count(), 1);
    }

    #[test]
    fn capture_all_takes_everything() {
        let mut log = TraceLog::capture_all();
        log.emit(VTime(1), Loc::Cluster(3), TraceKind::ClusterCrashed);
        assert_eq!(log.count_matching(TraceCategory::Crash, "cluster crashed"), 1);
        assert_eq!(log.count_where(|k| matches!(k, TraceKind::ClusterCrashed)), 1);
    }

    #[test]
    fn display_renders_cluster_and_old_phrasing() {
        let e = TraceEvent {
            at: VTime(5),
            loc: Loc::Cluster(2),
            kind: TraceKind::PromotingBackup { pid: 7, gen: 3 },
        };
        let s = e.to_string();
        assert!(s.contains("c2"), "{s}");
        assert!(s.contains("promoting backup of p7 (sync gen 3)"), "{s}");
    }

    #[test]
    fn clear_keeps_enablement_and_resets_fingerprints() {
        let mut log = TraceLog::new();
        log.enable(TraceCategory::Sched);
        log.emit(VTime(1), Loc::World, ev(1));
        assert_ne!(log.fingerprint(TraceCategory::Sched), 0);
        log.clear();
        assert!(log.is_empty());
        assert!(log.wants(TraceCategory::Sched));
        assert_eq!(log.fingerprint(TraceCategory::Sched), 0);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_evictions() {
        let mut log = TraceLog::ring(3);
        for i in 0..10 {
            log.emit(VTime(i), Loc::World, ev(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 7);
        let pids: Vec<u64> = log
            .events()
            .map(|e| match e.kind {
                TraceKind::Dispatched { pid } => pid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pids, vec![7, 8, 9]);
    }

    #[test]
    fn fingerprints_survive_ring_eviction() {
        let mut bounded = TraceLog::ring(2);
        let mut unbounded = TraceLog::capture_all();
        for i in 0..50 {
            bounded.emit(VTime(i), Loc::Cluster(1), ev(i));
            unbounded.emit(VTime(i), Loc::Cluster(1), ev(i));
        }
        assert_eq!(bounded.fingerprints(), unbounded.fingerprints());
    }

    #[test]
    fn fingerprint_ignores_other_categories() {
        let mut all = TraceLog::capture_all();
        let mut only = TraceLog::new();
        only.enable(TraceCategory::Sync);
        for i in 0..10 {
            all.emit(VTime(i), Loc::World, ev(i));
            all.emit(VTime(i), Loc::World, TraceKind::ForcedSync { pid: i });
            only.emit(VTime(i), Loc::World, ev(i));
            only.emit(VTime(i), Loc::World, TraceKind::ForcedSync { pid: i });
        }
        assert_eq!(all.fingerprint(TraceCategory::Sync), only.fingerprint(TraceCategory::Sync));
    }

    #[test]
    fn divergence_reports_first_difference_with_context() {
        let mk = |n: u64| TraceEvent { at: VTime(n), loc: Loc::World, kind: ev(n) };
        let a: Vec<TraceEvent> = (0..10).map(mk).collect();
        let mut b = a.clone();
        b[6] = TraceEvent { at: VTime(6), loc: Loc::World, kind: TraceKind::ClusterCrashed };
        assert!(first_divergence(&a, &a).is_none());
        let d = first_divergence(&a, &b).expect("streams differ");
        assert_eq!(d.index, 6);
        assert_eq!(d.at(), VTime(6));
        assert_eq!(d.context.len(), DIVERGENCE_CONTEXT);
        assert!(d.to_string().contains("diverge at event #6"), "{d}");
    }

    #[test]
    fn divergence_detects_length_mismatch() {
        let mk = |n: u64| TraceEvent { at: VTime(n), loc: Loc::World, kind: ev(n) };
        let a: Vec<TraceEvent> = (0..5).map(mk).collect();
        let b: Vec<TraceEvent> = (0..7).map(mk).collect();
        let d = first_divergence(&a, &b).expect("lengths differ");
        assert_eq!(d.index, 5);
        assert!(d.left.is_none());
        assert!(d.right.is_some());
    }
}
