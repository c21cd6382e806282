//! The world: clusters, bus, devices, and the discrete-event loop.
//!
//! One [`World`] is one Auragen 4000 machine plus its workload. The event
//! loop realizes the delivery semantics of §5.1/§7.4.2: a frame occupies
//! an exclusive bus window and is handed to *all* of its live target
//! clusters in a single `BusDeliver` event — all-or-none delivery with no
//! interleaving, by construction.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use auros_bus::proto::kernel_pid;
use auros_bus::proto::{
    BackupMode, ChanEnd, ChanKind, ChannelId, ChannelInit, PagerReply, Payload, ProcReply,
    ProcRequest, ServiceKind, Side,
};
use auros_bus::schedule::Grant;
use auros_bus::{
    BusFabric, BusKind, ClusterId, DeliveryTag, Frame, FrameClass, LinkLedger, Message, MsgId, Pid,
    WireFault,
};
use auros_sim::trace::RetryWhy;
use auros_sim::{Dur, EventQueue, Loc, MetricsRegistry, TraceKind, TraceLog, VTime};

use crate::cluster::{Cluster, PendingFrame};
use crate::config::{
    cost, Config, MAX_RETRANSMITS, QUARANTINE_AFTER, TICKS_PER_FUEL, WORK_PROCESSORS,
};
use crate::process::ProcessState;
use crate::routing::{BackupEntry, Entry, Queued};
use crate::server::Device;
use crate::stats::WorldStats;

/// Slot indices of the per-process (and per-kernel) bootstrap channels.
pub mod ports {
    /// The signal channel (§7.5.2); B side owned by the process server.
    pub const SIGNAL: u8 = 0;
    /// The file server channel (§7.4.1).
    pub const FS: u8 = 1;
    /// The process server channel (§7.5.1).
    pub const PROC: u8 = 2;
}

/// A simulation event.
#[derive(Debug)]
pub enum Event {
    /// A frame completes transmission and reaches all live targets.
    BusDeliver {
        /// The frame, shared with the in-flight ledger and with any
        /// retransmission or wire duplicate of it.
        frame: Arc<Frame>,
        /// When its bus window began (frames whose source crashed before
        /// this never made it onto the bus).
        xmit_start: VTime,
        /// In-flight ledger key ([`UNTRACKED_FLIGHT`] for split frames of
        /// the no-atomic-delivery ablation, which are not retransmitted).
        flight: u64,
    },
    /// A user process's execution slice ended.
    QuantumEnd {
        /// Hosting cluster.
        cluster: ClusterId,
        /// The process.
        pid: Pid,
        /// Staleness guard.
        token: u64,
        /// How the slice ended.
        exit: auros_vm::Exit,
        /// Fuel consumed.
        used: u64,
    },
    /// A server finished handling one message.
    ServerDone {
        /// Hosting cluster.
        cluster: ClusterId,
        /// The server.
        pid: Pid,
        /// Staleness guard.
        token: u64,
    },
    /// A server timer fired.
    ServerTimer {
        /// Hosting cluster at arming time.
        cluster: ClusterId,
        /// The server.
        pid: Pid,
        /// The server's token for this timer.
        timer_token: u64,
    },
    /// Try to dispatch runnable processes.
    Dispatch {
        /// The cluster.
        cluster: ClusterId,
    },
    /// Make a process runnable (after kernel-service delay).
    Wake {
        /// Hosting cluster.
        cluster: ClusterId,
        /// The process.
        pid: Pid,
    },
    /// A cluster suffers a total hardware failure (§3.1).
    Crash {
        /// The failing cluster.
        cluster: ClusterId,
    },
    /// The active intercluster bus fails; traffic — including every
    /// frame whose transmission window had not completed — moves to the
    /// standby bus of the dual pair (§7.1).
    BusFail,
    /// One half of a dual-ported device's redundant hardware fails (one
    /// mirror of a disk pair, §7.9); service continues on the survivor.
    DiskHalfFail {
        /// Device index in [`World::devices`].
        device: usize,
        /// Which half dies (`false` = first).
        second: bool,
    },
    /// §10 extension: a hardware failure kills one process without
    /// bringing its cluster down; only that process's backup is brought
    /// up.
    PartialFailure {
        /// The failing process (located wherever it currently runs).
        pid: Pid,
    },
    /// A crashed cluster returns to service (halfback re-protection,
    /// §7.3).
    Restore {
        /// The returning cluster.
        cluster: ClusterId,
    },
    /// One surviving cluster's crash-handling processes finish (§7.10.1).
    CrashWorkDone {
        /// The surviving cluster.
        cluster: ClusterId,
        /// The cluster that died.
        dead: ClusterId,
    },
    /// The failure detector polls all clusters (§7.10).
    PollTick,
    /// A kernel reports its processes to the process server (§7.6).
    ReportTick {
        /// The reporting cluster.
        cluster: ClusterId,
    },
    /// Scripted external input arrives at one terminal line.
    TerminalInput {
        /// Device index.
        device: usize,
        /// Line number within the interface module.
        line: u32,
        /// Bytes typed.
        data: Vec<u8>,
    },
    /// Reliable delivery: the sender's implicit-acknowledgement timer
    /// for one in-flight frame expired — if the frame is still
    /// outstanding at the same attempt, retransmit it. Scheduled only
    /// when a wire fault was actually injected, so fault-free runs see
    /// no timer traffic at all.
    RetryTimeout {
        /// In-flight ledger key.
        flight: u64,
        /// Attempt the timer was armed for (stale timers no-op).
        attempt: u32,
    },
    /// Reliable delivery: a receiver's checksum rejected the frame; the
    /// NAK reaches the sending executive and triggers retransmission.
    Nak {
        /// In-flight ledger key.
        flight: u64,
        /// Attempt the NAK refers to.
        attempt: u32,
    },
    /// Quarantine: probe every benched bus; heal the ones whose probe
    /// frame survives.
    BusProbe,
    /// Supervision: a restart backoff elapsed; promote the stored backup
    /// if it is still there. Scheduled only in reaction to a death, so
    /// fault-free runs see none of these.
    SupervisedPromote {
        /// The cluster holding the backup.
        cluster: ClusterId,
        /// The process being reincarnated.
        pid: Pid,
        /// The cluster reported as the failure site.
        dead: ClusterId,
    },
}

/// Flight key of frames exempt from the in-flight ledger (the
/// no-atomic-delivery ablation's per-target splits).
pub const UNTRACKED_FLIGHT: u64 = u64::MAX;

/// A sealed frame's `(destination, link-seq)` pairs, for the link
/// ledger. Unsealed frames (possible only in unit tests that bypass
/// `send_frame`) yield no pairs and are treated as in-order.
fn link_pairs(frame: &Frame) -> Vec<(u16, u64)> {
    if frame.seqs.len() != frame.targets.len() {
        return Vec::new();
    }
    frame.targets.iter().zip(&frame.seqs).map(|(&(cid, _), &seq)| (cid.0, seq)).collect()
}

/// A frame currently occupying a bus window, kept so a bus failure can
/// retransmit it on the standby (§7.1: the bus pair is redundant, so a
/// single bus failure must lose nothing).
#[derive(Debug)]
struct InFlight {
    /// Handle of the scheduled `BusDeliver`, for cancellation. `None`
    /// while no delivery is scheduled (the frame was dropped on the wire
    /// and awaits its retry timer).
    at: Option<auros_sim::ScheduledAt>,
    /// The frame itself, shared with its scheduled `BusDeliver`.
    frame: Arc<Frame>,
    /// Wire size, to re-derive the retransmission window.
    bytes: usize,
    /// Transmission attempt (0 = first). Stale `RetryTimeout`/`Nak`
    /// events carry the attempt they were armed for and no-op on
    /// mismatch.
    attempt: u32,
    /// Whether the scheduled delivery, if it fires, consumes the flight.
    /// `false` for a corrupt copy: its arrival NAKs instead of
    /// delivering, so the pristine frame must stay in the ledger.
    pending_delivery: bool,
}

/// How a send attempt on an entry ended.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum SendOutcome {
    /// Frame enqueued for transmission.
    Sent,
    /// Suppressed: the failed primary had already sent this message
    /// (§5.4).
    Suppressed,
    /// The peer is gone; nothing sent.
    PeerGone,
    /// The channel is unusable pending fullback re-creation (§7.10.1).
    Unusable,
}

/// The whole simulated machine.
///
/// # Examples
///
/// A register-only process needs no servers, so a bare `World` can run
/// it — and survive a crash of its cluster:
///
/// ```
/// use auros_kernel::{Config, World};
/// use auros_kernel::world::Event;
/// use auros_bus::proto::BackupMode;
/// use auros_bus::ClusterId;
/// use auros_sim::VTime;
/// use auros_vm::inst::regs::{R1, R4};
/// use auros_vm::{ProgramBuilder, Sys};
///
/// let mut program = ProgramBuilder::new("double");
/// program.li(R4, 21);
/// program.add(R4, R4, R4);
/// program.mov(R1, R4);
/// program.trap(Sys::Exit);
///
/// let mut w = World::new(Config { clusters: 3, sync_max_fuel: 100, ..Config::default() });
/// let pid = w.spawn_user(ClusterId(0), program.build(), BackupMode::Quarterback, None);
/// w.queue.schedule(VTime(50), Event::Crash { cluster: ClusterId(0) });
/// assert!(w.run_to_completion(VTime(10_000_000)));
/// assert_eq!(w.exit_status(pid), Some(42));
/// ```
pub struct World {
    /// Configuration.
    pub cfg: Config,
    /// Event queue (owns the clock).
    pub queue: EventQueue<Event>,
    /// The intercluster bus fabric: one dual-bus broadcast domain for
    /// paper-sized machines, or gateway-joined segments for fleets.
    pub bus: BusFabric,
    /// The clusters.
    pub clusters: Vec<Cluster>,
    /// Ledgers.
    pub stats: WorldStats,
    /// Trace log.
    pub trace: TraceLog,
    /// Dual-ported devices (page store, disk pairs, terminals).
    pub devices: Vec<Box<dyn Device>>,
    /// Which device each peripheral server controls.
    pub server_devices: BTreeMap<Pid, usize>,
    /// Exit statuses of finished processes.
    pub exits: BTreeMap<Pid, u64>,
    /// Pids spawned directly (not forked), for completion queries.
    pub spawned: Vec<Pid>,
    /// Spawned pids with no exit status yet — the completion check's
    /// ready set, kept in lockstep with [`World::exits`].
    pub(crate) spawned_pending: BTreeSet<Pid>,
    /// Live (non-server, non-dead) primaries across alive clusters: the
    /// sum of every alive cluster's [`Cluster::live_users`]. Zero means
    /// no user work remains anywhere, without a fleet scan.
    pub(crate) live_users_total: u64,
    /// Crashed clusters already announced to the survivors.
    announced_crashes: Vec<ClusterId>,
    /// Crashes the failure detector has not yet announced; pushed at
    /// crash time so the poll tick need not scan the fleet.
    pub(crate) unannounced_dead: Vec<ClusterId>,
    /// Frames on the bus (or queued for it) that have not yet delivered,
    /// keyed by flight id in send order.
    in_flight: BTreeMap<u64, InFlight>,
    next_flight: u64,
    /// Per-(sender, destination) link sequencing: duplicate suppression
    /// and FIFO restoration under a lossy wire.
    links: LinkLedger,
    /// Frames that arrived ahead of a link-sequence gap, held until the
    /// missing frame delivers (or is abandoned), keyed in arrival order.
    held_frames: BTreeMap<u64, Arc<Frame>>,
    next_hold: u64,
    /// Whether a `BusProbe` chain is currently scheduled.
    probing: bool,
    next_msg_id: u64,
    next_spawn: u64,
    /// Live timer tokens per server pid (stale ones are dropped).
    pub(crate) server_timers: BTreeMap<(Pid, u64), ClusterId>,
    /// Buffered server-handler effects awaiting `ServerDone`.
    pub(crate) pending_server_effects: BTreeMap<Pid, crate::syscall::ServerEffects>,
    /// Supervision bookkeeping: restart budgets, poison ledgers.
    pub(crate) supervision: crate::supervise::Supervisor,
    /// Events popped and handled by the run loops. Host-side benches
    /// divide this by wall-clock to get events/sec; it is not part of
    /// the published metrics (virtual-time ledgers stay byte-stable).
    pub events_processed: u64,
}

impl World {
    /// Builds an empty world: clusters and bus, no servers or processes.
    ///
    /// Use the `auros` facade's builder for a fully-wired system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: Config) -> World {
        // auros-lint: allow(D5) -- documented panic contract (see # Panics): a host-supplied Config is checked once at construction, before any event or fault plan runs, so no fault can reach it
        cfg.validate().expect("invalid configuration");
        let clusters =
            (0..cfg.clusters).map(|i| Cluster::new(ClusterId(i), WORK_PROCESSORS)).collect();
        let mut w = World {
            queue: EventQueue::new(),
            bus: BusFabric::new(cfg.clusters, cfg.bus_segment_size, cost::GATEWAY_LATENCY),
            clusters,
            stats: WorldStats::new(cfg.clusters),
            trace: TraceLog::new(),
            devices: Vec::new(),
            server_devices: BTreeMap::new(),
            exits: BTreeMap::new(),
            spawned: Vec::new(),
            spawned_pending: BTreeSet::new(),
            live_users_total: 0,
            announced_crashes: Vec::new(),
            unannounced_dead: Vec::new(),
            in_flight: BTreeMap::new(),
            next_flight: 0,
            links: LinkLedger::default(),
            held_frames: BTreeMap::new(),
            next_hold: 0,
            probing: false,
            next_msg_id: 0,
            next_spawn: 0,
            server_timers: BTreeMap::new(),
            pending_server_effects: BTreeMap::new(),
            supervision: crate::supervise::Supervisor::default(),
            events_processed: 0,
            cfg,
        };
        w.queue.schedule(VTime::ZERO + cost::POLL_INTERVAL, Event::PollTick);
        for i in 0..w.cfg.clusters {
            let at = VTime::ZERO + w.cfg.costs.report_interval;
            w.queue.schedule(at, Event::ReportTick { cluster: ClusterId(i) });
        }
        w
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.queue.now()
    }

    /// Cluster accessor.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// Mutable cluster accessor.
    pub fn cluster_mut(&mut self, id: ClusterId) -> &mut Cluster {
        &mut self.clusters[id.0 as usize]
    }

    /// Allocates a fresh trace message id.
    pub(crate) fn msg_id(&mut self) -> MsgId {
        let id = MsgId(self.next_msg_id);
        self.next_msg_id += 1;
        id
    }

    /// An environmental nondeterministic value: depends on local time
    /// and a per-world counter, so a replay that is free to re-decide
    /// (nothing escaped) genuinely decides differently.
    pub(crate) fn fresh_nondet(&mut self, cid: ClusterId) -> u64 {
        self.next_msg_id += 1;
        let mut z = self
            .now()
            .ticks()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(cid.0 as u64)
            .wrapping_add(self.next_msg_id << 17);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    }

    /// Derives the next spawned-process pid.
    pub(crate) fn alloc_spawn_pid(&mut self) -> Pid {
        let pid = auros_bus::proto::derive_child_pid(Pid(0), self.next_spawn);
        self.next_spawn += 1;
        pid
    }

    /// Registers a device, returning its index.
    pub fn add_device(&mut self, dev: Box<dyn Device>) -> usize {
        self.devices.push(dev);
        self.devices.len() - 1
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Processes events until `deadline` (inclusive) or queue exhaustion.
    pub fn run_until(&mut self, deadline: VTime) {
        while let Some((now, ev)) = self.queue.pop_due(deadline) {
            self.fire(now, ev);
        }
    }

    /// Steps one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        self.fire(now, ev);
        true
    }

    fn fire(&mut self, now: VTime, ev: Event) {
        self.stats.now = now;
        self.events_processed += 1;
        self.handle(ev);
    }

    /// Runs until every spawned user process has finished or `deadline`
    /// passes. Returns `true` if all finished.
    pub fn run_to_completion(&mut self, deadline: VTime) -> bool {
        while !self.all_spawned_done() {
            let Some((now, ev)) = self.queue.pop_due(deadline) else { break };
            self.fire(now, ev);
        }
        self.all_spawned_done()
    }

    /// Whether every spawned process has exited (anywhere) and no forked
    /// descendant is still running.
    ///
    /// `run_to_completion` asks this once per event, so it must not
    /// scan the fleet: both conditions are maintained incrementally
    /// (`spawned_pending` at spawn/exit, `live_users_total` at every
    /// process birth, death, crash, and restore).
    pub fn all_spawned_done(&self) -> bool {
        #[cfg(debug_assertions)]
        {
            let recount: u64 = self
                .clusters
                .iter()
                .filter(|c| c.alive)
                .map(|c| c.procs.values().filter(|p| !p.is_server() && !p.is_dead()).count() as u64)
                .sum();
            debug_assert_eq!(self.live_users_total, recount, "live-user counter drifted");
            debug_assert_eq!(
                self.spawned_pending.is_empty(),
                self.spawned.iter().all(|p| self.exits.contains_key(p)),
                "spawned-pending set drifted"
            );
        }
        self.spawned_pending.is_empty() && self.live_users_total == 0
    }

    /// A non-server primary came to life on `cid` (spawn, fork, or
    /// promotion over a dead slot).
    pub(crate) fn note_user_born(&mut self, cid: ClusterId) {
        let c = &mut self.clusters[cid.0 as usize];
        c.live_users += 1;
        if c.alive {
            self.live_users_total += 1;
        }
    }

    /// A non-server primary on `cid` died (exit, kill, or partial
    /// failure). Cluster crashes are accounted wholesale in `on_crash`.
    pub(crate) fn note_user_dead(&mut self, cid: ClusterId) {
        let c = &mut self.clusters[cid.0 as usize];
        c.live_users -= 1;
        if c.alive {
            self.live_users_total -= 1;
        }
    }

    /// Exit status of a process, if it finished.
    pub fn exit_status(&self, pid: Pid) -> Option<u64> {
        self.exits.get(&pid).copied()
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::BusDeliver { frame, xmit_start, flight } => {
                self.deliver_frame(frame, xmit_start, flight)
            }
            Event::QuantumEnd { cluster, pid, token, exit, used } => {
                self.on_quantum_end(cluster, pid, token, exit, used)
            }
            Event::ServerDone { cluster, pid, token } => self.on_server_done(cluster, pid, token),
            Event::ServerTimer { cluster, pid, timer_token } => {
                self.on_server_timer(cluster, pid, timer_token)
            }
            Event::Dispatch { cluster } => {
                // A Dispatch queued for an earlier tick must not clear
                // the marker of one queued for a later tick.
                let c = &mut self.clusters[cluster.0 as usize];
                if c.dispatch_at == Some(self.queue.now()) {
                    c.dispatch_at = None;
                }
                self.try_dispatch(cluster)
            }
            Event::Wake { cluster, pid } => self.on_wake(cluster, pid),
            Event::Crash { cluster } => self.on_crash(cluster),
            Event::BusFail => self.on_bus_fail(),
            Event::DiskHalfFail { device, second } => self.on_disk_half_fail(device, second),
            Event::PartialFailure { pid } => self.on_partial_failure(pid),
            Event::Restore { cluster } => self.on_restore(cluster),
            Event::CrashWorkDone { cluster, dead } => self.on_crash_work_done(cluster, dead),
            Event::PollTick => self.on_poll_tick(),
            Event::ReportTick { cluster } => self.on_report_tick(cluster),
            Event::TerminalInput { device, line, data } => {
                self.on_terminal_input(device, line, data)
            }
            Event::RetryTimeout { flight, attempt } => self.on_retry_timeout(flight, attempt),
            Event::Nak { flight, attempt } => self.on_nak(flight, attempt),
            Event::BusProbe => self.on_bus_probe(),
            Event::SupervisedPromote { cluster, pid, dead } => {
                self.on_supervised_promote_due(cluster, pid, dead)
            }
        }
    }

    /// Frames currently parked behind a link-sequence gap. Zero at the
    /// end of every settled run (the survivability oracle checks this):
    /// a permanently held frame would be a silently lost message.
    pub fn held_link_frames(&self) -> usize {
        self.held_frames.len()
    }

    /// Publishes every subsystem's fleet totals into one registry: the
    /// world stats, both bus ledgers, the link layer's held-frame count,
    /// and whatever each live server publishes.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        self.stats.publish_metrics(reg);
        self.bus.publish_metrics(reg);
        reg.set("link.held_frames", self.held_frames.len() as u64);
        reg.set("link.in_flight", self.in_flight.len() as u64);
        reg.set("kernel.dead_letters", self.dead_letter_count() as u64);
        for c in self.clusters.iter().filter(|c| c.alive) {
            for pcb in c.procs.values() {
                if let crate::process::ProcessBody::Server(logic) = &pcb.body {
                    logic.publish_metrics(reg);
                }
            }
        }
    }

    /// Cluster `cid` was rebuilt from scratch (restore): links into it
    /// have no receiver history; re-align them with the sender side and
    /// re-examine any frames held on the dead incarnation's account.
    pub(crate) fn resync_links_into(&mut self, cid: ClusterId) {
        self.links.resync_into(cid.0);
        self.drain_held();
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends `payload` from `pid` on its channel end, applying the §5.1
    /// three-destination rule and §5.4 suppression.
    pub(crate) fn send_on_end(
        &mut self,
        cid: ClusterId,
        src: Pid,
        end: ChanEnd,
        payload: Payload,
    ) -> SendOutcome {
        let ci = cid.0 as usize;
        // §2 comparator: checkpoint the whole data space before every
        // send, so the checkpoint is consistent with what others see.
        if self.cfg.strategy == crate::config::FtStrategy::Checkpoint
            && self.clusters[ci].procs.get(&src).is_some_and(|p| !p.is_server() && !p.is_dead())
        {
            self.perform_checkpoint(cid, src);
        }
        let usable = match self.clusters[ci].routing.primary(&end) {
            Some(e) => e.usable,
            None => return SendOutcome::PeerGone,
        };
        if !usable {
            return SendOutcome::Unusable;
        }
        if !self.cfg.ablations.no_suppression && self.clusters[ci].routing.consume_suppress(&end) {
            self.stats.clusters[ci].suppressed_sends += 1;
            let now = self.now();
            self.trace.emit(
                now,
                Loc::Cluster(cid.0),
                TraceKind::SendSuppressed { src: src.0, end: end.into() },
            );
            return SendOutcome::Suppressed;
        }
        let Some(entry) = self.clusters[ci].routing.primary(&end) else {
            return SendOutcome::PeerGone;
        };
        if entry.peer_closed {
            return SendOutcome::PeerGone;
        }
        let peer_end = end.peer();
        let mut targets = Vec::with_capacity(3);
        if let Some(pp) = entry.peer_primary {
            targets.push((pp, DeliveryTag::Primary(peer_end)));
        }
        if let Some(pb) = entry.peer_backup {
            targets.push((pb, DeliveryTag::DestBackup(peer_end)));
        }
        if let Some(ob) = entry.owner_backup {
            targets.push((ob, DeliveryTag::SenderBackup(end)));
        }
        if targets.is_empty() {
            return SendOutcome::PeerGone;
        }
        // §10: piggyback pending nondeterministic-event results on any
        // message whose copy the sender's backup will see.
        let nondet = if targets.iter().any(|(_, t)| matches!(t, DeliveryTag::SenderBackup(_))) {
            self.clusters[ci]
                .procs
                .get_mut(&src)
                .map(|p| std::mem::take(&mut p.pending_nondet))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        let msg = Message { id: self.msg_id(), src, payload, nondet };
        let frame = Frame::new(cid, targets, msg);
        self.send_frame(cid, frame, self.now());
        SendOutcome::Sent
    }

    /// Sends a kernel-to-kernel control frame with explicit targets.
    pub(crate) fn send_control(
        &mut self,
        cid: ClusterId,
        targets: Vec<(ClusterId, DeliveryTag)>,
        payload: Payload,
    ) {
        if targets.is_empty() {
            return;
        }
        let msg = Message { id: self.msg_id(), src: kernel_pid(cid), payload, nondet: Vec::new() };
        let frame = Frame::new(cid, targets, msg);
        self.send_frame(cid, frame, self.now());
    }

    /// Places a frame on the cluster's outgoing queue; the executive
    /// picks it up and transmits once over the bus (§7.4.2).
    pub(crate) fn send_frame(&mut self, cid: ClusterId, frame: Frame, ready_at: VTime) {
        debug_assert!(frame.check_invariants().is_ok(), "{:?}", frame.check_invariants());
        let ci = cid.0 as usize;
        if !self.clusters[ci].alive {
            return;
        }
        if self.clusters[ci].outgoing_disabled {
            self.clusters[ci].outgoing_held.push_back(PendingFrame { frame, ready_at });
            return;
        }
        // Executive takes the frame from the outgoing queue…
        let exec_ready = self.clusters[ci].exec_free.max(ready_at) + cost::EXEC_SEND;
        self.clusters[ci].exec_free = exec_ready;
        self.stats.clusters[ci].exec_busy += cost::EXEC_SEND;
        // …stamps it with link sequence numbers and the header
        // checksum, and transmits it once over the intercluster bus.
        let mut frame = frame;
        let seqs = self.links.stamp(cid.0, frame.targets.iter().map(|(c, _)| c.0));
        frame.seal(seqs);
        let bytes = frame.wire_size();
        let xmit = cost::bus_xmit(bytes);
        let targets = frame.targets.iter().map(|(c, _)| c.0);
        match self.bus.reserve_routed(cid.0, targets, exec_ready, xmit, bytes) {
            Some(res) => {
                self.stats.bus_frames += 1;
                self.stats.bus_bytes += bytes as u64;
                self.stats.bus_busy += xmit;
                if self.cfg.ablations.no_atomic_delivery {
                    // Ablation: split the frame per target with a
                    // deterministic jitter — §5.1's non-interleaving
                    // guarantee no longer holds. Splits are exempt from
                    // the in-flight ledger (and thus from bus-failover
                    // retransmission) and from link sequencing.
                    for (i, target) in frame.targets.iter().enumerate() {
                        let jitter =
                            Dur((frame.msg.id.0.wrapping_mul(2_654_435_761) >> (8 + i)) % 60);
                        let mut split =
                            Frame::new(frame.src_cluster, vec![*target], frame.msg.clone());
                        split.seal(vec![frame.seqs[i]]);
                        self.queue.schedule(
                            res.deliver_at + jitter,
                            Event::BusDeliver {
                                frame: Arc::new(split),
                                xmit_start: res.start,
                                flight: UNTRACKED_FLIGHT,
                            },
                        );
                    }
                } else {
                    let flight = self.next_flight;
                    self.next_flight += 1;
                    let frame = Arc::new(frame);
                    self.in_flight.insert(
                        flight,
                        InFlight {
                            at: None,
                            frame: Arc::clone(&frame),
                            bytes,
                            attempt: 0,
                            pending_delivery: false,
                        },
                    );
                    self.launch_wire(flight, frame, res, 0);
                }
            }
            None => {
                // Both buses failed: outside the single-fault model; the
                // frame is lost. Its link slots must still be consumed,
                // or later traffic on the same links would stall forever.
                self.links.skip(cid.0, &link_pairs(&frame));
                let now = self.now();
                self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::FrameLostNoBus);
            }
        }
    }

    /// Puts one attempt of a tracked frame onto the wire, realizing any
    /// fault the bus grant carries. Fault-free windows schedule exactly
    /// the one `BusDeliver` the pre-reliability bus scheduled, so clean
    /// runs are event-for-event identical to the perfect-wire model.
    fn launch_wire(&mut self, flight: u64, frame: Arc<Frame>, res: Grant, attempt: u32) {
        let now = self.now();
        let fault = res.fault;
        let (at, pending) = match fault {
            None => {
                let at = self.queue.schedule(
                    res.deliver_at,
                    Event::BusDeliver { frame, xmit_start: res.start, flight },
                );
                (Some(at), true)
            }
            Some(WireFault::Drop) => {
                self.stats.wire_drops += 1;
                let timeout = res.deliver_at + cost::ACK_TIMEOUT;
                self.queue.schedule(timeout, Event::RetryTimeout { flight, attempt });
                (None, false)
            }
            Some(WireFault::Corrupt) => {
                self.stats.wire_corruptions += 1;
                // Only the mangled copy is a new frame; the ledger keeps
                // the shared pristine one.
                let mut mangled = Frame::clone(&frame);
                mangled.corrupt();
                // The mangled copy arrives but must not consume the
                // flight: its delivery NAKs, and the pristine frame in
                // the ledger is what gets retransmitted.
                let at = self.queue.schedule(
                    res.deliver_at,
                    Event::BusDeliver { frame: Arc::new(mangled), xmit_start: res.start, flight },
                );
                (Some(at), false)
            }
            Some(WireFault::Duplicate) => {
                self.stats.wire_duplicates += 1;
                let dup = Arc::clone(&frame);
                let at = self.queue.schedule(
                    res.deliver_at,
                    Event::BusDeliver { frame, xmit_start: res.start, flight },
                );
                self.queue.schedule(
                    res.deliver_at + cost::DUP_LAG,
                    Event::BusDeliver { frame: dup, xmit_start: res.start, flight },
                );
                (Some(at), true)
            }
            Some(WireFault::Delay(by)) => {
                self.stats.wire_delays += 1;
                let at = self.queue.schedule(
                    res.deliver_at + by,
                    Event::BusDeliver { frame, xmit_start: res.start, flight },
                );
                // A delay beyond the ack timeout is indistinguishable
                // from a drop at the sender: the timer may fire first and
                // retransmit; the late original is then dup-suppressed.
                let timeout = res.deliver_at + cost::ACK_TIMEOUT;
                self.queue.schedule(timeout, Event::RetryTimeout { flight, attempt });
                (Some(at), true)
            }
        };
        if let Some(inf) = self.in_flight.get_mut(&flight) {
            inf.at = at;
            inf.pending_delivery = pending;
        }
        if let Some(f) = fault {
            self.trace.emit(
                now,
                Loc::World,
                TraceKind::WireFault {
                    bus: res.bus.into(),
                    flight,
                    attempt: attempt as u64,
                    fault: f.into(),
                },
            );
            self.maybe_quarantine();
        }
    }

    /// Benches the active bus if it has produced `QUARANTINE_AFTER`
    /// consecutive faulted windows and a healthy standby exists.
    fn maybe_quarantine(&mut self) {
        let now = self.now();
        let Some(active) = self.bus.active() else { return };
        if self.bus.consecutive_faults(active) < QUARANTINE_AFTER {
            return;
        }
        if let Some(survivor) = self.bus.quarantine(active, now) {
            self.stats.quarantines += 1;
            self.trace.emit(
                now,
                Loc::World,
                TraceKind::BusQuarantined {
                    bus: active.into(),
                    after: QUARANTINE_AFTER as u64,
                    survivor: survivor.into(),
                },
            );
            if !self.probing {
                self.probing = true;
                self.queue.schedule(now + cost::PROBE_INTERVAL, Event::BusProbe);
            }
        }
    }

    /// Retry timer fired: if the frame is still outstanding at the same
    /// attempt, the implicit ack never came — retransmit.
    fn on_retry_timeout(&mut self, flight: u64, attempt: u32) {
        let Some(inf) = self.in_flight.get(&flight) else { return };
        if inf.attempt != attempt {
            return;
        }
        self.retransmit(flight, RetryWhy::AckTimeout);
    }

    /// A receiver NAKed a corrupted copy of this frame: retransmit.
    fn on_nak(&mut self, flight: u64, attempt: u32) {
        let Some(inf) = self.in_flight.get(&flight) else { return };
        if inf.attempt != attempt {
            return;
        }
        self.retransmit(flight, RetryWhy::Nak);
    }

    /// Re-reserves a window for a still-outstanding frame, with
    /// exponential backoff; abandons it past the retransmit budget.
    fn retransmit(&mut self, flight: u64, why: RetryWhy) {
        let now = self.now();
        let Some(inf) = self.in_flight.get(&flight) else { return };
        let (frame, bytes, attempt) = (inf.frame.clone(), inf.bytes, inf.attempt);
        let next = attempt + 1;
        if next > MAX_RETRANSMITS {
            self.abandon_flight(flight, why);
            return;
        }
        let backoff = cost::RETRANSMIT_BACKOFF.saturating_mul(1u64 << attempt.min(6));
        let xmit = cost::bus_xmit(bytes);
        let src = frame.src_cluster.0;
        let targets = frame.targets.iter().map(|(c, _)| c.0);
        match self.bus.reserve_retry_routed(src, targets, now + backoff, xmit, bytes) {
            Some(res) => {
                self.stats.bus_busy += xmit;
                self.stats.proto_retransmits += 1;
                if let Some(inf) = self.in_flight.get_mut(&flight) {
                    inf.attempt = next;
                }
                self.trace.emit(
                    now,
                    Loc::World,
                    TraceKind::Retransmit {
                        attempt: next as u64,
                        flight,
                        why,
                        bus: res.bus.into(),
                    },
                );
                self.launch_wire(flight, frame, res, next);
            }
            None => self.abandon_flight(flight, RetryWhy::NoHealthyBus),
        }
    }

    /// Gives up on a frame for good: cancel any scheduled delivery and
    /// consume its link slots so later traffic is not stalled behind it.
    fn abandon_flight(&mut self, flight: u64, why: RetryWhy) {
        let now = self.now();
        if let Some(inf) = self.in_flight.remove(&flight) {
            if let Some(at) = inf.at {
                self.queue.cancel(at);
            }
            self.stats.frames_abandoned += 1;
            self.links.skip(inf.frame.src_cluster.0, &link_pairs(&inf.frame));
            self.trace.emit(
                now,
                Loc::World,
                TraceKind::FlightAbandoned {
                    flight,
                    attempts: inf.attempt as u64 + 1,
                    why,
                    msg: inf.frame.msg.id.0,
                },
            );
        }
        self.drain_held();
    }

    /// Probes every quarantined bus; a clean probe heals the bus back to
    /// standby duty. Re-probes periodically while any quarantine holds.
    fn on_bus_probe(&mut self) {
        let now = self.now();
        let mut still_benched = false;
        for bus in [BusKind::A, BusKind::B] {
            if !self.bus.is_quarantined(bus) {
                continue;
            }
            self.stats.probes += 1;
            if self.bus.probe_ok(bus, now) {
                self.bus.heal(bus);
                self.stats.heals += 1;
                self.trace.emit(now, Loc::World, TraceKind::ProbeHealed { bus: bus.into() });
            } else {
                still_benched = true;
                self.trace.emit(now, Loc::World, TraceKind::ProbeLost { bus: bus.into() });
            }
        }
        if still_benched {
            self.queue.schedule(now + cost::PROBE_INTERVAL, Event::BusProbe);
        } else {
            self.probing = false;
        }
    }

    // ------------------------------------------------------------------
    // Injected hardware faults (bus, devices)
    // ------------------------------------------------------------------

    /// The active bus dies. If the standby is healthy, every frame whose
    /// transmission window had not completed is retransmitted on it, in
    /// original send order; a second bus failure loses all of them.
    fn on_bus_fail(&mut self) {
        let now = self.now();
        match self.bus.fail_active(now) {
            Some(survivor) => {
                self.stats.bus_failovers += 1;
                let flights: Vec<u64> = self.in_flight.keys().copied().collect();
                let mut retransmitted = 0u64;
                for flight in flights {
                    let (frame, bytes, attempt, pending, at) = {
                        let inf = &self.in_flight[&flight];
                        (inf.frame.clone(), inf.bytes, inf.attempt, inf.pending_delivery, inf.at)
                    };
                    let cancelled = at.is_some_and(|at| self.queue.cancel(at));
                    if !cancelled && pending && at.is_some() {
                        // Delivery fired at this very tick before the
                        // failure event: the frame made it.
                        self.in_flight.remove(&flight);
                        continue;
                    }
                    // Otherwise the frame is genuinely outstanding
                    // (scheduled, dropped-awaiting-timer, or a corrupt
                    // copy en route): repeat it on the survivor. Bumping
                    // the attempt invalidates any stale timer or NAK.
                    let xmit = cost::bus_xmit(bytes);
                    let src = frame.src_cluster.0;
                    let targets = frame.targets.iter().map(|(c, _)| c.0);
                    let Some(res) = self.bus.reserve_retry_routed(src, targets, now, xmit, bytes)
                    else {
                        break; // Unreachable: the survivor was healthy.
                    };
                    self.stats.bus_busy += xmit;
                    self.stats.frames_retransmitted += 1;
                    retransmitted += 1;
                    if let Some(inf) = self.in_flight.get_mut(&flight) {
                        inf.attempt = attempt + 1;
                    }
                    self.launch_wire(flight, frame, res, attempt + 1);
                }
                self.trace.emit(
                    now,
                    Loc::World,
                    TraceKind::BusFailover { retransmitted, survivor: survivor.into() },
                );
            }
            None => {
                // Double bus fault: the machine is partitioned from
                // itself. Everything in flight is lost; consume the lost
                // frames' link slots so any frames already delivered out
                // of order are not held forever behind them.
                let lost = self.in_flight.len();
                let flights: Vec<u64> = self.in_flight.keys().copied().collect();
                for flight in flights {
                    if let Some(inf) = self.in_flight.remove(&flight) {
                        if let Some(at) = inf.at {
                            self.queue.cancel(at);
                        }
                        self.links.skip(inf.frame.src_cluster.0, &link_pairs(&inf.frame));
                    }
                }
                self.trace.emit(now, Loc::World, TraceKind::BothBusesFailed { lost: lost as u64 });
                self.drain_held();
            }
        }
    }

    /// One half of a device's redundant hardware fails (§7.9).
    fn on_disk_half_fail(&mut self, device: usize, second: bool) {
        let now = self.now();
        if let Some(dev) = self.devices.get_mut(device) {
            dev.fail_half(second);
            self.stats.disk_half_faults += 1;
            self.trace.emit(
                now,
                Loc::World,
                TraceKind::DiskHalfFailed { device: device as u64, second },
            );
        }
    }

    // ------------------------------------------------------------------
    // Delivery
    // ------------------------------------------------------------------

    fn deliver_frame(&mut self, frame: Arc<Frame>, xmit_start: VTime, flight: u64) {
        let now = self.now();
        // Integrity first: a mangled frame is rejected by every receiver
        // checksum and NAKed back to the sending executive, which still
        // holds the pristine copy in its in-flight ledger.
        if !frame.verify() {
            self.stats.corruptions_caught += 1;
            self.trace.emit(
                now,
                Loc::World,
                TraceKind::ChecksumReject { msg: frame.msg.id.0, src: frame.src_cluster.0 },
            );
            if let Some(inf) = self.in_flight.get(&flight) {
                let attempt = inf.attempt;
                self.stats.naks += 1;
                self.queue.schedule(now + cost::NAK_LATENCY, Event::Nak { flight, attempt });
            }
            return;
        }
        let src_ci = frame.src_cluster.0 as usize;
        if let Some(crashed) = self.clusters[src_ci].crashed_at {
            if crashed <= xmit_start {
                // The source died before transmission began: the frame
                // never made it onto the bus. Its link slots are void.
                self.in_flight.remove(&flight);
                if flight != UNTRACKED_FLIGHT {
                    self.links.skip(frame.src_cluster.0, &link_pairs(&frame));
                    self.drain_held();
                }
                return;
            }
        }
        // Link layer: suppress duplicates, hold frames behind a sequence
        // gap. Ablation splits bypass it (they model the broken wire).
        if flight != UNTRACKED_FLIGHT {
            let pairs = link_pairs(&frame);
            let clusters = &self.clusters;
            match self.links.classify(frame.src_cluster.0, &pairs, |c| clusters[c as usize].alive) {
                FrameClass::Duplicate => {
                    self.in_flight.remove(&flight);
                    self.stats.dup_suppressed += 1;
                    self.trace.emit(
                        now,
                        Loc::World,
                        TraceKind::LinkDupSuppressed { msg: frame.msg.id.0 },
                    );
                    return;
                }
                FrameClass::Hold => {
                    self.in_flight.remove(&flight);
                    self.trace.emit(now, Loc::World, TraceKind::FrameHeld { msg: frame.msg.id.0 });
                    let key = self.next_hold;
                    self.next_hold += 1;
                    self.held_frames.insert(key, frame);
                    return;
                }
                FrameClass::Ready => {
                    self.in_flight.remove(&flight);
                    self.links.advance(frame.src_cluster.0, &pairs);
                }
            }
        }
        self.process_frame(&frame);
        if !self.held_frames.is_empty() {
            self.drain_held();
        }
    }

    /// Hands a verified, in-order frame to every live target — the §5.1
    /// atomic three-way delivery, unchanged from the perfect-wire model.
    fn process_frame(&mut self, frame: &Frame) {
        let now = self.now();
        self.trace.emit(
            now,
            Loc::World,
            TraceKind::FrameDeliver {
                msg: frame.msg.id.0,
                src: frame.src_cluster.0,
                targets: frame.targets.len() as u64,
            },
        );
        for &(cid, tag) in &frame.targets {
            let ci = cid.0 as usize;
            if !self.clusters[ci].alive {
                continue;
            }
            // Receipt and distribution are handled by the executive
            // processor; work processors are not affected (§8.1).
            let recv = cost::EXEC_RECV;
            let c = &mut self.clusters[ci];
            c.exec_free = c.exec_free.max(now) + recv;
            self.stats.clusters[ci].exec_busy += recv;
            self.stats.clusters[ci].deliveries += 1;
            match tag {
                DeliveryTag::Primary(end) => self.deliver_primary(cid, end, &frame.msg),
                DeliveryTag::DestBackup(end) => self.deliver_dest_backup(cid, end, &frame.msg),
                DeliveryTag::SenderBackup(end) => self.deliver_sender_backup(cid, end, &frame.msg),
                DeliveryTag::Kernel => self.deliver_kernel(cid, frame.src_cluster, &frame.msg),
            }
        }
    }

    /// Re-examines held frames after link expectations moved (a gap
    /// frame delivered, a loss was skipped, a cluster died or was
    /// restored). Runs to a fixpoint; held keys are visited in arrival
    /// order, so the drain is deterministic.
    pub(crate) fn drain_held(&mut self) {
        loop {
            let keys: Vec<u64> = self.held_frames.keys().copied().collect();
            let mut acted = false;
            for key in keys {
                let class = {
                    let Some(frame) = self.held_frames.get(&key) else { continue };
                    let pairs = link_pairs(frame);
                    let clusters = &self.clusters;
                    self.links.classify(frame.src_cluster.0, &pairs, |c| clusters[c as usize].alive)
                };
                match class {
                    FrameClass::Hold => continue,
                    FrameClass::Duplicate => {
                        self.held_frames.remove(&key);
                        self.stats.dup_suppressed += 1;
                        acted = true;
                        break;
                    }
                    FrameClass::Ready => {
                        let Some(frame) = self.held_frames.remove(&key) else { continue };
                        self.links.advance(frame.src_cluster.0, &link_pairs(&frame));
                        self.stats.frames_reordered += 1;
                        let now = self.now();
                        self.trace.emit(
                            now,
                            Loc::World,
                            TraceKind::GapClosed { msg: frame.msg.id.0 },
                        );
                        self.process_frame(&frame);
                        acted = true;
                        break;
                    }
                }
            }
            if !acted {
                return;
            }
        }
    }

    /// §7.4.2 (1): queue on the primary destination's entry and wake any
    /// process awaiting a message on the channel.
    fn deliver_primary(&mut self, cid: ClusterId, end: ChanEnd, msg: &Message) {
        let ci = cid.0 as usize;
        let c = &mut self.clusters[ci];
        let Some(entry) = c.routing.primary(&end) else {
            // Peer entry is gone (owner exited or never promoted here).
            return;
        };
        let owner = entry.owner;
        if entry.kind == ChanKind::KernelPort && auros_bus::proto::is_kernel_pid(owner) {
            self.kernel_port_recv(cid, end, msg.clone());
            return;
        }
        if c.routing.enqueue_primary(end, msg.clone()).is_none() {
            return;
        }
        self.stats.clusters[ci].primary_msgs += 1;
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::PrimaryDelivery { msg: msg.id.0, end: end.into(), owner: owner.0 },
        );
        self.note_signal_arrival(cid, end, owner);
        self.try_unblock(cid, owner);
    }

    /// §7.4.2 (2): queue on the destination's backup entry; wake nobody.
    fn deliver_dest_backup(&mut self, cid: ClusterId, end: ChanEnd, msg: &Message) {
        let ci = cid.0 as usize;
        // An open reply's arrival at the backup cluster creates the
        // backup routing entry for the newly opened channel (§7.4.1).
        if let Payload::FsReply(auros_bus::proto::FsReply::OpenReply { init, .. }) = &msg.payload {
            self.create_backup_entry_from_init(cid, init);
        }
        let limit = self.cfg.backup_queue_limit;
        let c = &mut self.clusters[ci];
        if c.routing.has_backup(&end) {
            let seq = c.routing.stamp();
            let Some(be) = c.routing.backup_mut(&end) else {
                return;
            };
            be.queue.push_back(Queued { arrival_seq: seq, msg: msg.clone() });
            let depth = be.queue.len() as u64;
            let owner = be.owner;
            // Backpressure (§5.2's message-count trigger): when the
            // queue reaches its bound, demand a synchronization from the
            // owner's primary — once per episode, re-armed by the sync.
            let mut demand = false;
            if let Some(limit) = limit {
                if depth >= limit as u64 && !be.sync_demanded {
                    be.sync_demanded = true;
                    demand = true;
                }
            }
            self.stats.clusters[ci].backup_msgs += 1;
            self.stats.max_backup_queue_depth = self.stats.max_backup_queue_depth.max(depth);
            let now = self.now();
            self.trace.emit(
                now,
                Loc::Cluster(cid.0),
                TraceKind::BackupSave { msg: msg.id.0, end: end.into(), seq, src: msg.src.0 },
            );
            if demand {
                self.demand_sync(cid, owner);
            }
            return;
        }
        // The backup may have been promoted moments ago (in-flight frame
        // raced the crash): deliver as a live message instead.
        if c.routing.has_primary(&end) {
            self.deliver_primary(cid, end, msg);
        }
    }

    /// Backpressure: the backup cluster `cid` holds a near-full backup
    /// queue for `owner`; demand a synchronization from the owner's
    /// primary kernel. The sync trims the queue (§7.8) and stalls the
    /// sender for the sync enqueue (§8.3) — throughput degrades instead
    /// of memory growing without bound.
    fn demand_sync(&mut self, cid: ClusterId, owner: Pid) {
        let ci = cid.0 as usize;
        let primary = self.clusters[ci].backups.get(&owner).map(|r| r.primary_cluster);
        let Some(pc) = primary else { return };
        if !self.clusters[pc.0 as usize].alive {
            return;
        }
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::SyncDemanded { owner: owner.0, primary: pc.0 },
        );
        self.send_control(
            cid,
            vec![(pc, DeliveryTag::Kernel)],
            Payload::Control(auros_bus::proto::Control::SyncDemand { pid: owner }),
        );
    }

    /// §7.4.2 (3): count and discard at the sender's backup. The §10
    /// extension also logs any piggybacked nondeterministic results.
    fn deliver_sender_backup(&mut self, cid: ClusterId, end: ChanEnd, msg: &Message) {
        let c = &mut self.clusters[cid.0 as usize];
        if !msg.nondet.is_empty() {
            c.nondet_logs.entry(msg.src).or_default().extend(msg.nondet.iter().copied());
        }
        if let Some(be) = c.routing.backup_mut(&end) {
            be.writes_since_sync += 1;
            return;
        }
        // Promoted mid-flight: the count becomes a suppression credit.
        if c.routing.primary(&end).is_some_and(|e| !auros_bus::proto::is_kernel_pid(e.owner)) {
            c.routing.add_suppress(&end);
        }
    }

    /// Creates a backup routing entry described by `init` (open replies
    /// and birth notices do this, §7.4.1/§7.7).
    pub(crate) fn create_backup_entry_from_init(&mut self, cid: ClusterId, init: &ChannelInit) {
        let ci = cid.0 as usize;
        let c = &mut self.clusters[ci];
        c.routing.backup_or_insert_with(init.end, || BackupEntry::from_init(init));
        c.exec_free = c.exec_free.max(self.queue.now()) + cost::EXEC_BACKUP_MAINTENANCE;
        self.stats.clusters[ci].exec_busy += cost::EXEC_BACKUP_MAINTENANCE;
    }

    /// Creates a primary routing entry described by `init`.
    pub(crate) fn create_primary_entry_from_init(&mut self, cid: ClusterId, init: &ChannelInit) {
        let c = &mut self.clusters[cid.0 as usize];
        c.routing.primary_or_insert_with(init.end, || Entry::from_init(init));
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Dispatches runnable processes onto free work processors.
    pub(crate) fn try_dispatch(&mut self, cid: ClusterId) {
        let now = self.now();
        let ci = cid.0 as usize;
        loop {
            {
                let c = &self.clusters[ci];
                if !c.alive || c.in_crash_handling(now) {
                    return;
                }
            }
            let Some(worker) = self.clusters[ci].free_worker(now) else {
                let c = &mut self.clusters[ci];
                if !c.runnable.is_empty() {
                    let at = c.next_worker_free().max(now);
                    // A same-tick re-post would fire, find every worker
                    // still busy and re-post forever.
                    debug_assert!(
                        at > now,
                        "saturated cluster {} re-posts Dispatch at {at:?}",
                        cid.0
                    );
                    // Only the first Dispatch of a tick can find work: every
                    // make_runnable site calls try_dispatch itself, a worker
                    // dispatched at `now` is busy past `now`, and crash
                    // handling depends on time only.
                    if c.dispatch_at != Some(at) {
                        c.dispatch_at = Some(at);
                        self.queue.schedule(at, Event::Dispatch { cluster: cid });
                    }
                }
                return;
            };
            let Some(pid) = self.clusters[ci].take_runnable() else {
                return;
            };
            let is_server = match self.clusters[ci].procs.get(&pid) {
                Some(pcb) if pcb.state == ProcessState::Runnable => pcb.is_server(),
                _ => continue,
            };
            // Signals are processed at dispatch boundaries: ignored ones
            // are consumed and counted, handled ones force a sync first
            // (§7.5.2), uncaught ones kill. A promoted backup performs
            // the same check before its first instruction, so primary
            // and replay handle signals at the same place.
            if !is_server {
                if !self.check_signals(cid, pid) {
                    continue; // The process died.
                }
                match self.clusters[ci].procs.get(&pid) {
                    Some(pcb) if pcb.state == ProcessState::Runnable => {}
                    _ => continue,
                }
            }
            self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::Dispatched { pid: pid.0 });
            let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) else {
                continue;
            };
            pcb.state = ProcessState::Running;
            pcb.run_token += 1;
            pcb.quantum_start = now;
            let token = pcb.run_token;
            if is_server {
                // Servers handle one message per step; the message is
                // consumed now (counts updated) and effects are applied
                // at ServerDone.
                let span = self.run_server_step(cid, pid, worker);
                if span == Dur::ZERO {
                    // Nothing to do after all; the step left it idle.
                    continue;
                }
                let end = now + span;
                self.clusters[ci].work_free[worker] = end;
                self.stats.clusters[ci].work_busy += span;
                self.queue.schedule(end, Event::ServerDone { cluster: cid, pid, token });
            } else {
                let quantum = self.cfg.quantum;
                // A body that is not a server is a user process's machine.
                let Some(machine) =
                    self.clusters[ci].procs.get_mut(&pid).and_then(|p| p.machine_mut())
                else {
                    continue;
                };
                let (exit, used) = machine.run(quantum);
                let span = cost::DISPATCH + Dur(used.saturating_mul(TICKS_PER_FUEL));
                let end = now + span;
                self.clusters[ci].work_free[worker] = end;
                self.stats.clusters[ci].work_busy += span;
                self.queue
                    .schedule(end, Event::QuantumEnd { cluster: cid, pid, token, exit, used });
            }
        }
    }

    /// Makes a process runnable and tries to dispatch.
    pub(crate) fn wake(&mut self, cid: ClusterId, pid: Pid) {
        let now = self.now();
        let c = self.cluster_mut(cid);
        let mut closed_wait = None;
        if let Some(pcb) = c.procs.get_mut(&pid) {
            if pcb.is_dead() || pcb.state == ProcessState::Running {
                return;
            }
            // Close the blocked-wait interval (service latency ledger).
            if matches!(pcb.state, ProcessState::Blocked(_)) {
                if let Some(t0) = pcb.wait_from.take() {
                    let d = now.since(t0);
                    pcb.total_wait += d;
                    pcb.waits += 1;
                    pcb.max_wait = pcb.max_wait.max(d);
                    closed_wait = Some(d);
                }
            }
            pcb.state = ProcessState::Runnable;
            c.make_runnable(pid);
        } else {
            return;
        }
        if let Some(d) = closed_wait {
            self.stats.record_wait(d);
        }
        self.try_dispatch(cid);
    }

    fn on_wake(&mut self, cid: ClusterId, pid: Pid) {
        self.wake(cid, pid);
    }

    // ------------------------------------------------------------------
    // Periodic machinery
    // ------------------------------------------------------------------

    fn on_poll_tick(&mut self) {
        let now = self.now();
        // Crashes queue themselves at crash time; the detector only
        // drains that list instead of scanning the fleet. Sorting by
        // cluster id preserves the fleet scan's announce order, and a
        // cluster restored between crash and poll is skipped exactly as
        // the scan (which tested `alive`) would have skipped it.
        let mut dead = std::mem::take(&mut self.unannounced_dead);
        dead.sort_unstable_by_key(|c| c.0);
        dead.dedup();
        dead.retain(|d| !self.clusters[d.0 as usize].alive && !self.announced_crashes.contains(d));
        for d in dead {
            self.announced_crashes.push(d);
            self.stats.crashes += 1;
            self.trace.emit(now, Loc::Cluster(d.0), TraceKind::CrashDetected { dead: d.0 });
            self.announce_crash(d);
        }
        self.queue.schedule(now + cost::POLL_INTERVAL, Event::PollTick);
    }

    pub(crate) fn unannounce_restored(&mut self, cid: ClusterId) {
        self.announced_crashes.retain(|c| *c != cid);
        self.unannounced_dead.retain(|c| *c != cid);
    }

    fn on_report_tick(&mut self, cid: ClusterId) {
        let now = self.now();
        let ci = cid.0 as usize;
        if self.clusters[ci].alive {
            let pids: Vec<Pid> = self.clusters[ci]
                .procs
                .iter()
                .filter(|(_, p)| !p.is_dead())
                .map(|(pid, _)| *pid)
                .collect();
            self.kernel_send_proc(cid, ProcRequest::Report { cluster: cid, pids });
        }
        self.queue
            .schedule(now + self.cfg.costs.report_interval, Event::ReportTick { cluster: cid });
    }

    /// Sends a request on the kernel's process-server port.
    pub(crate) fn kernel_send_proc(&mut self, cid: ClusterId, req: ProcRequest) {
        let end = kernel_port_end(cid, ports::PROC);
        self.send_on_end(cid, kernel_pid(cid), end, Payload::Proc(req));
    }

    /// Sends a request on the kernel's page-server port.
    pub(crate) fn kernel_send_pager(
        &mut self,
        cid: ClusterId,
        req: auros_bus::proto::PagerRequest,
    ) {
        let end = kernel_port_end(cid, ports::FS);
        // The pager port reuses the FS slot index of the *kernel's*
        // bootstrap namespace; see `kernel_port_end`.
        self.send_on_end(cid, kernel_pid(cid), end, Payload::Pager(req));
    }

    /// Handles a message addressed to a kernel port (paging replies,
    /// placement answers).
    fn kernel_port_recv(&mut self, cid: ClusterId, _end: ChanEnd, msg: Message) {
        match msg.payload {
            Payload::PagerReply(PagerReply::Page { pid, page, data }) => {
                self.install_page(cid, pid, page, data);
            }
            Payload::PagerReply(PagerReply::Ack) => {}
            Payload::ProcReply(ProcReply::Place { pid, cluster }) => {
                self.on_place_reply(cid, pid, cluster);
            }
            _ => {}
        }
    }

    /// Installs a demand-paged page into a process and retries its block.
    fn install_page(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        page: auros_vm::PageNo,
        data: Option<auros_bus::proto::PageBlob>,
    ) {
        let ci = cid.0 as usize;
        let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) else {
            return;
        };
        if pcb.is_dead() {
            return;
        }
        let Some(machine) = pcb.machine_mut() else {
            return;
        };
        let page_data: auros_vm::PageData = match data {
            Some(blob) => Box::new(*blob),
            None => Box::new([0u8; auros_vm::PAGE_SIZE]),
        };
        machine.memory_mut().install(page, page_data);
        self.stats.clusters[ci].page_faults += 1;
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::PageInstalled { pid: pid.0, page: page.0 as u64 },
        );
        self.try_unblock(cid, pid);
    }
}

/// The kernel's port end for a service slot.
///
/// Slot [`ports::FS`] carries paging traffic (the kernel's own disk-backed
/// service) and slot [`ports::PROC`] carries process-server traffic.
pub fn kernel_port_end(cid: ClusterId, slot: u8) -> ChanEnd {
    ChanEnd { channel: ChannelId::bootstrap(kernel_pid(cid), slot), side: Side::A }
}

/// The bootstrap channel end of a process for a port slot (A side).
pub fn bootstrap_end(pid: Pid, slot: u8) -> ChanEnd {
    ChanEnd { channel: ChannelId::bootstrap(pid, slot), side: Side::A }
}

/// Builds the pair of channel-init descriptors for one bootstrap channel
/// between `owner` (A side) and a server (B side).
#[allow(clippy::too_many_arguments)]
pub fn bootstrap_channel_inits(
    owner: Pid,
    owner_cluster: ClusterId,
    owner_backup: Option<ClusterId>,
    owner_mode: BackupMode,
    server: Pid,
    server_cluster: ClusterId,
    server_backup: Option<ClusterId>,
    server_mode: BackupMode,
    slot: u8,
    kind: ChanKind,
) -> (ChannelInit, ChannelInit) {
    let a = bootstrap_end(owner, slot);
    let a_init = ChannelInit {
        end: a,
        owner,
        fd: None,
        peer: Some(server),
        peer_primary: Some(server_cluster),
        peer_backup: server_backup,
        owner_backup,
        peer_mode: server_mode,
        kind,
    };
    let b_init = ChannelInit {
        end: a.peer(),
        owner: server,
        fd: None,
        peer: Some(owner),
        peer_primary: Some(owner_cluster),
        peer_backup: owner_backup,
        owner_backup: server_backup,
        peer_mode: owner_mode,
        kind,
    };
    (a_init, b_init)
}

/// Marker trait impl so facades can name the service kind per slot.
pub fn service_kind_for_slot(slot: u8) -> ChanKind {
    match slot {
        ports::SIGNAL => ChanKind::Signal,
        ports::FS => ChanKind::ServerPort(ServiceKind::File),
        ports::PROC => ChanKind::ServerPort(ServiceKind::Proc),
        _ => ChanKind::UserUser,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_clock_starts_at_zero() {
        let w = World::new(Config::default());
        assert_eq!(w.now(), VTime::ZERO);
        assert_eq!(w.clusters.len(), 3);
        assert!(w.all_spawned_done(), "no processes spawned yet");
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn invalid_config_panics() {
        let _ = World::new(Config { clusters: 1, ..Config::default() });
    }

    #[test]
    fn bootstrap_ends_are_disjoint_across_slots() {
        let a = bootstrap_end(Pid(5), ports::SIGNAL);
        let b = bootstrap_end(Pid(5), ports::FS);
        let c = bootstrap_end(Pid(6), ports::SIGNAL);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.side, Side::A);
    }

    #[test]
    fn kernel_port_ends_use_kernel_pid_namespace() {
        let e = kernel_port_end(ClusterId(2), ports::PROC);
        assert_eq!(e.side, Side::A);
        let f = kernel_port_end(ClusterId(3), ports::PROC);
        assert_ne!(e.channel, f.channel);
    }

    #[test]
    fn poll_and_report_ticks_self_reschedule() {
        let mut w = World::new(Config::small());
        let before = w.queue.len();
        w.run_until(VTime(200_000));
        // Ticks keep rescheduling themselves: the queue never drains.
        assert!(w.queue.len() >= before - 1);
        assert!(w.now() > VTime::ZERO);
    }

    /// Every queued event pays for the largest variant; a frame travels
    /// behind an `Arc`, never inline.
    #[test]
    fn events_stay_small() {
        assert!(std::mem::size_of::<Event>() <= 64, "{} bytes", std::mem::size_of::<Event>());
    }

    /// Both run loops stop at their deadline even when a cancelled event
    /// is stored at or before it: the next live event, past the
    /// deadline, stays queued.
    #[test]
    fn run_loops_stop_at_the_deadline_behind_a_cancelled_event() {
        for completion in [false, true] {
            let mut w = World::new(Config::default());
            if completion {
                // A spawned process that never exits keeps the loop going.
                w.spawned.push(Pid(99));
                w.spawned_pending.insert(Pid(99));
            }
            let dead = w.queue.schedule(VTime(10), Event::BusProbe);
            assert!(w.queue.cancel(dead));
            let deadline = VTime(100);
            assert!(cost::POLL_INTERVAL.0 > deadline.0, "the first live event lies past it");
            if completion {
                assert!(!w.run_to_completion(deadline));
            } else {
                w.run_until(deadline);
            }
            assert_eq!(w.events_processed, 0, "completion loop: {completion}");
            assert!(w.now() <= deadline);
            assert_eq!(w.queue.len(), 1 + w.cfg.clusters as usize, "every tick still queued");
        }
    }
}
