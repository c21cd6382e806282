//! Synchronization of a primary with its backup (§5.2, §7.8), and the
//! kernel-to-kernel control plane.
//!
//! The sync operation has two parts. First the normal paging mechanism
//! sends every page modified since the last sync to the page server;
//! then a sync message carrying the cluster-independent process state is
//! placed on the outgoing queue behind the pages. The process continues
//! as soon as everything is *enqueued* (§8.3) — it never waits for the
//! page server or the backup cluster. FIFO ordering of the outgoing
//! queue guarantees that any message the primary sends afterwards cannot
//! be counted at the backup before the sync is processed (§7.8).

use std::sync::Arc;

use auros_bus::proto::{
    BackupMode, ChanEnd, ChannelInit, Control, KernelState, PagerRequest, Payload, RebuildInfo,
    SharedImage, SyncRecord,
};
use auros_bus::{ClusterId, DeliveryTag, Message, Pid};
use auros_sim::{Loc, TraceKind};

use crate::cluster::{BackupRecord, BirthRecord};
use crate::config::cost;
use crate::process::{BlockState, ProcessBody, ProcessState};
use crate::routing::Queued;
use crate::server::ServerImage;
use crate::world::{kernel_port_end, ports, World};

impl World {
    // ------------------------------------------------------------------
    // The sync operation (primary side)
    // ------------------------------------------------------------------

    /// Synchronizes `pid` with its backup.
    ///
    /// Children that do not yet have backups are forced to sync first so
    /// their page accounts are created correctly (§7.7).
    pub(crate) fn perform_sync(&mut self, cid: ClusterId, pid: Pid) {
        let ci = cid.0 as usize;
        let Some(pcb) = self.clusters[ci].procs.get(&pid) else {
            return;
        };
        if pcb.is_dead() {
            return;
        }
        let backup_cluster = match pcb.backup.cluster() {
            Some(b) if self.cfg.ft_enabled() => b,
            _ => {
                // Unprotected: reset the trigger counters, and commit any
                // controlled device directly — with no backup there is no
                // older state worth preserving, and held terminal output
                // must still reach the user.
                if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
                    pcb.reads_since_sync = 0;
                    pcb.fuel_since_sync = 0;
                }
                if let Some(didx) = self.server_devices.get(&pid).copied() {
                    self.devices[didx].on_owner_sync();
                }
                return;
            }
        };

        // Force never-synced children first (§7.7).
        let children: Vec<Pid> = self.clusters[ci].procs[&pid]
            .children
            .iter()
            .copied()
            .filter(|c| {
                self.clusters[ci]
                    .procs
                    .get(c)
                    .map(|p| !p.is_dead() && p.sync_seq == 0 && p.backup.cluster().is_some())
                    .unwrap_or(false)
            })
            .collect();
        for child in children {
            self.perform_sync(cid, child);
        }

        let now = self.now();
        let is_user = !self.clusters[ci].procs[&pid].is_server();

        // Part one: flush dirty pages through the paging mechanism.
        let mut flushed = 0u64;
        if is_user {
            let dirty: Vec<(auros_vm::PageNo, auros_bus::proto::PageBlob)> =
                match self.clusters[ci].procs.get_mut(&pid).and_then(|pcb| pcb.machine_mut()) {
                    Some(m) => {
                        let pages = m.memory_mut().dirty_pages();
                        let blobs: Vec<_> = pages
                            .iter()
                            // A page listed by dirty_pages() is resident
                            // by construction; if paging state were ever
                            // degraded, skipping the page beats
                            // panicking mid-sync.
                            .filter_map(|p| Some((*p, std::sync::Arc::new(*m.memory().page(*p)?))))
                            .collect();
                        m.memory_mut().clean_all();
                        blobs
                    }
                    None => Vec::new(),
                };
            flushed = dirty.len() as u64;
            for (page, data) in dirty {
                self.kernel_send_pager(cid, PagerRequest::PageOut { pid, page, data });
            }
            self.stats.clusters[ci].work_busy += cost::PAGE_ENQUEUE.saturating_mul(flushed);
            self.stats.clusters[ci].pages_flushed += flushed;
        }

        // Part two: build and enqueue the sync message.
        let Some(record) = self.build_sync_record(cid, pid, backup_cluster) else {
            return;
        };
        let mut targets = vec![(backup_cluster, DeliveryTag::Kernel)];
        if is_user {
            // The sync message also goes to the page server and its
            // backup (§7.8), riding this cluster's pager port.
            let pager_end = kernel_port_end(cid, ports::FS).peer();
            if let Some((_, pp, pb)) = self.clusters[ci].directory.pager {
                targets.push((pp, DeliveryTag::Primary(pager_end)));
                if let Some(pb) = pb {
                    targets.push((pb, DeliveryTag::DestBackup(pager_end)));
                }
            }
        }
        self.stats.clusters[ci].work_busy += cost::SYNC_BUILD;
        self.stats.clusters[ci].syncs += 1;
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::SyncStart { pid: pid.0, gen: record.sync_seq, flushed },
        );
        self.send_control(cid, targets, Payload::Control(Control::Sync(Arc::new(record))));

        if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
            pcb.reads_since_sync = 0;
            pcb.fuel_since_sync = 0;
            pcb.rebuild_pending = false;
            // §10: the snapshot embodies the effects of every consumed
            // nondeterministic value; nothing before this point replays.
            pcb.pending_nondet.clear();
        }
    }

    /// Builds the sync record for `pid`, or `None` if the process is no
    /// longer resident in `cid` — the caller then skips the sync rather
    /// than panicking mid-wave. (Its sole caller, `perform_sync`,
    /// returns early unless the pid is live, so the `None` arm is pure
    /// defence; the drained read counts belong to a gone process and
    /// are discarded with it.)
    fn build_sync_record(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        backup_cluster: ClusterId,
    ) -> Option<SyncRecord> {
        let ci = cid.0 as usize;
        // Collect per-end read counts and residual suppression, resetting
        // the former (§5.2). Walks the dirty/suppressed indexes, not the
        // owner's full end list: a server owns an end per process in the
        // fleet, syncs constantly, and touches at most `sync_max_reads`
        // ends between syncs.
        let reads = self.clusters[ci].routing.drain_dirty_reads(pid);
        let residual = self.clusters[ci].routing.residual_suppress_of(pid);
        let pcb = self.clusters[ci].procs.get_mut(&pid)?;
        pcb.sync_seq += 1;
        let sync_seq = pcb.sync_seq;
        let closed = std::mem::take(&mut pcb.closed_since_sync);
        let pending = match &pcb.state {
            ProcessState::Blocked(BlockState::Pending(p)) => Some(p.clone()),
            _ => None,
        };
        let kstate = KernelState {
            fds: pcb.fds.iter().map(|(fd, end)| (*fd, *end)).collect(),
            bunches: pcb.bunches.iter().map(|(g, v)| (*g, v.clone())).collect(),
            handlers: pcb.handlers.iter().map(|(s, h)| (*s, *h)).collect(),
            fork_count: pcb.fork_count,
            next_fd: pcb.next_fd,
            pending,
        };
        let image: SharedImage = match &pcb.body {
            ProcessBody::User(m) => Arc::new(m.snapshot()),
            ProcessBody::Server(s) => Arc::new(ServerImage(s.clone_image())),
        };
        let announce = pcb.rebuild_pending;
        let rebuild = if pcb.rebuild_pending || sync_seq == 1 {
            let mut info = self.build_rebuild_info(cid, pid, backup_cluster);
            info.announce = announce;
            Some(info)
        } else {
            None
        };
        Some(SyncRecord {
            pid,
            sync_seq,
            image,
            kstate: Arc::new(kstate),
            reads_since_sync: reads,
            residual_suppress: residual,
            closed,
            rebuild,
        })
    }

    /// Builds the full channel table (and, after promotions, the saved
    /// queues) for creating a backup from scratch.
    fn build_rebuild_info(
        &self,
        cid: ClusterId,
        pid: Pid,
        backup_cluster: ClusterId,
    ) -> RebuildInfo {
        let ci = cid.0 as usize;
        let pcb = &self.clusters[ci].procs[&pid];
        let program = pcb.machine().map(|m| m.program().clone());
        let fd_of = |end: ChanEnd| pcb.fds.iter().find(|(_, e)| **e == end).map(|(fd, _)| *fd);
        let mut channels = Vec::new();
        let mut queues = Vec::new();
        let mut write_counts = Vec::new();
        for end in self.clusters[ci].routing.ends_of(pid) {
            // ends_of lists only live primary entries; a degraded owner
            // index yields a smaller rebuild table instead of a panic
            // while constructing the backup.
            let Some(e) = self.clusters[ci].routing.primary(&end) else {
                continue;
            };
            let end = &end;
            channels.push(ChannelInit {
                end: *end,
                owner: pid,
                fd: fd_of(*end),
                peer: e.peer,
                peer_primary: e.peer_primary,
                peer_backup: e.peer_backup,
                owner_backup: Some(backup_cluster),
                peer_mode: e.peer_mode,
                kind: e.kind,
            });
            if !e.queue.is_empty() {
                queues.push((
                    *end,
                    e.queue.iter().map(|q| (q.arrival_seq, q.msg.clone())).collect::<Vec<_>>(),
                ));
            }
            if e.suppress_writes > 0 {
                write_counts.push((*end, e.suppress_writes));
            }
        }
        RebuildInfo {
            announce: false,
            program,
            mode: pcb.mode,
            channels,
            queues: Arc::new(queues),
            write_counts,
        }
    }

    // ------------------------------------------------------------------
    // Control-plane delivery
    // ------------------------------------------------------------------

    /// Handles a frame addressed to this cluster's kernel.
    pub(crate) fn deliver_kernel(&mut self, cid: ClusterId, src: ClusterId, msg: &Message) {
        let Payload::Control(control) = &msg.payload else {
            return;
        };
        match control {
            Control::Sync(rec) => self.apply_sync(cid, src, rec),
            Control::Birth(notice) => self.apply_birth(cid, notice),
            Control::BackupCreated { pid, cluster } => {
                self.apply_backup_created(cid, *pid, *cluster)
            }
            Control::CreatePort { primary_at, backup_at, init } => {
                if *primary_at == cid {
                    self.create_primary_entry_from_init(cid, init);
                }
                if *backup_at == Some(cid) {
                    self.create_backup_entry_from_init(cid, init);
                }
            }
            Control::ChannelClosed { end } => self.apply_channel_closed(cid, *end),
            Control::Exited { pid } => self.apply_peer_exited(cid, *pid),
            Control::SyncDemand { pid } => self.apply_sync_demand(cid, *pid),
            Control::ProcessFailed { pid, at } => self.apply_process_failed(cid, *pid, *at),
        }
    }

    /// Backpressure: a backup cluster reports `pid`'s saved-message
    /// queue at its bound. If the primary runs here and is alive,
    /// synchronize it now — the sync trims the queue at the backup and
    /// blocks the sender for the enqueue time (§8.3), which is exactly
    /// the degradation the paper's message-count trigger buys (§5.2).
    fn apply_sync_demand(&mut self, cid: ClusterId, pid: Pid) {
        let ci = cid.0 as usize;
        // Users and servers alike: whatever owns the overfull queue
        // must sync it down.
        let runs_here = self.clusters[ci].procs.get(&pid).is_some_and(|p| !p.is_dead());
        if !runs_here {
            return;
        }
        self.stats.forced_syncs += 1;
        let now = self.now();
        self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::ForcedSync { pid: pid.0 });
        self.perform_sync(cid, pid);
    }

    /// Applies a sync message at the backup cluster (§7.8).
    fn apply_sync(&mut self, cid: ClusterId, src: ClusterId, rec: &SyncRecord) {
        let ci = cid.0 as usize;
        let now = self.now();
        let pid = rec.pid;
        // Rebuild first, so queue trims below see the entries.
        if let Some(rebuild) = &rec.rebuild {
            for init in &rebuild.channels {
                self.create_backup_entry_from_init(cid, init);
            }
            for (end, msgs) in rebuild.queues.iter() {
                let routing = &mut self.clusters[ci].routing;
                if routing.backup(end).is_some_and(|be| be.queue.is_empty()) {
                    for (_, m) in msgs {
                        // `stamp` needs `&mut` on the whole table, so the
                        // entry is re-fetched per message; it cannot have
                        // vanished, but handle it rather than panic.
                        let seq = routing.stamp();
                        if let Some(be) = routing.backup_mut(end) {
                            be.queue.push_back(Queued { arrival_seq: seq, msg: m.clone() });
                        }
                    }
                }
            }
            for (end, count) in &rebuild.write_counts {
                if let Some(be) = self.clusters[ci].routing.backup_mut(end) {
                    be.writes_since_sync = *count;
                }
            }
        }
        // Update or create the backup record: "the first sync … causes
        // the backup to be created" (§7.7).
        let is_new = !self.clusters[ci].backups.contains_key(&pid);
        let program_from_rebuild = rec.rebuild.as_ref().and_then(|r| r.program.clone());
        let mode_from_rebuild = rec.rebuild.as_ref().map(|r| r.mode);
        let birth_program = self.clusters[ci]
            .births
            .values()
            .find(|b| b.child == pid)
            .map(|b| (b.program.clone(), b.mode));
        {
            let entry = self.clusters[ci].backups.entry(pid);
            let record = entry.or_insert_with(|| {
                let (program, mode) = match (&program_from_rebuild, mode_from_rebuild) {
                    (Some(p), Some(m)) => (Some(p.clone()), m),
                    _ => match &birth_program {
                        Some((p, m)) => (Some(p.clone()), *m),
                        None => (None, BackupMode::Quarterback),
                    },
                };
                BackupRecord {
                    pid,
                    primary_cluster: src,
                    image: rec.image.clone(),
                    kstate: rec.kstate.clone(),
                    program,
                    mode,
                    sync_seq: 0,
                    parent: None,
                }
            });
            record.primary_cluster = src;
            record.image = rec.image.clone();
            record.kstate = rec.kstate.clone();
            record.sync_seq = rec.sync_seq;
            if let Some(p) = program_from_rebuild {
                record.program = Some(p);
            }
            if let Some(m) = mode_from_rebuild {
                record.mode = m;
            }
        }
        if is_new {
            self.stats.clusters[ci].backups_created += 1;
        }
        // Discard messages the primary already read (§5.2).
        for (end, n) in &rec.reads_since_sync {
            if let Some(be) = self.clusters[ci].routing.backup_mut(end) {
                for _ in 0..*n {
                    be.queue.pop_front();
                }
            }
        }
        // Remove entries for closed channels (§7.8).
        for end in &rec.closed {
            self.clusters[ci].routing.remove_backup(end);
        }
        // Zero the writes-since-sync counts (§5.2) — except residual
        // suppression debt carried through a mid-rollforward sync — and
        // release the backpressure latch: the queue was just trimmed, so
        // a still-full queue may demand a fresh sync.
        let ends = self.clusters[ci].routing.backup_ends_of(pid);
        for end in ends {
            let residual =
                rec.residual_suppress.iter().find(|(e, _)| *e == end).map(|(_, n)| *n).unwrap_or(0);
            if let Some(be) = self.clusters[ci].routing.backup_mut(&end) {
                be.writes_since_sync = residual;
                be.sync_demanded = false;
            }
        }
        // First sync from a child marks its birth record (§7.7).
        for birth in self.clusters[ci].births.values_mut() {
            if birth.child == pid {
                birth.child_synced = true;
            }
        }
        // A device-controlling server's sync commits the device's shadow
        // state: the old copy survives exactly until the sync completes
        // (§7.9).
        if let Some(didx) = self.server_devices.get(&pid).copied() {
            self.devices[didx].on_owner_sync();
        }
        // §10: logged nondeterministic results predate the new sync
        // point; replay from it never consumes them.
        self.clusters[ci].nondet_logs.remove(&pid);
        let c = &mut self.clusters[ci];
        c.exec_free = c.exec_free.max(now) + cost::EXEC_BACKUP_MAINTENANCE;
        self.stats.clusters[ci].exec_busy += cost::EXEC_BACKUP_MAINTENANCE;
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::SyncApplied { pid: pid.0, gen: rec.sync_seq, is_new },
        );
        // A re-protection rebuild announces the new backup to everyone
        // (§7.10.1 step 1's "notification"); a routine first sync does
        // not (peers were wired with the backup cluster from birth).
        if rec.rebuild.as_ref().is_some_and(|r| r.announce) {
            self.broadcast_backup_created(cid, pid);
        }
    }

    pub(crate) fn broadcast_backup_created(&mut self, cid: ClusterId, pid: Pid) {
        let targets: Vec<(ClusterId, DeliveryTag)> =
            self.clusters.iter().filter(|c| c.alive).map(|c| (c.id, DeliveryTag::Kernel)).collect();
        self.send_control(
            cid,
            targets,
            Payload::Control(Control::BackupCreated { pid, cluster: cid }),
        );
    }

    /// Stores a birth notice and creates the child's backup routing
    /// entries (§7.7).
    fn apply_birth(&mut self, cid: ClusterId, notice: &auros_bus::proto::BirthNotice) {
        let ci = cid.0 as usize;
        for init in &notice.bootstrap {
            self.create_backup_entry_from_init(cid, init);
        }
        self.clusters[ci].births.insert(
            (notice.parent, notice.fork_index),
            BirthRecord {
                child: notice.child,
                program: notice.program.clone(),
                mode: notice.mode,
                child_synced: false,
                child_exited: false,
            },
        );
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::BirthNotice {
                parent: notice.parent.0,
                fork_index: notice.fork_index,
                child: notice.child.0,
            },
        );
    }

    /// Repairs routing after a new backup is announced; releases
    /// processes blocked on unusable channels and the promoted fullback
    /// itself (§7.10.1).
    fn apply_backup_created(&mut self, cid: ClusterId, pid: Pid, backup_at: ClusterId) {
        let ci = cid.0 as usize;
        // A re-protected global server has a new backup home; the
        // directory must learn it or a later crash of the primary finds
        // a stale `None` and kernels lose their RPC aim (§7.10.2).
        {
            let d = &mut self.clusters[ci].directory;
            for (spid, _, backup) in
                [&mut d.pager, &mut d.fs, &mut d.procserver].into_iter().flatten()
            {
                if *spid == pid {
                    *backup = Some(backup_at);
                }
            }
        }
        let mut owners_to_poke = Vec::new();
        for (end, e) in self.clusters[ci].routing.primary_iter_mut() {
            // The re-protected process's own sends now carry a
            // sender-backup copy, so its new backup counts them (§5.4).
            if e.owner == pid {
                e.owner_backup = Some(backup_at);
            }
            if e.peer == Some(pid) {
                e.peer_backup = Some(backup_at);
                if !e.usable {
                    e.usable = true;
                    owners_to_poke.push((e.owner, *end));
                }
            }
        }
        for e in self.clusters[ci].routing.backup_values_mut() {
            if e.peer == Some(pid) {
                e.peer_backup = Some(backup_at);
            }
        }
        for (owner, _) in owners_to_poke {
            self.try_unblock(cid, owner);
        }
        // Retry deferred server sends.
        let deferred = std::mem::take(&mut self.clusters[ci].deferred_sends);
        for (src, end, payload) in deferred {
            let peer_is_pid = self.clusters[ci]
                .routing
                .primary(&end)
                .map(|e| e.peer == Some(pid))
                .unwrap_or(false);
            if peer_is_pid {
                self.send_on_end(cid, src, end, payload);
            } else {
                self.clusters[ci].deferred_sends.push((src, end, payload));
            }
        }
        // The re-protected process itself resumes.
        let backup = crate::process::BackupStatus::At(backup_at);
        if self.release_gated_fullback(cid, pid, backup.clone()) {
            self.clusters[ci].make_runnable(pid);
            self.try_unblock(cid, pid);
            self.try_dispatch(cid);
        } else if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid).filter(|p| !p.is_dead()) {
            pcb.backup = backup;
        }
    }

    /// Marks the peer of a closed end gone; failing reads/writes wake,
    /// and server owners drop their per-channel state.
    fn apply_channel_closed(&mut self, cid: ClusterId, end: ChanEnd) {
        let ci = cid.0 as usize;
        let peer_end = end.peer();
        let mut owner = None;
        if let Some(e) = self.clusters[ci].routing.primary_mut(&peer_end) {
            e.peer_closed = true;
            owner = Some(e.owner);
        }
        if let Some(be) = self.clusters[ci].routing.backup_mut(&peer_end) {
            be.peer_closed = true;
        }
        if let Some(owner) = owner {
            let is_server =
                self.clusters[ci].procs.get(&owner).map(|p| p.is_server()).unwrap_or(false);
            if is_server {
                let effects = self
                    .with_server_ctx(cid, owner, |logic, ctx| logic.on_peer_closed(peer_end, ctx));
                if let Some(effects) = effects {
                    self.apply_server_effects(cid, owner, effects);
                }
            }
            self.try_unblock(cid, owner);
        }
    }

    /// Releases backup state for an exited process.
    fn apply_peer_exited(&mut self, cid: ClusterId, pid: Pid) {
        let ci = cid.0 as usize;
        self.clusters[ci].backups.remove(&pid);
        let ends = self.clusters[ci].routing.backup_ends_of(pid);
        for end in ends {
            self.clusters[ci].routing.remove_backup(&end);
        }
        for birth in self.clusters[ci].births.values_mut() {
            if birth.child == pid {
                birth.child_exited = true;
            }
        }
    }
}
