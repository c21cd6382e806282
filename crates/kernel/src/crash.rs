//! Crash detection, crash handling (§7.10.1), and recovery (§7.10.2).
//!
//! When polling discovers a dead cluster, every survivor disables
//! outgoing transmission and schedules two very-high-priority crash
//! handling processes, which occupy its work processors for the crash
//! window and then perform the five steps of §7.10.1: repair the routing
//! table, make runnable the backups of halfbacks and quarterbacks, link
//! fullbacks for backup re-creation, adjust the outgoing queue, and
//! signal peripheral-server backups to begin recovery.

use auros_bus::proto::{BackupMode, ChanEnd, PagerRequest, ProcRequest, ProcessImage};
use auros_bus::{ClusterId, DeliveryTag, Pid};
use auros_sim::{Loc, TraceKind};
use auros_vm::Machine;

use crate::cluster::Cluster;
use crate::config::{cost, WORK_PROCESSORS};
use crate::process::{BackupStatus, BlockState, Pcb, ProcessBody, ProcessState};
use crate::routing::Failure;
use crate::server::ServerImage;
use crate::world::{Event, World};

impl World {
    /// A cluster dies (total failure, §3.1). Handling begins when the
    /// failure detector notices (§7.10).
    pub(crate) fn on_crash(&mut self, cid: ClusterId) {
        let ci = cid.0 as usize;
        let now = self.now();
        if !self.clusters[ci].alive {
            return;
        }
        self.clusters[ci].alive = false;
        self.clusters[ci].crashed_at = Some(now);
        // Every live user resident here leaves the fleet-wide count at
        // once; the per-cluster count stays with the dead incarnation
        // (its pcbs are untouched until restore replaces the cluster).
        self.live_users_total -= self.clusters[ci].live_users;
        self.unannounced_dead.push(cid);
        self.stats.note_crash(cid, now);
        self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::ClusterCrashed);
        // The live-target set shrank: frames held only because the dead
        // cluster had a link-sequence gap may now be deliverable.
        self.drain_held();
    }

    /// Polling discovered `dead`: notify every survivor (§7.10).
    pub(crate) fn announce_crash(&mut self, dead: ClusterId) {
        let live: Vec<ClusterId> = self.clusters.iter().filter(|c| c.alive).map(|c| c.id).collect();
        for cid in live {
            self.begin_crash_handling(cid, dead);
        }
    }

    /// §7.10.1: disable outgoing transmission and schedule the two
    /// high-priority crash-handling processes.
    fn begin_crash_handling(&mut self, cid: ClusterId, dead: ClusterId) {
        let ci = cid.0 as usize;
        let now = self.now();
        let c = &mut self.clusters[ci];
        c.outgoing_disabled = true;
        let entries = c.routing.len();
        let span = cost::CRASH_FIXED + cost::CRASH_PER_ENTRY.saturating_mul(entries as u64);
        c.crash_busy_until = Some(now + span);
        self.stats.clusters[ci].crash_busy += span;
        // Both work processors run the crash processes for the window.
        self.stats.clusters[ci].work_busy += span.saturating_mul(c.work_free.len() as u64);
        self.queue.schedule(now + span, Event::CrashWorkDone { cluster: cid, dead });
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::CrashHandlingBegin { dead: dead.0, entries: entries as u64 },
        );
    }

    /// The crash-handling processes complete: perform the five steps.
    pub(crate) fn on_crash_work_done(&mut self, cid: ClusterId, dead: ClusterId) {
        let ci = cid.0 as usize;
        if !self.clusters[ci].alive {
            return;
        }
        let now = self.now();
        self.clusters[ci].crash_busy_until = None;

        // Step 1: routing-table repair.
        let orphaned = self.clusters[ci].routing.fail_over(Failure::Cluster(dead));
        self.clusters[ci].directory.repair_after_crash(dead);

        // Steps 2/3/5: promote every backup whose primary died here —
        // quarterbacks and halfbacks run immediately; fullbacks are
        // linked for backup creation first; peripheral servers recover
        // via their `on_promote` hook.
        let to_promote: Vec<Pid> = self.clusters[ci]
            .backups
            .iter()
            .filter(|(_, r)| r.primary_cluster == dead)
            .map(|(pid, _)| *pid)
            .collect();
        for pid in to_promote {
            self.promote_backup(cid, pid, dead);
        }

        // Step 3 (other half): local primaries that lost their backup.
        let lost: Vec<(Pid, BackupMode)> = self.clusters[ci]
            .procs
            .iter()
            .filter(|(_, p)| !p.is_dead() && p.backup.cluster() == Some(dead))
            .map(|(pid, p)| (*pid, p.mode))
            .collect();
        for (pid, mode) in lost {
            if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
                pcb.backup = BackupStatus::None;
            }
            if mode == BackupMode::Fullback {
                self.request_backup_placement(cid, pid, dead);
            }
            // Halfbacks wait for the dead cluster's return (§7.3);
            // quarterbacks run unprotected from now on.
        }

        // Step 4: outgoing queue adjustment, then re-enable transmission.
        self.clusters[ci].outgoing_disabled = false;
        let held: Vec<crate::cluster::PendingFrame> =
            self.clusters[ci].outgoing_held.drain(..).collect();
        for pf in held {
            let mut frame = pf.frame;
            let mut redirected_ends = Vec::new();
            frame.targets = frame
                .targets
                .into_iter()
                .filter_map(|(tc, tag)| {
                    if tc != dead {
                        return Some((tc, tag));
                    }
                    // A primary destination in the dead cluster: route to
                    // the promoted backup via the sender's repaired entry.
                    if let DeliveryTag::Primary(end) = tag {
                        let sender_end = end.peer();
                        let c = &self.clusters[ci];
                        if let Some(e) = c.routing.primary(&sender_end) {
                            if let Some(np) = e.peer.primary {
                                redirected_ends.push(end);
                                return Some((np, tag));
                            }
                        }
                    }
                    None
                })
                .collect();
            // A redirected primary now lands on the promoted entry; the
            // frame's old DestBackup target for the same end would hit
            // that same entry through the promotion fallback and deliver
            // the message twice — the promoted process has no backup
            // until re-protection, so the stale copy must be dropped.
            frame.targets.retain(|(_, tag)| match tag {
                DeliveryTag::DestBackup(end) => !redirected_ends.contains(end),
                _ => true,
            });
            if !frame.targets.is_empty() {
                self.send_frame(cid, frame, now);
            }
        }

        self.wake_orphans(cid, orphaned);
        self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::CrashHandlingDone { dead: dead.0 });
        self.try_dispatch(cid);
    }

    /// Readers and writers whose peer vanished without a backup fail now.
    fn wake_orphans(&mut self, cid: ClusterId, orphaned: Vec<ChanEnd>) {
        for end in orphaned {
            let owner = self.clusters[cid.0 as usize].routing.primary(&end).map(|e| e.owner);
            if let Some(owner) = owner {
                self.try_unblock(cid, owner);
            }
        }
    }

    /// Asks the process server where a fullback's new backup should live
    /// (§7.10.2).
    fn request_backup_placement(&mut self, cid: ClusterId, pid: Pid, dead: ClusterId) {
        self.clusters[cid.0 as usize].awaiting_placement.insert(pid, dead);
        // Exclude the hosting cluster and everything currently down.
        let mut exclude: Vec<ClusterId> =
            self.clusters.iter().filter(|c| !c.alive).map(|c| c.id).collect();
        exclude.push(cid);
        if !exclude.contains(&dead) {
            exclude.push(dead);
        }
        self.kernel_send_proc(cid, ProcRequest::PlaceBackup { pid, exclude });
    }

    /// Handles the process server's placement answer: force a rebuild
    /// sync to the chosen cluster, creating the new backup.
    pub(crate) fn on_place_reply(&mut self, cid: ClusterId, pid: Pid, chosen: Option<ClusterId>) {
        let ci = cid.0 as usize;
        if self.clusters[ci].awaiting_placement.remove(&pid).is_none() {
            return;
        }
        let now = self.now();
        match chosen {
            Some(new_cluster) => {
                self.trace.emit(
                    now,
                    Loc::Cluster(cid.0),
                    TraceKind::BackupPlaced { pid: pid.0, cluster: new_cluster.0 },
                );
                if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
                    if pcb.is_dead() {
                        return;
                    }
                    pcb.backup = BackupStatus::Rebuild { cluster: new_cluster };
                }
                // The rebuild sync carries image, channels, saved queues
                // and residual counts; its arrival creates the backup and
                // broadcasts BackupCreated.
                self.perform_sync(cid, pid);
            }
            None => {
                // No cluster qualifies (e.g. a two-cluster system): the
                // process must run unprotected.
                self.trace.emit(
                    now,
                    Loc::Cluster(cid.0),
                    TraceKind::NoBackupCluster { pid: pid.0 },
                );
                self.release_gated_fullback(cid, pid, BackupStatus::None);
            }
        }
    }

    /// Gives a live `pid` its new protection status. A promoted fullback
    /// gated on [`BlockState::AwaitBackup`] (§7.3) is released: the
    /// stashed pending call becomes its block state, or it becomes
    /// runnable, and it is dispatched.
    pub(crate) fn release_gated_fullback(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        backup: BackupStatus,
    ) {
        let ci = cid.0 as usize;
        let Some(pcb) = self.clusters[ci].procs.get_mut(&pid).filter(|p| !p.is_dead()) else {
            return;
        };
        pcb.backup = backup;
        let ProcessState::Blocked(BlockState::AwaitBackup { then }) = pcb.state() else {
            return;
        };
        let to = match then {
            Some(p) => ProcessState::Blocked(BlockState::Pending(p.clone())),
            None => ProcessState::Runnable,
        };
        self.transition(cid, pid, to);
        // Queued even when released into its pending call: try_dispatch
        // skips the entry while it is blocked, and the wake that
        // completes the call keeps this place in the run queue.
        self.clusters[ci].make_runnable(pid);
        self.try_unblock(cid, pid);
        self.try_dispatch(cid);
    }

    /// Promotes a stored backup into a primary (§7.10.2).
    pub(crate) fn promote_backup(&mut self, cid: ClusterId, pid: Pid, dead: ClusterId) {
        let ci = cid.0 as usize;
        let Some(record) = self.clusters[ci].backups.remove(&pid) else {
            return;
        };
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::PromotingBackup { pid: pid.0, gen: record.sync_seq },
        );
        // Rebuild the body from the stored image.
        let image: &dyn ProcessImage = &*record.image;
        let body = if let Some(snap) = image.as_any().downcast_ref::<auros_vm::Snapshot>() {
            let Some(program) = record.program.clone() else {
                // A user backup without program text cannot be rebuilt.
                // Promotion runs while the system is already degraded, so
                // abandon this process rather than panic mid-recovery.
                self.trace.emit(
                    now,
                    Loc::Cluster(cid.0),
                    TraceKind::PromotionAbandoned { pid: pid.0 },
                );
                return;
            };
            ProcessBody::User(Box::new(Machine::restore(program, snap)))
        } else if let Some(server) = image.as_any().downcast_ref::<ServerImage>() {
            ProcessBody::Server(server.0.clone_image())
        } else {
            return;
        };
        let is_server = matches!(body, ProcessBody::Server(_));
        // Restore the interrupted call, if any. Fullbacks may not execute
        // until a new backup exists (§7.3), so theirs waits behind the gate.
        let gate_fullback = record.mode == BackupMode::Fullback;
        let state = match record.kstate.pending.clone() {
            then if gate_fullback => ProcessState::Blocked(BlockState::AwaitBackup { then }),
            Some(p) => ProcessState::Blocked(BlockState::Pending(p)),
            None if is_server => ProcessState::Idle,
            None => ProcessState::Runnable,
        };
        let mut pcb = Pcb::new(pid, body, record.mode, state);
        pcb.parent = record.parent;
        pcb.sync_seq = record.sync_seq;
        pcb.fork_count = record.kstate.fork_count;
        pcb.next_fd = record.kstate.next_fd;
        pcb.fds = record.kstate.fds.iter().copied().collect();
        pcb.bunches = record.kstate.bunches.iter().map(|(g, v)| (*g, v.clone())).collect();
        pcb.handlers = record.kstate.handlers.iter().copied().collect();
        // §10: piggybacked nondeterministic results replay in order.
        if let Some(log) = self.clusters[ci].nondet_logs.remove(&pid) {
            pcb.nondet_replay = log;
        }
        self.admit(cid, pcb);
        // Promote the saved routing entries: queues become live, write
        // counts become suppression budgets (§5.4).
        self.clusters[ci].routing.promote_saved(pid);
        self.stats.clusters[ci].promotions += 1;
        self.stats.note_promotion(dead, now);

        if is_server {
            // §7.10.1 step 5: peripheral-server backups are signaled to
            // begin recovery; the hook re-establishes device state. The
            // device itself reverts to its last committed (synced) view.
            if let Some(didx) = self.server_devices.get(&pid).copied() {
                self.devices[didx].on_owner_promote();
            }
            let effects = self.with_server_ctx(cid, pid, |logic, ctx| logic.on_promote(ctx));
            if let Some(effects) = effects {
                self.apply_server_effects(cid, pid, effects);
            }
        } else {
            // The promoted process pages its address space back in on
            // demand; tell the page server its backup account is now the
            // primary account.
            self.kernel_send_pager(cid, PagerRequest::Promote { pid });
        }

        if gate_fullback {
            self.request_backup_placement(cid, pid, dead);
        } else {
            // Run it, or wake it at once if its block condition is
            // already satisfied by the saved queues.
            let runnable = self.clusters[ci]
                .procs
                .get(&pid)
                .is_some_and(|p| *p.state() == ProcessState::Runnable);
            if runnable {
                self.wake(cid, pid);
            } else {
                self.try_unblock(cid, pid);
            }
        }
    }

    /// §10 extension: a hardware failure kills one process; its cluster
    /// survives and only that process's backup is brought up.
    pub(crate) fn on_partial_failure(&mut self, pid: Pid) {
        let now = self.now();
        // Locate the live primary.
        let Some(cid) = self
            .clusters
            .iter()
            .find(|c| c.alive && c.procs.get(&pid).is_some_and(|p| !p.is_dead()))
            .map(|c| c.id)
        else {
            return;
        };
        let ci = cid.0 as usize;
        self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::PartialFailure { pid: pid.0 });
        // The process dies in place: its address space is gone. Its
        // kernel-side entries are dropped (the backup's saved queues
        // hold everything unread since the last sync). No exit status is
        // recorded — the process is not finished, it is moving.
        self.transition(cid, pid, ProcessState::Killed);
        self.clusters[ci].routing.drop_live(pid);
        // Notify every live cluster: "the kernel in the processing unit
        // containing the process's backup is notified and makes the
        // backup runnable. This includes notification of all of the
        // process's correspondents" (§6).
        let targets: Vec<(ClusterId, DeliveryTag)> =
            self.clusters.iter().filter(|c| c.alive).map(|c| (c.id, DeliveryTag::Kernel)).collect();
        self.send_control(
            cid,
            targets,
            auros_bus::Payload::Control(auros_bus::proto::Control::ProcessFailed { pid, at: cid }),
        );
    }

    /// Applies a `ProcessFailed` notice: repair entries toward the
    /// backup; the backup's cluster promotes it.
    pub(crate) fn apply_process_failed(&mut self, cid: ClusterId, pid: Pid, at: ClusterId) {
        let ci = cid.0 as usize;
        let orphaned = self.clusters[ci].routing.fail_over(Failure::Process(pid));
        self.wake_orphans(cid, orphaned);
        if self.clusters[ci].backups.contains_key(&pid) {
            // Partial-failure promotions pass through the supervision
            // gate: budget, backoff, give-up. Cluster-crash promotions
            // (`on_crash_work_done`) do not — §7.10.1's recovery latency
            // is the paper's availability argument and stays untouched.
            self.supervised_promote(cid, pid, at);
        }
        self.try_dispatch(cid);
    }

    /// A crashed cluster returns to service, empty (halfback
    /// re-protection, §7.3).
    pub(crate) fn on_restore(&mut self, cid: ClusterId) {
        let ci = cid.0 as usize;
        if self.clusters[ci].alive {
            return;
        }
        let now = self.now();
        // The rebooted cluster starts from scratch.
        let mut fresh = Cluster::new(cid, WORK_PROCESSORS);
        // Learn the server directory from any live cluster.
        if let Some(live) = self.clusters.iter().find(|c| c.alive) {
            fresh.directory = live.directory.clone();
        }
        self.clusters[ci] = fresh;
        self.unannounce_restored(cid);
        // The rebuilt cluster has no delivery history: re-align every
        // link into it so traffic sent to the dead incarnation is not
        // awaited forever, and re-examine frames held on its account.
        self.resync_links_into(cid);
        // The rebooted kernel re-establishes its ports to the global
        // servers (the dead incarnation's entries were closed).
        self.wire_kernel_ports_for(cid, true);
        self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::ClusterRestored);
        // Halfbacks that lost their backup get a new one here (§7.3).
        let candidates: Vec<(ClusterId, Pid)> = self
            .clusters
            .iter()
            .filter(|c| c.alive && c.id != cid)
            .flat_map(|c| {
                c.procs
                    .iter()
                    .filter(|(_, p)| {
                        !p.is_dead()
                            && p.mode == BackupMode::Halfback
                            && p.backup == BackupStatus::None
                    })
                    .map(move |(pid, _)| (c.id, *pid))
            })
            .collect();
        for (host, pid) in candidates {
            if let Some(pcb) = self.cluster_mut(host).procs.get_mut(&pid) {
                pcb.backup = BackupStatus::Rebuild { cluster: cid };
            }
            self.perform_sync(host, pid);
        }
    }
}
