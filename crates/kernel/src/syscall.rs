//! Process execution: quanta, system calls, blocking, signals, fork,
//! exit, and the hosting of server processes.
//!
//! Blocking discipline (see [`BlockState`]): calls that have produced no
//! side effect when they block (`read`, `which`, `fork` waiting on
//! pages) are *rewound* — the program counter is put back on the trap so
//! the call re-executes on wake-up, which also makes them replay
//! correctly for free. Calls that block *after* sending a request
//! (`open`, server writes, `time`) record a pending call that rides in
//! sync records; the promoted backup completes them from the saved queue
//! without re-sending (§5.4 keeps the counts consistent, because the
//! sync message that records the pending call travels behind the request
//! on the same FIFO outgoing queue and zeroes its count).

use auros_bus::proto::{
    ChanEnd, ChanKind, Control, FsReply, FsRequest, PagerRequest, Payload, PendingCall, ProcReply,
    ProcRequest, ServiceKind,
};
use auros_bus::{ClusterId, DeliveryTag, Fd, Pid, Sig};
use auros_sim::trace::TraceFault;
use auros_sim::{Dur, Loc, TraceKind};
use auros_vm::inst::regs::{R0, R1, R2, R3};
use auros_vm::mem::Access;
use auros_vm::{Exit, PageNo, Sys};

use crate::config::cost;
use crate::process::{BackupStatus, BlockState, Pcb, ProcessBody, ProcessState};
use crate::routing::RoutingTable;
use crate::server::{ServerCtx, ServerEffects};
use crate::world::{bootstrap_end, ports, Event, SendOutcome, World};

/// Error return value for failed system calls.
pub const ERR: u64 = u64::MAX;

/// Maps a VM fault into its trace mirror (the trace crate cannot see
/// `auros_vm` without inverting the dependency layering).
fn trace_fault(err: auros_vm::VmError) -> TraceFault {
    match err {
        auros_vm::VmError::BadPc(pc) => TraceFault::BadPc(pc as u64),
        auros_vm::VmError::BadAddress(a) => TraceFault::BadAddress(a),
        auros_vm::VmError::StraySigReturn => TraceFault::StraySigReturn,
        auros_vm::VmError::SignalOverflow => TraceFault::SignalOverflow,
    }
}

impl World {
    // ------------------------------------------------------------------
    // Quantum end
    // ------------------------------------------------------------------

    pub(crate) fn on_quantum_end(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        token: u64,
        exit: Exit,
        used: u64,
    ) {
        let ci = cid.0 as usize;
        if !self.clusters[ci].alive {
            return;
        }
        {
            let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) else {
                return;
            };
            if pcb.run_token != token || pcb.is_dead() {
                return;
            }
            pcb.fuel_since_sync += used;
        }
        self.transition(cid, pid, ProcessState::Runnable);
        match exit {
            Exit::FuelOut => {
                self.post_quantum(cid, pid, Dur::ZERO);
            }
            Exit::Halted => {
                let pcb = self.clusters[ci].procs.get(&pid);
                let status = pcb.and_then(|p| p.machine()).map(|m| m.reg(R1)).unwrap_or(0);
                self.finish_process(cid, pid, ProcessState::Exited(status));
            }
            Exit::Fault(err) => {
                let now = self.now();
                self.trace.emit(
                    now,
                    Loc::Cluster(cid.0),
                    TraceKind::Killed { pid: pid.0, fault: trace_fault(err) },
                );
                self.finish_process(cid, pid, ProcessState::Killed);
            }
            Exit::PageFault(page) => {
                self.block_on_page(cid, pid, page);
            }
            Exit::Trap(sys) => {
                let kcost = self.handle_syscall(cid, pid, sys);
                self.post_quantum(cid, pid, kcost);
            }
        }
        self.try_dispatch(cid);
    }

    /// Enforces the per-process residency limit: excess pages are paged
    /// out through the page server (dirty ones carrying their contents)
    /// and demand-faulted back on next touch (§7.6).
    fn evict_excess(&mut self, cid: ClusterId, pid: Pid, limit: usize) {
        let ci = cid.0 as usize;
        loop {
            let Some(m) = self.clusters[ci].procs.get_mut(&pid).and_then(|p| p.machine_mut())
            else {
                return;
            };
            if m.memory().resident_count() <= limit {
                return;
            }
            let Some((page, dirty)) = m.memory().eviction_victim() else { return };
            let Some((data, _)) = m.memory_mut().evict(page) else { return };
            if dirty {
                // A modified page being swapped out is sent to the page
                // server (§7.6); clean pages are already in the account.
                self.kernel_send_pager(
                    cid,
                    PagerRequest::PageOut { pid, page, data: std::sync::Arc::new(*data) },
                );
                self.stats.clusters[ci].work_busy += cost::PAGE_ENQUEUE;
            }
            let now = self.now();
            self.trace.emit(
                now,
                Loc::Cluster(cid.0),
                TraceKind::PageEvicted { pid: pid.0, page: page.0 as u64, dirty },
            );
        }
    }

    /// After a quantum (and any syscall handling): sync triggers, then
    /// requeue with the kernel-service delay.
    fn post_quantum(&mut self, cid: ClusterId, pid: Pid, kcost: Dur) {
        let ci = cid.0 as usize;
        if let Some(limit) = self.cfg.resident_page_limit {
            self.evict_excess(cid, pid, limit);
        }
        let Some(pcb) = self.clusters[ci].procs.get(&pid) else {
            return;
        };
        if pcb.is_dead() {
            return;
        }
        if pcb.sync_due(&self.cfg) {
            self.perform_sync(cid, pid);
        }
        let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) else {
            return;
        };
        // Drain blocking checkpoint-copy debt (§2 comparator).
        let kcost = kcost + std::mem::take(&mut pcb.checkpoint_debt);
        if *pcb.state() == ProcessState::Runnable {
            if kcost == Dur::ZERO {
                self.transition(cid, pid, ProcessState::Runnable);
            } else {
                // Charge the kernel service time before the process can
                // run again.
                self.stats.clusters[ci].work_busy += kcost;
                let at = self.now() + kcost;
                self.queue.schedule(at, Event::Wake { cluster: cid, pid });
            }
        }
    }

    /// Terminates a process: records status, releases channels, notifies
    /// the backup cluster and the page server.
    pub(crate) fn finish_process(&mut self, cid: ClusterId, pid: Pid, state: ProcessState) {
        let ci = cid.0 as usize;
        let status = match state {
            ProcessState::Exited(s) => s,
            _ => ERR,
        };
        let (backup_cluster, is_server) = match self.clusters[ci].procs.get(&pid) {
            Some(pcb) if !pcb.is_dead() => (pcb.backup.cluster(), pcb.is_server()),
            _ => return,
        };
        self.transition(cid, pid, state);
        self.exits.insert(pid, status);
        self.spawned_pending.remove(&pid);
        self.stats.exits += 1;
        let now = self.now();
        self.trace.emit(now, Loc::Cluster(cid.0), TraceKind::Finished { pid: pid.0, status });
        for end in self.clusters[ci].routing.ends_of(pid) {
            self.close_end(cid, end);
        }
        if let Some(b) = backup_cluster {
            self.send_control(
                cid,
                vec![(b, DeliveryTag::Kernel)],
                Payload::Control(Control::Exited { pid }),
            );
        }
        if !is_server {
            self.kernel_send_pager(cid, PagerRequest::DropAccount { pid });
        }
    }

    /// Removes a live end and tells its peer's clusters, which mark the
    /// channel dead.
    fn close_end(&mut self, cid: ClusterId, end: ChanEnd) {
        let Some(entry) = self.clusters[cid.0 as usize].routing.remove_primary(&end) else {
            return;
        };
        let targets = entry.peer.clusters().map(|c| (c, DeliveryTag::Kernel)).collect();
        self.send_control(cid, targets, Payload::Control(Control::ChannelClosed { end }));
    }

    // ------------------------------------------------------------------
    // Blocking helpers
    // ------------------------------------------------------------------

    /// Rewinds the just-executed trap so it re-executes on wake-up.
    fn rewind_trap(&mut self, cid: ClusterId, pid: Pid) {
        self.with_machine(cid, pid, |m| {
            debug_assert!(m.pc() > 0, "trap cannot be at pc 0 when rewinding");
            m.set_pc(m.pc() - 1);
        });
    }

    /// Blocks in a call whose request already left the cluster, completing
    /// it at once if the answer is already queued.
    fn block_pending(&mut self, cid: ClusterId, pid: Pid, call: PendingCall) {
        self.transition(cid, pid, ProcessState::Blocked(BlockState::Pending(call)));
        self.try_unblock(cid, pid);
    }

    fn rewind_and_block(&mut self, cid: ClusterId, pid: Pid, state: BlockState) {
        self.rewind_trap(cid, pid);
        self.transition(cid, pid, ProcessState::Blocked(state));
    }

    /// Blocks on a missing page and asks the page server for it.
    pub(crate) fn block_on_page(&mut self, cid: ClusterId, pid: Pid, page: PageNo) {
        self.transition(cid, pid, ProcessState::Blocked(BlockState::Page { page }));
        self.request_page(cid, pid, page);
    }

    /// Asks the page server for a missing page, unless it is already on
    /// its way: `install_page` installs every reply, so a second request
    /// would overwrite whatever the process wrote after the first.
    fn request_page(&mut self, cid: ClusterId, pid: Pid, page: PageNo) {
        let Some(pcb) = self.clusters[cid.0 as usize].procs.get_mut(&pid) else {
            return;
        };
        if pcb.page_in_flight.replace(page) != Some(page) {
            self.kernel_send_pager(cid, PagerRequest::PageIn { pid, page });
        }
    }

    /// Rewinds the trap, then blocks on a missing page (guest-buffer
    /// faults inside syscall handling).
    fn rewind_and_block_on_page(&mut self, cid: ClusterId, pid: Pid, page: PageNo) {
        self.rewind_trap(cid, pid);
        self.block_on_page(cid, pid, page);
    }

    // ------------------------------------------------------------------
    // Wake-up paths
    // ------------------------------------------------------------------

    /// Re-examines a process's block condition; wakes it if satisfiable,
    /// completing pending calls from the queue.
    pub(crate) fn try_unblock(&mut self, cid: ClusterId, pid: Pid) {
        let ci = cid.0 as usize;
        let Some(pcb) = self.clusters[ci].procs.get(&pid) else {
            return;
        };
        let state = match pcb.state() {
            ProcessState::Blocked(b) => b.clone(),
            ProcessState::Idle => {
                if self.server_has_work(cid, pid) {
                    self.wake(cid, pid);
                }
                return;
            }
            _ => return,
        };
        match state {
            BlockState::Read { end } => {
                let c = &self.clusters[ci];
                let ready = c
                    .routing
                    .primary(&end)
                    .map(|e| !e.queue.is_empty() || e.peer_closed)
                    .unwrap_or(true);
                if ready {
                    self.wake(cid, pid);
                }
            }
            BlockState::Which { group } => {
                if self.which_candidate(cid, pid, group).is_some() {
                    self.wake(cid, pid);
                }
            }
            BlockState::Page { page } => {
                let resident = self.clusters[ci]
                    .procs
                    .get(&pid)
                    .and_then(|p| p.machine())
                    .map(|m| m.memory().is_resident(page))
                    .unwrap_or(false);
                if resident {
                    self.wake(cid, pid);
                }
            }
            BlockState::Unusable { end } => {
                let usable =
                    self.clusters[ci].routing.primary(&end).map(|e| e.usable).unwrap_or(true);
                if usable {
                    self.wake(cid, pid);
                }
            }
            BlockState::Pending(PendingCall::Open { fd }) => self.try_complete_open(cid, pid, fd),
            BlockState::Pending(PendingCall::WriteReply { end, buf, cap }) => {
                self.try_complete_write_reply(cid, pid, end, buf, cap)
            }
            BlockState::AwaitBackup { .. } => {}
        }
    }

    /// Whether a server has queued messages or device input.
    fn server_has_work(&self, cid: ClusterId, pid: Pid) -> bool {
        let c = &self.clusters[cid.0 as usize];
        if c.procs.get(&pid).is_some_and(|p| p.device_pending) {
            return true;
        }
        c.routing.has_ready(pid)
    }

    /// Consumes the front message of an entry, updating read counts.
    fn consume_front(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        end: ChanEnd,
    ) -> Option<crate::routing::Queued> {
        let ci = cid.0 as usize;
        let q = self.clusters[ci].routing.pop_primary_front(&end)?;
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::Consumed { pid: pid.0, msg: q.msg.id.0, end: end.into(), src: q.msg.src.0 },
        );
        if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
            pcb.reads_since_sync += 1;
        }
        // The supervision layer's poison model: a poisoned message kills
        // its (user-process) consumer at the moment of the read, before
        // any sync can cover it — so every reincarnation re-reads the
        // same message and dies again until quarantine.
        if self.poison_strikes(cid, pid, &q) {
            // Capture the record word for the dead-letter ledger: the
            // first 8 payload bytes of the (necessarily Data) message.
            let record = match &q.msg.payload {
                Payload::Data(bytes) => {
                    let mut word = [0u8; 8];
                    let n = bytes.len().min(8);
                    word[..n].copy_from_slice(&bytes.as_slice()[..n]);
                    u64::from_le_bytes(word)
                }
                _ => 0,
            };
            self.poison_kill(cid, pid, q.msg.id, record);
            return None;
        }
        Some(q)
    }

    fn try_complete_open(&mut self, cid: ClusterId, pid: Pid, fd: Fd) {
        let ci = cid.0 as usize;
        let fs_end = bootstrap_end(pid, ports::FS);
        let front = self.clusters[ci]
            .routing
            .primary(&fs_end)
            .and_then(|e| e.queue.front())
            .map(|q| q.msg.payload.clone());
        match front {
            Some(Payload::FsReply(FsReply::OpenReply { fd: f, init })) if f == fd => {
                self.consume_front(cid, pid, fs_end);
                self.create_primary_entry_from_init(cid, &init);
                if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
                    pcb.fds.insert(fd, init.end);
                }
                self.set_result_and_wake(cid, pid, fd.0 as u64);
            }
            Some(Payload::FsReply(FsReply::OpenFailed { fd: f, .. })) if f == fd => {
                self.consume_front(cid, pid, fs_end);
                self.set_result_and_wake(cid, pid, ERR);
            }
            _ => {}
        }
    }

    /// Completes a call waiting for a server's reply on `end`, once the
    /// reply is at the front of the queue.
    fn try_complete_write_reply(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        end: ChanEnd,
        buf: u64,
        cap: u64,
    ) {
        let entry = self.clusters[cid.0 as usize].routing.primary(&end);
        let Some(payload) = entry.and_then(|e| e.queue.front()).map(|q| q.msg.payload.clone())
        else {
            // No reply yet; if the peer is gone the call fails.
            if entry.is_none_or(|e| e.peer_closed) {
                self.set_result_and_wake(cid, pid, ERR);
            }
            return;
        };
        let value = match payload {
            Payload::FsReply(FsReply::Ack(n)) => n,
            Payload::FsReply(FsReply::Data(d)) => {
                // Copy the reply into the guest buffer; a residency fault
                // leaves the reply queued and fetches the page first.
                let n = d.len().min(cap as usize);
                match self.with_machine(cid, pid, |m| m.memory_mut().write(buf, &d[..n])) {
                    Some(Access::Ok) | None => n as u64,
                    Some(Access::Fault(p)) => {
                        self.request_page(cid, pid, p);
                        return;
                    }
                    Some(Access::OutOfRange(_)) => ERR,
                }
            }
            Payload::ProcReply(ProcReply::Time { now }) => now,
            Payload::ProcReply(ProcReply::Location { cluster, .. }) => {
                cluster.map(|c| c.0 as u64).unwrap_or(ERR)
            }
            Payload::ProcReply(ProcReply::AlarmSet | ProcReply::Killed { .. }) => 0,
            // An error reply, or a payload unexpected for this block: the
            // call fails, and consuming it keeps the channel from wedging.
            _ => ERR,
        };
        self.consume_front(cid, pid, end);
        self.set_result_and_wake(cid, pid, value);
    }

    /// Sets a call's result register.
    fn set_result(&mut self, cid: ClusterId, pid: Pid, value: u64) {
        self.with_machine(cid, pid, |m| m.set_reg(R0, value));
    }

    fn set_result_and_wake(&mut self, cid: ClusterId, pid: Pid, value: u64) {
        self.set_result(cid, pid, value);
        self.wake(cid, pid);
    }

    /// The fd in `group` whose front message arrived earliest (§7.5.1).
    fn which_candidate(&self, cid: ClusterId, pid: Pid, group: u64) -> Option<Fd> {
        let c = &self.clusters[cid.0 as usize];
        which_ready(&c.routing, c.procs.get(&pid)?, group)
    }

    // ------------------------------------------------------------------
    // Signals (§7.5.2)
    // ------------------------------------------------------------------

    /// The signal at the front of `end`'s queue, if any.
    fn front_signal(&self, cid: ClusterId, end: ChanEnd) -> Option<Sig> {
        let q = self.clusters[cid.0 as usize].routing.primary(&end)?.queue.front()?;
        match q.msg.payload {
            Payload::Signal(s) => Some(s),
            _ => None,
        }
    }

    /// Called when a message lands on a signal channel: uncaught signals
    /// kill immediately; others wait for the next dispatch boundary.
    pub(crate) fn note_signal_arrival(&mut self, cid: ClusterId, end: ChanEnd, owner: Pid) {
        let c = &self.clusters[cid.0 as usize];
        if c.routing.primary(&end).is_none_or(|e| e.kind != ChanKind::Signal) {
            return;
        }
        let Some(pcb) = c.procs.get(&owner) else {
            return;
        };
        if pcb.is_dead() || pcb.is_server() {
            return;
        }
        let Some(sig) = self.front_signal(cid, end) else { return };
        // Handled or ignored signals are processed at the next dispatch
        // boundary: imminent if the process is runnable or idle, on
        // wake-up if it is blocked.
        if pcb.handlers.contains_key(&sig) {
            return;
        }
        // Default disposition: terminate, even while blocked.
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::SignalKilled { owner: owner.0, sig: sig.0 },
        );
        self.finish_process(cid, owner, ProcessState::Killed);
    }

    /// Processes pending signals at a dispatch boundary. Returns `false`
    /// if the process died.
    ///
    /// Ignored signals are consumed and counted as reads (§7.5.2); a
    /// handled signal forces a sync *before* being consumed, so the
    /// backup finds the signal in its saved queue and handles it at the
    /// same place (§7.5.2).
    pub(crate) fn check_signals(&mut self, cid: ClusterId, pid: Pid) -> bool {
        let sig_end = bootstrap_end(pid, ports::SIGNAL);
        loop {
            let Some(pcb) = self.clusters[cid.0 as usize].procs.get(&pid) else {
                return false;
            };
            if pcb.is_dead() {
                return false;
            }
            let Some(sig) = self.front_signal(cid, sig_end) else {
                return true;
            };
            match pcb.handlers.get(&sig).copied() {
                None => {
                    self.finish_process(cid, pid, ProcessState::Killed);
                    return false;
                }
                Some(0) => {
                    // Ignored: removed from the queue and counted as a
                    // read since sync (§7.5.2).
                    self.consume_front(cid, pid, sig_end);
                }
                Some(handler) => {
                    // Sync just prior to handling (§7.5.2).
                    self.perform_sync(cid, pid);
                    self.consume_front(cid, pid, sig_end);
                    let now = self.now();
                    self.trace.emit(
                        now,
                        Loc::Cluster(cid.0),
                        TraceKind::SignalHandling {
                            pid: pid.0,
                            sig: sig.0,
                            handler: handler as u64,
                        },
                    );
                    let ok = self
                        .with_machine(cid, pid, |m| m.enter_signal_handler(handler))
                        .unwrap_or(false);
                    if !ok {
                        self.finish_process(cid, pid, ProcessState::Killed);
                        return false;
                    }
                    return true;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // System calls
    // ------------------------------------------------------------------

    fn handle_syscall(&mut self, cid: ClusterId, pid: Pid, sys: Sys) -> Dur {
        let fixed = cost::SYSCALL_FIXED;
        // Only a user process traps, so the machine is there; its
        // argument registers are read once, before the call changes them.
        let Some(args) = self.with_machine(cid, pid, |m| [m.reg(R1), m.reg(R2), m.reg(R3)]) else {
            return fixed;
        };
        let [r1, r2, _] = args;
        let proc_end = bootstrap_end(pid, ports::PROC);
        match sys {
            Sys::Read => return fixed + self.sys_read(cid, pid, args),
            Sys::Write => return fixed + self.sys_write(cid, pid, args),
            Sys::Fork => return fixed + self.sys_fork(cid, pid),
            Sys::GetPid => self.set_result(cid, pid, pid.0),
            // `SigReturn` is handled inside the machine.
            Sys::Yield | Sys::SigReturn => {}
            Sys::SigHandler => {
                if let Some(pcb) = self.cluster_mut(cid).procs.get_mut(&pid) {
                    pcb.handlers.insert(Sig(r1 as u8), r2 as u32);
                }
            }
            Sys::Bunch => {
                let fd = Fd(r2 as u32);
                if let Some(pcb) = self.cluster_mut(cid).procs.get_mut(&pid) {
                    let members = pcb.bunches.entry(r1).or_default();
                    if !members.contains(&fd) {
                        members.push(fd);
                    }
                }
            }
            Sys::Exit => self.finish_process(cid, pid, ProcessState::Exited(r1)),
            Sys::Open => self.sys_open(cid, pid, args),
            Sys::Close => self.sys_close(cid, pid, args),
            Sys::Which => match self.which_candidate(cid, pid, r1) {
                Some(fd) => self.set_result(cid, pid, fd.0 as u64),
                None => self.rewind_and_block(cid, pid, BlockState::Which { group: r1 }),
            },
            Sys::Time => {
                let reply = PendingCall::WriteReply { end: proc_end, buf: 0, cap: 0 };
                self.request(cid, pid, proc_end, Payload::Proc(ProcRequest::Time), Some(reply));
            }
            // Alarm and kill return at once, whatever the send's outcome.
            Sys::Alarm => {
                let alarm = ProcRequest::Alarm { after: r1 };
                self.send_on_end(cid, pid, proc_end, Payload::Proc(alarm));
                self.set_result(cid, pid, 0);
            }
            Sys::Kill => {
                let kill = ProcRequest::Kill { target: Pid(r1), sig: Sig(r2 as u8) };
                self.send_on_end(cid, pid, proc_end, Payload::Proc(kill));
                self.set_result(cid, pid, 0);
            }
            Sys::Seek => {
                let Some(end) = self.fd_end(cid, pid, r1) else { return fixed };
                let reply = PendingCall::WriteReply { end, buf: 0, cap: 0 };
                let seek = FsRequest::FileSeek { pos: r2 };
                self.request(cid, pid, end, Payload::Fs(seek), Some(reply));
            }
            Sys::Unlink => {
                let Some(name) = self.read_guest(cid, pid, r1, r2.min(256) as usize) else {
                    return fixed;
                };
                let name = auros_bus::ChannelName::new(String::from_utf8_lossy(&name).into_owned());
                let end = bootstrap_end(pid, ports::FS);
                let reply = PendingCall::WriteReply { end, buf: 0, cap: 0 };
                self.request(cid, pid, end, Payload::Fs(FsRequest::Unlink { name }), Some(reply));
            }
            Sys::Rand => {
                // §10: replay a logged result during rollforward, else
                // decide fresh from an environmental source and hold it
                // for piggybacking on the next outgoing message.
                let replayed = self
                    .cluster_mut(cid)
                    .procs
                    .get_mut(&pid)
                    .and_then(|p| p.nondet_replay.pop_front());
                let value = match replayed {
                    Some(v) => v,
                    None => {
                        let fresh = self.fresh_nondet(cid);
                        if let Some(pcb) = self.cluster_mut(cid).procs.get_mut(&pid) {
                            pcb.pending_nondet.push(fresh);
                        }
                        fresh
                    }
                };
                self.set_result(cid, pid, value);
            }
        }
        fixed
    }

    fn with_machine<T>(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        f: impl FnOnce(&mut auros_vm::Machine) -> T,
    ) -> Option<T> {
        self.cluster_mut(cid).procs.get_mut(&pid).and_then(|p| p.machine_mut()).map(f)
    }

    /// Sends a call's request on `end` (§7.5.1) and returns the outcome.
    /// A request on the outgoing queue, or suppressed because the failed
    /// primary already sent it (§5.4), blocks the caller until `reply`
    /// arrives; with no `reply` the call returns at once. An unusable
    /// channel rewinds the trap and blocks until the channel is usable
    /// (§7.10.1). A gone peer fails the call.
    fn request(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        end: ChanEnd,
        payload: Payload,
        reply: Option<PendingCall>,
    ) -> SendOutcome {
        let outcome = self.send_on_end(cid, pid, end, payload);
        match outcome {
            SendOutcome::Sent | SendOutcome::Suppressed => {
                if let Some(call) = reply {
                    self.block_pending(cid, pid, call);
                }
            }
            SendOutcome::Unusable => self.rewind_and_block(cid, pid, BlockState::Unusable { end }),
            SendOutcome::PeerGone => self.set_result(cid, pid, ERR),
        }
        outcome
    }

    /// Copies `len` bytes of the caller's memory at `ptr`. A missing page
    /// rewinds the trap and blocks on the page; an address out of range
    /// fails the call. Either way the call is over for now: `None`.
    fn read_guest(&mut self, cid: ClusterId, pid: Pid, ptr: u64, len: usize) -> Option<Vec<u8>> {
        let mut bytes = vec![0u8; len];
        match self.with_machine(cid, pid, |m| m.memory_mut().read(ptr, &mut bytes))? {
            Access::Ok => return Some(bytes),
            Access::Fault(page) => self.rewind_and_block_on_page(cid, pid, page),
            Access::OutOfRange(_) => self.set_result(cid, pid, ERR),
        }
        None
    }

    /// The channel end bound to `fd`; an unbound fd fails the call.
    fn fd_end(&mut self, cid: ClusterId, pid: Pid, fd: u64) -> Option<ChanEnd> {
        let end = self.clusters[cid.0 as usize].procs.get(&pid)?.end_of(Fd(fd as u32));
        if end.is_none() {
            self.set_result(cid, pid, ERR);
        }
        end
    }

    fn sys_open(&mut self, cid: ClusterId, pid: Pid, [ptr, len, _]: [u64; 3]) {
        let Some(name) = self.read_guest(cid, pid, ptr, len.min(256) as usize) else {
            return;
        };
        let name = String::from_utf8_lossy(&name).into_owned();
        let Some(pcb) = self.cluster_mut(cid).procs.get_mut(&pid) else {
            return;
        };
        let (fd, opener_backup, opener_mode) = (pcb.alloc_fd(), pcb.backup.cluster(), pcb.mode);
        let req = FsRequest::Open {
            name: auros_bus::ChannelName::new(name),
            opener: pid,
            opener_cluster: cid,
            opener_backup,
            opener_fd: fd,
            opener_mode,
        };
        let end = bootstrap_end(pid, ports::FS);
        let reply = Some(PendingCall::Open { fd });
        if self.request(cid, pid, end, Payload::Fs(req), reply) == SendOutcome::Unusable {
            // Undo the fd allocation: the call re-executes when usable.
            if let Some(pcb) = self.cluster_mut(cid).procs.get_mut(&pid) {
                pcb.next_fd -= 1;
            }
        }
    }

    fn sys_close(&mut self, cid: ClusterId, pid: Pid, [fd, _, _]: [u64; 3]) {
        let Some(end) = self.fd_end(cid, pid, fd) else {
            return;
        };
        let fd = Fd(fd as u32);
        if let Some(pcb) = self.cluster_mut(cid).procs.get_mut(&pid) {
            pcb.fds.remove(&fd);
            pcb.closed_since_sync.push(end);
            for members in pcb.bunches.values_mut() {
                members.retain(|f| *f != fd);
            }
        }
        self.close_end(cid, end);
        self.set_result(cid, pid, 0);
    }

    /// Returns the copy cost of the data read.
    fn sys_read(&mut self, cid: ClusterId, pid: Pid, [fd, buf, cap]: [u64; 3]) -> Dur {
        let Some(end) = self.fd_end(cid, pid, fd) else {
            return Dur::ZERO;
        };
        let Some(entry) = self.clusters[cid.0 as usize].routing.primary(&end) else {
            self.set_result(cid, pid, ERR);
            return Dur::ZERO;
        };
        if let ChanKind::ServerPort(ServiceKind::File | ServiceKind::Raw) = entry.kind {
            // File reads are request/reply (§7.5.1).
            let req = FsRequest::FileRead { len: cap.min(u32::MAX as u64) as u32 };
            let reply = PendingCall::WriteReply { end, buf, cap };
            self.request(cid, pid, end, Payload::Fs(req), Some(reply));
            return Dur::ZERO;
        }
        // Queue-consuming read: user channels and terminals.
        let closed = entry.peer_closed;
        let d = match entry.queue.front().map(|q| q.msg.payload.clone()) {
            Some(Payload::Data(d)) => d,
            // A non-data payload on a read channel fails the call.
            Some(_) => {
                self.consume_front(cid, pid, end);
                self.set_result(cid, pid, ERR);
                return Dur::ZERO;
            }
            None if closed => {
                self.set_result(cid, pid, ERR);
                return Dur::ZERO;
            }
            // Cannot return "no message found" (§7.5.1): the backup might
            // not find its queue in the same state. Block until a message
            // arrives.
            None => {
                self.rewind_and_block(cid, pid, BlockState::Read { end });
                return Dur::ZERO;
            }
        };
        let n = d.len().min(cap as usize);
        match self.with_machine(cid, pid, |m| m.memory_mut().write(buf, &d[..n])) {
            Some(Access::Ok) | None => {
                self.consume_front(cid, pid, end);
                self.set_result(cid, pid, n as u64);
                cost::copy(n)
            }
            Some(Access::Fault(p)) => {
                self.rewind_and_block_on_page(cid, pid, p);
                Dur::ZERO
            }
            Some(Access::OutOfRange(_)) => {
                self.consume_front(cid, pid, end);
                self.set_result(cid, pid, ERR);
                Dur::ZERO
            }
        }
    }

    /// Returns the copy cost of the data sent.
    fn sys_write(&mut self, cid: ClusterId, pid: Pid, [fd, buf, len]: [u64; 3]) -> Dur {
        let Some(end) = self.fd_end(cid, pid, fd) else {
            return Dur::ZERO;
        };
        let Some(data) = self.read_guest(cid, pid, buf, len.min(64 * 1024) as usize) else {
            return Dur::ZERO;
        };
        let len = data.len();
        match self.clusters[cid.0 as usize].routing.primary(&end).map(|e| e.kind) {
            Some(ChanKind::UserUser | ChanKind::ServerPort(ServiceKind::Tty)) => {
                // Returns as soon as the message is on the outgoing
                // queue (§7.5.1).
                let sent = self.request(cid, pid, end, Payload::Data(data.into()), None);
                if matches!(sent, SendOutcome::Sent | SendOutcome::Suppressed) {
                    self.set_result(cid, pid, len as u64);
                }
            }
            Some(ChanKind::ServerPort(ServiceKind::File | ServiceKind::Raw)) => {
                // Writes which require an answer from a server cannot
                // return until that answer arrives (§7.5.1).
                let req = FsRequest::FileWrite { data: data.into() };
                let reply = PendingCall::WriteReply { end, buf: 0, cap: 0 };
                self.request(cid, pid, end, Payload::Fs(req), Some(reply));
            }
            _ => {
                self.set_result(cid, pid, ERR);
                return Dur::ZERO;
            }
        }
        cost::copy(len)
    }

    // ------------------------------------------------------------------
    // Server hosting
    // ------------------------------------------------------------------

    /// Runs a server hook with a fully-wired context, returning the
    /// buffered effects. `None` if the process is not a live server here.
    pub(crate) fn with_server_ctx(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        f: impl FnOnce(&mut dyn crate::server::ServerLogic, &mut ServerCtx<'_>),
    ) -> Option<ServerEffects> {
        let ci = cid.0 as usize;
        let now = self.now();
        let device_idx = self.server_devices.get(&pid).copied();
        let World { clusters, devices, .. } = self;
        let pcb = clusters[ci].procs.get_mut(&pid)?;
        if pcb.is_dead() {
            return None;
        }
        let backup = pcb.backup.cluster();
        let ProcessBody::Server(logic) = &mut pcb.body else {
            return None;
        };
        let device = device_idx.map(|i| &mut *devices[i]);
        let mut ctx = ServerCtx::new(now, pid, device).at(cid, backup);
        f(&mut **logic, &mut ctx);
        Some(ctx.effects)
    }

    /// Runs one server step (message or device event); returns the
    /// work-processor time consumed. Effects are buffered and applied at
    /// `ServerDone`.
    pub(crate) fn run_server_step(&mut self, cid: ClusterId, pid: Pid) -> Dur {
        let ci = cid.0 as usize;
        // Earliest queued message across all owned ends, deterministic.
        // The ready index answers this in O(log n) — a scan of the
        // server's own ends is still an O(fleet) walk on a server
        // cluster, once per message handled.
        let best = self.clusters[ci].routing.earliest_ready(pid);
        let base = cost::SERVER_HANDLE;
        let effects = if let Some((_, end)) = best {
            // auros-lint: allow(D5) -- earliest_ready named this end, so its queue has a front, and poison spares servers
            let q = self.consume_front(cid, pid, end).expect("front vanished");
            self.with_server_ctx(cid, pid, |logic, ctx| {
                logic.on_message(q.msg.src, end, &q.msg.payload, ctx);
            })
        } else {
            let device_pending =
                self.clusters[ci].procs.get(&pid).map(|p| p.device_pending).unwrap_or(false);
            if device_pending {
                if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
                    pcb.device_pending = false;
                }
                self.with_server_ctx(cid, pid, |logic, ctx| logic.on_device(ctx))
            } else {
                // Nothing to do: go idle without consuming time.
                self.transition(cid, pid, ProcessState::Idle);
                return Dur::ZERO;
            }
        };
        let Some(effects) = effects else {
            return Dur::ZERO;
        };
        let extra = effects.extra_work;
        self.pending_server_effects.insert(pid, effects);
        base + extra
    }

    pub(crate) fn on_server_done(&mut self, cid: ClusterId, pid: Pid, token: u64) {
        let ci = cid.0 as usize;
        if !self.clusters[ci].alive {
            return;
        }
        {
            let Some(pcb) = self.clusters[ci].procs.get(&pid) else { return };
            if pcb.run_token != token || pcb.is_dead() {
                return;
            }
        }
        let effects = self.pending_server_effects.remove(&pid).unwrap_or_default();
        self.apply_server_effects(cid, pid, effects);
        // Sync triggers: explicit requests were applied above; the
        // kernel-side counters cover system servers (§7.8).
        if self.clusters[ci].procs.get(&pid).is_some_and(|p| p.sync_due(&self.cfg)) {
            self.perform_sync(cid, pid);
        }
        // The step is done: idle, or runnable again if more work waits.
        if self.clusters[ci].procs.get(&pid).is_none_or(|p| p.is_dead()) {
            return;
        }
        self.transition(cid, pid, ProcessState::Idle);
        if self.server_has_work(cid, pid) {
            self.transition(cid, pid, ProcessState::Runnable);
        }
        self.try_dispatch(cid);
    }

    /// Applies buffered server effects: entry creations, sends, timers,
    /// explicit sync.
    pub(crate) fn apply_server_effects(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        effects: ServerEffects,
    ) {
        for (primary_at, backup_at, init) in effects.create_ports {
            // Create locally where possible; remote entries go by
            // control frame so ordering follows the bus.
            let mut targets = Vec::new();
            if primary_at == cid {
                self.create_primary_entry_from_init(cid, &init);
            } else {
                targets.push((primary_at, DeliveryTag::Kernel));
            }
            match backup_at {
                Some(b) if b == cid => self.create_backup_entry_from_init(cid, &init),
                Some(b) => targets.push((b, DeliveryTag::Kernel)),
                None => {}
            }
            if !targets.is_empty() {
                self.send_control(
                    cid,
                    targets,
                    Payload::Control(Control::CreatePort { primary_at, backup_at, init }),
                );
            }
        }
        for send in effects.sends {
            if self.send_on_end(cid, pid, send.end, send.payload.clone()) == SendOutcome::Unusable {
                // A server cannot block; retry when the peer's new
                // backup is announced (§7.10.1).
                self.clusters[cid.0 as usize].deferred_sends.push((pid, send.end, send.payload));
            }
        }
        let now = self.now();
        for (delay, token) in effects.timers {
            self.server_timers.insert((pid, token), cid);
            self.queue.schedule(
                now + delay,
                Event::ServerTimer { cluster: cid, pid, timer_token: token },
            );
        }
        if effects.sync_after {
            self.perform_sync(cid, pid);
        }
    }

    pub(crate) fn on_server_timer(&mut self, cid: ClusterId, pid: Pid, timer_token: u64) {
        let ci = cid.0 as usize;
        // Stale if the server re-armed elsewhere (promotion) or died.
        if self.server_timers.get(&(pid, timer_token)) != Some(&cid) {
            return;
        }
        self.server_timers.remove(&(pid, timer_token));
        if !self.clusters[ci].alive {
            return;
        }
        let Some(effects) =
            self.with_server_ctx(cid, pid, |logic, ctx| logic.on_timer(timer_token, ctx))
        else {
            return;
        };
        // Timer handling consumes work-processor time too.
        self.stats.clusters[ci].work_busy += cost::SERVER_HANDLE;
        self.apply_server_effects(cid, pid, effects);
    }

    pub(crate) fn on_terminal_input(&mut self, device: usize, line: u32, data: Vec<u8>) {
        if device >= self.devices.len() {
            return;
        }
        self.devices[device].external_input(line, &data);
        // Find the server bound to this device and nudge it.
        let Some((&pid, _)) = self.server_devices.iter().find(|(_, d)| **d == device) else {
            return;
        };
        for ci in 0..self.clusters.len() {
            let cid = ClusterId(ci as u16);
            if !self.clusters[ci].alive {
                continue;
            }
            let found = {
                let c = &mut self.clusters[ci];
                match c.procs.get_mut(&pid) {
                    Some(pcb) if !pcb.is_dead() => {
                        pcb.device_pending = true;
                        true
                    }
                    _ => false,
                }
            };
            if found {
                self.try_unblock(cid, pid);
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Fork (§7.7)
    // ------------------------------------------------------------------

    /// Returns the copy cost of the child's address space.
    fn sys_fork(&mut self, cid: ClusterId, pid: Pid) -> Dur {
        let ci = cid.0 as usize;
        // The whole address space must be materialized to copy it.
        let missing = self.clusters[ci].procs.get(&pid).and_then(|p| p.machine()).and_then(|m| {
            m.memory().valid_pages().iter().find(|p| !m.memory().is_resident(**p)).copied()
        });
        if let Some(page) = missing {
            self.rewind_and_block_on_page(cid, pid, page);
            return Dur::ZERO;
        }
        let Some(fork_index) = self.clusters[ci].procs.get(&pid).map(|p| p.fork_count) else {
            return Dur::ZERO;
        };
        // Replay path: a birth notice stored here means the failed
        // primary already performed this fork (§7.10.2).
        if let Some(birth) = self.clusters[ci].births.get(&(pid, fork_index)) {
            let child = birth.child;
            let synced = birth.child_synced || birth.child_exited;
            if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
                pcb.fork_count += 1;
                pcb.children.push(child);
            }
            self.set_result(cid, pid, child.0);
            if !synced {
                self.recreate_child_from_parent(cid, pid, child);
            }
            return Dur::ZERO;
        }
        self.do_fork(cid, pid, fork_index)
    }

    fn do_fork(&mut self, cid: ClusterId, pid: Pid, fork_index: u64) -> Dur {
        let ci = cid.0 as usize;
        let child = auros_bus::proto::derive_child_pid(pid, fork_index);
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::Forked { pid: pid.0, child: child.0, index: fork_index },
        );
        // Clone the machine; UNIX-style return values.
        let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) else {
            return Dur::ZERO;
        };
        let (mode, backup_cluster) = (pcb.mode, pcb.backup.cluster());
        let Some(m) = pcb.machine_mut() else {
            return Dur::ZERO;
        };
        m.set_reg(R0, child.0);
        let mut child_machine = m.clone();
        let program = m.program().clone();
        pcb.fork_count += 1;
        pcb.children.push(child);
        child_machine.set_reg(R0, 0);
        // The child's address space exists only here until its first
        // sync flushes it.
        child_machine.memory_mut().mark_all_dirty();
        let pages = child_machine.memory().resident_count();

        let backup = match backup_cluster {
            Some(b) if self.cfg.ft_enabled() => BackupStatus::Deferred { cluster: b },
            _ => BackupStatus::None,
        };
        let inits = self.wire_bootstrap_channels(cid, child, backup.cluster(), mode);
        let mut pcb = Pcb::user(child, child_machine, mode);
        pcb.parent = Some(pid);
        pcb.backup = backup;
        let prev = self.admit(cid, pcb);
        assert!(prev.is_none(), "pid collision on fork: {child}");
        // Birth notice to the backup cluster (§7.7): creates routing
        // entries for the channels created on fork.
        if let Some(b) = backup_cluster.filter(|_| self.cfg.ft_enabled()) {
            let notice = auros_bus::proto::BirthNotice {
                parent: pid,
                fork_index,
                child,
                program,
                mode,
                bootstrap: inits,
            };
            self.send_control(
                cid,
                vec![(b, DeliveryTag::Kernel)],
                Payload::Control(Control::Birth(std::sync::Arc::new(notice))),
            );
        }
        self.wake(cid, child);
        cost::copy(pages * auros_vm::PAGE_SIZE)
    }

    /// Creates the three bootstrap channels of a new process: local
    /// primary entries here, `CreatePort` controls to the server
    /// clusters. Returns the A-side inits (for the birth notice).
    pub(crate) fn wire_bootstrap_channels(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        backup_cluster: Option<ClusterId>,
        mode: auros_bus::proto::BackupMode,
    ) -> Vec<auros_bus::proto::ChannelInit> {
        let mut a_inits = Vec::new();
        for (a, b, sprimary) in
            self.bootstrap_inits(cid, pid, backup_cluster, mode).into_iter().flatten()
        {
            self.create_primary_entry_from_init(cid, &a);
            // Server-side entries (primary and backup) are created by
            // CreatePort controls so ordering follows the bus (§7.7).
            let sbackup = b.owner_backup;
            let targets = std::iter::once(sprimary).chain(sbackup);
            let create = Control::CreatePort { primary_at: sprimary, backup_at: sbackup, init: b };
            self.send_control(
                cid,
                targets.map(|c| (c, DeliveryTag::Kernel)).collect(),
                Payload::Control(create),
            );
            a_inits.push(a);
        }
        a_inits
    }

    /// Recreates a never-synced child during fork replay (§7.10.2): the
    /// replaying parent holds the fork-point image; the child's saved
    /// messages and write counts are already in this cluster's backup
    /// entries (placed there by the birth notice).
    fn recreate_child_from_parent(&mut self, cid: ClusterId, parent: Pid, child: Pid) {
        let ci = cid.0 as usize;
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::ForkReplayed { child: child.0, parent: parent.0 },
        );
        let Some((mut machine, mode)) =
            self.clusters[ci].procs.get(&parent).and_then(|p| Some((p.machine()?.clone(), p.mode)))
        else {
            return;
        };
        machine.set_reg(R0, 0);
        machine.memory_mut().mark_all_dirty();
        let mut pcb = Pcb::user(child, machine, mode);
        pcb.parent = Some(parent);
        self.admit(cid, pcb);
        // Promote the child's backup entries (queues + write counts).
        self.clusters[ci].routing.promote_saved(child);
        self.stats.clusters[ci].promotions += 1;
        self.wake(cid, child);
    }
}

/// The fd in `group` whose front message arrived earliest (§7.5.1). Walks
/// the owner's ready ends, earliest front first, and returns the first
/// group fd bound to one, so two fds bound to one end resolve in group
/// order. Every end in a process's fd table is owned by that process, so
/// no group end is missed.
fn which_ready(routing: &RoutingTable, pcb: &Pcb, group: u64) -> Option<Fd> {
    let fds = pcb.bunches.get(&group)?;
    routing
        .ready_ends(pcb.pid)
        .find_map(|end| fds.iter().copied().find(|fd| pcb.end_of(*fd) == Some(end)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{BackupMode, ChanEnd, ChanKind, ChannelId, ChannelInit, Peer, Side};
    use auros_bus::{Message, MsgId};
    use auros_vm::{Machine, ProgramBuilder};
    use proptest::prelude::*;

    use crate::routing::Entry;

    /// The reference [`which_ready`] is held to: look up every group
    /// fd's entry and keep the earliest front, the first in group order
    /// on a tie.
    fn which_scan(routing: &RoutingTable, pcb: &Pcb, group: u64) -> Option<Fd> {
        let fds = pcb.bunches.get(&group)?;
        let mut best: Option<(u64, Fd)> = None;
        for fd in fds {
            let Some(end) = pcb.end_of(*fd) else { continue };
            let Some(entry) = routing.primary(&end) else { continue };
            if let Some(front) = entry.queue.front() {
                if best.map(|(s, _)| front.arrival_seq < s).unwrap_or(true) {
                    best = Some((front.arrival_seq, *fd));
                }
            }
        }
        best.map(|(_, fd)| fd)
    }

    const OWNER: Pid = Pid(1);
    const ENDS: u64 = 6;

    fn end(i: u64) -> ChanEnd {
        ChanEnd { channel: ChannelId(i / 2), side: if i % 2 == 0 { Side::A } else { Side::B } }
    }

    fn init(end: ChanEnd, owner: Pid) -> ChannelInit {
        ChannelInit {
            end,
            owner,
            fd: None,
            peer: Peer { pid: Pid(9), primary: None, backup: None, mode: BackupMode::Quarterback },
            owner_backup: None,
            kind: ChanKind::UserUser,
        }
    }

    fn msg(id: u64) -> Message {
        Message {
            id: MsgId(id),
            src: Pid(9),
            payload: Payload::Data(Default::default()),
            nondet: vec![],
        }
    }

    proptest! {
        /// Over random queue states, fd bindings (several fds on one end,
        /// fds on ends with no entry) and groups (repeated and unbound
        /// fds), the ready-index walk picks the scan's fd. Ends `ENDS..`
        /// belong to another process and carry traffic the walk must
        /// skip.
        #[test]
        fn prop_which_matches_scan(
            missing in 0u64..(1 << ENDS),
            ops in proptest::collection::vec((0u64..2 * ENDS, any::<bool>()), 0..40),
            bindings in proptest::collection::vec(0u64..ENDS + 1, 1..8),
            group in proptest::collection::vec(0u32..9, 0..8),
            group_id in 0u64..2,
        ) {
            let mut rt = RoutingTable::new();
            for i in 0..2 * ENDS {
                if i < ENDS && missing & (1 << i) != 0 {
                    continue;
                }
                let owner = if i < ENDS { OWNER } else { Pid(2) };
                rt.insert_primary(end(i), Entry::from_init(&init(end(i), owner)));
            }
            for (k, (i, push)) in ops.iter().enumerate() {
                if *push {
                    rt.enqueue_primary(end(*i), msg(k as u64));
                } else {
                    rt.pop_primary_front(&end(*i));
                }
            }
            let m = Machine::new(ProgramBuilder::new("t").build());
            let body = ProcessBody::User(Box::new(m));
            let mut pcb =
                Pcb::new(OWNER, body, BackupMode::Quarterback, ProcessState::Runnable);
            for (fd, i) in bindings.iter().enumerate() {
                // `ENDS` leaves the fd unbound.
                if *i < ENDS {
                    pcb.fds.insert(Fd(fd as u32), end(*i));
                }
            }
            pcb.bunches.insert(0, group.iter().map(|fd| Fd(*fd)).collect());
            prop_assert_eq!(which_ready(&rt, &pcb, group_id), which_scan(&rt, &pcb, group_id));
        }
    }
}
