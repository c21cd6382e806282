//! Spawning initial processes and installing servers.
//!
//! Processes created here are *heads of families* (§7.7): their backups
//! (and their backup routing entries) are created when the primary is
//! created. The bootstrap channels are wired directly by the world —
//! this models system startup; everything after startup goes through
//! messages.

use std::sync::Arc;

use auros_bus::proto::{BackupMode, ChanKind, KernelState, SharedImage};
use auros_bus::{ClusterId, Fd, Pid};
use auros_vm::Program;

use crate::cluster::{BackupRecord, ServerLoc};
use crate::process::{BackupStatus, Pcb, ProcessBody, ProcessState};
use crate::server::{ServerImage, ServerLogic};
use crate::world::{
    bootstrap_channel_inits, bootstrap_end, kernel_port_end, ports, service_kind_for_slot, World,
};

/// Which global service a server provides (fills cluster directories).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerRole {
    /// The page server (§7.6).
    Pager,
    /// The file server (§7.6, §7.9).
    Fs,
    /// The process server (§7.6).
    Proc,
    /// A terminal server (§7.6).
    Tty,
    /// A raw disk server (§7.6).
    Raw,
}

impl World {
    /// Spawns a user process in `cluster` with the given backup mode.
    ///
    /// The backup lives at `backup_cluster` (default: the next cluster).
    /// As a head of family, its backup record is created immediately
    /// (§7.7).
    pub fn spawn_user(
        &mut self,
        cluster: ClusterId,
        program: Program,
        mode: BackupMode,
        backup_cluster: Option<ClusterId>,
    ) -> Pid {
        let pid = self.alloc_spawn_pid();
        let backup = if self.cfg.ft_enabled() {
            Some(backup_cluster.unwrap_or(ClusterId((cluster.0 + 1) % self.cfg.clusters)))
        } else {
            None
        };
        assert_ne!(backup, Some(cluster), "backup must live in another cluster");
        let machine = auros_vm::Machine::new(program.clone());
        let mut pcb =
            Pcb::new(pid, ProcessBody::User(Box::new(machine)), mode, ProcessState::Runnable);
        pcb.backup = match backup {
            Some(b) => BackupStatus::At(b),
            None => BackupStatus::None,
        };
        pcb.fds.insert(Fd(0), bootstrap_end(pid, ports::FS));
        pcb.fds.insert(Fd(1), bootstrap_end(pid, ports::PROC));
        pcb.next_fd = 2;
        self.wire_bootstrap_direct(cluster, pid, backup, mode);
        // Head-of-family backup record, created with the primary (§7.7).
        if let Some(b) = backup {
            let image: SharedImage = Arc::new(pcb.machine().expect("user process").snapshot());
            let kstate = KernelState {
                fds: pcb.fds.iter().map(|(fd, end)| (*fd, *end)).collect(),
                next_fd: pcb.next_fd,
                ..KernelState::default()
            };
            self.clusters[b.0 as usize].backups.insert(
                pid,
                BackupRecord {
                    pid,
                    primary_cluster: cluster,
                    image,
                    kstate: Arc::new(kstate),
                    program: Some(program),
                    mode,
                    sync_seq: 0,
                    parent: None,
                },
            );
            self.stats.clusters[b.0 as usize].backups_created += 1;
        }
        self.admit(cluster, pcb);
        self.spawned.push(pid);
        self.spawned_pending.insert(pid);
        self.wake(cluster, pid);
        pid
    }

    /// Installs a server process, registering it in every cluster's
    /// directory and binding its device, if any.
    ///
    /// Server backups are created when the primary comes into existence
    /// (§7.7) — here, as an image of the initial state.
    pub fn install_server(
        &mut self,
        logic: Box<dyn ServerLogic>,
        role: ServerRole,
        cluster: ClusterId,
        backup_cluster: Option<ClusterId>,
        device: Option<usize>,
    ) -> Pid {
        let pid = self.alloc_spawn_pid();
        let backup = backup_cluster.filter(|_| self.cfg.ft_enabled());
        assert_ne!(backup, Some(cluster), "backup must live in another cluster");
        // Peripheral servers are halfbacks: their primary and backup must
        // sit in the two clusters wired to the device (§7.3).
        let mode = BackupMode::Halfback;
        let mut pcb = Pcb::new(pid, ProcessBody::Server(logic), mode, ProcessState::Idle);
        pcb.backup = match backup {
            Some(b) => BackupStatus::At(b),
            None => BackupStatus::None,
        };
        if let Some(b) = backup {
            let ProcessBody::Server(logic) = &pcb.body else { unreachable!() };
            let image: SharedImage = Arc::new(ServerImage(logic.clone_image()));
            self.clusters[b.0 as usize].backups.insert(
                pid,
                BackupRecord {
                    pid,
                    primary_cluster: cluster,
                    image,
                    kstate: Arc::new(KernelState::default()),
                    program: None,
                    mode,
                    sync_seq: 0,
                    parent: None,
                },
            );
            self.stats.clusters[b.0 as usize].backups_created += 1;
        }
        self.admit(cluster, pcb);
        if let Some(d) = device {
            self.server_devices.insert(pid, d);
        }
        // Register in every cluster's directory.
        let entry = Some((pid, cluster, backup));
        for c in &mut self.clusters {
            match role {
                ServerRole::Pager => c.directory.pager = entry,
                ServerRole::Fs => c.directory.fs = entry,
                ServerRole::Proc => c.directory.procserver = entry,
                ServerRole::Tty | ServerRole::Raw => {}
            }
        }
        pid
    }

    /// Wires the kernel ports of every cluster to the installed pager
    /// and process server. Call once after `install_server`s.
    pub fn wire_kernel_ports(&mut self) {
        for ci in 0..self.clusters.len() {
            self.wire_kernel_ports_for(ClusterId(ci as u16), false);
        }
    }

    /// (Re)wires one cluster's kernel ports.
    ///
    /// With `force`, existing entries on both sides are replaced — used
    /// when a crashed cluster returns to service with an empty routing
    /// table (§7.3): the server-side ends were marked peer-closed when
    /// the cluster died and must be reset. Any messages queued on the
    /// replaced server-side entry belonged to the dead incarnation and
    /// are dropped.
    pub fn wire_kernel_ports_for(&mut self, cid: ClusterId, force: bool) {
        let dir = self.clusters[cid.0 as usize].directory.clone();
        let specs = [(ports::FS, dir.pager), (ports::PROC, dir.procserver)];
        for (slot, server) in specs {
            let Some((spid, sprimary, sbackup)) = server else { continue };
            let (a, b) = bootstrap_channel_inits(
                auros_bus::proto::kernel_pid(cid),
                cid,
                None, // Kernels are never backed up (§7.2).
                BackupMode::Quarterback,
                spid,
                sprimary,
                sbackup,
                BackupMode::Halfback,
                slot,
                ChanKind::KernelPort,
            );
            debug_assert_eq!(a.end, kernel_port_end(cid, slot));
            if force {
                self.clusters[cid.0 as usize].routing.remove_primary(&a.end);
                self.clusters[sprimary.0 as usize].routing.remove_primary(&b.end);
                if let Some(sb) = sbackup {
                    self.clusters[sb.0 as usize].routing.remove_backup(&b.end);
                }
            }
            self.wire_channel_direct(cid, &a, sprimary, &b);
        }
    }

    /// Wires both ends of a channel directly (startup-time wiring for
    /// server-to-server plumbing, e.g. the file server's notification
    /// channel to a tty server).
    pub fn wire_channel_direct(
        &mut self,
        a_cluster: ClusterId,
        a: &auros_bus::proto::ChannelInit,
        b_cluster: ClusterId,
        b: &auros_bus::proto::ChannelInit,
    ) {
        self.create_primary_entry_from_init(a_cluster, a);
        if let Some(ab) = a.owner_backup {
            self.create_backup_entry_from_init(ab, a);
        }
        self.create_primary_entry_from_init(b_cluster, b);
        if let Some(bb) = b.owner_backup {
            self.create_backup_entry_from_init(bb, b);
        }
    }

    /// Wires the bootstrap channels (signal / file server / process
    /// server ports) for a server process, so servers can be clients of
    /// other servers (a tty server sends `kill` requests to the process
    /// server, §7.5.2).
    pub fn wire_server_bootstrap(&mut self, cluster: ClusterId, pid: Pid) {
        let (backup, mode) = match self.clusters[cluster.0 as usize].procs.get(&pid) {
            Some(pcb) => (pcb.backup.cluster(), pcb.mode),
            None => return,
        };
        self.wire_bootstrap_direct(cluster, pid, backup, mode);
    }

    /// Wires one process's bootstrap channels directly (startup-time
    /// equivalent of the fork-time `CreatePort` messages).
    fn wire_bootstrap_direct(
        &mut self,
        cluster: ClusterId,
        pid: Pid,
        backup: Option<ClusterId>,
        mode: BackupMode,
    ) {
        let dir = self.clusters[cluster.0 as usize].directory.clone();
        let specs: [(u8, ServerLoc); 3] =
            [(ports::SIGNAL, dir.procserver), (ports::FS, dir.fs), (ports::PROC, dir.procserver)];
        for (slot, server) in specs {
            let Some((spid, sprimary, sbackup)) = server else { continue };
            let kind = service_kind_for_slot(slot);
            let (a, b) = bootstrap_channel_inits(
                pid,
                cluster,
                backup,
                mode,
                spid,
                sprimary,
                sbackup,
                BackupMode::Halfback,
                slot,
                kind,
            );
            self.wire_channel_direct(cluster, &a, sprimary, &b);
        }
    }

    /// Convenience: installs the process server with defaults.
    pub fn install_default_procserver(&mut self) -> Pid {
        let n = self.cfg.clusters;
        let primary = ClusterId(n - 1);
        let backup = if self.cfg.ft_enabled() { Some(ClusterId(n - 2)) } else { None };
        self.install_server(
            Box::new(crate::procserver::ProcServer::new(n)),
            ServerRole::Proc,
            primary,
            backup,
            None,
        )
    }
}
