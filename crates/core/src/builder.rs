//! Building and driving a complete Auros system.
//!
//! [`SystemBuilder`] assembles the machine exactly as §7 lays it out:
//! clusters on the dual bus, the page server and file server on a
//! dual-ported disk pair (primaries in cluster 0, active backups in
//! cluster 1), the process server as a system server, terminal servers
//! in the clusters owning terminals, and user processes with inactive
//! backups in neighbouring clusters.

use auros_bus::proto::{
    BackupMode, ChanEnd, ChanKind, ChannelId, ChannelInit, Peer, ServiceKind, Side,
};
use auros_bus::{BusKind, ClusterId, Pid, WireFault};
use auros_fs::fileserver::DeviceRoute;
use auros_fs::{DiskPair, FileServer, RawServer, Terminal, TtyServer};
use auros_kernel::spawn::ServerRole;
use auros_kernel::world::Event;
use auros_kernel::{Config, World};
use auros_pager::{PageServer, PageStore};
use auros_sim::{Dur, VTime};
use auros_vm::Program;

use crate::fault::{FaultEvent, FaultPlanError};
use crate::oracle::RunDigest;

/// Builds a [`System`].
pub struct SystemBuilder {
    cfg: Config,
    terminals: u16,
    raw_disks: u16,
    spawns: Vec<(ClusterId, Program, Option<BackupMode>)>,
    faults: Vec<FaultEvent>,
    typed: Vec<(VTime, u16, Vec<u8>)>,
}

impl SystemBuilder {
    /// A builder for a machine of `clusters` clusters with the default
    /// configuration.
    pub fn new(clusters: u16) -> SystemBuilder {
        SystemBuilder::with_config(Config { clusters, ..Config::default() })
    }

    /// A builder from an explicit configuration.
    pub fn with_config(cfg: Config) -> SystemBuilder {
        SystemBuilder {
            cfg,
            terminals: 0,
            raw_disks: 0,
            spawns: Vec::new(),
            faults: Vec::new(),
            typed: Vec::new(),
        }
    }

    /// Mutable access to the configuration before building.
    pub fn config_mut(&mut self) -> &mut Config {
        &mut self.cfg
    }

    /// Disables fault tolerance entirely (the no-FT baseline).
    pub fn without_fault_tolerance(&mut self) -> &mut Self {
        self.cfg.strategy = auros_kernel::config::FtStrategy::None;
        self
    }

    /// Sets the default backup mode for spawned processes (§7.3).
    pub fn default_mode(&mut self, mode: BackupMode) -> &mut Self {
        self.cfg.default_mode = mode;
        self
    }

    /// Adds `n` terminals; terminal `k` (name `tty:k`) is a line of the
    /// interface module in cluster `k % clusters`, served by that
    /// cluster's tty server ("a tty server in each cluster having
    /// terminals", §7.6), whose backup lives in the next cluster.
    pub fn terminals(&mut self, n: u16) -> &mut Self {
        self.terminals = n;
        self
    }

    /// Adds `n` raw disks (names `raw:0` …), each with a raw server.
    pub fn raw_disks(&mut self, n: u16) -> &mut Self {
        self.raw_disks = n;
        self
    }

    /// Spawns a user process in `cluster` with the default backup mode.
    pub fn spawn(&mut self, cluster: u16, program: Program) -> usize {
        self.spawns.push((ClusterId(cluster), program, None));
        self.spawns.len() - 1
    }

    /// Spawns a user process with an explicit backup mode (§7.3).
    pub fn spawn_with_mode(&mut self, cluster: u16, program: Program, mode: BackupMode) -> usize {
        self.spawns.push((ClusterId(cluster), program, Some(mode)));
        self.spawns.len() - 1
    }

    /// Schedules a total failure of `cluster` at `at` (§3.1).
    pub fn crash_at(&mut self, at: VTime, cluster: u16) -> &mut Self {
        self.fault(FaultEvent::ClusterCrash { at, cluster })
    }

    /// Schedules the return-to-service of `cluster` at `at` (§7.3).
    pub fn restore_at(&mut self, at: VTime, cluster: u16) -> &mut Self {
        self.fault(FaultEvent::Restore { at, cluster })
    }

    /// Schedules a failure of the active intercluster bus at `at`; the
    /// standby of the dual pair takes over, retransmitting in-flight
    /// frames (§7.1). A second bus failure exhausts the pair.
    pub fn bus_fail_at(&mut self, at: VTime) -> &mut Self {
        self.fault(FaultEvent::BusFail { at })
    }

    /// Schedules a failure of one mirror of disk pair `disk` at `at`
    /// (§7.9). Disk 0 is the file-system pair; disk `1 + k` is raw disk
    /// `k`. The first fault on a pair kills its first half; a second
    /// fault on the same pair kills the survivor.
    pub fn disk_half_fail_at(&mut self, at: VTime, disk: u16) -> &mut Self {
        self.fault(FaultEvent::DiskHalfFail { at, disk })
    }

    /// Arms a transient wire fault: the next frame transmitted at or
    /// after `at` is silently lost. The ack-timeout retransmit protocol
    /// recovers it; the loss is invisible to applications.
    pub fn drop_frame_at(&mut self, at: VTime) -> &mut Self {
        self.fault(FaultEvent::FrameDrop { at })
    }

    /// Arms a transient wire fault: the next frame at or after `at`
    /// arrives with mangled bits. The receiver checksum rejects it and
    /// NAKs; the sender retransmits the pristine copy.
    pub fn corrupt_frame_at(&mut self, at: VTime) -> &mut Self {
        self.fault(FaultEvent::FrameCorrupt { at })
    }

    /// Arms a transient wire fault: the next frame at or after `at`
    /// arrives twice. Link-layer sequencing suppresses the echo.
    pub fn duplicate_frame_at(&mut self, at: VTime) -> &mut Self {
        self.fault(FaultEvent::FrameDuplicate { at })
    }

    /// Arms a transient wire fault: the next frame at or after `at`
    /// arrives `by` ticks late, possibly behind its successors. The
    /// link layer restores per-destination order.
    pub fn delay_frame_at(&mut self, at: VTime, by: Dur) -> &mut Self {
        self.fault(FaultEvent::FrameDelay { at, by })
    }

    /// Declares `bus` flaky over `[from, until)`: every window it
    /// grants in that span suffers a wire fault. Sustained flakiness
    /// trips quarantine; probe frames heal the bus after the window.
    pub fn flaky_bus(&mut self, from: VTime, until: VTime, bus: BusKind) -> &mut Self {
        self.fault(FaultEvent::BusFlaky { from, until, bus })
    }

    /// Appends one typed fault to the plan.
    pub fn fault(&mut self, ev: FaultEvent) -> &mut Self {
        self.faults.push(ev);
        self
    }

    /// Appends a whole fault plan.
    pub fn fault_plan(&mut self, plan: impl IntoIterator<Item = FaultEvent>) -> &mut Self {
        self.faults.extend(plan);
        self
    }

    /// The fault plan accumulated so far.
    pub fn faults(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Types bytes at terminal `term` at time `at`.
    pub fn type_at(&mut self, at: VTime, term: u16, bytes: &[u8]) -> &mut Self {
        self.typed.push((at, term, bytes.to_vec()));
        self
    }

    /// Schedules a §10 partial failure: the hardware hosting the
    /// `spawn_index`th spawned process fails in a way that kills only
    /// that process; its cluster stays up and only its backup is
    /// promoted.
    pub fn fail_process_at(&mut self, at: VTime, spawn_index: usize) -> &mut Self {
        self.fault(FaultEvent::ProcessFail { at, spawn: spawn_index })
    }

    /// Arms a poison payload against the `spawn_index`th spawned
    /// process: the first data message it consumes at or after `at`
    /// kills it, and keeps killing every reincarnation until the
    /// supervision layer quarantines the message into the dead-letter
    /// ledger — or exhausts the restart budget and abandons the process.
    pub fn poison_at(&mut self, at: VTime, spawn_index: usize) -> &mut Self {
        self.fault(FaultEvent::PoisonMessage { at, spawn: spawn_index })
    }

    /// Schedules a correlated zone outage at `at`: both clusters of
    /// dual-ported pair `zone` ([`crate::topology::zone_members`]) die
    /// at the same instant. This exceeds the paper's single-failure
    /// model on purpose.
    pub fn zone_outage_at(&mut self, at: VTime, zone: u16) -> &mut Self {
        self.fault(FaultEvent::ZoneOutage { at, zone })
    }

    /// Assembles the system, panicking on an invalid fault plan.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`Config::validate`]) or
    /// an invalid fault plan (see [`SystemBuilder::try_build`]).
    pub fn build(&self) -> System {
        match self.try_build() {
            Ok(sys) => sys,
            Err(e) => panic!("invalid fault plan: {e}"),
        }
    }

    /// Assembles the system, rejecting nonsensical fault plans.
    ///
    /// A plan is rejected if it crashes a cluster the machine does not
    /// have, crashes a cluster already down (without an intervening
    /// restore), restores a live cluster, names a missing disk pair, or
    /// schedules any fault at `VTime(0)`. Merely *unsurvivable* plans
    /// (both buses, both mirrors, primary and backup at once) build
    /// fine — driving the machine past its fault model is the chaos
    /// sweep's job.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`Config::validate`]).
    pub fn try_build(&self) -> Result<System, FaultPlanError> {
        crate::fault::validate(
            &self.faults,
            self.cfg.clusters,
            1 + self.raw_disks,
            self.spawns.len(),
        )?;
        let cfg = self.cfg.clone();
        let n = cfg.clusters;
        let ft = cfg.ft_enabled();
        let mut world = World::new(cfg);

        // Devices: the page store and file-system disk pair live on the
        // (0, 1) cluster pair; raw disks and terminals are spread.
        let page_store = world.add_device(Box::new(PageStore::new()));
        let fs_disk = world.add_device(Box::new(DiskPair::new()));
        let backup_of = |c: u16| -> Option<ClusterId> {
            if ft {
                Some(ClusterId((c + 1) % n))
            } else {
                None
            }
        };

        // The process server first: everything else's bootstrap channels
        // point at it.
        let proc_pid = world.install_default_procserver();

        // The page server on the (0, 1) disk pair.
        let pager_pid = world.install_server(
            Box::new(PageServer::new()),
            ServerRole::Pager,
            ClusterId(0),
            backup_of(0),
            Some(page_store),
        );

        // Terminal interfaces: one module (and one tty server) per
        // cluster that has any terminal lines; terminal k is line
        // (k / clusters) of cluster (k % clusters)'s module.
        let mut tty_by_cluster: std::collections::BTreeMap<u16, (Pid, usize)> =
            std::collections::BTreeMap::new();
        let mut tty_pids = Vec::new();
        let mut term_map = Vec::new(); // terminal k -> (device, line, server pid)
        for k in 0..self.terminals {
            let home = k % n;
            let (pid, dev) = match tty_by_cluster.get(&home) {
                Some(v) => *v,
                None => {
                    let dev = world.add_device(Box::new(Terminal::new()));
                    let pid = world.install_server(
                        Box::new(TtyServer::new()),
                        ServerRole::Tty,
                        ClusterId(home),
                        backup_of(home),
                        Some(dev),
                    );
                    tty_by_cluster.insert(home, (pid, dev));
                    tty_pids.push((pid, ClusterId(home), backup_of(home)));
                    (pid, dev)
                }
            };
            let line = (k / n) as u32;
            term_map.push((dev, line, pid));
        }

        // Raw servers.
        let mut raw_pids = Vec::new();
        let mut raw_devs = Vec::new();
        for k in 0..self.raw_disks {
            let dev = world.add_device(Box::new(DiskPair::new()));
            raw_devs.push(dev);
            let home = k % n;
            let pid = world.install_server(
                Box::new(RawServer::new()),
                ServerRole::Raw,
                ClusterId(home),
                backup_of(home),
                Some(dev),
            );
            raw_pids.push((pid, ClusterId(home), backup_of(home)));
        }

        // The file server, with device routes.
        let mut fileserver = FileServer::new();
        for (k, (_, line, pid)) in term_map.iter().enumerate() {
            let (_, cluster, backup) =
                *tty_pids.iter().find(|(p, _, _)| p == pid).expect("server installed");
            let notify_end = ChanEnd { channel: ChannelId::bootstrap(*pid, 3), side: Side::A };
            fileserver.add_tty_route(
                format!("tty:{k}"),
                DeviceRoute {
                    pid: *pid,
                    cluster,
                    backup,
                    notify_end: Some(notify_end),
                    line: *line,
                },
            );
        }
        for (k, (pid, cluster, backup)) in raw_pids.iter().enumerate() {
            fileserver.add_raw_route(
                format!("raw:{k}"),
                DeviceRoute {
                    pid: *pid,
                    cluster: *cluster,
                    backup: *backup,
                    notify_end: None,
                    line: 0,
                },
            );
        }
        let fs_pid = world.install_server(
            Box::new(fileserver),
            ServerRole::Fs,
            ClusterId(0),
            backup_of(0),
            Some(fs_disk),
        );

        // Kernel ports (paging + placement RPC) in every cluster.
        world.wire_kernel_ports();

        // Servers that are clients of other servers need bootstrap
        // channels: tty servers send kill requests to the process server.
        for (pid, cluster, _) in &tty_pids {
            world.wire_server_bootstrap(*cluster, *pid);
        }

        // The fs → tty notification channels.
        for (pid, cluster, backup) in &tty_pids {
            let channel = ChannelId::bootstrap(*pid, 3);
            let a = ChanEnd { channel, side: Side::A };
            let a_init = ChannelInit {
                end: a,
                owner: fs_pid,
                fd: None,
                peer: Peer::new(*pid, *cluster, *backup, BackupMode::Halfback),
                owner_backup: backup_of(0),
                kind: ChanKind::ServerPort(ServiceKind::Tty),
            };
            let b_init = ChannelInit {
                end: a.peer(),
                owner: *pid,
                fd: None,
                peer: Peer::new(fs_pid, ClusterId(0), backup_of(0), BackupMode::Halfback),
                owner_backup: *backup,
                kind: ChanKind::ServerPort(ServiceKind::Tty),
            };
            world.wire_channel_direct(ClusterId(0), &a_init, *cluster, &b_init);
        }

        // User processes.
        let default_mode = world.cfg.default_mode;
        let mut pids = Vec::new();
        for (cluster, program, mode) in &self.spawns {
            let mode = mode.unwrap_or(default_mode);
            let pid = world.spawn_user(*cluster, program.clone(), mode, None);
            pids.push(pid);
        }

        // The fault plan and the terminal script. Faults are scheduled
        // in plan order; the queue fires them in (time, insertion) order.
        let mut halves_failed = vec![0u32; 1 + self.raw_disks as usize];
        for ev in &self.faults {
            match *ev {
                FaultEvent::ClusterCrash { at, cluster } => {
                    world.queue.schedule(at, Event::Crash { cluster: ClusterId(cluster) });
                }
                FaultEvent::Restore { at, cluster } => {
                    world.queue.schedule(at, Event::Restore { cluster: ClusterId(cluster) });
                }
                FaultEvent::BusFail { at } => {
                    world.queue.schedule(at, Event::BusFail);
                }
                FaultEvent::DiskHalfFail { at, disk } => {
                    let device = if disk == 0 { fs_disk } else { raw_devs[disk as usize - 1] };
                    // The first fault on a pair takes its first half; any
                    // further fault takes the survivor.
                    let second = halves_failed[disk as usize] > 0;
                    halves_failed[disk as usize] += 1;
                    world.queue.schedule(at, Event::DiskHalfFail { device, second });
                }
                FaultEvent::ProcessFail { at, spawn } => {
                    world.queue.schedule(at, Event::PartialFailure { pid: pids[spawn] });
                }
                FaultEvent::PoisonMessage { at, spawn } => {
                    // Armed at build time: the supervisor's trigger fires
                    // inside consume_front, not off the event queue, so a
                    // fault-free run schedules nothing extra.
                    world.arm_poison(at, pids[spawn]);
                }
                FaultEvent::ZoneOutage { at, zone } => {
                    for member in crate::topology::zone_members(zone) {
                        world.queue.schedule(at, Event::Crash { cluster: ClusterId(member) });
                    }
                }
                // Transient wire faults arm the bus schedule directly:
                // they strike transmissions, not the event queue.
                FaultEvent::FrameDrop { at } => world.bus.arm_fault(at, WireFault::Drop),
                FaultEvent::FrameCorrupt { at } => world.bus.arm_fault(at, WireFault::Corrupt),
                FaultEvent::FrameDuplicate { at } => world.bus.arm_fault(at, WireFault::Duplicate),
                FaultEvent::FrameDelay { at, by } => world.bus.arm_fault(at, WireFault::Delay(by)),
                FaultEvent::BusFlaky { from, until, bus } => {
                    world.bus.add_flaky_window(from, until, bus);
                }
            }
        }
        for (at, term, bytes) in &self.typed {
            let (dev, line, _) = term_map[*term as usize];
            world
                .queue
                .schedule(*at, Event::TerminalInput { device: dev, line, data: bytes.clone() });
        }

        Ok(System {
            world,
            pids,
            proc_pid,
            pager_pid,
            fs_pid,
            fs_device: fs_disk,
            tty_pids: tty_pids.into_iter().map(|(p, _, _)| p).collect(),
            term_map,
        })
    }
}

/// A built system: the world plus handles to its members.
pub struct System {
    /// The underlying world (exposed for tests and benches).
    pub world: World,
    /// Spawned user pids, in spawn order.
    pub pids: Vec<Pid>,
    /// The process server.
    pub proc_pid: Pid,
    /// The page server.
    pub pager_pid: Pid,
    /// The file server.
    pub fs_pid: Pid,
    /// The file server's disk device index.
    pub fs_device: usize,
    /// Terminal servers, one per cluster with terminals.
    pub tty_pids: Vec<Pid>,
    /// Terminal k → (device index, line, serving tty pid).
    pub term_map: Vec<(usize, u32, Pid)>,
}

impl System {
    /// Runs until every spawned process finished or `deadline` passes;
    /// returns `true` if all finished.
    ///
    /// After completion the system settles briefly so in-flight frames
    /// (final syncs, terminal output commits) land before inspection.
    pub fn run(&mut self, deadline: VTime) -> bool {
        let done = self.world.run_to_completion(deadline);
        if done {
            let settle = self.world.now() + auros_sim::Dur(50_000);
            self.world.run_until(settle.min(deadline));
        }
        done
    }

    /// Runs to `deadline` unconditionally.
    pub fn run_until(&mut self, deadline: VTime) {
        self.world.run_until(deadline);
    }

    /// Lets in-flight activity finish: runs `extra` ticks past the
    /// current time. Use after injecting a fault near (or past) workload
    /// completion, so detection, promotion, and replay finish before the
    /// digest is inspected.
    pub fn settle(&mut self, extra: auros_sim::Dur) {
        let until = self.world.now() + extra;
        self.world.run_until(until);
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.world.now()
    }

    /// Exit status of the `i`th spawned process, if it finished.
    pub fn exit_of(&self, i: usize) -> Option<u64> {
        self.world.exit_status(self.pids[i])
    }

    /// Committed output of terminal `k` — what its user has seen.
    pub fn terminal_output(&self, k: usize) -> Vec<u8> {
        let (dev, line, _) = self.term_map[k];
        self.world.devices[dev]
            .as_any()
            .downcast_ref::<Terminal>()
            .map(|t| t.committed_output(line).to_vec())
            .unwrap_or_default()
    }

    /// Runs `f` with the live file server and its disk.
    pub fn with_fs<R>(&mut self, f: impl FnOnce(&FileServer, &mut DiskPair) -> R) -> Option<R> {
        // Locate the live file server and clone its state (cheap: tables
        // only), then borrow the disk.
        let fs = self
            .world
            .clusters
            .iter()
            .filter(|c| c.alive)
            .find_map(|c| c.procs.get(&self.fs_pid))
            .and_then(|pcb| match &pcb.body {
                auros_kernel::ProcessBody::Server(logic) => {
                    logic.as_any().downcast_ref::<FileServer>().cloned()
                }
                _ => None,
            })?;
        let disk = self.world.devices[self.fs_device].as_any_mut().downcast_mut::<DiskPair>()?;
        Some(f(&fs, disk))
    }

    /// Contents of a file as the file server sees it.
    pub fn file_contents(&mut self, path: &str) -> Option<Vec<u8>> {
        self.with_fs(|fs, disk| fs.file_contents(path, disk)).flatten()
    }

    /// The externally visible record of the run, for oracle comparisons.
    pub fn digest(&mut self) -> RunDigest {
        let exits = self.pids.iter().map(|p| (*p, self.world.exit_status(*p))).collect();
        let files = self
            .with_fs(|fs, disk| {
                fs.list_files()
                    .into_iter()
                    .filter_map(|name| fs.file_contents(&name, disk).map(|data| (name, data)))
                    .collect()
            })
            .unwrap_or_default();
        let terminals = (0..self.term_map.len()).map(|k| self.terminal_output(k)).collect();
        RunDigest { exits, files, terminals }
    }

    /// Blocked-wait statistics of the `i`th spawned process:
    /// `(total_wait_ticks, completed_waits, max_single_wait_ticks)`.
    ///
    /// The maximum single wait of a process whose correspondent crashed
    /// measures the delay §3.3 promises to keep short.
    pub fn wait_stats(&self, i: usize) -> (u64, u64, u64) {
        let pid = self.pids[i];
        let live = self.world.clusters.iter().filter(|c| c.alive).filter_map(|c| c.procs.get(&pid));
        // Prefer the live incarnation over a husk left by a partial
        // failure; fall back to whatever exists (exited processes keep
        // their ledgers).
        let best = live.clone().find(|p| !p.is_dead()).or_else(|| live.clone().next());
        best.map(|p| (p.total_wait.as_ticks(), p.waits, p.max_wait.as_ticks())).unwrap_or((0, 0, 0))
    }

    /// Collects every published fleet total — kernel ledgers, bus
    /// fabric, and each live server — into one registry.
    pub fn metrics(&self) -> auros_sim::MetricsRegistry {
        let mut reg = auros_sim::MetricsRegistry::new();
        self.world.publish_metrics(&mut reg);
        reg
    }

    /// The page server's live state (test oracle).
    pub fn pager_state(&self) -> Option<PageServer> {
        self.world
            .clusters
            .iter()
            .filter(|c| c.alive)
            .find_map(|c| c.procs.get(&self.pager_pid))
            .and_then(|pcb| match &pcb.body {
                auros_kernel::ProcessBody::Server(logic) => {
                    logic.as_any().downcast_ref::<PageServer>().cloned()
                }
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn builder_assembles_servers_and_ports() {
        let sys = SystemBuilder::new(3).build();
        // Directory filled in every cluster.
        for c in &sys.world.clusters {
            assert!(c.directory.pager.is_some());
            assert!(c.directory.fs.is_some());
            assert!(c.directory.procserver.is_some());
        }
        // The servers' backup records exist from creation (§7.7).
        let total_backups: usize = sys.world.clusters.iter().map(|c| c.backups.len()).sum();
        assert!(total_backups >= 3, "pager, fs, procserver all backed up");
    }

    #[test]
    fn single_process_computes_and_exits() {
        let mut b = SystemBuilder::new(2);
        b.spawn(0, programs::compute_loop(100, 4));
        let mut sys = b.build();
        assert!(sys.run(VTime(10_000_000)), "process must finish");
        assert!(sys.exit_of(0).is_some());
    }

    #[test]
    fn no_ft_mode_still_runs() {
        let mut b = SystemBuilder::new(2);
        b.without_fault_tolerance();
        b.spawn(0, programs::compute_loop(100, 4));
        let mut sys = b.build();
        assert!(sys.run(VTime(10_000_000)));
    }
}
