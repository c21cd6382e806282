//! Process control blocks and the process lifecycle.
//!
//! A PCB holds what the paper's combined UNIX user/process structures
//! hold, split into *cluster-independent* state (fd table, bunch groups,
//! signal dispositions, read counts — everything that rides in a sync
//! message) and *environmental* state (scheduling hooks, residency) that
//! a backup must never depend on (§7.5).
//!
//! A process gets its first state from [`Pcb::new`] and is installed by
//! `World::admit`, which counts a live user. Every later change goes
//! through `World::transition`: it checks the step against the one
//! table of allowed steps, [`ProcessState::allowed`], and owns the side
//! effects written next to each row there: run-queue membership, the
//! blocked-wait ledger, the run token and the live-user count.
//! Protection status is the separate [`BackupStatus`].

use std::collections::BTreeMap;

use auros_bus::proto::{BackupMode, ChanEnd, PendingCall};
use auros_bus::{ClusterId, Fd, Pid, Sig};
use auros_sim::VTime;
use auros_vm::Machine;

use crate::server::ServerLogic;
use crate::world::World;

/// What a process *is*: a guest VM or a server state machine.
pub enum ProcessBody {
    /// An ordinary user process (§4).
    User(Box<Machine>),
    /// A system or peripheral server (§7.6). Servers execute like user
    /// processes but their "address space" is their state object.
    Server(Box<dyn ServerLogic>),
}

impl std::fmt::Debug for ProcessBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessBody::User(m) => write!(f, "User({})", m.program().name()),
            ProcessBody::Server(s) => write!(f, "Server({})", s.name()),
        }
    }
}

/// Why a process is not runnable.
///
/// Two families exist, with different replay behaviour:
///
/// * **Rewound traps** (`Read`, `Which`, `Page`, `Unusable`): the program
///   counter was put back on the trap (or faulting) instruction; waking
///   just makes the process runnable and the call re-executes. A sync
///   taken in this state needs no pending-call record.
/// * **Pending calls** (`Pending`): the request message already left the
///   cluster before blocking, so the call must *not* re-execute; the
///   [`PendingCall`] rides in sync records and the kernel completes the
///   call from the saved queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockState {
    /// Blocked in `read` on one channel (reads are always synchronous,
    /// §7.5.1). Rewound.
    Read {
        /// The channel being read.
        end: ChanEnd,
    },
    /// Blocked in `which` on a bunch group (§7.5.1). Rewound.
    Which {
        /// The group id.
        group: u64,
    },
    /// Waiting for a page from the page server. The faulting (or
    /// rewound) instruction re-executes after installation.
    Page {
        /// The faulting page.
        page: auros_vm::PageNo,
    },
    /// Blocked writing on a channel marked unusable during fullback
    /// re-creation (§7.10.1 step 1). Rewound; retries when usable.
    Unusable {
        /// The channel concerned.
        end: ChanEnd,
    },
    /// Blocked in `open` awaiting the file server's open reply (§7.4.1),
    /// or awaiting a server reply to a sent request (§7.5.1).
    Pending(PendingCall),
    /// A promoted fullback waiting for its new backup to exist before it
    /// may begin executing (§7.3).
    AwaitBackup {
        /// The call the process was promoted in, resumed once the new
        /// backup exists; `None` resumes it runnable.
        then: Option<PendingCall>,
    },
}

/// Scheduling state of a process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcessState {
    /// Waiting for a work processor.
    Runnable,
    /// Currently executing a quantum (its end event is scheduled).
    Running,
    /// A server with no pending work (woken by message arrival).
    Idle,
    /// Blocked; see [`BlockState`].
    Blocked(BlockState),
    /// Exited with a status.
    Exited(u64),
    /// Killed by the kernel (guest fault or uncaught signal).
    Killed,
}

impl ProcessState {
    /// The lifecycle table: whether a process may go from `from` to
    /// `to`, where `from = None` is construction. Each row names the side
    /// effects `World::transition` performs for it; `Exited` and `Killed`
    /// are final.
    pub fn allowed(from: Option<&ProcessState>, to: &ProcessState) -> bool {
        use BlockState::{AwaitBackup, Pending};
        use ProcessState::{Blocked, Exited, Idle, Killed, Runnable, Running};
        match (from, to) {
            // Birth (spawn, fork, server install, promotion): no wait opens.
            (None, Runnable | Idle | Blocked(Pending(_) | AwaitBackup { .. })) => true,
            // Dispatch bumps the run token. A quantum's end leaves the
            // requeue to the trap handler; a server step ends idle.
            (Some(Runnable), Running) | (Some(Running), Runnable | Idle) => true,
            // A wake joins the run queue and closes an open wait.
            (Some(Runnable | Idle | Blocked(_)), Runnable) => true,
            // A trap blocks: it leaves the run queue and opens a wait.
            (Some(Runnable), Blocked(b)) => !matches!(b, AwaitBackup { .. }),
            // A promoted fullback's gate opens into its pending call (§7.3).
            (Some(Blocked(AwaitBackup { .. })), Blocked(Pending(_))) => true,
            // Death bumps the run token, leaves the run queue and ends a
            // live user.
            (Some(Runnable), Exited(_)) => true,
            (Some(Runnable | Running | Idle | Blocked(_)), Killed) => true,
            _ => false,
        }
    }

    /// Whether the process has finished (exited or killed).
    pub fn is_dead(&self) -> bool {
        matches!(self, ProcessState::Exited(_) | ProcessState::Killed)
    }
}

/// Where this process stands with respect to backup protection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackupStatus {
    /// Backup cluster assigned but no backup created yet (creation is
    /// deferred to the first sync, §7.7).
    Deferred {
        /// Where the backup will be created.
        cluster: auros_bus::ClusterId,
    },
    /// A new backup is to be built here after a crash took the old one:
    /// the next sync carries the full rebuild info and announces it
    /// (§7.10.1 step 3), leaving the status `Deferred`.
    Rebuild {
        /// Where the backup will be created.
        cluster: auros_bus::ClusterId,
    },
    /// Backup exists at this cluster.
    At(auros_bus::ClusterId),
    /// Not backed up (quarterback after a crash, or FT disabled).
    None,
}

impl BackupStatus {
    /// The backup cluster, whether or not the backup exists yet.
    ///
    /// This is where backup *message copies* go: routing entries exist
    /// there from birth-notice time even before the backup process does.
    pub fn cluster(&self) -> Option<auros_bus::ClusterId> {
        match self {
            BackupStatus::Deferred { cluster }
            | BackupStatus::Rebuild { cluster }
            | BackupStatus::At(cluster) => Some(*cluster),
            BackupStatus::None => None,
        }
    }
}

/// A process control block.
#[derive(Debug)]
pub struct Pcb {
    /// Globally unique pid (§7.5.1).
    pub pid: Pid,
    /// The executing body.
    pub body: ProcessBody,
    /// Scheduling state; changed only by `World::transition`.
    state: ProcessState,
    /// fd table.
    pub fds: BTreeMap<Fd, ChanEnd>,
    /// Next fd to hand out (replay-stable).
    pub next_fd: u32,
    /// Bunch groups: group id → member fds in addition order.
    pub bunches: BTreeMap<u64, Vec<Fd>>,
    /// Signal dispositions: signal → handler pc; `0` = ignore; absent =
    /// default (terminate).
    pub handlers: BTreeMap<Sig, u32>,
    /// Backup mode (§7.3).
    pub mode: BackupMode,
    /// Backup protection status.
    pub backup: BackupStatus,
    /// Sync generation (0 = never synced; first sync creates the backup).
    pub sync_seq: u64,
    /// Reads performed since the last sync (trigger counter, §5.1).
    pub reads_since_sync: u64,
    /// Fuel executed since the last sync (execution-time trigger, §7.8).
    pub fuel_since_sync: u64,
    /// Channels closed since the last sync (reported in the next sync
    /// record so backup entries are removed, §7.8).
    pub closed_since_sync: Vec<ChanEnd>,
    /// Forks performed (replay-stable child pid derivation, §7.7).
    pub fork_count: u64,
    /// Children forked, in fork order, with their pids.
    pub children: Vec<Pid>,
    /// Parent pid, if forked.
    pub parent: Option<Pid>,
    /// When the current blocked wait began, if blocked.
    pub wait_from: Option<VTime>,
    /// Total time spent blocked (service latency as the process sees it).
    pub total_wait: auros_sim::Dur,
    /// Number of completed waits.
    pub waits: u64,
    /// Longest single wait — a recovery that stalls a correspondent
    /// shows up here (§3.3's "short delay").
    pub max_wait: auros_sim::Dur,
    /// Run-generation token: invalidates stale quantum-end events after
    /// kills or crashes.
    pub run_token: u64,
    /// A peripheral server's device has input waiting (terminals).
    pub device_pending: bool,
    /// §10: nondeterministic results not yet piggybacked on an outgoing
    /// message (a crash now is free to re-decide them).
    pub pending_nondet: Vec<u64>,
    /// §10: logged results to replay during rollforward, in order.
    pub nondet_replay: std::collections::VecDeque<u64>,
    /// Blocking kernel time owed for data-space copies under the
    /// checkpoint strategy; drained at the next quantum boundary.
    pub checkpoint_debt: auros_sim::Dur,
}

impl Pcb {
    /// Creates a PCB around a body in its first `state`; caller wires
    /// channels afterwards. No wait interval is open.
    pub fn new(pid: Pid, body: ProcessBody, mode: BackupMode, state: ProcessState) -> Pcb {
        debug_assert!(ProcessState::allowed(None, &state), "{pid} born {state:?}");
        Pcb {
            pid,
            body,
            state,
            fds: BTreeMap::new(),
            next_fd: 0,
            bunches: BTreeMap::new(),
            handlers: BTreeMap::new(),
            mode,
            backup: BackupStatus::None,
            sync_seq: 0,
            reads_since_sync: 0,
            fuel_since_sync: 0,
            closed_since_sync: Vec::new(),
            fork_count: 0,
            children: Vec::new(),
            parent: None,
            wait_from: None,
            total_wait: auros_sim::Dur::ZERO,
            waits: 0,
            max_wait: auros_sim::Dur::ZERO,
            run_token: 0,
            device_pending: false,
            pending_nondet: Vec::new(),
            nondet_replay: std::collections::VecDeque::new(),
            checkpoint_debt: auros_sim::Dur::ZERO,
        }
    }

    /// Allocates the next fd (deterministic across replay).
    pub fn alloc_fd(&mut self) -> Fd {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        fd
    }

    /// Looks up a channel end by fd.
    pub fn end_of(&self, fd: Fd) -> Option<ChanEnd> {
        self.fds.get(&fd).copied()
    }

    /// Scheduling state.
    pub fn state(&self) -> &ProcessState {
        &self.state
    }

    /// Whether the process has finished (exited or killed).
    pub fn is_dead(&self) -> bool {
        self.state.is_dead()
    }

    /// Whether the process is a server.
    pub fn is_server(&self) -> bool {
        matches!(self.body, ProcessBody::Server(_))
    }

    /// The guest machine, if a user process.
    pub fn machine_mut(&mut self) -> Option<&mut Machine> {
        match &mut self.body {
            ProcessBody::User(m) => Some(&mut **m),
            ProcessBody::Server(_) => None,
        }
    }

    /// The guest machine, if a user process (shared).
    pub fn machine(&self) -> Option<&Machine> {
        match &self.body {
            ProcessBody::User(m) => Some(&**m),
            ProcessBody::Server(_) => None,
        }
    }
}

impl World {
    /// Installs a newly built process on `cid`, counting a live user
    /// unless it is a server. Returns the PCB whose slot it took: only a
    /// dead one may be replaced (fork replay, promotion).
    pub(crate) fn admit(&mut self, cid: ClusterId, pcb: Pcb) -> Option<Box<Pcb>> {
        let c = &mut self.clusters[cid.0 as usize];
        if !pcb.is_server() {
            c.live_users += 1;
            if c.alive {
                self.live_users_total += 1;
            }
        }
        let prev = c.procs.insert(pcb.pid, Box::new(pcb));
        debug_assert!(prev.as_ref().is_none_or(|p| p.is_dead()), "admitted over a live process");
        prev
    }

    /// Moves `pid` on `cid` to `to` and performs the side effects the
    /// lifecycle table ([`ProcessState::allowed`]) gives that step:
    /// run-queue membership, the blocked-wait ledger, the run token and
    /// the live-user count.
    pub(crate) fn transition(&mut self, cid: ClusterId, pid: Pid, to: ProcessState) {
        use ProcessState::{Blocked, Exited, Idle, Killed, Runnable, Running};
        let now = self.now();
        let c = &mut self.clusters[cid.0 as usize];
        let Some(pcb) = c.procs.get_mut(&pid) else {
            return;
        };
        debug_assert!(
            ProcessState::allowed(Some(&pcb.state), &to),
            "{pid}: undeclared transition {:?} -> {to:?}",
            pcb.state
        );
        let from = std::mem::replace(&mut pcb.state, to);
        match (from, &pcb.state) {
            (_, Running) => pcb.run_token += 1,
            (_, Exited(_) | Killed) => {
                pcb.run_token += 1;
                let user = !pcb.is_server();
                c.unqueue(pid);
                if user {
                    c.live_users -= 1;
                    if c.alive {
                        self.live_users_total -= 1;
                    }
                }
            }
            (Running, Runnable) | (_, Idle) | (Blocked(_), Blocked(_)) => {}
            (_, Blocked(_)) => {
                pcb.wait_from.get_or_insert(now);
                c.unqueue(pid);
            }
            (Blocked(_), Runnable) => {
                if let Some(t0) = pcb.wait_from.take() {
                    let d = now.since(t0);
                    pcb.total_wait += d;
                    pcb.waits += 1;
                    pcb.max_wait = pcb.max_wait.max(d);
                    self.stats.record_wait(d);
                }
                c.make_runnable(pid);
            }
            (_, Runnable) => c.make_runnable(pid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, Side};
    use auros_vm::ProgramBuilder;

    fn pcb() -> Pcb {
        let m = Machine::new(ProgramBuilder::new("t").build());
        let body = ProcessBody::User(Box::new(m));
        Pcb::new(Pid(1), body, BackupMode::Quarterback, ProcessState::Runnable)
    }

    #[test]
    fn fd_allocation_is_sequential() {
        let mut p = pcb();
        assert_eq!(p.alloc_fd(), Fd(0));
        assert_eq!(p.alloc_fd(), Fd(1));
        assert_eq!(p.next_fd, 2);
    }

    #[test]
    fn dead_states() {
        assert!(!pcb().is_dead());
        assert!(ProcessState::Exited(0).is_dead());
        assert!(ProcessState::Killed.is_dead());
    }

    /// Every transition the kernel makes is declared, and nothing leaves
    /// a dead state.
    #[test]
    fn transition_table() {
        use BlockState::*;
        use ProcessState::*;
        let call = PendingCall::Open { fd: Fd(2) };
        let end = ChanEnd { channel: ChannelId::bootstrap(Pid(1), 0), side: Side::A };
        let (read, pending) = (Blocked(Read { end }), Blocked(Pending(call.clone())));
        let gated = |then| Blocked(AwaitBackup { then });
        for to in [Runnable, Idle, pending.clone(), gated(None)] {
            assert!(ProcessState::allowed(None, &to), "born {to:?}");
        }
        let made = [
            (Runnable, Running),                  // dispatch
            (Running, Runnable),                  // quantum end
            (Running, Idle),                      // server step done
            (Idle, Runnable),                     // work for a server
            (Runnable, Runnable),                 // requeue after a trap
            (read.clone(), Runnable),             // wake
            (gated(None), Runnable),              // gate released
            (gated(Some(call)), pending.clone()), // gate opens into its call
            (Runnable, read.clone()),             // a trap blocks
            (Runnable, pending.clone()),          // a request left
            (Runnable, Exited(0)),                // exit
            (Running, Killed),                    // partial failure
            (pending, Killed),                    // poison, signal
        ];
        for (from, to) in &made {
            assert!(ProcessState::allowed(Some(from), to), "{from:?} -> {to:?}");
            for dead in [Exited(0), Killed] {
                assert!(!ProcessState::allowed(Some(&dead), from), "{dead:?} -> {from:?}");
                assert!(!ProcessState::allowed(Some(&dead), to), "{dead:?} -> {to:?}");
            }
        }
        assert!(!ProcessState::allowed(Some(&Idle), &read), "servers never block");
        assert!(!ProcessState::allowed(Some(&Running), &Running));
        assert!(!ProcessState::allowed(Some(&Runnable), &gated(None)), "only promotion gates");
    }

    #[test]
    fn backup_status_cluster() {
        use auros_bus::ClusterId;
        assert_eq!(BackupStatus::Deferred { cluster: ClusterId(1) }.cluster(), Some(ClusterId(1)));
        assert_eq!(BackupStatus::Rebuild { cluster: ClusterId(3) }.cluster(), Some(ClusterId(3)));
        assert_eq!(BackupStatus::At(ClusterId(2)).cluster(), Some(ClusterId(2)));
        assert_eq!(BackupStatus::None.cluster(), None);
    }
}
