//! Process control blocks and process state.
//!
//! A PCB holds what the paper's combined UNIX user/process structures
//! hold, split into *cluster-independent* state (fd table, bunch groups,
//! signal dispositions, read counts — everything that rides in a sync
//! message) and *environmental* state (scheduling hooks, residency) that
//! a backup must never depend on (§7.5).

use std::collections::BTreeMap;

use auros_bus::proto::{BackupMode, ChanEnd, PendingCall};
use auros_bus::{Fd, Pid, Sig};
use auros_sim::VTime;
use auros_vm::Machine;

use crate::server::ServerLogic;

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

/// Where this process stands with respect to backup protection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackupStatus {
    /// Backup cluster assigned but no backup created yet (creation is
    /// deferred to the first sync, §7.7).
    Deferred {
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
            BackupStatus::Deferred { cluster } | BackupStatus::At(cluster) => Some(*cluster),
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
    /// Scheduling state.
    pub state: ProcessState,
    /// fd table.
    pub fds: BTreeMap<Fd, ChanEnd>,
    /// Next fd to hand out (replay-stable).
    pub next_fd: u32,
    /// Bunch groups: group id → member fds in addition order.
    pub bunches: BTreeMap<u64, Vec<Fd>>,
    /// Signal dispositions: signal → handler pc; `0` = ignore; absent =
    /// default (terminate).
    pub handlers: BTreeMap<Sig, u32>,
    /// The process's signal channel end (side A, owner = this process).
    pub signal_end: ChanEnd,
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
    /// When the current quantum started (for ledgers).
    pub quantum_start: VTime,
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
    /// The next sync must carry full rebuild info (program + channel
    /// table + queue transfer) because a fresh backup is being created
    /// at a new cluster (§7.10.1 step 3, halfback re-protection).
    pub rebuild_pending: bool,
}

impl Pcb {
    /// Creates a PCB around a body; caller wires channels afterwards.
    pub fn new(pid: Pid, body: ProcessBody, mode: BackupMode, signal_end: ChanEnd) -> Pcb {
        Pcb {
            pid,
            body,
            state: ProcessState::Runnable,
            fds: BTreeMap::new(),
            next_fd: 0,
            bunches: BTreeMap::new(),
            handlers: BTreeMap::new(),
            signal_end,
            mode,
            backup: BackupStatus::None,
            sync_seq: 0,
            reads_since_sync: 0,
            fuel_since_sync: 0,
            closed_since_sync: Vec::new(),
            fork_count: 0,
            children: Vec::new(),
            parent: None,
            quantum_start: VTime::ZERO,
            wait_from: None,
            total_wait: auros_sim::Dur::ZERO,
            waits: 0,
            max_wait: auros_sim::Dur::ZERO,
            run_token: 0,
            device_pending: false,
            pending_nondet: Vec::new(),
            nondet_replay: std::collections::VecDeque::new(),
            checkpoint_debt: auros_sim::Dur::ZERO,
            rebuild_pending: false,
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

    /// Whether the process has finished (exited or killed).
    pub fn is_dead(&self) -> bool {
        matches!(self.state, ProcessState::Exited(_) | ProcessState::Killed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, Side};
    use auros_vm::ProgramBuilder;

    fn pcb() -> Pcb {
        let m = Machine::new(ProgramBuilder::new("t").build());
        let end = ChanEnd { channel: ChannelId::bootstrap(Pid(1), 0), side: Side::A };
        Pcb::new(Pid(1), ProcessBody::User(Box::new(m)), BackupMode::Quarterback, end)
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
        let mut p = pcb();
        assert!(!p.is_dead());
        p.state = ProcessState::Exited(0);
        assert!(p.is_dead());
        p.state = ProcessState::Killed;
        assert!(p.is_dead());
    }

    #[test]
    fn backup_status_cluster() {
        use auros_bus::ClusterId;
        assert_eq!(BackupStatus::Deferred { cluster: ClusterId(1) }.cluster(), Some(ClusterId(1)));
        assert_eq!(BackupStatus::At(ClusterId(2)).cluster(), Some(ClusterId(2)));
        assert_eq!(BackupStatus::None.cluster(), None);
    }
}
