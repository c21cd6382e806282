//! Per-cluster kernel state.
//!
//! Each cluster runs its own independent, *unsynchronized* copy of the
//! kernel (§7.2): a scheduler over the cluster's work processors, the
//! routing table, the outgoing queue drained by the executive processor,
//! the stored backup records, and the birth notices that drive fork
//! replay (§7.7).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use auros_bus::proto::{BackupMode, KernelState, SharedImage};
use auros_bus::{ClusterId, Frame, Pid};
use auros_sim::VTime;
use auros_vm::Program;

use crate::process::Pcb;
use crate::routing::{Failure, RoutingTable};

/// The stored image of an inactive backup process.
///
/// A backup "consists of a process control block … less the kernel stack,
/// and a backup page account kept by the page server" (§7.7). The page
/// account lives at the page server; everything else is here.
#[derive(Debug)]
pub struct BackupRecord {
    /// The protected process.
    pub pid: Pid,
    /// Cluster currently hosting the primary; crash handling promotes
    /// every backup whose primary ran in the dead cluster (§7.10.1).
    pub primary_cluster: ClusterId,
    /// Process image as of the last sync; shared with the sync record
    /// it came from (copy-on-write — promotion clones the concrete
    /// image exactly once).
    pub image: SharedImage,
    /// Kernel-kept state as of the last sync, shared likewise.
    pub kstate: Arc<KernelState>,
    /// Program text (user processes).
    pub program: Option<Program>,
    /// Backup mode.
    pub mode: BackupMode,
    /// Sync generation this record represents.
    pub sync_seq: u64,
    /// Pid of the parent, for family bookkeeping.
    pub parent: Option<Pid>,
}

/// A birth notice stored at the backup cluster (§7.7): "In case of crash,
/// the birth notice is used during repetition of the fork to give the new
/// child the same process id as its primary."
#[derive(Debug)]
pub struct BirthRecord {
    /// The child's pid.
    pub child: Pid,
    /// The child's program.
    pub program: Program,
    /// The child's backup mode.
    pub mode: BackupMode,
    /// Set when the child's first sync arrives — the child then has a
    /// real backup and a replayed fork must not recreate it.
    pub child_synced: bool,
    /// Set when the child exits — a replayed fork returns the pid but
    /// must not resurrect a process whose work is already complete.
    pub child_exited: bool,
}

/// A server's location triple: (pid, primary cluster, backup cluster).
pub type ServerLoc = Option<(Pid, ClusterId, Option<ClusterId>)>;

/// Locations of the global servers, as known to one cluster's kernel.
///
/// Maintained by the world at build time and repaired during crash
/// handling. Kernels use it to aim kernel-port RPCs (paging, placement).
#[derive(Clone, Debug, Default)]
pub struct Directory {
    /// Page server location.
    pub pager: ServerLoc,
    /// File server location.
    pub fs: ServerLoc,
    /// Process server location.
    pub procserver: ServerLoc,
}

impl Directory {
    /// Repairs the directory after `dead` crashed: any server whose
    /// primary was there is now served by its backup.
    pub fn repair_after_crash(&mut self, dead: ClusterId) {
        for slot in [&mut self.pager, &mut self.fs, &mut self.procserver] {
            if let Some((pid, primary, mut backup)) = *slot {
                let mut at = Some(primary);
                Failure::Cluster(dead).fail_over(pid, &mut at, &mut backup);
                *slot = at.map(|p| (pid, p, backup));
            }
        }
    }
}

/// A frame waiting for permission to leave the cluster.
#[derive(Debug)]
pub struct PendingFrame {
    /// The frame.
    pub frame: Frame,
    /// When it became ready to transmit.
    pub ready_at: VTime,
}

/// One cluster: kernel state plus scheduling bookkeeping.
#[derive(Debug)]
pub struct Cluster {
    /// This cluster's id.
    pub id: ClusterId,
    /// `false` after a crash (until restored).
    pub alive: bool,
    /// Virtual time of the crash, if any (frames whose transmission had
    /// not begun by then are lost with the cluster).
    pub crashed_at: Option<VTime>,
    /// The routing table.
    pub routing: RoutingTable,
    /// Primary processes resident here.
    pub procs: BTreeMap<Pid, Box<Pcb>>,
    /// Inactive backups stored here.
    pub backups: BTreeMap<Pid, BackupRecord>,
    /// Birth notices, keyed by (parent, fork index).
    pub births: BTreeMap<(Pid, u64), BirthRecord>,
    /// Run queue.
    pub runnable: VecDeque<Pid>,
    /// Membership index of [`Cluster::runnable`], so enqueue/dequeue
    /// stay `O(log n)` instead of scanning the deque.
    queued: BTreeSet<Pid>,
    /// Resident primaries that are neither servers nor dead. Summed
    /// fleet-wide by the world so completion checks need no fleet scan.
    pub live_users: u64,
    /// Per-work-processor next-free time.
    pub work_free: Vec<VTime>,
    /// Executive-processor next-free time.
    pub exec_free: VTime,
    /// `true` while outgoing transmission is disabled during crash
    /// handling (§7.10.1).
    pub outgoing_disabled: bool,
    /// Frames queued while transmission is disabled.
    pub outgoing_held: VecDeque<PendingFrame>,
    /// End of the current crash-handling window, while one is active.
    pub crash_busy_until: Option<VTime>,
    /// Fire time of the `Dispatch` event a saturated scheduler queued
    /// for this cluster, until that tick's event fires. A second one at
    /// the same tick could do no work, so none is queued. Only the world
    /// writes it: it must name an event that is still in the queue.
    pub(crate) dispatch_at: Option<VTime>,
    /// Server locations as known here.
    pub directory: Directory,
    /// Promoted fullbacks awaiting placement answers: pid → dead cluster.
    pub awaiting_placement: BTreeMap<Pid, ClusterId>,
    /// Server sends deferred because the destination channel is
    /// unusable pending fullback re-creation; retried on BackupCreated.
    pub deferred_sends: Vec<(Pid, auros_bus::proto::ChanEnd, auros_bus::Payload)>,
    /// §10 extension: nondeterministic-event results piggybacked on
    /// messages whose senders are backed up here, replayed at promotion.
    pub nondet_logs: BTreeMap<Pid, VecDeque<u64>>,
}

impl Cluster {
    /// Creates an empty, healthy cluster.
    pub fn new(id: ClusterId, work_processors: u8) -> Cluster {
        Cluster {
            id,
            alive: true,
            crashed_at: None,
            routing: RoutingTable::new(),
            procs: BTreeMap::new(),
            backups: BTreeMap::new(),
            births: BTreeMap::new(),
            runnable: VecDeque::new(),
            queued: BTreeSet::new(),
            live_users: 0,
            work_free: vec![VTime::ZERO; work_processors as usize],
            exec_free: VTime::ZERO,
            outgoing_disabled: false,
            outgoing_held: VecDeque::new(),
            crash_busy_until: None,
            dispatch_at: None,
            directory: Directory::default(),
            awaiting_placement: BTreeMap::new(),
            deferred_sends: Vec::new(),
            nondet_logs: BTreeMap::new(),
        }
    }

    /// Index of a work processor free at `now`, if any.
    pub fn free_worker(&self, now: VTime) -> Option<usize> {
        self.work_free.iter().position(|&t| t <= now)
    }

    /// The earliest time any work processor becomes free.
    pub fn next_worker_free(&self) -> VTime {
        self.work_free.iter().copied().min().unwrap_or(VTime::ZERO)
    }

    /// Enqueues `pid` on the run queue unless already queued.
    pub fn make_runnable(&mut self, pid: Pid) {
        if self.queued.insert(pid) {
            self.runnable.push_back(pid);
        }
    }

    /// Removes a process from the run queue.
    pub fn unqueue(&mut self, pid: Pid) {
        if self.queued.remove(&pid) {
            self.runnable.retain(|p| *p != pid);
        }
    }

    /// Dequeues the next runnable process in FIFO order.
    pub fn take_runnable(&mut self) -> Option<Pid> {
        let pid = self.runnable.pop_front()?;
        self.queued.remove(&pid);
        Some(pid)
    }

    /// Fire time of the `Dispatch` queued for this cluster, if one is
    /// pending.
    pub fn dispatch_at(&self) -> Option<VTime> {
        self.dispatch_at
    }

    /// Whether crash handling currently occupies the work processors.
    pub fn in_crash_handling(&self, now: VTime) -> bool {
        self.crash_busy_until.is_some_and(|t| t > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_worker_tracks_busy_times() {
        let mut c = Cluster::new(ClusterId(0), 2);
        assert_eq!(c.free_worker(VTime(0)), Some(0));
        c.work_free[0] = VTime(10);
        assert_eq!(c.free_worker(VTime(5)), Some(1));
        c.work_free[1] = VTime(20);
        assert_eq!(c.free_worker(VTime(5)), None);
        assert_eq!(c.next_worker_free(), VTime(10));
        assert_eq!(c.free_worker(VTime(10)), Some(0));
    }

    #[test]
    fn runnable_queue_deduplicates() {
        let mut c = Cluster::new(ClusterId(0), 1);
        c.make_runnable(Pid(1));
        c.make_runnable(Pid(2));
        c.make_runnable(Pid(1));
        assert_eq!(c.runnable.len(), 2);
        c.unqueue(Pid(1));
        assert_eq!(c.runnable, VecDeque::from(vec![Pid(2)]));
    }

    #[test]
    fn directory_repair_switches_to_backup() {
        let mut d = Directory {
            pager: Some((Pid(1), ClusterId(0), Some(ClusterId(1)))),
            fs: Some((Pid(2), ClusterId(0), Some(ClusterId(1)))),
            procserver: Some((Pid(3), ClusterId(2), Some(ClusterId(0)))),
        };
        d.repair_after_crash(ClusterId(0));
        assert_eq!(d.pager, Some((Pid(1), ClusterId(1), None)));
        assert_eq!(d.fs, Some((Pid(2), ClusterId(1), None)));
        assert_eq!(d.procserver, Some((Pid(3), ClusterId(2), None)));
    }

    #[test]
    fn directory_repair_drops_unprotected_server() {
        let mut d = Directory { pager: Some((Pid(1), ClusterId(0), None)), ..Directory::default() };
        d.repair_after_crash(ClusterId(0));
        assert_eq!(d.pager, None);
    }

    #[test]
    fn crash_handling_window() {
        let mut c = Cluster::new(ClusterId(0), 2);
        assert!(!c.in_crash_handling(VTime(5)));
        c.crash_busy_until = Some(VTime(10));
        assert!(c.in_crash_handling(VTime(5)));
        assert!(!c.in_crash_handling(VTime(10)));
    }
}
