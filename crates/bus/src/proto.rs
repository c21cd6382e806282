//! The wire protocol: everything that travels in a frame's payload.
//!
//! One module holds every protocol message spoken in the system — user
//! data, the file/raw/tty server family, the page server, the process
//! server, and kernel-to-kernel control traffic (sync messages, birth
//! notices, backup-creation notices). Servers and kernels match on
//! [`Payload`] variants; there is no hidden side channel.

use std::sync::Arc;

use auros_vm::{PageNo, Program, Snapshot, PAGE_SIZE};

use crate::bytes::SharedBytes;
use crate::frame::Message;
use crate::ids::{ChannelName, ClusterId, Fd, Pid, Sig};

/// A globally unique channel identifier.
///
/// Identifiers are *derived*, never centrally allocated, so that a
/// promoted backup re-executing an allocation obtains the same value:
/// per-process bootstrap channels are derived from the (replay-stable)
/// pid, and file-server-paired channels from the file server's synced
/// counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u64);

impl ChannelId {
    /// The n'th bootstrap channel of process `pid` (signal, file server,
    /// process server …).
    pub fn bootstrap(pid: Pid, n: u8) -> ChannelId {
        // Upper bit distinguishes derived bootstrap ids from allocated ids.
        ChannelId((1 << 63) | (pid.0 << 4) | n as u64)
    }

    /// An id allocated by `allocator` (a server) from its synced counter.
    pub fn allocated(allocator: Pid, counter: u32) -> ChannelId {
        ChannelId((allocator.0 << 32) ^ counter as u64)
    }
}

/// Which end of a channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Side {
    /// The first opener (or the client of a server port).
    A,
    /// The second opener (or the server).
    B,
}

impl Side {
    /// The opposite side.
    pub fn peer(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

/// One end of a channel: what a routing-table entry represents.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChanEnd {
    /// The channel.
    pub channel: ChannelId,
    /// Which side this end is.
    pub side: Side,
}

impl ChanEnd {
    /// The other end of the same channel.
    pub fn peer(self) -> ChanEnd {
        ChanEnd { channel: self.channel, side: self.side.peer() }
    }
}

impl From<ChanEnd> for auros_sim::TraceEnd {
    fn from(end: ChanEnd) -> auros_sim::TraceEnd {
        auros_sim::TraceEnd { channel: end.channel.0, side_b: end.side == Side::B }
    }
}

/// How a process is backed up (§7.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BackupMode {
    /// Backed up until a crash; no new backup afterwards. The default.
    #[default]
    Quarterback,
    /// New backup created only when the crashed cluster returns to
    /// service (peripheral servers).
    Halfback,
    /// New backup created before the new primary begins executing.
    Fullback,
}

/// A page's contents on the wire; `Arc` so that multi-cluster delivery
/// does not copy page data per target.
pub type PageBlob = Arc<[u8; PAGE_SIZE]>;

/// Which service sits behind a server port; determines syscall semantics
/// on the client side (§7.5.1: writes to a file "cannot return until that
/// answer arrives" while user-to-user writes return immediately).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceKind {
    /// File server: reads/writes are request/reply.
    File,
    /// Raw disk server: like a file but block-addressed.
    Raw,
    /// Terminal server: writes stream out, reads await queued input.
    Tty,
    /// Process server: time/alarm/kill/status.
    Proc,
}

/// Kinds of channel, recorded in routing entries and channel-init
/// descriptors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChanKind {
    /// Ordinary user-to-user channel.
    UserUser,
    /// A channel whose B side is a server process; client syscall
    /// behaviour is determined by the service kind (§7.5.1).
    ServerPort(ServiceKind),
    /// A process's signal channel (§7.5.2).
    Signal,
    /// A kernel's RPC port to a server (paging traffic, placement
    /// queries, §7.6); the A side owner is a kernel pseudo-pid.
    KernelPort,
}

/// Where one channel end's peer lives (§7.4.1): the routing entries of
/// both ends of a channel, primary and backup, each hold one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Peer {
    /// The peer process.
    pub pid: Pid,
    /// Cluster currently hosting the peer's primary; `None` once the peer
    /// is gone for good (§7.10.1 step 1).
    pub primary: Option<ClusterId>,
    /// Cluster hosting the peer's backup, if the peer is backed up.
    pub backup: Option<ClusterId>,
    /// The peer's backup mode; crash handling needs it to know whether a
    /// channel must be marked unusable until a new backup exists
    /// (fullbacks, §7.10.1 step 1).
    pub mode: BackupMode,
}

impl Peer {
    /// A peer `pid` whose primary runs in `primary`.
    pub fn new(pid: Pid, primary: ClusterId, backup: Option<ClusterId>, mode: BackupMode) -> Peer {
        Peer { pid, primary: Some(primary), backup, mode }
    }

    /// The clusters holding the peer's entries: its primary's, then its
    /// backup's.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> {
        self.primary.into_iter().chain(self.backup)
    }
}

/// Everything a cluster needs to materialize one routing-table entry.
#[derive(Clone, Debug)]
pub struct ChannelInit {
    /// The end the entry represents.
    pub end: ChanEnd,
    /// Owning process of this end.
    pub owner: Pid,
    /// The owner's fd bound to this end, if user-visible.
    pub fd: Option<Fd>,
    /// Where the peer lives.
    pub peer: Peer,
    /// Cluster hosting the owner's backup entry, if the owner is backed up.
    pub owner_backup: Option<ClusterId>,
    /// Channel kind.
    pub kind: ChanKind,
}

/// An opaque process image carried in sync records.
///
/// User processes snapshot their VM ([`auros_vm::Snapshot`]); server
/// processes snapshot their whole state object. The kernel downcasts on
/// restore.
pub trait ProcessImage: std::fmt::Debug + Send + Sync {
    /// Deep-copies the image.
    fn clone_box(&self) -> Box<dyn ProcessImage>;
    /// Downcast support.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Approximate serialized size, for bus cost accounting.
    fn wire_size(&self) -> usize;
}

impl Clone for Box<dyn ProcessImage> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A checkpoint image shared copy-on-write between the sync record in
/// flight, the backup record it updates, and any rebuild traffic.
/// Images are immutable once taken, so sharing is safe; the promote
/// path downcasts and clones the concrete image exactly once, when a
/// backup actually becomes a primary.
pub type SharedImage = Arc<dyn ProcessImage>;

impl ProcessImage for Snapshot {
    fn clone_box(&self) -> Box<dyn ProcessImage> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn wire_size(&self) -> usize {
        Snapshot::wire_size(self)
    }
}

/// A system call that had already produced its side effect (a request
/// message left the cluster) when the process was synchronized while
/// blocked awaiting the answer. The promoted backup must *not* re-issue
/// the request — the answer is in its saved queue — so the pending call
/// rides in the sync record and is completed from the queue on replay.
///
/// Calls with no pre-block side effect (`read`, `which`, `fork` waiting
/// on pages) need no record: the program counter is left *on* the trap
/// instruction, which simply re-executes after promotion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PendingCall {
    /// Blocked in `open` awaiting the file server's open reply; `fd` is
    /// the descriptor that will be bound (§7.4.1).
    Open {
        /// The descriptor to bind.
        fd: Fd,
    },
    /// Blocked in a write-like call awaiting a server reply on `end`;
    /// reply data (file reads) is copied to the guest buffer.
    WriteReply {
        /// The channel awaiting its reply.
        end: ChanEnd,
        /// Guest buffer for reply data.
        buf: u64,
        /// Capacity of that buffer.
        cap: u64,
    },
}

/// Cluster-independent kernel-kept process state, carried in sync
/// records so the backup cluster can rebind fds, trim queues, and replay
/// correctly (§7.8).
#[derive(Clone, Debug, Default)]
pub struct KernelState {
    /// Full fd table: fd → channel end.
    pub fds: Vec<(Fd, ChanEnd)>,
    /// Bunch groups: group id → member fds, in addition order (§7.5.1).
    pub bunches: Vec<(u64, Vec<Fd>)>,
    /// Installed signal handlers: signal → instruction index; absence
    /// means default (terminate), zero means ignore.
    pub handlers: Vec<(Sig, u32)>,
    /// Number of forks performed, for replay-stable child pids.
    pub fork_count: u64,
    /// Next fd number to hand out.
    pub next_fd: u32,
    /// In-progress blocking call whose request already left the cluster.
    pub pending: Option<PendingCall>,
}

impl KernelState {
    fn wire_size(&self) -> usize {
        self.fds.len() * 12
            + self.bunches.iter().map(|(_, v)| 8 + v.len() * 4).sum::<usize>()
            + self.handlers.len() * 5
            + 12
            + self.pending.as_ref().map_or(0, |_| 24)
    }
}

/// The synchronization record (§7.8's "sync message").
#[derive(Clone, Debug)]
pub struct SyncRecord {
    /// The syncing process.
    pub pid: Pid,
    /// Monotonic sync generation, starting at 1.
    pub sync_seq: u64,
    /// CPU/image state as of the sync point (shared, copy-on-write).
    pub image: SharedImage,
    /// Kernel-kept cluster-independent state (shared, copy-on-write).
    pub kstate: Arc<KernelState>,
    /// Reads done since the last sync, per channel end — the backup
    /// discards that many saved messages (§5.2, §7.8).
    pub reads_since_sync: Vec<(ChanEnd, u64)>,
    /// Suppression budget still unspent at sync time, per end. Normally
    /// empty, so the backup's writes-since-sync counts are zeroed (§5.2);
    /// a primary syncing *during rollforward* still owes skipped sends
    /// for messages its predecessor transmitted, and the new sync point
    /// must preserve that debt or a second replay would duplicate them.
    pub residual_suppress: Vec<(ChanEnd, u64)>,
    /// Channels closed since the last sync; their backup entries are
    /// removed.
    pub closed: Vec<ChanEnd>,
    /// Program text plus full channel table; present on the first sync to
    /// a cluster (backup creation) or when rebuilding a fullback's backup
    /// at a new cluster after a crash.
    pub rebuild: Option<RebuildInfo>,
}

/// One saved backup queue: a channel end with its `(write_seq, message)`
/// pairs, as captured at the last sync.
pub type SavedQueue = (ChanEnd, Vec<(u64, Message)>);

/// Text and channel table for (re)creating a backup from scratch.
#[derive(Clone, Debug)]
pub struct RebuildInfo {
    /// `true` when this rebuild re-protects a process after a crash: the
    /// receiving cluster must broadcast `BackupCreated` so correspondents
    /// unmark unusable channels (§7.10.1). A routine first sync (deferred
    /// backup creation, §7.7) carries `false` — peers were wired with the
    /// backup cluster from birth and nothing waits on an announcement.
    pub announce: bool,
    /// The program text (models fetching text pages from the file server
    /// rather than the page server, §7.6).
    pub program: Option<Program>,
    /// Backup mode of the process.
    pub mode: BackupMode,
    /// Every channel entry the backup cluster must hold.
    pub channels: Vec<ChannelInit>,
    /// Saved-queue transfer when a fullback's backup is recreated at a
    /// *new* cluster after a crash: the promoted primary copies its saved
    /// messages and residual write counts so the fresh backup offers the
    /// same protection the old one did. (The paper does not spell this
    /// step out; without it a second failure before the next sync would
    /// lose the saved messages.) Shared: the receiving cluster replays
    /// from the same buffers the sender captured.
    pub queues: Arc<Vec<SavedQueue>>,
    /// Residual suppression counts per end, transferred with the queues.
    pub write_counts: Vec<(ChanEnd, u64)>,
}

impl SyncRecord {
    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        8 + 8
            + self.image.wire_size()
            + self.kstate.wire_size()
            + self.reads_since_sync.len() * 16
            + self.closed.len() * 9
            + self.rebuild.as_ref().map_or(0, |r| {
                64 + r.channels.len() * 32
                    + r.queues
                        .iter()
                        .map(|(_, q)| q.iter().map(|(_, m)| 8 + m.wire_size()).sum::<usize>())
                        .sum::<usize>()
                    + r.write_counts.len() * 16
            })
    }
}

/// Birth notice (§7.7): sent to the cluster of the forking process's
/// backup when a fork occurs.
#[derive(Clone, Debug)]
pub struct BirthNotice {
    /// The forking process.
    pub parent: Pid,
    /// Which fork of the parent this is (0-based).
    pub fork_index: u64,
    /// The child's globally unique pid.
    pub child: Pid,
    /// The child's program (same text as the parent).
    pub program: Program,
    /// The child's backup mode.
    pub mode: BackupMode,
    /// Backup routing entries for the channels created on fork (the
    /// child's bootstrap channels) — "they must be there to receive backup
    /// copies of messages sent to the primary" (§7.7).
    pub bootstrap: Vec<ChannelInit>,
}

/// Kernel-to-kernel control traffic.
#[derive(Clone, Debug)]
pub enum Control {
    /// A process synchronization (§7.8). Also read by the page server,
    /// which makes the backup page account identical to the primary's.
    /// `Arc`: the record (image, kernel state, rebuild queues) is built
    /// once and shared by every cluster the frame reaches.
    Sync(Arc<SyncRecord>),
    /// A fork occurred (§7.7). `Arc` for the same reason — the program
    /// text inside must not be re-cloned per delivery target.
    Birth(Arc<BirthNotice>),
    /// A new backup exists for `pid` at `cluster`; correspondents repair
    /// routing and unblock fullback channels (§7.10.1 step 1).
    BackupCreated {
        /// The re-protected process.
        pid: Pid,
        /// Where its new backup lives.
        cluster: ClusterId,
    },
    /// Create routing-table entries for a channel end at the receiving
    /// cluster (server-side ports of a forked child's bootstrap
    /// channels). The receiver compares its own id against the two
    /// placement fields to pick the entry role.
    CreatePort {
        /// Cluster that must hold the primary entry.
        primary_at: ClusterId,
        /// Cluster that must hold the backup entry, if any.
        backup_at: Option<ClusterId>,
        /// The entry descriptor.
        init: ChannelInit,
    },
    /// The named end was closed by its owner; the peer's entries mark
    /// the peer gone (writes fail; reads drain the queue then fail).
    ChannelClosed {
        /// The closed end.
        end: ChanEnd,
    },
    /// The process exited or was killed; its backup record, backup
    /// entries, and page accounts are released.
    Exited {
        /// The finished process.
        pid: Pid,
    },
    /// Backpressure (§5.2's message-count trigger, driven from the
    /// backup side): the cluster holding `pid`'s backup message queue
    /// reports the queue near its configured bound. The primary's
    /// kernel must synchronize `pid` now, trimming the queue, instead
    /// of letting sustained wire faults grow it without limit.
    SyncDemand {
        /// The process whose backup queue is near its bound.
        pid: Pid,
    },
    /// §10 extension: a hardware failure killed this process *without*
    /// bringing its cluster down. Receivers repair their routing entries
    /// toward the backup, and the backup's cluster promotes it.
    ProcessFailed {
        /// The failed process.
        pid: Pid,
        /// The cluster whose hardware failed (excluded from fullback
        /// re-placement).
        at: ClusterId,
    },
}

/// Requests understood by the file server (§7.6, §7.4.1).
#[derive(Clone, Debug)]
pub enum FsRequest {
    /// Open a name: a file path or a rendezvous channel name.
    Open {
        /// The name being opened.
        name: ChannelName,
        /// The opening process.
        opener: Pid,
        /// Cluster hosting the opener's primary.
        opener_cluster: ClusterId,
        /// Cluster hosting the opener's backup entries, if backed up.
        opener_backup: Option<ClusterId>,
        /// The fd the opener's kernel will bind on success.
        opener_fd: Fd,
        /// The opener's backup mode (recorded in the peer's entry for
        /// crash handling, §7.10.1).
        opener_mode: BackupMode,
    },
    /// Read up to `len` bytes at the channel's cursor.
    FileRead {
        /// Maximum bytes to return.
        len: u32,
    },
    /// Write bytes at the channel's cursor.
    FileWrite {
        /// Data to write; shared so fan-out does not copy it.
        data: SharedBytes,
    },
    /// Reposition the channel's cursor.
    FileSeek {
        /// Absolute byte position.
        pos: u64,
    },
    /// Close the channel's file.
    CloseFile,
    /// Remove a file by name (sent on the opener's file-server port).
    Unlink {
        /// The path to remove.
        name: ChannelName,
    },
}

/// File server errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// Open of a rendezvous name timed out or the peer vanished.
    NoPeer,
    /// File does not exist and creation was not possible.
    NotFound,
    /// Device-level failure reported by the disk pair.
    Io,
}

/// Replies from the file server.
#[derive(Clone, Debug)]
pub enum FsReply {
    /// Successful open. The kernel (not the user program) consumes this:
    /// it creates the routing-table entry and binds the fd; the arrival of
    /// the backup copy at the backup cluster creates the backup entry
    /// (§7.4.1).
    OpenReply {
        /// The fd requested at open time.
        fd: Fd,
        /// Entry descriptor for the opener's end.
        init: ChannelInit,
    },
    /// Open failure.
    OpenFailed {
        /// The fd requested at open time.
        fd: Fd,
        /// Why.
        err: FsError,
    },
    /// Data returned by `FileRead` (empty at end of file).
    Data(SharedBytes),
    /// Byte count acknowledged for `FileWrite`.
    Ack(u64),
    /// Request-level error.
    Err(FsError),
}

/// Requests understood by the page server (§7.6).
#[derive(Clone, Debug)]
pub enum PagerRequest {
    /// A modified page flushed at sync (or eviction) time.
    PageOut {
        /// Owning process.
        pid: Pid,
        /// Which page.
        page: PageNo,
        /// Page contents.
        data: PageBlob,
    },
    /// Demand-page request from a kernel.
    PageIn {
        /// Owning process.
        pid: Pid,
        /// Which page.
        page: PageNo,
    },
    /// The process's primary crashed: its backup account becomes the
    /// primary account (recovery, §7.10.2).
    Promote {
        /// The promoted process.
        pid: Pid,
    },
    /// Duplicate the primary account into a fresh backup account (fullback
    /// re-creation at a new cluster).
    DuplicateAccount {
        /// The re-protected process.
        pid: Pid,
    },
    /// The process exited; drop both accounts.
    DropAccount {
        /// The exited process.
        pid: Pid,
    },
}

/// Replies from the page server.
#[derive(Clone, Debug)]
pub enum PagerReply {
    /// The requested page.
    Page {
        /// Owning process.
        pid: Pid,
        /// Which page.
        page: PageNo,
        /// Contents, or `None` if the account has no such page (the
        /// kernel then installs a zero page).
        data: Option<PageBlob>,
    },
    /// Generic acknowledgement.
    Ack,
}

/// Requests understood by the process server (§7.5.1, §7.6).
#[derive(Clone, Debug)]
pub enum ProcRequest {
    /// What time is it? Never answered by the local kernel (§7.5.1).
    Time,
    /// Deliver `SIGALRM` to the requester after `after` ticks (§7.5.2).
    /// Zero cancels a pending alarm.
    Alarm {
        /// Delay in ticks.
        after: u64,
    },
    /// Deliver a signal to another process's signal channel.
    Kill {
        /// Target process.
        target: Pid,
        /// Signal to deliver.
        sig: Sig,
    },
    /// Periodic report from a kernel: which pids it hosts (§7.6).
    Report {
        /// Reporting cluster.
        cluster: ClusterId,
        /// Primary processes resident there.
        pids: Vec<Pid>,
    },
    /// Where does `pid` run? (System status service.)
    WhereIs {
        /// The process asked about.
        pid: Pid,
    },
    /// Choose a cluster for a new fullback backup, avoiding `exclude`
    /// (§7.10.2: "the process server must be available to determine where
    /// new backups for fullbacks are to be located").
    PlaceBackup {
        /// The process needing a new backup.
        pid: Pid,
        /// Clusters that must not be chosen (the primary's, the dead one).
        exclude: Vec<ClusterId>,
    },
}

/// Replies from the process server.
#[derive(Clone, Debug)]
pub enum ProcReply {
    /// Current time in ticks.
    Time {
        /// The server's clock reading.
        now: u64,
    },
    /// Alarm accepted.
    AlarmSet,
    /// Kill outcome.
    Killed {
        /// Whether the target was known.
        ok: bool,
    },
    /// Location answer for `WhereIs`.
    Location {
        /// The process asked about.
        pid: Pid,
        /// Hosting cluster, if known.
        cluster: Option<ClusterId>,
    },
    /// Placement answer for `PlaceBackup`.
    Place {
        /// The process the placement is for (requests on a kernel port
        /// may be outstanding for several processes at once).
        pid: Pid,
        /// Chosen cluster, if any qualifies.
        cluster: Option<ClusterId>,
    },
}

/// Terminal-server control traffic (file server → tty server).
#[derive(Clone, Debug)]
pub enum TtyMsg {
    /// A user opened a terminal: bind the new channel end to the
    /// terminal line so input flows to the reader.
    Bind {
        /// The tty server's end of the new channel.
        end: ChanEnd,
        /// Terminal line number (from the `tty:N` name).
        term: u32,
        /// The opening process (control-C targets it, §7.5.2).
        reader: Pid,
    },
}

/// Everything that can ride in a frame.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Ordinary user data on a channel.
    Data(SharedBytes),
    /// An asynchronous signal on a signal channel (§7.5.2).
    Signal(Sig),
    /// File server request.
    Fs(FsRequest),
    /// File server reply.
    FsReply(FsReply),
    /// Page server request.
    Pager(PagerRequest),
    /// Page server reply.
    PagerReply(PagerReply),
    /// Process server request.
    Proc(ProcRequest),
    /// Process server reply.
    ProcReply(ProcReply),
    /// Terminal-server control.
    Tty(TtyMsg),
    /// Kernel-to-kernel control.
    Control(Control),
}

impl Payload {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            Payload::Data(d) => 4 + d.len(),
            Payload::Signal(_) => 2,
            Payload::Fs(FsRequest::Open { name, .. }) => 32 + name.as_str().len(),
            Payload::Fs(FsRequest::FileWrite { data }) => 8 + data.len(),
            Payload::Fs(FsRequest::Unlink { name }) => 12 + name.as_str().len(),
            Payload::Fs(_) => 16,
            Payload::FsReply(FsReply::Data(d)) => 4 + d.len(),
            Payload::FsReply(FsReply::OpenReply { .. }) => 64,
            Payload::FsReply(_) => 12,
            Payload::Pager(PagerRequest::PageOut { .. }) => 24 + PAGE_SIZE,
            Payload::Pager(_) => 20,
            Payload::PagerReply(PagerReply::Page { data, .. }) => {
                20 + data.as_ref().map_or(0, |_| PAGE_SIZE)
            }
            Payload::PagerReply(PagerReply::Ack) => 4,
            Payload::Proc(ProcRequest::Report { pids, .. }) => 12 + pids.len() * 8,
            Payload::Proc(_) => 16,
            Payload::ProcReply(_) => 12,
            Payload::Tty(TtyMsg::Bind { .. }) => 24,
            Payload::Control(Control::Sync(s)) => s.wire_size(),
            Payload::Control(Control::Birth(b)) => 48 + b.bootstrap.len() * 32,
            Payload::Control(Control::BackupCreated { .. }) => 12,
            Payload::Control(Control::CreatePort { .. }) => 40,
            Payload::Control(Control::ChannelClosed { .. }) => 12,
            Payload::Control(Control::Exited { .. }) => 10,
            Payload::Control(Control::SyncDemand { .. }) => 10,
            Payload::Control(Control::ProcessFailed { .. }) => 12,
        }
    }
}

/// Pseudo-pid namespace for kernels (they send paging RPCs but are not
/// processes).
pub fn kernel_pid(cluster: ClusterId) -> Pid {
    Pid((1 << 62) | cluster.0 as u64)
}

/// Returns `true` if `pid` is a kernel pseudo-pid.
pub fn is_kernel_pid(pid: Pid) -> bool {
    pid.0 & (1 << 62) != 0 && pid.0 & (1 << 63) == 0
}

/// Derives a replay-stable child pid from the parent and its fork count.
///
/// Uses a 64-bit mix; collisions are vanishingly unlikely at simulation
/// scale and are checked for at process creation.
pub fn derive_child_pid(parent: Pid, fork_index: u64) -> Pid {
    let mut z = parent.0 ^ fork_index.rotate_left(32) ^ 0x517c_c1b7_2722_0a95;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Clear the reserved namespaces (bootstrap-channel and kernel bits).
    Pid(z & !(0b11 << 62))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_channel_ids_differ_per_process_and_slot() {
        let a0 = ChannelId::bootstrap(Pid(1), 0);
        let a1 = ChannelId::bootstrap(Pid(1), 1);
        let b0 = ChannelId::bootstrap(Pid(2), 0);
        assert_ne!(a0, a1);
        assert_ne!(a0, b0);
    }

    #[test]
    fn chan_end_peer_flips_side() {
        let e = ChanEnd { channel: ChannelId(5), side: Side::A };
        assert_eq!(e.peer().side, Side::B);
        assert_eq!(e.peer().peer(), e);
    }

    #[test]
    fn derived_pids_are_stable_and_distinct() {
        let p = Pid(77);
        let c1 = derive_child_pid(p, 0);
        let c2 = derive_child_pid(p, 1);
        assert_eq!(c1, derive_child_pid(p, 0), "replay must derive the same pid");
        assert_ne!(c1, c2);
        assert!(!is_kernel_pid(c1));
    }

    #[test]
    fn kernel_pids_are_recognizable() {
        let k = kernel_pid(ClusterId(3));
        assert!(is_kernel_pid(k));
        assert!(!is_kernel_pid(Pid(3)));
    }

    #[test]
    fn payload_sizes_reflect_content() {
        let small = Payload::Data(vec![0; 10].into());
        let page = Payload::Pager(PagerRequest::PageOut {
            pid: Pid(1),
            page: PageNo(0),
            data: Arc::new([0u8; PAGE_SIZE]),
        });
        assert!(page.wire_size() > small.wire_size());
        assert!(page.wire_size() >= PAGE_SIZE);
    }

    #[test]
    fn snapshot_image_roundtrip() {
        let snap = Snapshot {
            regs: [0; 16],
            pc: 3,
            sig_stack: vec![],
            valid_pages: [PageNo(1)].into_iter().collect(),
            fuel_used: 10,
        };
        let image: Box<dyn ProcessImage> = Box::new(snap.clone());
        let copy = image.clone();
        let back = copy.as_any().downcast_ref::<Snapshot>().unwrap();
        assert_eq!(back, &snap);
    }
}
