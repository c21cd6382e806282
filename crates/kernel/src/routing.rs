//! The routing table (§7.4.1).
//!
//! "An entry in a cluster-local table, the routing table, defines one end
//! of a channel … A channel between two backed up processes consists of
//! four routing table entries, one for each primary and one for each
//! backup." Primary entries hold the live message queue and the
//! reads-since-sync count; backup entries hold the *saved* queue (read
//! only upon rollforward) and the writes-since-sync count that drives
//! duplicate-send suppression (§5.4).

use std::collections::{btree_map, BTreeMap, BTreeSet, VecDeque};

use auros_bus::proto::{BackupMode, ChanEnd, ChanKind, ChannelInit, Peer};
use auros_bus::{ClusterId, Message, Pid};

/// A message queued on an entry, with its cluster-arrival sequence number
/// (§7.5.1: "Messages are given sequence numbers on arrival at a cluster
/// so that the behavior of `which` can be replicated by the backup").
#[derive(Clone, Debug)]
pub struct Queued {
    /// Arrival sequence, unique per cluster and monotonically increasing.
    pub arrival_seq: u64,
    /// The message.
    pub msg: Message,
}

/// A primary routing-table entry: one live end of a channel.
#[derive(Debug)]
pub struct Entry {
    /// Owning process.
    pub owner: Pid,
    /// Channel kind.
    pub kind: ChanKind,
    /// Incoming queue, FIFO in arrival order.
    pub queue: VecDeque<Queued>,
    /// Reads done since the owner's last sync (reported in sync records
    /// so the backup can discard consumed messages, §5.2).
    pub reads_since_sync: u64,
    /// Where the peer lives (moved by [`RoutingTable::fail_over`]).
    pub peer: Peer,
    /// Cluster hosting the owner's backup entry.
    pub owner_backup: Option<ClusterId>,
    /// `false` while the peer is a fullback awaiting a new backup; writes
    /// block until notification arrives (§7.10.1).
    pub usable: bool,
    /// The peer exited or closed its end: writes fail, reads drain the
    /// remaining queue then fail.
    pub peer_closed: bool,
    /// Remaining sends to suppress during rollforward: initialized from
    /// the backup entry's writes-since-sync count at promotion (§5.4).
    pub suppress_writes: u64,
}

impl Entry {
    /// Creates an empty live entry from an init descriptor.
    pub fn from_init(init: &ChannelInit) -> Entry {
        Entry {
            owner: init.owner,
            kind: init.kind,
            queue: VecDeque::new(),
            reads_since_sync: 0,
            peer: init.peer,
            owner_backup: init.owner_backup,
            usable: true,
            peer_closed: false,
            suppress_writes: 0,
        }
    }
}

/// A backup routing-table entry: saved messages and the write count.
#[derive(Debug)]
pub struct BackupEntry {
    /// Owning process (whose backup lives in this cluster).
    pub owner: Pid,
    /// Channel kind.
    pub kind: ChanKind,
    /// Saved queue, read only upon rollforward after a failure (§5.1).
    pub queue: VecDeque<Queued>,
    /// Messages sent by the primary since its last sync (§5.4). Zeroed
    /// when a sync message arrives (§5.2).
    pub writes_since_sync: u64,
    /// Where the peer lives.
    pub peer: Peer,
    /// The peer exited or closed its end.
    pub peer_closed: bool,
    /// Backpressure latch: a sync has been demanded from the owner's
    /// primary because this queue reached its configured bound; cleared
    /// when the sync arrives and trims the queue. Prevents a demand
    /// storm while the sync is in flight.
    pub sync_demanded: bool,
}

impl BackupEntry {
    /// Creates an empty backup entry from an init descriptor.
    pub fn from_init(init: &ChannelInit) -> BackupEntry {
        BackupEntry {
            owner: init.owner,
            kind: init.kind,
            queue: VecDeque::new(),
            writes_since_sync: 0,
            peer: init.peer,
            peer_closed: false,
            sync_demanded: false,
        }
    }

    /// Converts into a live entry at promotion (§7.10.2): the saved queue
    /// becomes the live queue and the write count becomes the suppression
    /// budget. The promoted owner has no backup until re-protection.
    pub fn promote(self) -> Entry {
        Entry {
            owner: self.owner,
            kind: self.kind,
            queue: self.queue,
            reads_since_sync: 0,
            peer: self.peer,
            owner_backup: None,
            usable: true,
            peer_closed: self.peer_closed,
            suppress_writes: self.writes_since_sync,
        }
    }
}

/// What a failure took, as crash handling's step 1 sees it (§7.10.1).
#[derive(Clone, Copy, Debug)]
pub enum Failure {
    /// A cluster crashed: every primary and backup it hosted is gone.
    Cluster(ClusterId),
    /// One process failed; its cluster survives (§10).
    Process(Pid),
}

impl Failure {
    /// Whether the failure took a copy hosted at `at`.
    fn took(self, at: Option<ClusterId>) -> bool {
        matches!(self, Failure::Cluster(dead) if at == Some(dead))
    }

    /// The failover rule (§7.10.1 step 1), on peer `pid` located at
    /// `primary` and `backup`. If the failure took the peer's primary,
    /// the backup takes over, or, with no backup, the peer is gone
    /// (`primary` becomes `None`); a backup the failure took is cleared.
    /// Returns whether the primary was taken.
    pub fn fail_over(
        self,
        pid: Pid,
        primary: &mut Option<ClusterId>,
        backup: &mut Option<ClusterId>,
    ) -> bool {
        let lost = match self {
            Failure::Cluster(_) => self.took(*primary),
            Failure::Process(failed) => pid == failed,
        };
        if lost {
            *primary = backup.take();
        } else if self.took(*backup) {
            *backup = None;
        }
        lost
    }
}

/// One owner's ends in one table, and which of its live ends have
/// queued messages, unsynced reads or residual suppression.
#[derive(Debug, Default, PartialEq)]
struct Owned {
    /// Live ends.
    live: BTreeSet<ChanEnd>,
    /// Saved (backup) ends.
    saved: BTreeSet<ChanEnd>,
    /// Live ends with a queued message, by front arrival sequence.
    /// Answers "does this process have work" and "which end's front
    /// arrived earliest" in O(log n): a server cluster's table holds an
    /// end per process in the fleet, and both questions are asked on
    /// every delivery and every server step. Front sequences are unique
    /// per cluster, so the first key is the earliest front.
    ready: BTreeMap<u64, ChanEnd>,
    /// Live ends with `reads_since_sync > 0`. A sync record reports
    /// per-end read counts; at most `sync_max_reads` ends are dirty
    /// between syncs, so collecting them must not walk every owned end.
    dirty: BTreeSet<ChanEnd>,
    /// Live ends with `suppress_writes > 0` (residual rollforward
    /// suppression, reported in every sync record).
    suppressed: BTreeSet<ChanEnd>,
}

/// One cluster's routing table.
///
/// `BTreeMap` rather than `HashMap`: scans (crash handling walks every
/// entry) must be deterministic.
///
/// The maps are private behind accessors so the owner index stays
/// consistent: every insertion and removal goes through a method that
/// updates both. Sync, fork replay, crash promotion, and exit cleanup
/// all ask "which ends does `pid` own?" — with the index that is a
/// lookup instead of an O(channels) scan of the whole cluster's table.
///
/// Invariant (checked by [`RoutingTable::verify_owner_index`]): `owners`
/// is exactly what the two maps imply, with no empty record. Entry
/// owners never change in place — promotion removes the backup entry
/// and inserts a primary entry — so handing out `&mut BackupEntry`
/// cannot invalidate the index.
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// Live ends whose owner's primary runs in this cluster.
    primary: BTreeMap<ChanEnd, Entry>,
    /// Saved ends whose owner's backup lives in this cluster.
    backup: BTreeMap<ChanEnd, BackupEntry>,
    /// The owner index.
    owners: BTreeMap<Pid, Owned>,
    /// Next arrival sequence number.
    next_arrival: u64,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// Stamps the next arrival sequence number.
    pub fn stamp(&mut self) -> u64 {
        let s = self.next_arrival;
        self.next_arrival += 1;
        s
    }

    /// Total number of entries (for crash-scan cost accounting).
    pub fn len(&self) -> usize {
        self.primary.len() + self.backup.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty() && self.backup.is_empty()
    }

    /// Edits `owner`'s record, dropping it if the edit leaves it empty.
    fn edit_owner(&mut self, owner: Pid, edit: impl FnOnce(&mut Owned)) {
        if let btree_map::Entry::Occupied(mut o) = self.owners.entry(owner) {
            edit(o.get_mut());
            if *o.get() == Owned::default() {
                o.remove();
            }
        }
    }

    // -- primary side ---------------------------------------------------

    /// The live entry for `end`, if any.
    pub fn primary(&self, end: &ChanEnd) -> Option<&Entry> {
        self.primary.get(end)
    }

    /// Whether a live entry exists for `end`.
    pub fn has_primary(&self, end: &ChanEnd) -> bool {
        self.primary.contains_key(end)
    }

    /// Inserts (or replaces) the live entry for `end`. Promotion inserts
    /// entries whose saved queue is non-empty; their front goes straight
    /// into the ready index.
    pub fn insert_primary(&mut self, end: ChanEnd, entry: Entry) -> Option<Entry> {
        let prev = self.remove_primary(&end);
        let o = self.owners.entry(entry.owner).or_default();
        o.live.insert(end);
        if let Some(f) = entry.queue.front() {
            o.ready.insert(f.arrival_seq, end);
        }
        if entry.reads_since_sync > 0 {
            o.dirty.insert(end);
        }
        if entry.suppress_writes > 0 {
            o.suppressed.insert(end);
        }
        self.primary.insert(end, entry);
        prev
    }

    /// Creates the live entry `init` describes, unless one exists.
    pub fn create_primary(&mut self, init: &ChannelInit) {
        if let btree_map::Entry::Vacant(v) = self.primary.entry(init.end) {
            v.insert(Entry::from_init(init));
            self.owners.entry(init.owner).or_default().live.insert(init.end);
        }
    }

    /// Removes the live entry for `end`.
    pub fn remove_primary(&mut self, end: &ChanEnd) -> Option<Entry> {
        let prev = self.primary.remove(end)?;
        let front = prev.queue.front().map(|q| q.arrival_seq);
        self.edit_owner(prev.owner, |o| {
            o.live.remove(end);
            o.dirty.remove(end);
            o.suppressed.remove(end);
            if let Some(f) = front {
                o.ready.remove(&f);
            }
        });
        Some(prev)
    }

    /// Stamps an arrival sequence and appends `msg` to the live entry's
    /// queue, maintaining the ready index. `None` (and no stamp) if no
    /// entry exists for `end`. This is the only way messages enter a
    /// primary queue; no method hands out a live entry mutably, so the
    /// index cannot drift.
    pub fn enqueue_primary(&mut self, end: ChanEnd, msg: Message) -> Option<u64> {
        let e = self.primary.get_mut(&end)?;
        let seq = self.next_arrival;
        self.next_arrival += 1;
        if e.queue.is_empty() {
            self.owners.entry(e.owner).or_default().ready.insert(seq, end);
        }
        e.queue.push_back(Queued { arrival_seq: seq, msg });
        Some(seq)
    }

    /// Pops the front of the live entry's queue, maintaining the ready
    /// index (the sole primary-queue consumer, mirroring
    /// [`RoutingTable::enqueue_primary`]). A successful pop is a read:
    /// the entry's `reads_since_sync` is bumped and the end marked dirty
    /// for the owner's next sync record.
    pub fn pop_primary_front(&mut self, end: &ChanEnd) -> Option<Queued> {
        let e = self.primary.get_mut(end)?;
        let q = e.queue.pop_front()?;
        e.reads_since_sync += 1;
        let o = self.owners.entry(e.owner).or_default();
        o.ready.remove(&q.arrival_seq);
        if let Some(next) = e.queue.front() {
            o.ready.insert(next.arrival_seq, *end);
        }
        if e.reads_since_sync == 1 {
            o.dirty.insert(*end);
        }
        Some(q)
    }

    /// Collects and resets the owner's per-end unsynced read counts, in
    /// end order — the sync record's `reads_since_sync` list. O(dirty
    /// ends), not O(owned ends).
    pub fn drain_dirty_reads(&mut self, pid: Pid) -> Vec<(ChanEnd, u64)> {
        let Some(o) = self.owners.get_mut(&pid) else {
            return Vec::new();
        };
        let ends = std::mem::take(&mut o.dirty);
        let mut reads = Vec::with_capacity(ends.len());
        for end in ends {
            // Dirty ends are live by construction (removal unindexes
            // them); if the table is ever degraded, the end simply
            // contributes no reads instead of panicking mid-sync.
            let Some(e) = self.primary.get_mut(&end) else {
                continue;
            };
            reads.push((end, e.reads_since_sync));
            e.reads_since_sync = 0;
        }
        reads
    }

    /// The owner's ends with residual send suppression, with their
    /// counts, in end order — the sync record's `residual_suppress`
    /// list. O(suppressing ends), not O(owned ends).
    pub fn residual_suppress_of(&self, pid: Pid) -> Vec<(ChanEnd, u64)> {
        let Some(o) = self.owners.get(&pid) else {
            return Vec::new();
        };
        o.suppressed
            .iter()
            // Suppressing ends are live by construction (removal
            // unindexes them); a degraded table contributes nothing
            // rather than panicking while building a sync record.
            .filter_map(|end| Some((*end, self.primary.get(end)?.suppress_writes)))
            .collect()
    }

    /// Spends one unit of the entry's rollforward suppression budget
    /// (§5.4), keeping the suppression index exact. `false` if there is
    /// no entry or no budget left.
    pub fn consume_suppress(&mut self, end: &ChanEnd) -> bool {
        let Some(e) = self.primary.get_mut(end) else {
            return false;
        };
        if e.suppress_writes == 0 {
            return false;
        }
        e.suppress_writes -= 1;
        if e.suppress_writes == 0 {
            let owner = e.owner;
            self.edit_owner(owner, |o| {
                o.suppressed.remove(end);
            });
        }
        true
    }

    /// Adds one unit of rollforward suppression to the entry (a backup
    /// write count arriving after promotion), keeping the index exact.
    pub fn add_suppress(&mut self, end: &ChanEnd) {
        let Some(e) = self.primary.get_mut(end) else { return };
        e.suppress_writes += 1;
        if e.suppress_writes == 1 {
            self.owners.entry(e.owner).or_default().suppressed.insert(*end);
        }
    }

    /// Whether any live end owned by `pid` has a queued message.
    pub fn has_ready(&self, pid: Pid) -> bool {
        self.owners.get(&pid).is_some_and(|o| !o.ready.is_empty())
    }

    /// The owned end whose front message arrived earliest, with that
    /// front's arrival sequence — what a server's step scan used to
    /// recompute over every owned end.
    pub fn earliest_ready(&self, pid: Pid) -> Option<(u64, ChanEnd)> {
        let (seq, end) = self.owners.get(&pid)?.ready.iter().next()?;
        Some((*seq, *end))
    }

    /// The owned ends with a queued message, earliest front first.
    pub(crate) fn ready_ends(&self, pid: Pid) -> impl Iterator<Item = ChanEnd> + '_ {
        self.owners.get(&pid).into_iter().flat_map(|o| o.ready.values().copied())
    }

    /// All live entries, in end order.
    pub fn primary_iter(&self) -> impl Iterator<Item = (&ChanEnd, &Entry)> {
        self.primary.iter()
    }

    // -- backup side ----------------------------------------------------

    /// The backup entry for `end`, if any.
    pub fn backup(&self, end: &ChanEnd) -> Option<&BackupEntry> {
        self.backup.get(end)
    }

    /// Mutable access to the backup entry for `end`.
    pub fn backup_mut(&mut self, end: &ChanEnd) -> Option<&mut BackupEntry> {
        self.backup.get_mut(end)
    }

    /// Whether a backup entry exists for `end`.
    pub fn has_backup(&self, end: &ChanEnd) -> bool {
        self.backup.contains_key(end)
    }

    /// Creates the backup entry `init` describes, unless one exists.
    pub fn create_backup(&mut self, init: &ChannelInit) {
        if let btree_map::Entry::Vacant(v) = self.backup.entry(init.end) {
            v.insert(BackupEntry::from_init(init));
            self.owners.entry(init.owner).or_default().saved.insert(init.end);
        }
    }

    /// Removes the backup entry for `end`.
    pub fn remove_backup(&mut self, end: &ChanEnd) -> Option<BackupEntry> {
        let prev = self.backup.remove(end)?;
        self.edit_owner(prev.owner, |o| {
            o.saved.remove(end);
        });
        Some(prev)
    }

    /// All backup entries, in end order.
    pub fn backup_iter(&self) -> impl Iterator<Item = (&ChanEnd, &BackupEntry)> {
        self.backup.iter()
    }

    // -- owner index ----------------------------------------------------

    /// All live ends owned by `pid`, in deterministic (end) order.
    pub fn ends_of(&self, pid: Pid) -> Vec<ChanEnd> {
        self.owners.get(&pid).map(|o| o.live.iter().copied().collect()).unwrap_or_default()
    }

    /// All backup ends owned by `pid`, in deterministic (end) order.
    pub fn backup_ends_of(&self, pid: Pid) -> Vec<ChanEnd> {
        self.owners.get(&pid).map(|o| o.saved.iter().copied().collect()).unwrap_or_default()
    }

    /// Promotes every saved end of `pid` to a live one, in end order
    /// (§7.10.2): queues become live, write counts become suppression
    /// budgets (§5.4).
    pub fn promote_saved(&mut self, pid: Pid) {
        for end in self.backup_ends_of(pid) {
            if let Some(be) = self.remove_backup(&end) {
                self.insert_primary(end, be.promote());
            }
        }
    }

    /// Drops every saved end of `pid`.
    pub fn drop_saved(&mut self, pid: Pid) {
        for end in self.backup_ends_of(pid) {
            self.remove_backup(&end);
        }
    }

    /// Drops every live end of `pid`.
    pub fn drop_live(&mut self, pid: Pid) {
        for end in self.ends_of(pid) {
            self.remove_primary(&end);
        }
    }

    /// Removes every saved copy of message `msg` from `pid`'s backup
    /// entries' replay queues (dead-letter diversion): the owner's next
    /// reincarnation rolls forward past the purged position instead of
    /// re-consuming it. The write-count suppression ledgers are
    /// untouched — the purged message was *inbound*, and its sender's
    /// duplicate-send accounting does not depend on the receiver's
    /// saved copy. Returns how many copies were removed.
    pub fn purge_backup_msg(&mut self, pid: Pid, msg: auros_bus::MsgId) -> usize {
        let mut removed = 0;
        for end in self.backup_ends_of(pid) {
            if let Some(be) = self.backup.get_mut(&end) {
                let before = be.queue.len();
                be.queue.retain(|q| q.msg.id != msg);
                removed += before - be.queue.len();
            }
        }
        removed
    }

    /// Checks the owner index against a full recomputation from the
    /// maps. Used by tests and every debug run to guard against
    /// index/map drift.
    pub fn verify_owner_index(&self) -> Result<(), String> {
        let mut want: BTreeMap<Pid, Owned> = BTreeMap::new();
        for (end, e) in &self.primary {
            let o = want.entry(e.owner).or_default();
            o.live.insert(*end);
            if let Some(q) = e.queue.front() {
                o.ready.insert(q.arrival_seq, *end);
            }
            if e.reads_since_sync > 0 {
                o.dirty.insert(*end);
            }
            if e.suppress_writes > 0 {
                o.suppressed.insert(*end);
            }
        }
        for (end, e) in &self.backup {
            want.entry(e.owner).or_default().saved.insert(*end);
        }
        if want != self.owners {
            return Err(format!(
                "owner index diverged: recomputed {want:?}, stored {:?}",
                self.owners
            ));
        }
        Ok(())
    }

    // -- peers -----------------------------------------------------------

    /// Crash handling step 1 (§7.10.1): applies the failover rule to the
    /// peer of every entry, live and saved. A live end whose fullback
    /// peer moved is unusable until the peer's new backup is announced;
    /// an end whose peer is gone is closed. A crashed cluster is also
    /// cleared as the owner's backup. Returns the live ends orphaned, in
    /// end order.
    pub fn fail_over(&mut self, failure: Failure) -> Vec<ChanEnd> {
        let mut orphaned = Vec::new();
        for (end, e) in self.primary.iter_mut() {
            if failure.fail_over(e.peer.pid, &mut e.peer.primary, &mut e.peer.backup) {
                if e.peer.primary.is_none() {
                    e.peer_closed = true;
                    orphaned.push(*end);
                } else if e.peer.mode == BackupMode::Fullback {
                    e.usable = false;
                }
            }
            if failure.took(e.owner_backup) {
                e.owner_backup = None;
            }
        }
        for e in self.backup.values_mut() {
            if failure.fail_over(e.peer.pid, &mut e.peer.primary, &mut e.peer.backup)
                && e.peer.primary.is_none()
            {
                e.peer_closed = true;
            }
        }
        orphaned
    }

    /// `pid` has a new backup at `at` (§7.10.1's notification): its live
    /// ends send their backup copies there, every entry whose peer it is
    /// learns the new home, and live ends left unusable while it had none
    /// are released. Returns the owners of the released ends, in end
    /// order.
    pub fn backup_created(&mut self, pid: Pid, at: ClusterId) -> Vec<Pid> {
        let mut released = Vec::new();
        for e in self.primary.values_mut() {
            if e.owner == pid {
                e.owner_backup = Some(at);
            }
            if e.peer.pid == pid {
                e.peer.backup = Some(at);
                if !e.usable {
                    e.usable = true;
                    released.push(e.owner);
                }
            }
        }
        for e in self.backup.values_mut() {
            if e.peer.pid == pid {
                e.peer.backup = Some(at);
            }
        }
        released
    }

    /// The peer of `end` closed its end: marks this table's entries for
    /// `end` closed. Returns the live entry's owner.
    pub fn mark_peer_closed(&mut self, end: &ChanEnd) -> Option<Pid> {
        if let Some(be) = self.backup.get_mut(end) {
            be.peer_closed = true;
        }
        let e = self.primary.get_mut(end)?;
        e.peer_closed = true;
        Some(e.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, Side};
    use auros_bus::{Frame, MsgId, Payload};

    fn init(owner: Pid, primary: Option<ClusterId>) -> ChannelInit {
        ChannelInit {
            end: ChanEnd { channel: ChannelId(9), side: Side::A },
            owner,
            fd: None,
            peer: Peer {
                pid: Pid(2),
                primary,
                backup: Some(ClusterId(2)),
                mode: BackupMode::Quarterback,
            },
            owner_backup: Some(ClusterId(1)),
            kind: ChanKind::UserUser,
        }
    }

    fn queued(seq: u64) -> Queued {
        Queued {
            arrival_seq: seq,
            msg: Message {
                id: MsgId(seq),
                src: Pid(2),
                payload: Payload::Data(Default::default()),
                nondet: vec![],
            },
        }
    }

    #[test]
    fn arrival_stamps_are_monotonic() {
        let mut rt = RoutingTable::new();
        assert_eq!(rt.stamp(), 0);
        assert_eq!(rt.stamp(), 1);
        assert_eq!(rt.stamp(), 2);
    }

    #[test]
    fn promotion_carries_queue_and_write_count() {
        let mut be = BackupEntry::from_init(&init(Pid(1), Some(ClusterId(0))));
        be.queue.push_back(queued(5));
        be.queue.push_back(queued(6));
        be.writes_since_sync = 3;
        let e = be.promote();
        assert_eq!(e.queue.len(), 2);
        assert_eq!(e.suppress_writes, 3);
        assert_eq!(e.reads_since_sync, 0);
        assert!(e.usable);
    }

    #[test]
    fn repair_moves_peer_to_backup_cluster() {
        let mut rt = RoutingTable::new();
        let i = init(Pid(1), Some(ClusterId(0)));
        rt.insert_primary(i.end, Entry::from_init(&i));
        assert!(rt.fail_over(Failure::Cluster(ClusterId(0))).is_empty());
        let e = rt.primary(&i.end).unwrap();
        assert_eq!(e.peer.primary, Some(ClusterId(2)));
        assert_eq!(e.peer.backup, None, "the promoted peer has no backup yet");
        assert!(e.usable, "quarterback peers stay usable");
    }

    #[test]
    fn repair_marks_fullback_channels_unusable() {
        let mut rt = RoutingTable::new();
        let mut i = init(Pid(1), Some(ClusterId(0)));
        i.peer.mode = BackupMode::Fullback;
        rt.insert_primary(i.end, Entry::from_init(&i));
        assert!(rt.fail_over(Failure::Cluster(ClusterId(0))).is_empty());
        assert!(!rt.primary(&i.end).unwrap().usable);
        assert_eq!(rt.backup_created(Pid(2), ClusterId(3)), vec![Pid(1)], "released");
        let e = rt.primary(&i.end).unwrap();
        assert!(e.usable);
        assert_eq!(e.peer.backup, Some(ClusterId(3)));
    }

    #[test]
    fn repair_orphans_unprotected_peer() {
        let mut rt = RoutingTable::new();
        let mut i = init(Pid(1), Some(ClusterId(0)));
        i.peer.backup = None;
        rt.insert_primary(i.end, Entry::from_init(&i));
        rt.create_backup(&i);
        assert_eq!(rt.fail_over(Failure::Process(Pid(2))), vec![i.end]);
        let e = rt.primary(&i.end).unwrap();
        assert!(e.peer_closed);
        assert_eq!(e.peer.primary, None);
        assert!(rt.backup(&i.end).unwrap().peer_closed, "the saved end is closed too");
    }

    #[test]
    fn repair_clears_dead_backup_references() {
        let mut rt = RoutingTable::new();
        let i = init(Pid(1), Some(ClusterId(3)));
        rt.insert_primary(i.end, Entry::from_init(&i));
        rt.fail_over(Failure::Cluster(ClusterId(2)));
        let e = rt.primary(&i.end).unwrap();
        assert_eq!(e.peer.primary, Some(ClusterId(3)), "peer primary untouched");
        assert_eq!(e.peer.backup, None);
        rt.fail_over(Failure::Cluster(ClusterId(1)));
        assert_eq!(rt.primary(&i.end).unwrap().owner_backup, None);
    }

    #[test]
    fn ends_of_filters_by_owner() {
        let mut rt = RoutingTable::new();
        let mut i1 = init(Pid(1), None);
        let mut i2 = init(Pid(7), None);
        i2.end = ChanEnd { channel: ChannelId(10), side: Side::B };
        i2.owner = Pid(7);
        i1.owner = Pid(1);
        rt.insert_primary(i1.end, Entry::from_init(&i1));
        rt.insert_primary(i2.end, Entry::from_init(&i2));
        assert_eq!(rt.ends_of(Pid(1)), vec![i1.end]);
        assert_eq!(rt.ends_of(Pid(7)), vec![i2.end]);
        assert_eq!(rt.len(), 2);
        rt.verify_owner_index().unwrap();
    }

    #[test]
    fn owner_index_survives_insert_remove_and_promotion() {
        let mut rt = RoutingTable::new();
        let i = init(Pid(1), Some(ClusterId(0)));
        // Backup entry appears in the backup index only.
        rt.create_backup(&i);
        assert_eq!(rt.backup_ends_of(Pid(1)), vec![i.end]);
        assert!(rt.ends_of(Pid(1)).is_empty());
        rt.verify_owner_index().unwrap();
        // Promotion: remove from backup, insert as primary (crash path).
        let be = rt.remove_backup(&i.end).unwrap();
        rt.insert_primary(i.end, be.promote());
        assert!(rt.backup_ends_of(Pid(1)).is_empty());
        assert_eq!(rt.ends_of(Pid(1)), vec![i.end]);
        rt.verify_owner_index().unwrap();
        // Re-insert under a different owner: old owner must be unindexed.
        let mut i2 = init(Pid(7), None);
        i2.end = i.end;
        rt.insert_primary(i.end, Entry::from_init(&i2));
        assert!(rt.ends_of(Pid(1)).is_empty());
        assert_eq!(rt.ends_of(Pid(7)), vec![i.end]);
        rt.verify_owner_index().unwrap();
        // Removal clears the index and drops the empty per-owner set.
        rt.remove_primary(&i.end);
        assert!(rt.ends_of(Pid(7)).is_empty());
        assert!(rt.is_empty());
        rt.verify_owner_index().unwrap();
    }

    #[test]
    fn frame_check_invariant_holds_for_three_way() {
        // Sanity cross-check with the bus crate's invariant.
        let end = ChanEnd { channel: ChannelId(1), side: Side::B };
        let f = Frame::new(
            ClusterId(0),
            vec![
                (ClusterId(1), auros_bus::DeliveryTag::Primary(end)),
                (ClusterId(2), auros_bus::DeliveryTag::DestBackup(end)),
                (ClusterId(1), auros_bus::DeliveryTag::SenderBackup(end.peer())),
            ],
            Message {
                id: MsgId(0),
                src: Pid(1),
                payload: Payload::Data(vec![1].into()),
                nondet: vec![],
            },
        );
        assert!(f.check_invariants().is_ok());
    }
}
