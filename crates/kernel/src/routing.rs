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

use auros_bus::proto::{BackupMode, ChanEnd, ChanKind, ChannelInit};
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
    /// Peer process, if a two-ended channel.
    pub peer: Option<Pid>,
    /// Cluster hosting the peer's primary entry (updated by crash
    /// handling when the peer's backup takes over, §7.10.1 step 1).
    pub peer_primary: Option<ClusterId>,
    /// Cluster hosting the peer's backup entry.
    pub peer_backup: Option<ClusterId>,
    /// Cluster hosting the owner's backup entry.
    pub owner_backup: Option<ClusterId>,
    /// `false` while the peer is a fullback awaiting a new backup; writes
    /// block until notification arrives (§7.10.1).
    pub usable: bool,
    /// The peer exited or closed its end: writes fail, reads drain the
    /// remaining queue then fail.
    pub peer_closed: bool,
    /// The peer's backup mode (drives unusable-marking at crashes).
    pub peer_mode: BackupMode,
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
            peer_primary: init.peer_primary,
            peer_backup: init.peer_backup,
            owner_backup: init.owner_backup,
            usable: true,
            peer_closed: false,
            peer_mode: init.peer_mode,
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
    /// Peer process.
    pub peer: Option<Pid>,
    /// Cluster hosting the peer's primary entry.
    pub peer_primary: Option<ClusterId>,
    /// Cluster hosting the peer's backup entry.
    pub peer_backup: Option<ClusterId>,
    /// The peer exited or closed its end.
    pub peer_closed: bool,
    /// The peer's backup mode.
    pub peer_mode: BackupMode,
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
            peer_primary: init.peer_primary,
            peer_backup: init.peer_backup,
            peer_closed: false,
            peer_mode: init.peer_mode,
            sync_demanded: false,
        }
    }

    /// Converts into a live entry at promotion (§7.10.2): the saved queue
    /// becomes the live queue and the write count becomes the suppression
    /// budget.
    pub fn promote(self, owner_backup: Option<ClusterId>) -> Entry {
        Entry {
            owner: self.owner,
            kind: self.kind,
            queue: self.queue,
            reads_since_sync: 0,
            peer: self.peer,
            peer_primary: self.peer_primary,
            peer_backup: self.peer_backup,
            owner_backup,
            usable: true,
            peer_closed: self.peer_closed,
            peer_mode: self.peer_mode,
            suppress_writes: self.writes_since_sync,
        }
    }
}

/// One cluster's routing table.
///
/// `BTreeMap` rather than `HashMap`: scans (crash handling walks every
/// entry) must be deterministic.
///
/// The maps are private behind accessors so the per-owner index stays
/// consistent: every insertion and removal goes through a method that
/// updates both. Sync, fork replay, crash promotion, and exit cleanup
/// all ask "which ends does `pid` own?" — with the index that is a
/// lookup instead of an O(channels) scan of the whole cluster's table.
///
/// Invariant (checked by [`RoutingTable::verify_owner_index`]):
/// `primary_by_owner[p]` is exactly the key set `{end | primary[end].owner == p}`,
/// and likewise for the backup side. Entry owners never change in place
/// — promotion removes the backup entry and inserts a primary entry —
/// so handing out `&mut Entry` cannot invalidate the index.
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// Live ends whose owner's primary runs in this cluster.
    primary: BTreeMap<ChanEnd, Entry>,
    /// Saved ends whose owner's backup lives in this cluster.
    backup: BTreeMap<ChanEnd, BackupEntry>,
    /// Index: owner pid → live ends it owns.
    primary_by_owner: BTreeMap<Pid, BTreeSet<ChanEnd>>,
    /// Index: owner pid → backup ends held for it here.
    backup_by_owner: BTreeMap<Pid, BTreeSet<ChanEnd>>,
    /// Index: owner pid → front arrival sequence → end, for live ends
    /// with queued messages. Answers "does this process have work" and
    /// "which end's front arrived earliest" in O(log n): a server
    /// cluster's table holds an end per process in the fleet, and both
    /// questions are asked on every delivery and every server step.
    /// Front sequences are unique per cluster, so the map's first key is
    /// exactly the `min (front_seq, end)` the scan used to compute.
    ready_by_owner: BTreeMap<Pid, BTreeMap<u64, ChanEnd>>,
    /// Index: owner pid → live ends with `reads_since_sync > 0`. A sync
    /// record reports per-end read counts; at most `sync_max_reads` ends
    /// are dirty between syncs, so collecting them must not walk every
    /// owned end (a server owns one per process in the fleet).
    dirty_reads: BTreeMap<Pid, BTreeSet<ChanEnd>>,
    /// Index: owner pid → live ends with `suppress_writes > 0` (residual
    /// rollforward suppression, reported in every sync record).
    suppressed: BTreeMap<Pid, BTreeSet<ChanEnd>>,
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

    fn unindex(ix: &mut BTreeMap<Pid, BTreeSet<ChanEnd>>, owner: Pid, end: ChanEnd) {
        if let Some(set) = ix.get_mut(&owner) {
            set.remove(&end);
            if set.is_empty() {
                ix.remove(&owner);
            }
        }
    }

    fn unready(ix: &mut BTreeMap<Pid, BTreeMap<u64, ChanEnd>>, owner: Pid, seq: u64) {
        if let Some(m) = ix.get_mut(&owner) {
            m.remove(&seq);
            if m.is_empty() {
                ix.remove(&owner);
            }
        }
    }

    // -- primary side ---------------------------------------------------

    /// The live entry for `end`, if any.
    pub fn primary(&self, end: &ChanEnd) -> Option<&Entry> {
        self.primary.get(end)
    }

    /// Mutable access to the live entry for `end`.
    pub fn primary_mut(&mut self, end: &ChanEnd) -> Option<&mut Entry> {
        self.primary.get_mut(end)
    }

    /// Whether a live entry exists for `end`.
    pub fn has_primary(&self, end: &ChanEnd) -> bool {
        self.primary.contains_key(end)
    }

    /// Inserts (or replaces) the live entry for `end`. Promotion inserts
    /// entries whose saved queue is non-empty; their front goes straight
    /// into the ready index.
    pub fn insert_primary(&mut self, end: ChanEnd, entry: Entry) -> Option<Entry> {
        let owner = entry.owner;
        let front = entry.queue.front().map(|q| q.arrival_seq);
        let dirty = entry.reads_since_sync > 0;
        let suppressing = entry.suppress_writes > 0;
        let prev = self.primary.insert(end, entry);
        if let Some(p) = &prev {
            if let Some(f) = p.queue.front() {
                Self::unready(&mut self.ready_by_owner, p.owner, f.arrival_seq);
            }
            Self::unindex(&mut self.dirty_reads, p.owner, end);
            Self::unindex(&mut self.suppressed, p.owner, end);
            if p.owner != owner {
                Self::unindex(&mut self.primary_by_owner, p.owner, end);
            }
        }
        self.primary_by_owner.entry(owner).or_default().insert(end);
        if let Some(f) = front {
            self.ready_by_owner.entry(owner).or_default().insert(f, end);
        }
        if dirty {
            self.dirty_reads.entry(owner).or_default().insert(end);
        }
        if suppressing {
            self.suppressed.entry(owner).or_default().insert(end);
        }
        prev
    }

    /// Returns the live entry for `end`, creating it with `make` first
    /// if absent.
    pub fn primary_or_insert_with(
        &mut self,
        end: ChanEnd,
        make: impl FnOnce() -> Entry,
    ) -> &mut Entry {
        match self.primary.entry(end) {
            btree_map::Entry::Occupied(o) => o.into_mut(),
            btree_map::Entry::Vacant(v) => {
                let entry = make();
                // Insert-side index bookkeeping, mirroring
                // insert_primary for a fresh entry (nothing to unindex;
                // the index maps are disjoint fields, so they stay
                // writable while the vacant slot is held).
                self.primary_by_owner.entry(entry.owner).or_default().insert(end);
                if let Some(f) = entry.queue.front() {
                    self.ready_by_owner.entry(entry.owner).or_default().insert(f.arrival_seq, end);
                }
                if entry.reads_since_sync > 0 {
                    self.dirty_reads.entry(entry.owner).or_default().insert(end);
                }
                if entry.suppress_writes > 0 {
                    self.suppressed.entry(entry.owner).or_default().insert(end);
                }
                v.insert(entry)
            }
        }
    }

    /// Removes the live entry for `end`.
    pub fn remove_primary(&mut self, end: &ChanEnd) -> Option<Entry> {
        let prev = self.primary.remove(end);
        if let Some(p) = &prev {
            Self::unindex(&mut self.primary_by_owner, p.owner, *end);
            Self::unindex(&mut self.dirty_reads, p.owner, *end);
            Self::unindex(&mut self.suppressed, p.owner, *end);
            if let Some(f) = p.queue.front() {
                Self::unready(&mut self.ready_by_owner, p.owner, f.arrival_seq);
            }
        }
        prev
    }

    /// Stamps an arrival sequence and appends `msg` to the live entry's
    /// queue, maintaining the ready index. `None` (and no stamp) if no
    /// entry exists for `end`. This is the only way messages enter a
    /// primary queue — `primary_mut` callers touch flags and counters,
    /// never queues, so the index cannot drift.
    pub fn enqueue_primary(&mut self, end: ChanEnd, msg: Message) -> Option<u64> {
        let e = self.primary.get_mut(&end)?;
        let seq = self.next_arrival;
        self.next_arrival += 1;
        let was_empty = e.queue.is_empty();
        let owner = e.owner;
        e.queue.push_back(Queued { arrival_seq: seq, msg });
        if was_empty {
            self.ready_by_owner.entry(owner).or_default().insert(seq, end);
        }
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
        let newly_dirty = e.reads_since_sync == 1;
        let owner = e.owner;
        let next = e.queue.front().map(|n| n.arrival_seq);
        if let Some(m) = self.ready_by_owner.get_mut(&owner) {
            m.remove(&q.arrival_seq);
            if let Some(ns) = next {
                m.insert(ns, *end);
            }
            if m.is_empty() {
                self.ready_by_owner.remove(&owner);
            }
        }
        if newly_dirty {
            self.dirty_reads.entry(owner).or_default().insert(*end);
        }
        Some(q)
    }

    /// Collects and resets the owner's per-end unsynced read counts, in
    /// end order — the sync record's `reads_since_sync` list. O(dirty
    /// ends), not O(owned ends).
    pub fn drain_dirty_reads(&mut self, pid: Pid) -> Vec<(ChanEnd, u64)> {
        let Some(ends) = self.dirty_reads.remove(&pid) else {
            return Vec::new();
        };
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
        let Some(ends) = self.suppressed.get(&pid) else {
            return Vec::new();
        };
        ends.iter()
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
            Self::unindex(&mut self.suppressed, e.owner, *end);
        }
        true
    }

    /// Adds one unit of rollforward suppression to the entry (a backup
    /// write count arriving after promotion), keeping the index exact.
    pub fn add_suppress(&mut self, end: &ChanEnd) {
        let Some(e) = self.primary.get_mut(end) else { return };
        e.suppress_writes += 1;
        if e.suppress_writes == 1 {
            self.suppressed.entry(e.owner).or_default().insert(*end);
        }
    }

    /// Whether any live end owned by `pid` has a queued message.
    pub fn has_ready(&self, pid: Pid) -> bool {
        self.ready_by_owner.contains_key(&pid)
    }

    /// The owned end whose front message arrived earliest, with that
    /// front's arrival sequence — what a server's step scan used to
    /// recompute over every owned end.
    pub fn earliest_ready(&self, pid: Pid) -> Option<(u64, ChanEnd)> {
        let (seq, end) = self.ready_by_owner.get(&pid)?.iter().next()?;
        Some((*seq, *end))
    }

    /// The owned ends with a queued message, earliest front first.
    pub(crate) fn ready_ends(&self, pid: Pid) -> impl Iterator<Item = ChanEnd> + '_ {
        self.ready_by_owner.get(&pid).into_iter().flat_map(|m| m.values().copied())
    }

    /// All live entries, in end order.
    pub fn primary_iter(&self) -> impl Iterator<Item = (&ChanEnd, &Entry)> {
        self.primary.iter()
    }

    /// All live entries, mutably, in end order.
    pub fn primary_iter_mut(&mut self) -> impl Iterator<Item = (&ChanEnd, &mut Entry)> {
        self.primary.iter_mut()
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

    /// Inserts (or replaces) the backup entry for `end`.
    pub fn insert_backup(&mut self, end: ChanEnd, entry: BackupEntry) -> Option<BackupEntry> {
        let owner = entry.owner;
        let prev = self.backup.insert(end, entry);
        if let Some(p) = &prev {
            if p.owner != owner {
                Self::unindex(&mut self.backup_by_owner, p.owner, end);
            }
        }
        self.backup_by_owner.entry(owner).or_default().insert(end);
        prev
    }

    /// Returns the backup entry for `end`, creating it with `make` first
    /// if absent.
    pub fn backup_or_insert_with(
        &mut self,
        end: ChanEnd,
        make: impl FnOnce() -> BackupEntry,
    ) -> &mut BackupEntry {
        match self.backup.entry(end) {
            btree_map::Entry::Occupied(o) => o.into_mut(),
            btree_map::Entry::Vacant(v) => {
                let entry = make();
                // Insert-side index bookkeeping, mirroring insert_backup
                // for a fresh entry (the owner index is a disjoint field,
                // writable while the vacant slot is held).
                self.backup_by_owner.entry(entry.owner).or_default().insert(end);
                v.insert(entry)
            }
        }
    }

    /// Removes the backup entry for `end`.
    pub fn remove_backup(&mut self, end: &ChanEnd) -> Option<BackupEntry> {
        let prev = self.backup.remove(end);
        if let Some(p) = &prev {
            Self::unindex(&mut self.backup_by_owner, p.owner, *end);
        }
        prev
    }

    /// All backup entries, in end order.
    pub fn backup_iter(&self) -> impl Iterator<Item = (&ChanEnd, &BackupEntry)> {
        self.backup.iter()
    }

    /// All backup entries' values, mutably.
    pub fn backup_values_mut(&mut self) -> impl Iterator<Item = &mut BackupEntry> {
        self.backup.values_mut()
    }

    // -- owner index ----------------------------------------------------

    /// All live ends owned by `pid`, in deterministic (end) order.
    ///
    /// Index lookup: identical contents and order to the former
    /// whole-table scan, because `BTreeSet` iterates in key order.
    pub fn ends_of(&self, pid: Pid) -> Vec<ChanEnd> {
        self.primary_by_owner.get(&pid).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// All backup ends owned by `pid`, in deterministic (end) order.
    pub fn backup_ends_of(&self, pid: Pid) -> Vec<ChanEnd> {
        self.backup_by_owner.get(&pid).map(|s| s.iter().copied().collect()).unwrap_or_default()
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
    /// maps; returns the first divergence found. Used by tests and the
    /// determinism properties to guard against index/map drift.
    pub fn verify_owner_index(&self) -> Result<(), String> {
        let mut want_primary: BTreeMap<Pid, BTreeSet<ChanEnd>> = BTreeMap::new();
        for (end, e) in &self.primary {
            want_primary.entry(e.owner).or_default().insert(*end);
        }
        if want_primary != self.primary_by_owner {
            return Err(format!(
                "primary owner index diverged: recomputed {want_primary:?}, stored {:?}",
                self.primary_by_owner
            ));
        }
        let mut want_backup: BTreeMap<Pid, BTreeSet<ChanEnd>> = BTreeMap::new();
        for (end, e) in &self.backup {
            want_backup.entry(e.owner).or_default().insert(*end);
        }
        if want_backup != self.backup_by_owner {
            return Err(format!(
                "backup owner index diverged: recomputed {want_backup:?}, stored {:?}",
                self.backup_by_owner
            ));
        }
        let mut want_ready: BTreeMap<Pid, BTreeMap<u64, ChanEnd>> = BTreeMap::new();
        for (end, e) in &self.primary {
            if let Some(q) = e.queue.front() {
                want_ready.entry(e.owner).or_default().insert(q.arrival_seq, *end);
            }
        }
        if want_ready != self.ready_by_owner {
            return Err(format!(
                "ready index diverged: recomputed {want_ready:?}, stored {:?}",
                self.ready_by_owner
            ));
        }
        let mut want_dirty: BTreeMap<Pid, BTreeSet<ChanEnd>> = BTreeMap::new();
        let mut want_suppressed: BTreeMap<Pid, BTreeSet<ChanEnd>> = BTreeMap::new();
        for (end, e) in &self.primary {
            if e.reads_since_sync > 0 {
                want_dirty.entry(e.owner).or_default().insert(*end);
            }
            if e.suppress_writes > 0 {
                want_suppressed.entry(e.owner).or_default().insert(*end);
            }
        }
        if want_dirty != self.dirty_reads {
            return Err(format!(
                "dirty-read index diverged: recomputed {want_dirty:?}, stored {:?}",
                self.dirty_reads
            ));
        }
        if want_suppressed != self.suppressed {
            return Err(format!(
                "suppression index diverged: recomputed {want_suppressed:?}, stored {:?}",
                self.suppressed
            ));
        }
        Ok(())
    }

    /// Crash-handling step 1 (§7.10.1): replace references to a crashed
    /// cluster with the corresponding backup cluster; mark channels to
    /// fullback peers unusable until a new backup is announced; mark
    /// peers that had no backup as gone.
    pub fn repair_after_crash(&mut self, dead: ClusterId) -> RepairOutcome {
        let mut out = RepairOutcome::default();
        for (end, e) in self.primary.iter_mut() {
            if e.peer_primary == Some(dead) {
                match e.peer_backup.take() {
                    Some(b) => {
                        e.peer_primary = Some(b);
                        out.moved.push(*end);
                        if e.peer_mode == auros_bus::proto::BackupMode::Fullback {
                            e.usable = false;
                            if let Some(peer) = e.peer {
                                out.unusable.push((*end, peer));
                            }
                        }
                    }
                    None => {
                        e.peer_primary = None;
                        e.peer_closed = true;
                        out.orphaned.push(*end);
                    }
                }
            } else if e.peer_backup == Some(dead) {
                // The peer lost its backup; stop sending backup copies.
                e.peer_backup = None;
            }
            if e.owner_backup == Some(dead) {
                e.owner_backup = None;
            }
        }
        for e in self.backup.values_mut() {
            if e.peer_primary == Some(dead) {
                match e.peer_backup.take() {
                    Some(b) => e.peer_primary = Some(b),
                    None => {
                        e.peer_primary = None;
                        e.peer_closed = true;
                    }
                }
            } else if e.peer_backup == Some(dead) {
                e.peer_backup = None;
            }
        }
        out
    }
}

impl RoutingTable {
    /// §10 extension: one peer process failed (its cluster survives).
    /// Entries whose peer is `pid` move to the peer's backup cluster,
    /// with the same fullback/orphan handling as a whole-cluster repair.
    pub fn repair_failed_peer(&mut self, pid: Pid) -> RepairOutcome {
        let mut out = RepairOutcome::default();
        for (end, e) in self.primary.iter_mut() {
            if e.peer != Some(pid) {
                continue;
            }
            match e.peer_backup.take() {
                Some(b) => {
                    e.peer_primary = Some(b);
                    out.moved.push(*end);
                    if e.peer_mode == auros_bus::proto::BackupMode::Fullback {
                        e.usable = false;
                        out.unusable.push((*end, pid));
                    }
                }
                None => {
                    e.peer_primary = None;
                    e.peer_closed = true;
                    out.orphaned.push(*end);
                }
            }
        }
        for e in self.backup.values_mut() {
            if e.peer != Some(pid) {
                continue;
            }
            match e.peer_backup.take() {
                Some(b) => e.peer_primary = Some(b),
                None => {
                    e.peer_primary = None;
                    e.peer_closed = true;
                }
            }
        }
        out
    }
}

/// What a routing-table crash repair found (§7.10.1 step 1).
#[derive(Debug, Default)]
pub struct RepairOutcome {
    /// Ends whose peer's primary moved to its backup cluster.
    pub moved: Vec<ChanEnd>,
    /// Ends marked unusable because the peer is a fullback awaiting a new
    /// backup, with the peer pid.
    pub unusable: Vec<(ChanEnd, Pid)>,
    /// Ends whose peer is gone for good (no backup existed).
    pub orphaned: Vec<ChanEnd>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, Side};
    use auros_bus::{Frame, MsgId, Payload};

    fn init(owner: Pid, peer_primary: Option<ClusterId>) -> ChannelInit {
        ChannelInit {
            end: ChanEnd { channel: ChannelId(9), side: Side::A },
            owner,
            fd: None,
            peer: Some(Pid(2)),
            peer_primary,
            peer_backup: Some(ClusterId(2)),
            owner_backup: Some(ClusterId(1)),
            peer_mode: auros_bus::proto::BackupMode::Quarterback,
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
        let e = be.promote(None);
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
        let out = rt.repair_after_crash(ClusterId(0));
        assert_eq!(out.moved, vec![i.end]);
        assert!(out.unusable.is_empty(), "quarterback peers stay usable");
        let e = rt.primary(&i.end).unwrap();
        assert_eq!(e.peer_primary, Some(ClusterId(2)));
        assert_eq!(e.peer_backup, None, "the promoted peer has no backup yet");
        assert!(e.usable);
    }

    #[test]
    fn repair_marks_fullback_channels_unusable() {
        let mut rt = RoutingTable::new();
        let mut i = init(Pid(1), Some(ClusterId(0)));
        i.peer_mode = auros_bus::proto::BackupMode::Fullback;
        rt.insert_primary(i.end, Entry::from_init(&i));
        let out = rt.repair_after_crash(ClusterId(0));
        assert_eq!(out.unusable, vec![(i.end, Pid(2))]);
        assert!(!rt.primary(&i.end).unwrap().usable);
    }

    #[test]
    fn repair_orphans_unprotected_peer() {
        let mut rt = RoutingTable::new();
        let mut i = init(Pid(1), Some(ClusterId(0)));
        i.peer_backup = None;
        rt.insert_primary(i.end, Entry::from_init(&i));
        let out = rt.repair_after_crash(ClusterId(0));
        assert_eq!(out.orphaned, vec![i.end]);
        let e = rt.primary(&i.end).unwrap();
        assert!(e.peer_closed);
        assert_eq!(e.peer_primary, None);
    }

    #[test]
    fn repair_clears_dead_backup_references() {
        let mut rt = RoutingTable::new();
        let i = init(Pid(1), Some(ClusterId(3)));
        rt.insert_primary(i.end, Entry::from_init(&i));
        rt.repair_after_crash(ClusterId(2));
        let e = rt.primary(&i.end).unwrap();
        assert_eq!(e.peer_primary, Some(ClusterId(3)), "peer primary untouched");
        assert_eq!(e.peer_backup, None);
        rt.repair_after_crash(ClusterId(1));
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
        rt.insert_backup(i.end, BackupEntry::from_init(&i));
        assert_eq!(rt.backup_ends_of(Pid(1)), vec![i.end]);
        assert!(rt.ends_of(Pid(1)).is_empty());
        rt.verify_owner_index().unwrap();
        // Promotion: remove from backup, insert as primary (crash path).
        let be = rt.remove_backup(&i.end).unwrap();
        rt.insert_primary(i.end, be.promote(None));
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
