//! The event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is
//! assigned at insertion. Two events scheduled for the same tick therefore
//! fire in insertion order, which makes every run fully deterministic —
//! there is no iteration over hash maps or other incidental ordering
//! anywhere in the dispatch path.
//!
//! The queue is a hierarchical timing wheel (64-slot levels, enough
//! levels to cover all of `u64` time), giving O(1) amortized schedule and
//! pop regardless of how many events are pending — the property that lets
//! one queue drive a 4096-cluster fleet at the same per-event cost as a
//! 2-cluster machine. The tests hold it to a `BinaryHeap` reference queue:
//! both must produce byte-identical pop streams.

use std::collections::{BTreeSet, VecDeque};

use crate::time::VTime;

/// A handle identifying a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ScheduledAt {
    time: VTime,
    seq: u64,
}

impl ScheduledAt {
    /// The time the event will fire.
    pub fn time(self) -> VTime {
        self.time
    }
}

struct Entry<E> {
    at: ScheduledAt,
    event: E,
}

/// Slot-index width of one wheel level: 64 slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask selecting a slot index out of a time value.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Levels needed so `LEVELS * SLOT_BITS >= 64`: every `u64` tick has a home.
const LEVELS: usize = 11;

/// Which level an event at `when` belongs to, seen from `cursor`.
///
/// An event lives at the lowest level whose slot granularity still
/// separates it from the cursor: level 0 if it shares all bits above the
/// slot index with the cursor, level `l` if the highest differing bit is
/// in slot-index `l`'s bit range. `| SLOT_MASK` pins `when == cursor`
/// (and everything in the cursor's level-0 block) to level 0.
fn level_of(cursor: u64, when: u64) -> usize {
    let diff = (cursor ^ when) | SLOT_MASK;
    ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
}

/// A hierarchical timing wheel over `(time, seq)`-ordered entries.
///
/// Invariants that make pop order `(time, seq)` order:
/// - every occupied slot at level `l` has index ≥ the cursor's index at
///   that level (earlier slots were drained before the cursor advanced),
///   so all level-`l` entries precede all level-`l+1` entries in time;
/// - every slot deque is kept sorted by seq: inserts append at the back
///   (seq numbers are issued monotonically), and a cascade deposits a
///   block's entries, in their seq order, into lower levels that are all
///   empty. A level-0 slot holds a single tick, so there seq order is
///   `(time, seq)` order; a slot above level 0 spans many ticks and is
///   only ever drained whole, so its entries' times may interleave.
struct Wheel<E> {
    /// `LEVELS * SLOTS` deques, level-major.
    slots: Vec<VecDeque<Entry<E>>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ slot `s` is non-empty.
    occupied: [u64; LEVELS],
    /// Earliest entry time per slot, level-major, valid while the slot's
    /// occupancy bit is set. Slots above level 0 only ever empty
    /// wholesale (a cascade drains the whole deque), so the minimum
    /// never needs recomputing — it is set on first insert, tightened on
    /// later ones, and abandoned with the bit. Keeps peek O(1) instead
    /// of scanning a slot's deque.
    slot_min: Vec<u64>,
    /// Internal progress pointer (≤ every stored entry's time). Distinct
    /// from the queue's public `now`, which only moves on actual pops.
    cursor: u64,
    /// Total stored entries, including lazily-cancelled ones.
    count: usize,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        for _ in 0..LEVELS * SLOTS {
            slots.push(VecDeque::new());
        }
        Wheel {
            slots,
            occupied: [0; LEVELS],
            slot_min: vec![0; LEVELS * SLOTS],
            cursor: 0,
            count: 0,
        }
    }

    fn insert(&mut self, entry: Entry<E>) {
        let when = entry.at.time.0;
        debug_assert!(when >= self.cursor, "insert below the wheel cursor");
        let level = level_of(self.cursor, when);
        let slot = ((when >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let idx = level * SLOTS + slot;
        let bit = 1u64 << slot;
        if self.occupied[level] & bit == 0 {
            self.occupied[level] |= bit;
            self.slot_min[idx] = when;
        } else {
            self.slot_min[idx] = self.slot_min[idx].min(when);
        }
        let deque = &mut self.slots[idx];
        debug_assert!(
            deque.back().is_none_or(|tail| tail.at.seq < entry.at.seq),
            "slot entries out of seq order"
        );
        deque.push_back(entry);
        self.count += 1;
    }

    /// Removes and returns the globally earliest entry in `(time, seq)`
    /// order, cascading higher-level blocks open as the cursor reaches
    /// them. Amortized O(1): each entry cascades at most `LEVELS` times
    /// over its whole lifetime.
    fn pop_earliest(&mut self) -> Option<Entry<E>> {
        if self.count == 0 {
            // Draining lazily-cancelled entries may have advanced the
            // cursor past the queue's public `now`. An empty wheel has no
            // placement constraints, so rewind: every future insert
            // (clamped to ≥ now) then stays ≥ cursor again.
            self.cursor = 0;
            return None;
        }
        loop {
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                let deque = &mut self.slots[slot];
                let entry = deque.pop_front()?;
                if deque.is_empty() {
                    self.occupied[0] &= !(1u64 << slot);
                }
                self.count -= 1;
                return Some(entry);
            }
            // Level 0 is dry: open the earliest occupied block at the
            // lowest occupied level and redistribute it downward.
            let level = (1..LEVELS).find(|&l| self.occupied[l] != 0)?;
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            // The cursor advances to the block's base tick *before*
            // redistribution, so re-inserted entries land at levels the
            // level-0 scan (or a later cascade) will reach.
            let shift = SLOT_BITS * level as u32;
            let above = match shift + SLOT_BITS {
                s if s >= 64 => 0,
                s => (self.cursor >> s) << s,
            };
            self.cursor = above | ((slot as u64) << shift);
            for e in entries.drain(..) {
                self.count -= 1; // `insert` re-counts it.
                self.insert(e);
            }
        }
    }

    /// The earliest stored entry's exact time, without mutating the
    /// wheel. Must match what [`Self::pop_earliest`] would yield: the
    /// first occupied slot at the lowest occupied level holds the global
    /// minimum (an exact tick at level 0; the maintained slot minimum
    /// above — never a deque scan, so peeking before every pop stays
    /// O(1) however many events share a far slot).
    fn peek_earliest_time(&self) -> Option<VTime> {
        if self.count == 0 {
            return None;
        }
        if self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as u64;
            return Some(VTime((self.cursor & !SLOT_MASK) | slot));
        }
        let level = (1..LEVELS).find(|&l| self.occupied[l] != 0)?;
        let slot = self.occupied[level].trailing_zeros() as usize;
        Some(VTime(self.slot_min[level * SLOTS + slot]))
    }
}

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use auros_sim::{EventQueue, VTime, Dur};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(VTime(10), "b");
/// q.schedule(VTime(5), "a");
/// q.schedule(VTime(10), "c");
/// assert_eq!(q.pop().map(|(t, e)| (t.ticks(), e)), Some((5, "a")));
/// assert_eq!(q.pop().map(|(t, e)| (t.ticks(), e)), Some((10, "b")));
/// assert_eq!(q.pop().map(|(t, e)| (t.ticks(), e)), Some((10, "c")));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    next_seq: u64,
    now: VTime,
    /// Sequence numbers of cancelled entries still stored in the wheel.
    /// Cancellation is lazy and rare (bus failover, abandoned flights),
    /// so this is normally empty and `pop` never looks at it; a skipped
    /// entry leaves the set as it leaves the wheel. `BTreeSet` per the
    /// workspace determinism rule (auros-lint D1).
    cancelled: BTreeSet<u64>,
    /// Key of the last entry `pop` returned or `pop_due` removed. Entries
    /// leave the wheel in key order, so every entry at or below it is
    /// gone, and every later schedule lands above it.
    last: Option<ScheduledAt>,
    /// `next_seq` when the wheel last ran dry: every entry issued before
    /// it is gone, including cancelled ones skipped on the way there.
    drained_at: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`VTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            next_seq: 0,
            now: VTime::ZERO,
            cancelled: BTreeSet::new(),
            last: None,
            drained_at: 0,
        }
    }

    /// The current virtual time: the fire time of the most recently popped
    /// event (or of a cancelled one [`Self::pop_due`] discarded since),
    /// or zero if nothing has been popped yet.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.wheel.count - self.cancelled.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error; in debug builds it panics,
    /// in release builds the event fires at the current time instead.
    pub fn schedule(&mut self, time: VTime, event: E) -> ScheduledAt {
        debug_assert!(time >= self.now, "scheduling into the past: {time:?} < {:?}", self.now);
        let time = time.max(self.now);
        let at = ScheduledAt { time, seq: self.next_seq };
        self.next_seq += 1;
        self.wheel.insert(Entry { at, event });
        at
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// fired or already cancelled event returns `false`.
    pub fn cancel(&mut self, at: ScheduledAt) -> bool {
        let stored = at.seq < self.next_seq
            && at.seq >= self.drained_at
            && self.last.is_none_or(|last| at > last);
        stored && self.cancelled.insert(at.seq)
    }

    /// Pops the earliest pending event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(VTime, E)> {
        loop {
            let Some(entry) = self.wheel.pop_earliest() else {
                self.drained_at = self.next_seq;
                return None;
            };
            if self.skip(&entry) {
                continue;
            }
            self.now = entry.at.time;
            self.last = Some(entry.at);
            return Some((entry.at.time, entry.event));
        }
    }

    /// Pops the earliest pending event if it fires at or before
    /// `deadline`. Cancelled entries stored at or before the deadline are
    /// discarded on the way, and the clock follows them, so the wheel
    /// never holds an entry below the clock.
    pub fn pop_due(&mut self, deadline: VTime) -> Option<(VTime, E)> {
        loop {
            if self.wheel.peek_earliest_time().is_none_or(|t| t > deadline) {
                return None;
            }
            let entry = self.wheel.pop_earliest()?;
            self.now = entry.at.time;
            self.last = Some(entry.at);
            if !self.skip(&entry) {
                return Some((entry.at.time, entry.event));
            }
        }
    }

    /// Whether a popped entry was cancelled (and forgets it if so).
    fn skip(&mut self, entry: &Entry<E>) -> bool {
        !self.cancelled.is_empty() && self.cancelled.remove(&entry.at.seq)
    }

    /// The earliest stored entry's time, if any. Under lazy cancellation
    /// this is a lower bound: it counts cancelled entries too, so the
    /// first event [`Self::pop`] returns may fire later.
    /// [`Self::pop_due`] is the exact form for a run to a deadline.
    pub fn peek_time(&self) -> Option<VTime> {
        self.wheel.peek_earliest_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference queue the wheel is held to: a `BinaryHeap` over
    /// `(time, seq)` with the same sequence numbering, clamping and lazy
    /// cancellation as [`EventQueue`]. Any pop-order disagreement between
    /// the two is a bug in the wheel.
    struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(ScheduledAt, E)>>,
        next_seq: u64,
        now: VTime,
        pending: BTreeSet<u64>,
    }

    impl<E: Ord> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: VTime::ZERO,
                pending: BTreeSet::new(),
            }
        }

        fn schedule(&mut self, time: VTime, event: E) -> ScheduledAt {
            let at = ScheduledAt { time: time.max(self.now), seq: self.next_seq };
            self.next_seq += 1;
            self.pending.insert(at.seq);
            self.heap.push(Reverse((at, event)));
            at
        }

        fn cancel(&mut self, at: ScheduledAt) -> bool {
            self.pending.remove(&at.seq)
        }

        fn pop(&mut self) -> Option<(VTime, E)> {
            while let Some(Reverse((at, event))) = self.heap.pop() {
                if self.pending.remove(&at.seq) {
                    self.now = at.time;
                    return Some((at.time, event));
                }
            }
            None
        }

        fn pop_due(&mut self, deadline: VTime) -> Option<(VTime, E)> {
            while self.heap.peek().is_some_and(|Reverse((at, _))| at.time <= deadline) {
                let Reverse((at, event)) = self.heap.pop()?;
                self.now = at.time;
                if self.pending.remove(&at.seq) {
                    return Some((at.time, event));
                }
            }
            None
        }

        fn peek_time(&self) -> Option<VTime> {
            self.heap.peek().map(|Reverse((at, _))| at.time)
        }
    }

    #[test]
    fn fifo_within_same_tick() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(VTime(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(VTime(3), ());
        q.schedule(VTime(9), ());
        assert_eq!(q.now(), VTime::ZERO);
        q.pop();
        assert_eq!(q.now(), VTime(3));
        q.pop();
        assert_eq!(q.now(), VTime(9));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(VTime(1), "a");
        q.schedule(VTime(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must fail");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_fails() {
        let mut q = EventQueue::new();
        let a = q.schedule(VTime(1), "a");
        q.pop();
        assert!(!q.cancel(a));
        // Also while later work on the fired handle's tick is pending.
        let b = q.schedule(VTime(4), "b");
        let c = q.schedule(VTime(4), "c");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        // `d` lands on `b`'s tick, above it in seq order.
        let d = q.schedule(VTime(4), "d");
        assert!(!q.cancel(b), "b fired");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(d));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert!(!q.cancel(c), "c fired");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_of_a_skipped_entry_fails() {
        let mut q = EventQueue::new();
        let a = q.schedule(VTime(1), "a");
        q.schedule(VTime(2), "b");
        assert!(q.cancel(a));
        // `pop` skips `a`'s entry on its way to `b` and forgets it.
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(!q.cancel(a), "a's entry is gone");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_through_cancelled_entries_then_reuse() {
        let mut q = EventQueue::new();
        q.schedule(VTime(1), "first");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        let b = q.schedule(VTime(50), "b");
        let c = q.schedule(VTime(90), "c");
        assert!(q.cancel(b) && q.cancel(c));
        // The wheel runs dry through two cancelled entries; the clock
        // stays at the last fired event.
        assert!(q.pop().is_none());
        assert_eq!(q.now(), VTime(1));
        assert!(!q.cancel(b) && !q.cancel(c), "drained entries are gone");
        assert_eq!(q.len(), 0);
        // New handles sort below the drained ones yet are live.
        let d = q.schedule(VTime(2), "d");
        q.schedule(VTime(3), "e");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(d));
        assert!(!q.cancel(d), "double cancel must fail");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((VTime(3), "e")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_due_skips_a_cancelled_head_and_stops_at_the_deadline() {
        let mut q = EventQueue::new();
        let dead = q.schedule(VTime(10), "dead");
        q.schedule(VTime(30), "live");
        assert!(q.cancel(dead));
        assert_eq!(q.peek_time(), Some(VTime(10)), "peek counts the cancelled entry");
        assert!(q.pop_due(VTime(20)).is_none(), "the live event lies past the deadline");
        assert!(!q.cancel(dead), "the discarded entry is gone");
        assert_eq!(q.len(), 1);
        // The clock followed the discarded entry; later work lands above it.
        assert_eq!(q.now(), VTime(10));
        let mid = q.schedule(VTime(15), "mid");
        assert!(q.cancel(mid));
        assert!(q.pop_due(VTime(29)).is_none());
        assert_eq!(q.pop_due(VTime(30)), Some((VTime(30), "live")));
        assert!(q.pop_due(VTime(u64::MAX)).is_none());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(VTime(1), ());
        q.schedule(VTime(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(VTime(10), 10u64);
        q.schedule(VTime(5), 5);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (VTime(5), 5));
        q.schedule(t + Dur(1), 6);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![6, 10]);
    }

    /// Far-future times exercise the top wheel levels, including the
    /// partial 11th level where the slot index has only four live bits,
    /// and multi-level cascades on the way back down. Scheduling in
    /// descending time order leaves upper slots (65 before 64) out of
    /// time order; the cascades must still pop by time.
    #[test]
    fn far_future_and_overflow_buckets() {
        let mut q = EventQueue::new();
        let mut heap = HeapQueue::new();
        let times = [
            u64::MAX,
            u64::MAX - 1,
            1u64 << 63,
            (1u64 << 60) + 5,
            (1u64 << 36) + 1,
            1u64 << 12,
            65,
            64,
            63,
            1,
            0,
        ];
        for (i, t) in times.iter().enumerate() {
            q.schedule(VTime(*t), i);
            heap.schedule(VTime(*t), i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expected: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(popped, expected);
        assert_eq!(q.now(), VTime(u64::MAX));
        // The drained wheel accepts new (same-tick) work at the far edge.
        q.schedule(VTime(u64::MAX), 99usize);
        assert_eq!(q.pop().map(|(t, e)| (t.0, e)), Some((u64::MAX, 99)));
    }

    #[test]
    fn peek_matches_heap_semantics_including_cancelled() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let wa = wheel.schedule(VTime(5), "dead");
        let ha = heap.schedule(VTime(5), "dead");
        wheel.schedule(VTime(9), "live");
        heap.schedule(VTime(9), "live");
        wheel.cancel(wa);
        heap.cancel(ha);
        // Both queues report the cancelled entry's earlier time: peek is
        // a conservative lower bound under lazy cancellation.
        assert_eq!(wheel.peek_time(), Some(VTime(5)));
        assert_eq!(heap.peek_time(), wheel.peek_time());
        assert_eq!(wheel.pop().map(|(_, e)| e), Some("live"));
        assert_eq!(wheel.peek_time(), None);
    }

    proptest! {
        /// Popping always yields events in nondecreasing time order, and
        /// within a tick in insertion order.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(VTime(*t), i);
            }
            let mut last: Option<(VTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                prop_assert_eq!(t, VTime(times[i]));
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "same-tick events must pop in insertion order");
                    }
                }
                last = Some((t, i));
            }
        }

        /// Differential oracle: the wheel and the reference heap agree on
        /// the exact (time, payload) pop stream — and on every peek and
        /// clock reading along the way — under random interleavings of
        /// scheduling, cancellation, partial draining and runs to a
        /// deadline.
        #[test]
        fn prop_wheel_matches_heap_oracle(
            ops in proptest::collection::vec((0u8..5, 0u64..1_000_000, 0usize..64), 1..300),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut handles: Vec<(ScheduledAt, ScheduledAt)> = Vec::new();
            for (kind, dt, pick) in ops {
                match kind {
                    // Schedule at now + dt (dt may be 0: same-tick fifo).
                    0 | 1 => {
                        let t = VTime(wheel.now().0.saturating_add(dt));
                        let id = handles.len();
                        let w = wheel.schedule(t, id);
                        let h = heap.schedule(t, id);
                        prop_assert_eq!(w, h, "handles must be identical");
                        handles.push((w, h));
                    }
                    // Cancel a previously issued handle (possibly stale).
                    2 if !handles.is_empty() => {
                        let (w, h) = handles[pick % handles.len()];
                        prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                    }
                    // Pop the events due by now + dt.
                    3 => {
                        let deadline = VTime(wheel.now().0.saturating_add(dt / 4));
                        prop_assert_eq!(wheel.pop_due(deadline), heap.pop_due(deadline));
                        prop_assert_eq!(wheel.now(), heap.now);
                    }
                    // Pop one event.
                    _ => {
                        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                        prop_assert_eq!(wheel.pop(), heap.pop());
                        prop_assert_eq!(wheel.now(), heap.now);
                    }
                }
                prop_assert_eq!(wheel.len(), heap.pending.len());
            }
            // Drain both to the end: the full tail must agree too.
            loop {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                let (w, h) = (wheel.pop(), heap.pop());
                prop_assert_eq!(w, h);
                prop_assert_eq!(wheel.now(), heap.now);
                if w.is_none() {
                    break;
                }
            }
        }
    }
}
