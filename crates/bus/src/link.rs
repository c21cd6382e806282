//! Link-level sequencing: duplicate suppression and FIFO restoration.
//!
//! §5.1/§7.4.2 assume the hardware bus delivers every frame exactly
//! once, in transmission order. A lossy wire with retransmission breaks
//! both assumptions *below* the abstraction: a retransmitted frame may
//! arrive twice, and a delayed frame may arrive after its successors.
//! The [`LinkLedger`] re-earns the abstraction: each (sender cluster,
//! destination cluster) link carries a monotonically increasing sequence
//! number, and the receiver delivers a frame only when every live target
//! is seeing exactly the sequence number it expects next. Frames behind
//! a gap are held; frames already consumed are suppressed. Because a
//! frame is classified *as a whole* (all targets agree or none deliver),
//! the all-or-none and non-interleaving invariants survive the faults.

/// Receiver verdict for an arriving frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameClass {
    /// Every live target expects exactly these sequence numbers: deliver.
    Ready,
    /// Every live target has already consumed these sequence numbers: a
    /// retransmission or wire duplicate; suppress.
    Duplicate,
    /// Some live target has a gap before these sequence numbers: hold
    /// until the missing frame arrives (or is abandoned).
    Hold,
}

/// One (sender, destination) link: both ends' counters in one record.
#[derive(Debug)]
struct Link {
    dst: u16,
    /// Next sequence number to assign (sender side). Zero until the
    /// first stamp.
    tx: u64,
    /// Next sequence number expected (receiver side).
    expected: u64,
}

/// Per-link sequence bookkeeping, keyed by (sender, destination) cluster.
#[derive(Debug, Default)]
pub struct LinkLedger {
    /// The links out of each sender, indexed by sender cluster, each
    /// list sorted by destination. A sender talks to a handful of
    /// clusters, so a binary search over its own list costs the same on
    /// a 4-cluster machine as on a 4,096-cluster fleet.
    links: Vec<Vec<Link>>,
}

impl LinkLedger {
    /// The link from `src` to `dst`, if either end has used it.
    fn link(&self, src: u16, dst: u16) -> Option<&Link> {
        let out = self.links.get(src as usize)?;
        out.binary_search_by_key(&dst, |l| l.dst).ok().map(|i| &out[i])
    }

    /// The link from `src` to `dst`, created at zero on first use.
    fn link_mut(&mut self, src: u16, dst: u16) -> &mut Link {
        let s = src as usize;
        if self.links.len() <= s {
            self.links.resize_with(s + 1, Vec::new);
        }
        let out = &mut self.links[s];
        let i = out.binary_search_by_key(&dst, |l| l.dst).unwrap_or_else(|i| {
            out.insert(i, Link { dst, tx: 0, expected: 0 });
            i
        });
        &mut out[i]
    }

    /// Assigns sequence numbers for a frame from `src` to the given
    /// destination clusters, in header order. A destination that appears
    /// twice in one frame receives consecutive numbers.
    pub fn stamp(&mut self, src: u16, dests: impl Iterator<Item = u16>) -> Vec<u64> {
        dests
            .map(|dst| {
                let link = self.link_mut(src, dst);
                link.tx += 1;
                link.tx - 1
            })
            .collect()
    }

    /// Classifies an arriving frame given its `(destination, seq)` pairs.
    /// Only targets for which `live` holds participate: a dead cluster
    /// can neither demand in-order delivery nor veto it. An empty pair
    /// list (or an all-dead target set) is `Ready`: the delivery loop
    /// will skip the dead targets itself.
    pub fn classify(
        &self,
        src: u16,
        pairs: &[(u16, u64)],
        mut live: impl FnMut(u16) -> bool,
    ) -> FrameClass {
        let mut dup = 0usize;
        let mut considered = 0usize;
        for (i, &(dst, seq)) in pairs.iter().enumerate() {
            // A frame can address the same destination twice; simulate
            // sequential consumption: each earlier pair to `dst` in this
            // frame moves the expectation one further.
            let off = pairs[..i].iter().filter(|&&(d, _)| d == dst).count() as u64;
            let expected = self.link(src, dst).map_or(0, |l| l.expected) + off;
            if !live(dst) {
                continue;
            }
            considered += 1;
            if seq > expected {
                return FrameClass::Hold;
            }
            if seq < expected {
                dup += 1;
            }
        }
        if considered > 0 && dup == considered {
            FrameClass::Duplicate
        } else {
            FrameClass::Ready
        }
    }

    /// Records a frame as consumed: each link's expectation advances past
    /// the frame's sequence numbers (dead targets included, so a later
    /// restore does not stall on frames it never needed).
    pub fn advance(&mut self, src: u16, pairs: &[(u16, u64)]) {
        for &(dst, seq) in pairs {
            let link = self.link_mut(src, dst);
            link.expected = link.expected.max(seq + 1);
        }
    }

    /// Consumes a frame *without* delivery — it was lost for good
    /// (abandoned retransmission, double bus failure, source crashed
    /// before transmission). Advancing the expectation keeps the loss
    /// from stalling every later frame on the same links.
    pub fn skip(&mut self, src: u16, pairs: &[(u16, u64)]) {
        self.advance(src, pairs);
    }

    /// Re-aligns every link into `dst` with the sender side, as part of
    /// cluster restore: the rebuilt cluster has no delivery history, so
    /// it expects only traffic stamped from now on.
    pub fn resync_into(&mut self, dst: u16) {
        for out in &mut self.links {
            if let Ok(i) = out.binary_search_by_key(&dst, |l| l.dst) {
                out[i].expected = out[i].tx;
            }
        }
    }

    /// Next expected sequence on one link (receiver view); for tests.
    pub fn next_expected(&self, src: u16, dst: u16) -> u64 {
        self.link(src, dst).map_or(0, |l| l.expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The reference ledger [`LinkLedger`] is held to: two maps keyed by
    /// `(sender, destination)`, with a per-destination offset map built
    /// in every `classify`. Any disagreement between the two on a
    /// verdict, a stamp or an expectation is a bug in the ledger.
    #[derive(Default)]
    struct MapLedger {
        tx: BTreeMap<(u16, u16), u64>,
        expected: BTreeMap<(u16, u16), u64>,
    }

    impl MapLedger {
        fn stamp(&mut self, src: u16, dests: impl Iterator<Item = u16>) -> Vec<u64> {
            dests
                .map(|dst| {
                    let next = self.tx.entry((src, dst)).or_insert(0);
                    let seq = *next;
                    *next += 1;
                    seq
                })
                .collect()
        }

        fn classify(
            &self,
            src: u16,
            pairs: &[(u16, u64)],
            mut live: impl FnMut(u16) -> bool,
        ) -> FrameClass {
            let mut offset: BTreeMap<u16, u64> = BTreeMap::new();
            let mut dup = 0usize;
            let mut considered = 0usize;
            for &(dst, seq) in pairs {
                let off = offset.entry(dst).or_insert(0);
                let expected = self.expected.get(&(src, dst)).copied().unwrap_or(0) + *off;
                *off += 1;
                if !live(dst) {
                    continue;
                }
                considered += 1;
                if seq > expected {
                    return FrameClass::Hold;
                }
                if seq < expected {
                    dup += 1;
                }
            }
            if considered > 0 && dup == considered {
                FrameClass::Duplicate
            } else {
                FrameClass::Ready
            }
        }

        fn advance(&mut self, src: u16, pairs: &[(u16, u64)]) {
            for &(dst, seq) in pairs {
                let e = self.expected.entry((src, dst)).or_insert(0);
                *e = (*e).max(seq + 1);
            }
        }

        fn resync_into(&mut self, dst: u16) {
            for (&(s, d), &tx) in &self.tx {
                if d == dst {
                    self.expected.insert((s, d), tx);
                }
            }
        }

        fn next_expected(&self, src: u16, dst: u16) -> u64 {
            self.expected.get(&(src, dst)).copied().unwrap_or(0)
        }
    }

    /// Clusters the differential test draws senders and targets from.
    const CLUSTERS: u16 = 5;

    fn all_live(_: u16) -> bool {
        true
    }

    #[test]
    fn in_order_frames_are_ready() {
        let mut l = LinkLedger::default();
        let s0 = l.stamp(0, [1u16, 2].into_iter());
        let s1 = l.stamp(0, [1u16, 2].into_iter());
        assert_eq!(s0, vec![0, 0]);
        assert_eq!(s1, vec![1, 1]);
        let p0 = [(1u16, 0u64), (2, 0)];
        assert_eq!(l.classify(0, &p0, all_live), FrameClass::Ready);
        l.advance(0, &p0);
        let p1 = [(1u16, 1u64), (2, 1)];
        assert_eq!(l.classify(0, &p1, all_live), FrameClass::Ready);
    }

    #[test]
    fn gap_holds_and_old_frames_suppress() {
        let mut l = LinkLedger::default();
        l.stamp(0, [1u16].into_iter());
        l.stamp(0, [1u16].into_iter());
        assert_eq!(l.classify(0, &[(1, 1)], all_live), FrameClass::Hold, "seq 1 before seq 0");
        l.advance(0, &[(1, 0)]);
        l.advance(0, &[(1, 1)]);
        assert_eq!(l.classify(0, &[(1, 0)], all_live), FrameClass::Duplicate);
        assert_eq!(l.classify(0, &[(1, 1)], all_live), FrameClass::Duplicate);
    }

    #[test]
    fn dead_targets_neither_demand_nor_veto() {
        let mut l = LinkLedger::default();
        l.stamp(0, [1u16, 2].into_iter());
        l.stamp(0, [1u16, 2].into_iter());
        // Frame 1 arrives first; cluster 1 is dead, cluster 2 has a gap.
        let live = |c: u16| c != 1;
        assert_eq!(l.classify(0, &[(1, 1), (2, 1)], live), FrameClass::Hold);
        // Once the gap closes on the live target, the dead one is moot.
        l.advance(0, &[(1, 0), (2, 0)]);
        assert_eq!(l.classify(0, &[(1, 1), (2, 1)], live), FrameClass::Ready);
    }

    #[test]
    fn repeated_destination_gets_consecutive_seqs() {
        let mut l = LinkLedger::default();
        let s = l.stamp(0, [1u16, 1].into_iter());
        assert_eq!(s, vec![0, 1]);
        let pairs = [(1u16, 0u64), (1, 1)];
        assert_eq!(l.classify(0, &pairs, all_live), FrameClass::Ready);
        l.advance(0, &pairs);
        assert_eq!(l.classify(0, &pairs, all_live), FrameClass::Duplicate);
        assert_eq!(l.next_expected(0, 1), 2);
    }

    #[test]
    fn skip_unblocks_later_frames() {
        let mut l = LinkLedger::default();
        l.stamp(0, [1u16].into_iter());
        l.stamp(0, [1u16].into_iter());
        assert_eq!(l.classify(0, &[(1, 1)], all_live), FrameClass::Hold);
        l.skip(0, &[(1, 0)]);
        assert_eq!(l.classify(0, &[(1, 1)], all_live), FrameClass::Ready);
    }

    #[test]
    fn resync_into_forgives_lost_history() {
        let mut l = LinkLedger::default();
        l.stamp(0, [1u16].into_iter());
        l.stamp(0, [1u16].into_iter());
        l.stamp(2, [1u16].into_iter());
        l.resync_into(1);
        assert_eq!(l.next_expected(0, 1), 2);
        assert_eq!(l.next_expected(2, 1), 1);
        assert_eq!(l.classify(0, &[(1, 0)], all_live), FrameClass::Duplicate);
        let s = l.stamp(0, [1u16].into_iter());
        assert_eq!(l.classify(0, &[(1, s[0])], all_live), FrameClass::Ready);
    }

    proptest! {
        /// Differential oracle: the ledger and the two-map reference agree
        /// on every stamp, every verdict and every link expectation under
        /// random interleavings of sends (repeated destinations included),
        /// arrivals of any earlier frame (duplicates and out-of-order
        /// ones), dead targets, losses and restores.
        #[test]
        fn prop_ledger_matches_map_oracle(
            ops in proptest::collection::vec(
                (0u8..6, 0u16..CLUSTERS, (0u16..CLUSTERS, 0u16..CLUSTERS, 0u16..CLUSTERS), 0usize..64, 0u8..32),
                1..200,
            ),
        ) {
            let mut ledger = LinkLedger::default();
            let mut oracle = MapLedger::default();
            // Every stamped frame: (sender, its (destination, seq) pairs).
            let mut sent: Vec<(u16, Vec<(u16, u64)>)> = Vec::new();
            for (kind, src, (d0, d1, d2), pick, mask) in ops {
                // Bit c of `mask` kills cluster c for this arrival.
                let live = |c: u16| mask & (1 << c) == 0;
                match kind {
                    // Send a frame to one to three (possibly repeated)
                    // destinations.
                    0 | 1 => {
                        let dests: Vec<u16> =
                            [d0, d1, d2].into_iter().take(1 + pick % 3).collect();
                        let a = ledger.stamp(src, dests.iter().copied());
                        let b = oracle.stamp(src, dests.iter().copied());
                        prop_assert_eq!(&a, &b, "stamps must agree");
                        sent.push((src, dests.into_iter().zip(a).collect()));
                    }
                    // An arrival of any earlier frame: consumed if ready.
                    2 | 3 if !sent.is_empty() => {
                        let (s, pairs) = &sent[pick % sent.len()];
                        let class = ledger.classify(*s, pairs, live);
                        prop_assert_eq!(class, oracle.classify(*s, pairs, live));
                        if class == FrameClass::Ready {
                            ledger.advance(*s, pairs);
                            oracle.advance(*s, pairs);
                        }
                    }
                    // A frame lost for good.
                    4 if !sent.is_empty() => {
                        let (s, pairs) = &sent[pick % sent.len()];
                        ledger.skip(*s, pairs);
                        oracle.advance(*s, pairs);
                    }
                    // A restored cluster.
                    5 => {
                        ledger.resync_into(d0);
                        oracle.resync_into(d0);
                    }
                    _ => {}
                }
                for s in 0..CLUSTERS {
                    for d in 0..CLUSTERS {
                        prop_assert_eq!(ledger.next_expected(s, d), oracle.next_expected(s, d));
                    }
                }
            }
        }
    }
}
