//! Frames: one bus transmission, several deliveries.
//!
//! §5.1: every message sent from one primary process to another is
//! actually sent to three destinations — the primary destination, the
//! backup of the destination, and the backup of the sender — yet §7.4.2
//! transmits it *once* over the intercluster bus; each target cluster
//! picks the transmission up and interprets its copy according to the
//! routing header. [`DeliveryTag`] is that header entry.

use crate::ids::ClusterId;
use crate::proto::{ChanEnd, Payload};
use crate::Pid;

/// Unique message identifier, for tracing only; never load-bearing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(pub u64);

/// How one target cluster must treat its copy of a frame (§7.4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryTag {
    /// Queue on the primary destination's routing entry and wake any
    /// process awaiting a message on the channel.
    Primary(ChanEnd),
    /// Queue on the destination's *backup* routing entry; wake nobody.
    /// Read only upon rollforward after a failure.
    DestBackup(ChanEnd),
    /// Increment the writes-since-sync count on the *sender's* backup
    /// routing entry and discard the message.
    SenderBackup(ChanEnd),
    /// Deliver to the target cluster's kernel (sync messages, birth
    /// notices, and other control traffic).
    Kernel,
}

/// A message as it travels: source process plus payload.
#[derive(Clone, Debug)]
pub struct Message {
    /// Trace identifier.
    pub id: MsgId,
    /// Sending process (a pseudo-pid for kernel-originated traffic).
    pub src: Pid,
    /// The protocol payload.
    pub payload: Payload,
    /// Piggybacked nondeterministic-event results (§10): the sender's
    /// backup logs these from its copy, so rollforward replays them.
    pub nondet: Vec<u64>,
}

impl Message {
    /// Approximate size on the wire, for bus cost accounting.
    pub fn wire_size(&self) -> usize {
        16 + self.nondet.len() * 8 + self.payload.wire_size()
    }
}

/// One bus transmission: a message plus its routing header.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The transmitting cluster.
    pub src_cluster: ClusterId,
    /// Target clusters with per-cluster treatment. At most one `Primary`
    /// target (there can be at most one local destination, §7.4.2).
    pub targets: Vec<(ClusterId, DeliveryTag)>,
    /// The message carried.
    pub msg: Message,
    /// Per-(sender, destination) link sequence numbers, parallel to
    /// `targets`; assigned by [`Frame::seal`] just before transmission.
    /// Empty until sealed.
    pub seqs: Vec<u64>,
    /// Header checksum set by [`Frame::seal`]; zero means unsealed.
    /// Covers identity, routing, and sequencing — the fields a mangled
    /// wire transfer would scramble.
    pub checksum: u64,
}

impl Frame {
    /// A fresh, unsealed frame.
    pub fn new(
        src_cluster: ClusterId,
        targets: Vec<(ClusterId, DeliveryTag)>,
        msg: Message,
    ) -> Frame {
        Frame { src_cluster, targets, msg, seqs: Vec::new(), checksum: 0 }
    }

    /// Approximate size on the wire.
    ///
    /// The checksum and sequence numbers model header bits the hardware
    /// already transfers; they do not change the cost model.
    pub fn wire_size(&self) -> usize {
        8 + self.targets.len() * 8 + self.msg.wire_size()
    }

    /// Asserts the structural invariant: at most one `Primary` tag.
    pub fn check_invariants(&self) -> Result<(), String> {
        let primaries =
            self.targets.iter().filter(|(_, t)| matches!(t, DeliveryTag::Primary(_))).count();
        if primaries > 1 {
            return Err(format!("frame has {primaries} primary destinations"));
        }
        if !self.seqs.is_empty() && self.seqs.len() != self.targets.len() {
            return Err(format!(
                "sealed frame has {} seqs for {} targets",
                self.seqs.len(),
                self.targets.len()
            ));
        }
        Ok(())
    }

    /// Stamps the frame with its link sequence numbers and computes the
    /// header checksum. Called once, at transmission time, after the
    /// final target set is known.
    pub fn seal(&mut self, seqs: Vec<u64>) {
        debug_assert_eq!(seqs.len(), self.targets.len());
        self.seqs = seqs;
        let sum = self.compute_checksum();
        // Zero is reserved for "unsealed"; remap so a sealed frame always
        // carries a nonzero checksum.
        self.checksum = if sum == 0 { 1 } else { sum };
    }

    /// Receiver-side integrity check. Unsealed frames (checksum zero, as
    /// built by unit tests that bypass the wire) are vacuously valid.
    pub fn verify(&self) -> bool {
        if self.checksum == 0 {
            return true;
        }
        let sum = self.compute_checksum();
        self.checksum == if sum == 0 { 1 } else { sum }
    }

    /// Marks the frame as damaged in transit (fault injection only):
    /// [`Frame::verify`] is guaranteed to fail afterwards.
    pub fn corrupt(&mut self) {
        self.checksum ^= 0x5A5A_5A5A_5A5A_5A5A;
        if self.checksum == 0 || self.verify() {
            self.checksum = self.checksum.wrapping_add(1).max(2);
        }
    }

    /// A multiply-xorshift fold over the header fields, one 64-bit word
    /// per step and allocation-free. Each step is a bijection of the
    /// running sum, so changing any one word changes the checksum. The
    /// payload body contributes only its length: the simulated wire
    /// mangles headers and the cost model charges for bytes, but payload
    /// storage is shared and must not be walked per transmission.
    fn compute_checksum(&self) -> u64 {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = SEED;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(MUL);
            h ^= h >> 32;
        };
        mix(self.src_cluster.0 as u64);
        mix(self.msg.id.0);
        mix(self.msg.src.0);
        mix(self.msg.payload.wire_size() as u64);
        for &n in &self.msg.nondet {
            mix(n);
        }
        for (i, (cid, tag)) in self.targets.iter().enumerate() {
            let (code, end) = match tag {
                DeliveryTag::Primary(e) => (1u64, Some(e)),
                DeliveryTag::DestBackup(e) => (2, Some(e)),
                DeliveryTag::SenderBackup(e) => (3, Some(e)),
                DeliveryTag::Kernel => (4, None),
            };
            mix(cid.0 as u64);
            mix(code);
            if let Some(e) = end {
                mix(e.channel.0);
                mix(match e.side {
                    crate::proto::Side::A => 0,
                    crate::proto::Side::B => 1,
                });
            }
            mix(self.seqs.get(i).copied().unwrap_or(0));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::SharedBytes;
    use crate::proto::{ChannelId, Side};
    use proptest::prelude::*;

    fn end() -> ChanEnd {
        ChanEnd { channel: ChannelId(1), side: Side::A }
    }

    #[test]
    fn at_most_one_primary_target() {
        let msg = Message {
            id: MsgId(1),
            src: Pid(1),
            payload: Payload::Data(SharedBytes::empty()),
            nondet: vec![],
        };
        let bad = Frame::new(
            ClusterId(0),
            vec![
                (ClusterId(1), DeliveryTag::Primary(end())),
                (ClusterId(2), DeliveryTag::Primary(end())),
            ],
            msg.clone(),
        );
        assert!(bad.check_invariants().is_err());
        let good = Frame::new(
            ClusterId(0),
            vec![
                (ClusterId(1), DeliveryTag::Primary(end())),
                (ClusterId(2), DeliveryTag::DestBackup(end())),
                (ClusterId(0), DeliveryTag::SenderBackup(end())),
            ],
            msg,
        );
        assert!(good.check_invariants().is_ok());
    }

    fn sealed() -> Frame {
        let msg = Message {
            id: MsgId(7),
            src: Pid(3),
            payload: Payload::Data(vec![1, 2, 3].into()),
            nondet: vec![42],
        };
        let mut f = Frame::new(
            ClusterId(0),
            vec![
                (ClusterId(1), DeliveryTag::Primary(end())),
                (ClusterId(2), DeliveryTag::DestBackup(end())),
            ],
            msg,
        );
        f.seal(vec![10, 11]);
        f
    }

    #[test]
    fn seal_then_verify_round_trips() {
        let f = sealed();
        assert_ne!(f.checksum, 0, "sealed frames carry a nonzero checksum");
        assert!(f.verify());
        assert!(f.check_invariants().is_ok());
    }

    #[test]
    fn corruption_is_always_caught() {
        let mut f = sealed();
        f.corrupt();
        assert!(!f.verify(), "a corrupted frame must fail verification");
    }

    #[test]
    fn checksum_covers_sequencing_and_routing() {
        let a = sealed();
        let mut b = sealed();
        b.seqs[0] += 1;
        assert_ne!(a.compute_checksum(), b.compute_checksum(), "seq change alters checksum");
        let mut c = sealed();
        c.targets[0].0 = ClusterId(3);
        assert_ne!(a.compute_checksum(), c.compute_checksum(), "target change alters checksum");
    }

    fn tag(code: u8, end: ChanEnd) -> DeliveryTag {
        match code {
            0 => DeliveryTag::Primary(end),
            1 => DeliveryTag::DestBackup(end),
            2 => DeliveryTag::SenderBackup(end),
            _ => DeliveryTag::Kernel,
        }
    }

    fn end_mut(tag: &mut DeliveryTag) -> Option<&mut ChanEnd> {
        match tag {
            DeliveryTag::Primary(e) | DeliveryTag::DestBackup(e) | DeliveryTag::SenderBackup(e) => {
                Some(e)
            }
            DeliveryTag::Kernel => None,
        }
    }

    /// A named change to one header field.
    type Mutation<'a> = (&'a str, &'a dyn Fn(&mut Frame));

    proptest! {
        /// Changing any one header field of a sealed frame makes
        /// `verify` fail, and so does `corrupt`.
        #[test]
        fn prop_any_header_change_fails_verify(
            ids in (any::<u16>(), any::<u64>(), any::<u64>()),
            nondet in proptest::collection::vec(any::<u64>(), 1..4),
            targets in proptest::collection::vec(
                (any::<u16>(), 0u8..4, any::<u64>(), any::<bool>(), any::<u64>()),
                1..4,
            ),
            pick in any::<usize>(),
            delta in any::<u64>(),
        ) {
            let (src_cluster, id, src) = ids;
            let msg = Message {
                id: MsgId(id),
                src: Pid(src),
                payload: Payload::Data(vec![1, 2, 3].into()),
                nondet: nondet.clone(),
            };
            // Tag codes as in `tag`; the first target's names an end.
            let codes: Vec<u8> =
                targets.iter().enumerate().map(|(i, t)| if i == 0 { t.1 % 3 } else { t.1 }).collect();
            let header: Vec<_> = targets
                .iter()
                .zip(&codes)
                .map(|(&(cid, _, channel, b, _), &code)| {
                    let side = if b { Side::B } else { Side::A };
                    (ClusterId(cid), tag(code, ChanEnd { channel: ChannelId(channel), side }))
                })
                .collect();
            let mut frame = Frame::new(ClusterId(src_cluster), header, msg);
            frame.seal(targets.iter().map(|t| t.4).collect());
            prop_assert!(frame.verify());

            let d = delta.max(1);
            let d16 = (delta as u16).max(1);
            let i = pick % targets.len();
            let j = pick % nondet.len();
            // The end to change: target `i`'s, or the first target's when
            // `i` is a kernel target.
            let e = if end_mut(&mut frame.targets[i].1).is_some() { i } else { 0 };
            let mutations: [Mutation; 10] = [
                ("source cluster", &|f| f.src_cluster.0 ^= d16),
                ("message id", &|f| f.msg.id.0 ^= d),
                ("source pid", &|f| f.msg.src.0 ^= d),
                ("target cluster", &|f| f.targets[i].0 .0 ^= d16),
                ("tag", &|f| {
                    let code = (codes[i] + 1 + (delta % 3) as u8) % 4;
                    let end = end_mut(&mut f.targets[e].1).copied().unwrap_or(end());
                    f.targets[i].1 = tag(code, end);
                }),
                ("end channel", &|f| end_mut(&mut f.targets[e].1).unwrap().channel.0 ^= d),
                ("end side", &|f| {
                    let end = end_mut(&mut f.targets[e].1).unwrap();
                    end.side = if end.side == Side::A { Side::B } else { Side::A };
                }),
                ("sequence number", &|f| f.seqs[i] ^= d),
                ("nondet word", &|f| f.msg.nondet[j] ^= d),
                ("corrupt()", &|f| f.corrupt()),
            ];
            for (field, mutate) in mutations {
                let mut f = frame.clone();
                mutate(&mut f);
                prop_assert!(!f.verify(), "changing the {field} left the checksum valid");
            }
        }
    }

    #[test]
    fn seal_does_not_change_wire_size() {
        let msg = Message {
            id: MsgId(7),
            src: Pid(3),
            payload: Payload::Data(vec![0; 64].into()),
            nondet: vec![],
        };
        let mut f =
            Frame::new(ClusterId(0), vec![(ClusterId(1), DeliveryTag::Primary(end()))], msg);
        let before = f.wire_size();
        f.seal(vec![0]);
        assert_eq!(f.wire_size(), before, "checksum/seqs are header bits, not billed bytes");
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let small = Message {
            id: MsgId(1),
            src: Pid(1),
            payload: Payload::Data(vec![0; 8].into()),
            nondet: vec![],
        };
        let large = Message {
            id: MsgId(2),
            src: Pid(1),
            payload: Payload::Data(vec![0; 800].into()),
            nondet: vec![],
        };
        assert!(large.wire_size() > small.wire_size());
    }
}
