//! Property tests of the bus guarantees the fault-tolerance scheme
//! rests on (§5.1): transmission windows are exclusive and ordered, so
//! a frame reaches all of its destinations before any later frame
//! reaches any of its destinations.

use auros_bus::proto::{ChanEnd, ChannelId, Side};
use auros_bus::{
    BusFabric, DeliveryTag, Frame, FrameClass, LinkLedger, Message, MsgId, Payload, Pid,
};
use auros_sim::{Dur, VTime};
use proptest::prelude::*;

proptest! {
    /// Reserved windows never overlap and never reorder.
    #[test]
    fn prop_windows_disjoint_and_ordered(
        requests in proptest::collection::vec((0u64..10_000, 1u64..500, 0usize..4096), 1..300),
    ) {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        let mut prev_end = VTime::ZERO;
        for (earliest, xmit, bytes) in requests {
            let r = bus
                .reserve_routed(0, std::iter::empty(), VTime(earliest), Dur(xmit), bytes)
                .expect("healthy bus");
            prop_assert!(r.start >= prev_end, "window starts inside an earlier one");
            prop_assert!(r.start >= VTime(earliest), "window begins before the sender is ready");
            prop_assert_eq!(r.deliver_at, r.start + Dur(xmit));
            prev_end = r.deliver_at;
        }
    }

    /// Counters account exactly for what was reserved.
    #[test]
    fn prop_counters_are_exact(
        requests in proptest::collection::vec((1u64..100, 1usize..2048), 1..100),
    ) {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        let mut busy = 0u64;
        let mut bytes_total = 0u64;
        for (xmit, bytes) in &requests {
            bus.reserve_routed(0, std::iter::empty(), VTime::ZERO, Dur(*xmit), *bytes);
            busy += xmit;
            bytes_total += *bytes as u64;
        }
        let c = bus.counters(auros_bus::BusKind::A);
        prop_assert_eq!(c.frames, requests.len() as u64);
        prop_assert_eq!(c.busy, busy);
        prop_assert_eq!(c.bytes, bytes_total);
    }

    /// Frame wire size is monotone in payload and target count, so the
    /// cost model can never be gamed by splitting.
    #[test]
    fn prop_wire_size_monotone(data_len in 0usize..4096, extra_targets in 0usize..3) {
        let end = ChanEnd { channel: ChannelId(1), side: Side::A };
        let base = Frame::new(
            auros_bus::ClusterId(0),
            vec![(auros_bus::ClusterId(1), DeliveryTag::Primary(end))],
            Message {
                id: MsgId(0),
                src: Pid(1),
                payload: Payload::Data(vec![0; data_len].into()),
                nondet: vec![],
            },
        );
        let mut bigger = base.clone();
        bigger.msg.payload = Payload::Data(vec![0; data_len + 1].into());
        for i in 0..extra_targets {
            bigger.targets.push((
                auros_bus::ClusterId(2 + i as u16),
                DeliveryTag::DestBackup(end),
            ));
        }
        prop_assert!(bigger.wire_size() > base.wire_size());
    }

    /// The reliable-delivery satellite property: under any seeded mix of
    /// drop (retransmit later), duplicate, and delay faults, the
    /// per-destination delivered sequence equals the fault-free sequence
    /// — idempotent, gap-free, and in order.
    #[test]
    fn prop_link_restores_fifo_under_faults(
        faults in proptest::collection::vec(0u8..4, 1..80),
    ) {
        let mut ledger = LinkLedger::default();
        let n = faults.len();
        // Sender: stamp frames 0..n on the link 0 -> 1.
        let stamped: Vec<u64> =
            (0..n).map(|_| ledger.stamp(0, [1u16].into_iter())[0]).collect();
        prop_assert_eq!(&stamped, &(0..n as u64).collect::<Vec<_>>());
        // Wire: assign each copy an arrival key the fault mix dictates.
        // Clean frames arrive at 2*seq; duplicates add a second copy one
        // key later; delayed frames slip past ~two successors; dropped
        // frames are retransmitted after everything else.
        let mut timeline: Vec<(u64, u64)> = Vec::new();
        for (i, f) in faults.iter().enumerate() {
            let seq = i as u64;
            let t = 2 * seq;
            match f {
                0 => timeline.push((t, seq)),
                1 => timeline.push((2 * n as u64 + seq, seq)),
                2 => {
                    timeline.push((t, seq));
                    timeline.push((t + 1, seq));
                }
                _ => timeline.push((t + 5, seq)),
            }
        }
        timeline.sort_by_key(|&(k, s)| (k, s));
        let arrivals: Vec<u64> = timeline.into_iter().map(|(_, s)| s).collect();
        // Receiver: classify each arrival, holding gap frames.
        let mut held: Vec<u64> = Vec::new();
        let mut delivered: Vec<u64> = Vec::new();
        let live = |_c: u16| true;
        let accept = |seq: u64, ledger: &mut LinkLedger, delivered: &mut Vec<u64>| {
            match ledger.classify(0, &[(1, seq)], live) {
                FrameClass::Ready => {
                    ledger.advance(0, &[(1, seq)]);
                    delivered.push(seq);
                    true
                }
                FrameClass::Duplicate => true,
                FrameClass::Hold => false,
            }
        };
        for seq in arrivals {
            if !accept(seq, &mut ledger, &mut delivered) {
                held.push(seq);
            }
            // Drain the hold buffer to a fixpoint after each arrival.
            loop {
                let before = held.len();
                held.retain(|&s| !accept(s, &mut ledger, &mut delivered));
                if held.len() == before {
                    break;
                }
            }
        }
        prop_assert!(held.is_empty(), "every frame eventually delivers");
        prop_assert_eq!(delivered, (0..n as u64).collect::<Vec<_>>(),
            "delivered sequence equals the fault-free sequence");
    }
}
