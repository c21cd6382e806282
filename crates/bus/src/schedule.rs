//! The vocabulary of the dual bus's transmission schedule: which wire
//! of the pair, what a grant is, what a wire fault does and what each
//! wire counts. [`crate::BusFabric`] holds the pair and grants the
//! windows; the tests here pin its grant rule on one segment.

use auros_sim::{Dur, VTime};

/// Which physical bus of the dual pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusKind {
    /// Bus A (initially active).
    A,
    /// Bus B (standby).
    B,
}

impl BusKind {
    /// The wire's slot in the fabric's per-wire arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The other wire of the pair.
    pub(crate) fn other(self) -> BusKind {
        match self {
            BusKind::A => BusKind::B,
            BusKind::B => BusKind::A,
        }
    }
}

/// Per-bus traffic counters.
///
/// A frame is counted in `frames`/`bytes` exactly once — on its first
/// transmission. Every re-transmission of the same frame (failover or
/// protocol retry) is counted in `retries` instead, so delivered-traffic
/// figures are not inflated by the recovery machinery.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusCounters {
    /// Distinct frames transmitted (first attempts only).
    pub frames: u64,
    /// Payload bytes carried by first attempts.
    pub bytes: u64,
    /// Ticks the bus spent transmitting (all attempts).
    pub busy: u64,
    /// Re-transmission windows granted (failover or protocol retry).
    pub retries: u64,
}

impl From<BusKind> for auros_sim::trace::TraceBus {
    fn from(b: BusKind) -> auros_sim::trace::TraceBus {
        match b {
            BusKind::A => auros_sim::trace::TraceBus::A,
            BusKind::B => auros_sim::trace::TraceBus::B,
        }
    }
}

/// A transient fault the wire inflicts on one transmission window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireFault {
    /// The frame vanishes: no target receives it.
    Drop,
    /// The frame arrives with a mangled header; receiver checksums
    /// catch it.
    Corrupt,
    /// The frame arrives twice.
    Duplicate,
    /// The frame arrives late by the given extra ticks.
    Delay(Dur),
}

impl From<WireFault> for auros_sim::trace::TraceWireFault {
    fn from(w: WireFault) -> auros_sim::trace::TraceWireFault {
        match w {
            WireFault::Drop => auros_sim::trace::TraceWireFault::Drop,
            WireFault::Corrupt => auros_sim::trace::TraceWireFault::Corrupt,
            WireFault::Duplicate => auros_sim::trace::TraceWireFault::Duplicate,
            WireFault::Delay(d) => auros_sim::trace::TraceWireFault::Delay(d.as_ticks()),
        }
    }
}

/// An exclusive transmission window granted by
/// [`crate::BusFabric::reserve_routed`].
#[derive(Clone, Copy, Debug)]
pub struct Grant {
    /// When transmission begins.
    pub start: VTime,
    /// When the frame reaches all targets (absent faults).
    pub deliver_at: VTime,
    /// The bus that carries this window.
    pub bus: BusKind,
    /// A transient fault injected into this window, if any.
    pub fault: Option<WireFault>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusFabric;

    /// A first-attempt window on the one-segment fabric.
    fn reserve(bus: &mut BusFabric, earliest: VTime, xmit: Dur, bytes: usize) -> Option<Grant> {
        bus.reserve_routed(0, std::iter::empty(), earliest, xmit, bytes)
    }

    fn window(r: Grant) -> (VTime, VTime) {
        (r.start, r.deliver_at)
    }

    #[test]
    fn windows_are_disjoint_and_ordered() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        let w1 = window(reserve(&mut bus, VTime(0), Dur(10), 100).unwrap());
        let w2 = window(reserve(&mut bus, VTime(0), Dur(5), 50).unwrap());
        let w3 = window(reserve(&mut bus, VTime(100), Dur(5), 50).unwrap());
        assert_eq!(w1, (VTime(0), VTime(10)));
        assert_eq!(w2, (VTime(10), VTime(15)), "second frame waits for the first");
        assert_eq!(w3, (VTime(100), VTime(105)), "idle gap respected");
    }

    #[test]
    fn counters_accumulate() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        reserve(&mut bus, VTime(0), Dur(10), 100);
        reserve(&mut bus, VTime(0), Dur(10), 100);
        let c = bus.counters(BusKind::A);
        assert_eq!(c.frames, 2);
        assert_eq!(c.bytes, 200);
        assert_eq!(c.busy, 20);
        assert_eq!(bus.counters(BusKind::B).frames, 0);
    }

    #[test]
    fn failover_switches_bus() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        assert!(bus.fail(BusKind::A));
        assert_eq!(bus.active(), Some(BusKind::B));
        reserve(&mut bus, VTime(0), Dur(10), 1);
        assert_eq!(bus.counters(BusKind::B).frames, 1);
        assert!(!bus.fail(BusKind::B), "double bus fault exhausts the pair");
        assert!(reserve(&mut bus, VTime(0), Dur(1), 1).is_none());
    }

    #[test]
    fn fail_active_resets_standby_timeline() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        // A long frame occupies bus A far into the future.
        reserve(&mut bus, VTime(0), Dur(1_000), 64);
        assert_eq!(bus.segments[0].free_at, VTime(1_000));
        // A dies mid-window; B takes over with a clean schedule.
        assert_eq!(bus.fail_active(VTime(400)), Some(BusKind::B));
        assert_eq!(bus.segments[0].free_at, VTime(400), "standby is not encumbered by A's windows");
        let w = window(reserve(&mut bus, VTime(0), Dur(10), 64).unwrap());
        assert_eq!(w, (VTime(400), VTime(410)));
        assert_eq!(bus.counters(BusKind::B).frames, 1);
        // The second failure exhausts the pair.
        assert_eq!(bus.fail_active(VTime(500)), None);
        assert!(reserve(&mut bus, VTime(0), Dur(1), 1).is_none());
    }

    #[test]
    fn retries_do_not_inflate_delivered_traffic() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        reserve(&mut bus, VTime(0), Dur(10), 100);
        bus.reserve_retry_routed(0, std::iter::empty(), VTime(0), Dur(10), 100);
        bus.reserve_retry_routed(0, std::iter::empty(), VTime(0), Dur(10), 100);
        let c = bus.counters(BusKind::A);
        assert_eq!(c.frames, 1, "a frame is delivered traffic once");
        assert_eq!(c.bytes, 100, "retry bytes are not billed as traffic");
        assert_eq!(c.retries, 2);
        assert_eq!(c.busy, 30, "the wire was busy for every attempt");
    }

    #[test]
    fn armed_fault_hits_first_window_at_or_after_arm_time() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        bus.arm_fault(VTime(15), WireFault::Drop);
        let r1 = reserve(&mut bus, VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r1.fault, None, "window before the arm time is clean");
        let r2 = reserve(&mut bus, VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r2.fault, None, "start 10 < 15: still clean");
        let r3 = reserve(&mut bus, VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r3.fault, Some(WireFault::Drop), "start 20 >= 15 absorbs the fault");
        let r4 = reserve(&mut bus, VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r4.fault, None, "one-shot: consumed");
    }

    #[test]
    fn flaky_window_cycles_fault_kinds_deterministically() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        bus.add_flaky_window(VTime(0), VTime(100), BusKind::A);
        let kinds: Vec<_> =
            (0..4).map(|_| reserve(&mut bus, VTime(0), Dur(10), 1).unwrap().fault).collect();
        assert_eq!(
            kinds,
            vec![
                Some(WireFault::Drop),
                Some(WireFault::Corrupt),
                Some(WireFault::Drop),
                Some(WireFault::Duplicate),
            ]
        );
        assert_eq!(bus.consecutive_faults(BusKind::A), 4);
        // Past the window the bus is clean again and the streak resets.
        let r = reserve(&mut bus, VTime(100), Dur(10), 1).unwrap();
        assert_eq!(r.fault, None);
        assert_eq!(bus.consecutive_faults(BusKind::A), 0);
    }

    #[test]
    fn flaky_window_does_not_touch_the_other_bus() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        bus.add_flaky_window(VTime(0), VTime(1_000), BusKind::B);
        let r = reserve(&mut bus, VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r.bus, BusKind::A);
        assert_eq!(r.fault, None);
    }

    #[test]
    fn quarantine_moves_traffic_and_heal_restores_standby() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        reserve(&mut bus, VTime(0), Dur(100), 1);
        assert_eq!(bus.quarantine(BusKind::A, VTime(40)), Some(BusKind::B));
        assert!(bus.is_quarantined(BusKind::A));
        let r = reserve(&mut bus, VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r.bus, BusKind::B, "traffic moved to the standby");
        assert_eq!(r.start, VTime(40), "standby timeline starts at the quarantine instant");
        // Double-benching is refused once the standby is the only option.
        assert_eq!(bus.quarantine(BusKind::B, VTime(50)), None);
        bus.heal(BusKind::A);
        assert!(!bus.is_quarantined(BusKind::A));
        assert_eq!(bus.active(), Some(BusKind::B), "healed bus returns as standby, not active");
    }

    #[test]
    fn standby_failure_lifts_quarantine_out_of_necessity() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        assert_eq!(bus.quarantine(BusKind::A, VTime(10)), Some(BusKind::B));
        assert!(bus.fail(BusKind::B), "quarantined A still counts as healthy");
        assert!(!bus.is_quarantined(BusKind::A), "necessity overrides quarantine");
        let r = reserve(&mut bus, VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r.bus, BusKind::A);
    }

    #[test]
    fn fault_free_grants_probe_no_fault_structures() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        for _ in 0..10_000 {
            reserve(&mut bus, VTime(0), Dur(10), 16);
        }
        assert_eq!(bus.fault_probes, 0, "fault-free grants must not touch fault state");
        // Arming anything turns probing on — and the count stays honest.
        bus.arm_fault(VTime(0), WireFault::Drop);
        reserve(&mut bus, VTime(0), Dur(10), 16);
        assert_eq!(bus.fault_probes, 1);
    }

    #[test]
    fn flaky_window_matches_its_half_open_span() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        // Matched from both sides of an interior point.
        bus.add_flaky_window(VTime(4000), VTime(4200), BusKind::A);
        assert!(!bus.probe_ok(BusKind::A, VTime(4095)));
        assert!(!bus.probe_ok(BusKind::A, VTime(4100)));
        assert!(bus.probe_ok(BusKind::A, VTime(3999)));
        assert!(bus.probe_ok(BusKind::A, VTime(4200)));
        // A very wide window matches deep inside its span.
        bus.add_flaky_window(VTime(0), VTime(u64::MAX / 2), BusKind::B);
        assert!(!bus.probe_ok(BusKind::B, VTime(123_456_789)));
        assert!(bus.probe_ok(BusKind::B, VTime(u64::MAX / 2)));
        // Empty spans never match anything.
        bus.add_flaky_window(VTime(500), VTime(500), BusKind::A);
        assert!(bus.probe_ok(BusKind::A, VTime(500)));
    }

    #[test]
    fn probe_ok_respects_failures_and_flaky_windows() {
        let mut bus = BusFabric::new(0, 0, Dur::ZERO);
        bus.add_flaky_window(VTime(100), VTime(200), BusKind::A);
        assert!(bus.probe_ok(BusKind::A, VTime(50)));
        assert!(!bus.probe_ok(BusKind::A, VTime(150)), "probe inside the storm fails");
        assert!(bus.probe_ok(BusKind::A, VTime(200)), "window end is exclusive");
        assert!(bus.probe_ok(BusKind::B, VTime(150)));
        bus.fail(BusKind::B);
        assert!(!bus.probe_ok(BusKind::B, VTime(150)), "a failed bus never probes clean");
    }
}
