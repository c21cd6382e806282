//! Bus serialization and the dual-bus model.
//!
//! §7.4.2: "Since a cluster may transmit or receive only one message at a
//! time, messages are never interleaved." The schedule grants each frame
//! an exclusive transmission window; the frame is *delivered to every
//! target cluster at the window's end*, in one simulation event, which
//! realizes both atomicity properties of §5.1 structurally:
//! all-or-none (one event delivers to all live targets) and
//! non-interleaving (windows are disjoint and ordered).
//!
//! The Auragen 4000 has a **dual** intercluster bus; we model the pair as
//! an active bus plus a cold standby with instant failover and a per-bus
//! transmission ledger.

use std::collections::BTreeMap;

use auros_sim::{Dur, VTime};

/// Which physical bus of the dual pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusKind {
    /// Bus A (initially active).
    A,
    /// Bus B (standby).
    B,
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

/// An exclusive transmission window granted by [`BusSchedule::reserve`].
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

/// A window during which one bus mangles every frame it carries.
#[derive(Clone, Copy, Debug)]
struct FlakyWindow {
    from: VTime,
    until: VTime,
    bus: BusKind,
}

/// Ticks per flaky-index bucket (as a shift): windows are registered in
/// every 4096-tick bucket they overlap, so a grant consults exactly one
/// bucket instead of scanning every window ever declared.
const FLAKY_BUCKET_BITS: u32 = 12;

/// Buckets beyond which a window is "wide" and kept in a small
/// linearly-scanned side list instead of being splatted across the index.
const FLAKY_WIDE_BUCKETS: u64 = 4096;

fn bus_code(bus: BusKind) -> u8 {
    match bus {
        BusKind::A => 0,
        BusKind::B => 1,
    }
}

/// The transmission schedule of the (dual) intercluster bus.
#[derive(Debug)]
pub struct BusSchedule {
    free_at: VTime,
    active: BusKind,
    a: BusCounters,
    b: BusCounters,
    /// Whether each bus has failed (injected faults).
    a_failed: bool,
    b_failed: bool,
    /// One-shot armed faults: the first window starting at or after the
    /// arm time absorbs the fault. Kept sorted by arm time, so only the
    /// front can match a grant — the per-grant check is O(1).
    armed: Vec<(VTime, WireFault)>,
    /// Sustained flaky windows (deterministic per-bus fault storms).
    flaky: Vec<FlakyWindow>,
    /// Index of `flaky` by (bus, time bucket): a grant consults one
    /// bucket's (typically empty or one-element) id list.
    flaky_index: BTreeMap<(u8, u64), Vec<u32>>,
    /// Windows too wide for per-bucket registration; scanned linearly.
    flaky_wide: Vec<u32>,
    /// How many grants actually probed the fault structures. Fault-free
    /// configurations must keep this at zero (asserted by tests): the
    /// hot path pays nothing for the fault machinery's existence.
    fault_probes: u64,
    /// Cycles the fault kind injected inside flaky windows.
    flaky_seq: u64,
    /// Quarantine flags: the bus is healthy hardware-wise but has been
    /// benched by the kernel after repeated wire faults.
    a_quarantined: bool,
    b_quarantined: bool,
    /// Consecutive faulted windows per bus (reset by a clean window).
    a_consecutive_faults: u32,
    b_consecutive_faults: u32,
}

impl Default for BusSchedule {
    fn default() -> Self {
        Self::new()
    }
}

impl BusSchedule {
    /// A fresh schedule with bus A active.
    pub fn new() -> BusSchedule {
        BusSchedule {
            free_at: VTime::ZERO,
            active: BusKind::A,
            a: BusCounters::default(),
            b: BusCounters::default(),
            a_failed: false,
            b_failed: false,
            armed: Vec::new(),
            flaky: Vec::new(),
            flaky_index: BTreeMap::new(),
            flaky_wide: Vec::new(),
            fault_probes: 0,
            flaky_seq: 0,
            a_quarantined: false,
            b_quarantined: false,
            a_consecutive_faults: 0,
            b_consecutive_faults: 0,
        }
    }

    /// Whether `bus` has failed for good.
    pub(crate) fn failed(&self, bus: BusKind) -> bool {
        match bus {
            BusKind::A => self.a_failed,
            BusKind::B => self.b_failed,
        }
    }

    fn other(bus: BusKind) -> BusKind {
        match bus {
            BusKind::A => BusKind::B,
            BusKind::B => BusKind::A,
        }
    }

    /// The currently active bus, or `None` if both have failed (a double
    /// fault outside the paper's fault model).
    pub fn active(&self) -> Option<BusKind> {
        match (self.a_failed, self.b_failed) {
            (false, _) if self.active == BusKind::A => Some(BusKind::A),
            (_, false) if self.active == BusKind::B => Some(BusKind::B),
            (false, _) => Some(BusKind::A),
            (_, false) => Some(BusKind::B),
            (true, true) => None,
        }
    }

    /// Injects a failure of one bus; traffic fails over to the other.
    ///
    /// Returns `true` if a healthy bus remains.
    pub fn fail(&mut self, bus: BusKind) -> bool {
        match bus {
            BusKind::A => self.a_failed = true,
            BusKind::B => self.b_failed = true,
        }
        // A failed bus needs no quarantine, and stops being probed.
        self.set_quarantined(bus, false);
        if let Some(next) = self.active() {
            self.active = next;
            // Necessity overrides quarantine: with only one bus left,
            // a benched survivor goes back into service.
            self.set_quarantined(next, false);
            true
        } else {
            false
        }
    }

    /// Fails the currently active bus at `now`; pending reservations on
    /// it are void and the standby's timeline starts fresh at `now`.
    ///
    /// Returns the newly active bus, or `None` if the pair is exhausted.
    /// The caller owns retransmission of in-flight frames: every window
    /// granted by [`BusSchedule::reserve`] that had not completed by
    /// `now` must be re-reserved on the survivor.
    pub fn fail_active(&mut self, now: VTime) -> Option<BusKind> {
        let dead = self.active()?;
        self.fail(dead);
        let survivor = self.active()?;
        self.free_at = now;
        Some(survivor)
    }

    /// Reserves the next exclusive transmission window for a frame's
    /// *first* attempt.
    ///
    /// `earliest` is when the transmitting executive is ready; `xmit` is
    /// the frame's transmission time (latency plus size cost, computed by
    /// the caller's cost model). The frame reaches all its targets at
    /// `Grant::deliver_at` unless the window carries an injected
    /// fault. Returns `None` if no bus is healthy.
    pub fn reserve(&mut self, earliest: VTime, xmit: Dur, bytes: usize) -> Option<Grant> {
        self.grant(earliest, xmit, bytes, false)
    }

    /// Reserves a window for a *re-transmission* of a frame already
    /// counted by [`BusSchedule::reserve`]. Accounted under
    /// `BusCounters::retries`, never under `frames`/`bytes`.
    pub fn reserve_retry(&mut self, earliest: VTime, xmit: Dur, bytes: usize) -> Option<Grant> {
        self.grant(earliest, xmit, bytes, true)
    }

    fn grant(&mut self, earliest: VTime, xmit: Dur, bytes: usize, retry: bool) -> Option<Grant> {
        let bus = self.active()?;
        self.active = bus;
        let start = self.free_at.max(earliest);
        let end = start + xmit;
        self.free_at = end;
        let fault = self.pick_fault(bus, start);
        let c = match bus {
            BusKind::A => &mut self.a,
            BusKind::B => &mut self.b,
        };
        if retry {
            c.retries += 1;
        } else {
            c.frames += 1;
            c.bytes += bytes as u64;
        }
        c.busy += xmit.as_ticks();
        Some(Grant { start, deliver_at: end, bus, fault })
    }

    /// Arms a one-shot transient fault: the first window whose start is
    /// at or after `at` absorbs it.
    pub fn arm_fault(&mut self, at: VTime, fault: WireFault) {
        self.armed.push((at, fault));
        self.armed.sort_by_key(|(t, _)| *t);
    }

    /// Declares `[from, until)` a flaky window on `bus`: every frame it
    /// carries with a window start inside the span is mangled, cycling
    /// deterministically through drop/corrupt/drop/duplicate.
    pub fn add_flaky_window(&mut self, from: VTime, until: VTime, bus: BusKind) {
        let id = self.flaky.len() as u32;
        self.flaky.push(FlakyWindow { from, until, bus });
        if from >= until {
            return; // Empty span: never matches, never indexed.
        }
        let first = from.ticks() >> FLAKY_BUCKET_BITS;
        let last = (until.ticks() - 1) >> FLAKY_BUCKET_BITS;
        if last - first >= FLAKY_WIDE_BUCKETS {
            self.flaky_wide.push(id);
            return;
        }
        for bucket in first..=last {
            self.flaky_index.entry((bus_code(bus), bucket)).or_default().push(id);
        }
    }

    /// Whether any flaky window on `bus` covers `at`. One bucket lookup
    /// plus the (normally empty) wide list — independent of how many
    /// windows a long campaign has declared.
    fn flaky_covers(&self, bus: BusKind, at: VTime) -> bool {
        let hit = |&id: &u32| {
            let w = &self.flaky[id as usize];
            w.from <= at && at < w.until
        };
        let key = (bus_code(bus), at.ticks() >> FLAKY_BUCKET_BITS);
        self.flaky_index.get(&key).is_some_and(|ids| ids.iter().any(hit))
            || self.flaky_wide.iter().any(|&id| self.flaky[id as usize].bus == bus && hit(&id))
    }

    fn pick_fault(&mut self, bus: BusKind, start: VTime) -> Option<WireFault> {
        if self.armed.is_empty() && self.flaky.is_empty() {
            // The fault-free fast path: no probe of any fault structure.
            self.note_fault(bus, false);
            return None;
        }
        self.fault_probes += 1;
        // One-shot armed faults fire on whichever bus carries the frame.
        // `armed` is sorted by arm time, so if any entry matches the
        // earliest-armed one does: a front check replaces the old scan.
        if self.armed.first().is_some_and(|(t, _)| *t <= start) {
            let (_, fault) = self.armed.remove(0);
            self.note_fault(bus, true);
            return Some(fault);
        }
        if self.flaky_covers(bus, start) {
            const CYCLE: [WireFault; 4] =
                [WireFault::Drop, WireFault::Corrupt, WireFault::Drop, WireFault::Duplicate];
            let fault = CYCLE[(self.flaky_seq % 4) as usize];
            self.flaky_seq += 1;
            self.note_fault(bus, true);
            return Some(fault);
        }
        self.note_fault(bus, false);
        None
    }

    /// Grants that probed the fault structures (zero in fault-free runs).
    pub fn fault_probes(&self) -> u64 {
        self.fault_probes
    }

    fn note_fault(&mut self, bus: BusKind, faulted: bool) {
        let c = match bus {
            BusKind::A => &mut self.a_consecutive_faults,
            BusKind::B => &mut self.b_consecutive_faults,
        };
        if faulted {
            *c += 1;
        } else {
            *c = 0;
        }
    }

    /// Consecutive faulted windows on `bus` (resets on a clean window).
    pub fn consecutive_faults(&self, bus: BusKind) -> u32 {
        match bus {
            BusKind::A => self.a_consecutive_faults,
            BusKind::B => self.b_consecutive_faults,
        }
    }

    fn set_quarantined(&mut self, bus: BusKind, v: bool) {
        match bus {
            BusKind::A => self.a_quarantined = v,
            BusKind::B => self.b_quarantined = v,
        }
    }

    /// Whether `bus` is currently benched by quarantine.
    pub fn is_quarantined(&self, bus: BusKind) -> bool {
        match bus {
            BusKind::A => self.a_quarantined,
            BusKind::B => self.b_quarantined,
        }
    }

    /// Benches `bus` after repeated wire faults and moves traffic to the
    /// standby, whose timeline starts fresh at `now`. Refuses (returns
    /// `None`) when no healthy, unquarantined standby exists — with one
    /// bus left, a misbehaving wire beats no wire.
    pub fn quarantine(&mut self, bus: BusKind, now: VTime) -> Option<BusKind> {
        let standby = Self::other(bus);
        if self.failed(standby) || self.is_quarantined(standby) || self.failed(bus) {
            return None;
        }
        self.set_quarantined(bus, true);
        self.note_fault(bus, false);
        self.active = standby;
        self.free_at = now;
        Some(standby)
    }

    /// Returns a quarantined bus to standby duty after a clean probe.
    pub fn heal(&mut self, bus: BusKind) {
        self.set_quarantined(bus, false);
        self.note_fault(bus, false);
    }

    /// Whether a probe frame sent on `bus` at `now` would survive: the
    /// bus is not failed and no flaky window covers `now`.
    pub fn probe_ok(&self, bus: BusKind, now: VTime) -> bool {
        !self.failed(bus) && !self.flaky_covers(bus, now)
    }

    /// Accounts a gateway-forwarded frame's occupancy of this segment's
    /// bus (fleet configurations): the forwarded copy takes the next
    /// window at or after `earliest` on the active bus. No fault pick —
    /// the fault, if any, was realized on the sender's home segment —
    /// and no frame/retry count: the copy is billed as busy time only.
    /// A segment with no healthy bus absorbs nothing (the gateway's
    /// delivery instant is fixed by the home window either way).
    pub fn account_forward(&mut self, earliest: VTime, xmit: Dur) {
        let Some(bus) = self.active() else { return };
        let start = self.free_at.max(earliest);
        self.free_at = start + xmit;
        let c = match bus {
            BusKind::A => &mut self.a,
            BusKind::B => &mut self.b,
        };
        c.busy += xmit.as_ticks();
    }

    /// When the bus next becomes free.
    pub fn free_at(&self) -> VTime {
        self.free_at
    }

    /// Traffic counters for one bus.
    pub fn counters(&self, bus: BusKind) -> BusCounters {
        match bus {
            BusKind::A => self.a,
            BusKind::B => self.b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(r: Grant) -> (VTime, VTime) {
        (r.start, r.deliver_at)
    }

    #[test]
    fn windows_are_disjoint_and_ordered() {
        let mut bus = BusSchedule::new();
        let w1 = window(bus.reserve(VTime(0), Dur(10), 100).unwrap());
        let w2 = window(bus.reserve(VTime(0), Dur(5), 50).unwrap());
        let w3 = window(bus.reserve(VTime(100), Dur(5), 50).unwrap());
        assert_eq!(w1, (VTime(0), VTime(10)));
        assert_eq!(w2, (VTime(10), VTime(15)), "second frame waits for the first");
        assert_eq!(w3, (VTime(100), VTime(105)), "idle gap respected");
    }

    #[test]
    fn counters_accumulate() {
        let mut bus = BusSchedule::new();
        bus.reserve(VTime(0), Dur(10), 100);
        bus.reserve(VTime(0), Dur(10), 100);
        let c = bus.counters(BusKind::A);
        assert_eq!(c.frames, 2);
        assert_eq!(c.bytes, 200);
        assert_eq!(c.busy, 20);
        assert_eq!(bus.counters(BusKind::B).frames, 0);
    }

    #[test]
    fn failover_switches_bus() {
        let mut bus = BusSchedule::new();
        assert!(bus.fail(BusKind::A));
        assert_eq!(bus.active(), Some(BusKind::B));
        bus.reserve(VTime(0), Dur(10), 1);
        assert_eq!(bus.counters(BusKind::B).frames, 1);
        assert!(!bus.fail(BusKind::B), "double bus fault exhausts the pair");
        assert!(bus.reserve(VTime(0), Dur(1), 1).is_none());
    }

    #[test]
    fn fail_active_resets_standby_timeline() {
        let mut bus = BusSchedule::new();
        // A long frame occupies bus A far into the future.
        bus.reserve(VTime(0), Dur(1_000), 64);
        assert_eq!(bus.free_at(), VTime(1_000));
        // A dies mid-window; B takes over with a clean schedule.
        assert_eq!(bus.fail_active(VTime(400)), Some(BusKind::B));
        assert_eq!(bus.free_at(), VTime(400), "standby is not encumbered by A's windows");
        let w = window(bus.reserve(VTime(0), Dur(10), 64).unwrap());
        assert_eq!(w, (VTime(400), VTime(410)));
        assert_eq!(bus.counters(BusKind::B).frames, 1);
        // The second failure exhausts the pair.
        assert_eq!(bus.fail_active(VTime(500)), None);
        assert!(bus.reserve(VTime(0), Dur(1), 1).is_none());
    }

    #[test]
    fn retries_do_not_inflate_delivered_traffic() {
        let mut bus = BusSchedule::new();
        bus.reserve(VTime(0), Dur(10), 100);
        bus.reserve_retry(VTime(0), Dur(10), 100);
        bus.reserve_retry(VTime(0), Dur(10), 100);
        let c = bus.counters(BusKind::A);
        assert_eq!(c.frames, 1, "a frame is delivered traffic once");
        assert_eq!(c.bytes, 100, "retry bytes are not billed as traffic");
        assert_eq!(c.retries, 2);
        assert_eq!(c.busy, 30, "the wire was busy for every attempt");
    }

    #[test]
    fn armed_fault_hits_first_window_at_or_after_arm_time() {
        let mut bus = BusSchedule::new();
        bus.arm_fault(VTime(15), WireFault::Drop);
        let r1 = bus.reserve(VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r1.fault, None, "window before the arm time is clean");
        let r2 = bus.reserve(VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r2.fault, None, "start 10 < 15: still clean");
        let r3 = bus.reserve(VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r3.fault, Some(WireFault::Drop), "start 20 >= 15 absorbs the fault");
        let r4 = bus.reserve(VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r4.fault, None, "one-shot: consumed");
    }

    #[test]
    fn flaky_window_cycles_fault_kinds_deterministically() {
        let mut bus = BusSchedule::new();
        bus.add_flaky_window(VTime(0), VTime(100), BusKind::A);
        let kinds: Vec<_> =
            (0..4).map(|_| bus.reserve(VTime(0), Dur(10), 1).unwrap().fault).collect();
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
        let r = bus.reserve(VTime(100), Dur(10), 1).unwrap();
        assert_eq!(r.fault, None);
        assert_eq!(bus.consecutive_faults(BusKind::A), 0);
    }

    #[test]
    fn flaky_window_does_not_touch_the_other_bus() {
        let mut bus = BusSchedule::new();
        bus.add_flaky_window(VTime(0), VTime(1_000), BusKind::B);
        let r = bus.reserve(VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r.bus, BusKind::A);
        assert_eq!(r.fault, None);
    }

    #[test]
    fn quarantine_moves_traffic_and_heal_restores_standby() {
        let mut bus = BusSchedule::new();
        bus.reserve(VTime(0), Dur(100), 1);
        assert_eq!(bus.quarantine(BusKind::A, VTime(40)), Some(BusKind::B));
        assert!(bus.is_quarantined(BusKind::A));
        let r = bus.reserve(VTime(0), Dur(10), 1).unwrap();
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
        let mut bus = BusSchedule::new();
        assert_eq!(bus.quarantine(BusKind::A, VTime(10)), Some(BusKind::B));
        assert!(bus.fail(BusKind::B), "quarantined A still counts as healthy");
        assert!(!bus.is_quarantined(BusKind::A), "necessity overrides quarantine");
        let r = bus.reserve(VTime(0), Dur(10), 1).unwrap();
        assert_eq!(r.bus, BusKind::A);
    }

    #[test]
    fn fault_free_grants_probe_no_fault_structures() {
        let mut bus = BusSchedule::new();
        for _ in 0..10_000 {
            bus.reserve(VTime(0), Dur(10), 16);
        }
        assert_eq!(bus.fault_probes(), 0, "fault-free grants must not touch fault state");
        // Arming anything turns probing on — and the count stays honest.
        bus.arm_fault(VTime(0), WireFault::Drop);
        bus.reserve(VTime(0), Dur(10), 16);
        assert_eq!(bus.fault_probes(), 1);
    }

    #[test]
    fn flaky_index_matches_spans_crossing_bucket_boundaries() {
        let mut bus = BusSchedule::new();
        // Spans a 4096-tick bucket boundary; matched from both sides.
        bus.add_flaky_window(VTime(4000), VTime(4200), BusKind::A);
        assert!(!bus.probe_ok(BusKind::A, VTime(4095)));
        assert!(!bus.probe_ok(BusKind::A, VTime(4100)));
        assert!(bus.probe_ok(BusKind::A, VTime(3999)));
        assert!(bus.probe_ok(BusKind::A, VTime(4200)));
        // A very wide window falls back to the wide list but still works.
        bus.add_flaky_window(VTime(0), VTime(u64::MAX / 2), BusKind::B);
        assert!(!bus.probe_ok(BusKind::B, VTime(123_456_789)));
        assert!(bus.probe_ok(BusKind::B, VTime(u64::MAX / 2)));
        // Empty spans never match anything.
        bus.add_flaky_window(VTime(500), VTime(500), BusKind::A);
        assert!(bus.probe_ok(BusKind::A, VTime(500)));
    }

    #[test]
    fn probe_ok_respects_failures_and_flaky_windows() {
        let mut bus = BusSchedule::new();
        bus.add_flaky_window(VTime(100), VTime(200), BusKind::A);
        assert!(bus.probe_ok(BusKind::A, VTime(50)));
        assert!(!bus.probe_ok(BusKind::A, VTime(150)), "probe inside the storm fails");
        assert!(bus.probe_ok(BusKind::A, VTime(200)), "window end is exclusive");
        assert!(bus.probe_ok(BusKind::B, VTime(150)));
        bus.fail(BusKind::B);
        assert!(!bus.probe_ok(BusKind::B, VTime(150)), "a failed bus never probes clean");
    }
}
