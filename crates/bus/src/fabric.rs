//! The bus fabric: the paper's one dual bus, optionally partitioned into
//! a fleet of segments.
//!
//! §7.4.2: "Since a cluster may transmit or receive only one message at a
//! time, messages are never interleaved." The fabric grants each frame
//! an exclusive transmission window; the frame is *delivered to every
//! target cluster at the window's end*, in one simulation event, which
//! realizes both atomicity properties of §5.1 structurally: all-or-none
//! (one event delivers to all live targets) and non-interleaving
//! (windows are disjoint and ordered).
//!
//! The Auragen 4000 has a **dual** intercluster bus (§7.1). [`BusFabric`]
//! holds that pair once: which wire is active, which have failed or are
//! benched by quarantine, the run of consecutive faulted windows, and
//! the injected wire faults (armed one-shots and flaky windows). The
//! standby takes over instantly when the active wire fails.
//!
//! The paper's machine serializes every transmission against every
//! other, which caps it at 32 clusters. For fleet-scale runs the
//! clusters may be partitioned into fixed-size *segments*, each with its
//! own transmission timeline and traffic counters, joined by
//! deterministic store-and-forward gateways. Health and fault injection
//! stay fleet-wide: bus A dying means the A wire of every segment (the
//! correlated-fault reading of §7.4), and a grant on any segment follows
//! the same fault rule. With one segment (`segment_size = 0`) the fabric
//! is the paper's single broadcast domain.
//!
//! A frame is granted a window on its **sender's home segment** only.
//! Delivery to targets inside the segment happens at the window's end.
//! If any target lives in another segment, the whole frame is delivered
//! at window end **plus one fixed gateway latency**, and the gateway's
//! forwarded copy occupies each remote segment's bus for the frame's
//! transmission time. Keeping a single delivery instant for all targets
//! preserves §5.1's all-or-none and non-interleaving properties per
//! frame; determinism is untouched because routing is a pure function of
//! cluster ids and the latency is a constant.

use auros_sim::{Dur, VTime};

use crate::schedule::{BusCounters, BusKind, Grant, WireFault};

/// One segment's transmission timeline and per-bus traffic counters.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    pub(crate) free_at: VTime,
    counters: [BusCounters; 2],
}

/// A window during which one bus mangles every frame it carries.
#[derive(Clone, Copy, Debug)]
struct FlakyWindow {
    from: VTime,
    until: VTime,
    bus: BusKind,
}

/// The dual intercluster bus: one pair's health and wire faults over
/// `ceil(clusters / segment_size)` transmission timelines.
#[derive(Debug)]
pub struct BusFabric {
    pub(crate) segments: Vec<Segment>,
    /// Clusters per segment; 0 means "unsegmented" (everything in
    /// segment 0), the paper's configuration.
    segment_size: u16,
    /// Fixed store-and-forward latency added when a frame leaves its
    /// home segment.
    gateway_latency: Dur,
    /// The wire carrying traffic while it is healthy.
    active: BusKind,
    /// Whether each wire has failed for good, indexed by [`BusKind`].
    failed: [bool; 2],
    /// Whether each wire is benched by the kernel after repeated wire
    /// faults (healthy hardware, out of service).
    quarantined: [bool; 2],
    /// Consecutive faulted windows per wire (reset by a clean window).
    streak: [u32; 2],
    /// One-shot armed faults: the first window starting at or after the
    /// arm time absorbs the fault. Kept sorted by arm time, so only the
    /// front can match a grant.
    armed: Vec<(VTime, WireFault)>,
    /// Sustained flaky windows (deterministic per-bus fault storms).
    flaky: Vec<FlakyWindow>,
    /// Cycles the fault kind injected inside flaky windows.
    flaky_seq: u64,
    /// How many grants probed the fault state. Fault-free
    /// configurations keep this at zero: the hot path pays nothing for
    /// the fault machinery's existence.
    pub(crate) fault_probes: u64,
    /// Frames that crossed a gateway.
    gateway_frames: u64,
    /// Ticks of remote-segment bus time consumed by forwarded copies.
    gateway_forward_ticks: u64,
}

impl BusFabric {
    /// A fabric for `clusters` clusters in segments of `segment_size`
    /// (0 = unsegmented). `gateway_latency` is charged to every frame
    /// that leaves its home segment.
    pub fn new(clusters: u16, segment_size: u16, gateway_latency: Dur) -> BusFabric {
        let n = match segment_size {
            0 => 1,
            size => (clusters as usize).div_ceil(size as usize).max(1),
        };
        BusFabric {
            segments: (0..n).map(|_| Segment::default()).collect(),
            segment_size,
            gateway_latency,
            active: BusKind::A,
            failed: [false; 2],
            quarantined: [false; 2],
            streak: [0; 2],
            armed: Vec::new(),
            flaky: Vec::new(),
            flaky_seq: 0,
            fault_probes: 0,
            gateway_frames: 0,
            gateway_forward_ticks: 0,
        }
    }

    /// The segment a cluster's bus interface is attached to.
    pub fn segment_of(&self, cluster: u16) -> usize {
        cluster.checked_div(self.segment_size).unwrap_or(0) as usize
    }

    /// Reserves the next exclusive window for a frame's *first* attempt
    /// from cluster `src` to `targets`.
    ///
    /// `earliest` is when the transmitting executive is ready; `xmit` is
    /// the frame's transmission time (latency plus size cost, computed by
    /// the caller's cost model). The window is granted on the home
    /// segment, and the frame reaches all its targets at
    /// `Grant::deliver_at` unless the window carries an injected fault;
    /// delivery is stretched by the gateway latency iff any target is
    /// remote. Returns `None` if no bus is healthy.
    pub fn reserve_routed<I>(
        &mut self,
        src: u16,
        targets: I,
        earliest: VTime,
        xmit: Dur,
        bytes: usize,
    ) -> Option<Grant>
    where
        I: Iterator<Item = u16>,
    {
        self.grant_routed(src, targets, earliest, xmit, bytes, false)
    }

    /// [`Self::reserve_routed`] for a *re-transmission* of a frame
    /// already counted by it: accounted under `BusCounters::retries`,
    /// never under `frames`/`bytes`.
    pub fn reserve_retry_routed<I>(
        &mut self,
        src: u16,
        targets: I,
        earliest: VTime,
        xmit: Dur,
        bytes: usize,
    ) -> Option<Grant>
    where
        I: Iterator<Item = u16>,
    {
        self.grant_routed(src, targets, earliest, xmit, bytes, true)
    }

    fn grant_routed<I>(
        &mut self,
        src: u16,
        targets: I,
        earliest: VTime,
        xmit: Dur,
        bytes: usize,
        retry: bool,
    ) -> Option<Grant>
    where
        I: Iterator<Item = u16>,
    {
        let bus = self.active()?;
        self.active = bus;
        let home = self.segment_of(src);
        let start = self.segments[home].free_at.max(earliest);
        let end = start + xmit;
        self.segments[home].free_at = end;
        let fault = self.pick_fault(bus, start);
        let c = &mut self.segments[home].counters[bus.index()];
        if retry {
            c.retries += 1;
        } else {
            c.frames += 1;
            c.bytes += bytes as u64;
        }
        c.busy += xmit.as_ticks();
        let mut res = Grant { start, deliver_at: end, bus, fault };
        // The distinct remote segments (tiny, ordered: targets come from
        // a frame's target list). The forwarded copy occupies each one's
        // active bus no earlier than the home window's end
        // (store-and-forward), billed as busy time only.
        let n = self.segments.len();
        let mut remotes: Vec<usize> =
            targets.map(|t| self.segment_of(t)).filter(|&s| s != home && s < n).collect();
        remotes.sort_unstable();
        remotes.dedup();
        for &seg in &remotes {
            let s = &mut self.segments[seg];
            s.free_at = s.free_at.max(end) + xmit;
            s.counters[bus.index()].busy += xmit.as_ticks();
            self.gateway_forward_ticks += xmit.as_ticks();
        }
        if !remotes.is_empty() {
            self.gateway_frames += 1;
            res.deliver_at += self.gateway_latency;
        }
        Some(res)
    }

    /// Arms a one-shot transient fault: the first window granted on any
    /// segment whose start is at or after `at` absorbs it.
    pub fn arm_fault(&mut self, at: VTime, fault: WireFault) {
        self.armed.push((at, fault));
        self.armed.sort_by_key(|(t, _)| *t);
    }

    /// Declares `[from, until)` a flaky window on `bus`: every frame it
    /// carries with a window start inside the span is mangled, cycling
    /// deterministically through drop/corrupt/drop/duplicate.
    pub fn add_flaky_window(&mut self, from: VTime, until: VTime, bus: BusKind) {
        self.flaky.push(FlakyWindow { from, until, bus });
    }

    /// Whether any flaky window on `bus` covers `at`.
    fn flaky_covers(&self, bus: BusKind, at: VTime) -> bool {
        self.flaky.iter().any(|w| w.bus == bus && w.from <= at && at < w.until)
    }

    /// The fault a window starting at `start` on `bus` suffers: the
    /// earliest due armed one-shot, else the flaky cycle, else none.
    /// Every window extends or resets `bus`'s fault streak.
    fn pick_fault(&mut self, bus: BusKind, start: VTime) -> Option<WireFault> {
        let fault = if self.armed.is_empty() && self.flaky.is_empty() {
            // The fault-free fast path: no probe of any fault structure.
            None
        } else {
            self.fault_probes += 1;
            // `armed` is sorted by arm time, so if any entry is due the
            // front one is.
            if self.armed.first().is_some_and(|(t, _)| *t <= start) {
                Some(self.armed.remove(0).1)
            } else if self.flaky_covers(bus, start) {
                const CYCLE: [WireFault; 4] =
                    [WireFault::Drop, WireFault::Corrupt, WireFault::Drop, WireFault::Duplicate];
                let fault = CYCLE[(self.flaky_seq % 4) as usize];
                self.flaky_seq += 1;
                Some(fault)
            } else {
                None
            }
        };
        let streak = &mut self.streak[bus.index()];
        *streak = if fault.is_some() { *streak + 1 } else { 0 };
        fault
    }

    /// Publishes the fabric's fleet totals: per bus, the traffic
    /// counters summed over segments (`bus.a.frames`, …) and whether the
    /// wire is failed or quarantined, plus the gateway counters. Every
    /// fabric publishes the same names.
    pub fn publish_metrics(&self, reg: &mut auros_sim::MetricsRegistry) {
        for (bus, [frames, bytes, busy, retries, failed, quarantined]) in [
            (
                BusKind::A,
                [
                    "bus.a.frames",
                    "bus.a.bytes",
                    "bus.a.busy_ticks",
                    "bus.a.retries",
                    "bus.a.failed",
                    "bus.a.quarantined",
                ],
            ),
            (
                BusKind::B,
                [
                    "bus.b.frames",
                    "bus.b.bytes",
                    "bus.b.busy_ticks",
                    "bus.b.retries",
                    "bus.b.failed",
                    "bus.b.quarantined",
                ],
            ),
        ] {
            let c = self.counters(bus);
            reg.set(frames, c.frames);
            reg.set(bytes, c.bytes);
            reg.set(busy, c.busy);
            reg.set(retries, c.retries);
            reg.set(failed, self.failed[bus.index()] as u64);
            reg.set(quarantined, self.is_quarantined(bus) as u64);
        }
        reg.set("fabric.segments", self.segments.len() as u64);
        reg.set("fabric.gateway_frames", self.gateway_frames);
        reg.set("fabric.gateway_forward_ticks", self.gateway_forward_ticks);
    }

    /// The currently active bus, or `None` if both have failed (a double
    /// fault outside the paper's fault model).
    pub fn active(&self) -> Option<BusKind> {
        [self.active, self.active.other()].into_iter().find(|b| !self.failed[b.index()])
    }

    /// Injects a failure of one bus; traffic fails over to the other.
    ///
    /// Returns `true` if a healthy bus remains.
    pub fn fail(&mut self, bus: BusKind) -> bool {
        self.failed[bus.index()] = true;
        // A failed bus needs no quarantine, and stops being probed.
        self.quarantined[bus.index()] = false;
        let Some(next) = self.active() else { return false };
        self.active = next;
        // Necessity overrides quarantine: with only one bus left, a
        // benched survivor goes back into service.
        self.quarantined[next.index()] = false;
        true
    }

    /// Fails the currently active bus at `now`; pending reservations on
    /// it are void and the standby's timelines start fresh at `now`.
    ///
    /// Returns the newly active bus, or `None` if the pair is exhausted.
    /// The caller owns retransmission of in-flight frames: every window
    /// granted that had not completed by `now` must be re-reserved on
    /// the survivor.
    pub fn fail_active(&mut self, now: VTime) -> Option<BusKind> {
        let dead = self.active()?;
        self.fail(dead);
        let survivor = self.active()?;
        self.restart_timelines(now);
        Some(survivor)
    }

    /// Consecutive faulted windows on `bus` (resets on a clean window).
    pub fn consecutive_faults(&self, bus: BusKind) -> u32 {
        self.streak[bus.index()]
    }

    /// Benches `bus` after repeated wire faults and moves traffic to the
    /// standby, whose timelines start fresh at `now`. Refuses (returns
    /// `None`) when no healthy, unquarantined standby exists — with one
    /// bus left, a misbehaving wire beats no wire.
    pub fn quarantine(&mut self, bus: BusKind, now: VTime) -> Option<BusKind> {
        let standby = bus.other();
        if self.failed[standby.index()]
            || self.quarantined[standby.index()]
            || self.failed[bus.index()]
        {
            return None;
        }
        self.quarantined[bus.index()] = true;
        self.streak[bus.index()] = 0;
        self.active = standby;
        self.restart_timelines(now);
        Some(standby)
    }

    /// Whether `bus` is currently benched by quarantine.
    pub fn is_quarantined(&self, bus: BusKind) -> bool {
        self.quarantined[bus.index()]
    }

    /// Returns a quarantined bus to standby duty after a clean probe.
    pub fn heal(&mut self, bus: BusKind) {
        self.quarantined[bus.index()] = false;
        self.streak[bus.index()] = 0;
    }

    /// Whether a probe frame sent on `bus` at `now` would survive: the
    /// bus is not failed and no flaky window covers `now`.
    pub fn probe_ok(&self, bus: BusKind, now: VTime) -> bool {
        !self.failed[bus.index()] && !self.flaky_covers(bus, now)
    }

    /// Traffic counters for one bus, summed across segments.
    pub fn counters(&self, bus: BusKind) -> BusCounters {
        let mut total = BusCounters::default();
        for seg in &self.segments {
            let c = seg.counters[bus.index()];
            total.frames += c.frames;
            total.bytes += c.bytes;
            total.busy += c.busy;
            total.retries += c.retries;
        }
        total
    }

    /// A switch to the other wire voids every segment's pending
    /// windows: each timeline starts fresh at `now`.
    fn restart_timelines(&mut self, now: VTime) {
        for seg in &mut self.segments {
            seg.free_at = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(list: &[u16]) -> impl Iterator<Item = u16> + '_ {
        list.iter().copied()
    }

    fn gateway_frames(fabric: &BusFabric) -> u64 {
        let mut reg = auros_sim::MetricsRegistry::new();
        fabric.publish_metrics(&mut reg);
        reg.get("fabric.gateway_frames")
    }

    #[test]
    fn segment_of_partitions_by_fixed_size() {
        let fabric = BusFabric::new(64, 16, Dur(30));
        assert_eq!(fabric.segments.len(), 4);
        assert_eq!(fabric.segment_of(0), 0);
        assert_eq!(fabric.segment_of(15), 0);
        assert_eq!(fabric.segment_of(16), 1);
        assert_eq!(fabric.segment_of(63), 3);
    }

    #[test]
    fn cross_segment_delivery_pays_gateway_latency_once() {
        let mut fabric = BusFabric::new(32, 8, Dur(30));
        // Intra-segment: no gateway charge.
        let r = fabric.reserve_routed(0, targets(&[1, 7]), VTime(0), Dur(10), 64).unwrap();
        assert_eq!(r.deliver_at, VTime(10));
        assert_eq!(gateway_frames(&fabric), 0);
        // Cross-segment (two remote segments): one fixed charge.
        let r = fabric.reserve_routed(0, targets(&[9, 17]), VTime(0), Dur(10), 64).unwrap();
        assert_eq!(r.start, VTime(10), "home segment serializes its own windows");
        assert_eq!(r.deliver_at, VTime(10 + 10 + 30));
        assert_eq!(gateway_frames(&fabric), 1);
    }

    #[test]
    fn segments_schedule_independently() {
        let mut fabric = BusFabric::new(32, 8, Dur(30));
        let a = fabric.reserve_routed(0, targets(&[1]), VTime(0), Dur(100), 64).unwrap();
        // A different segment's window does not wait for segment 0.
        let b = fabric.reserve_routed(8, targets(&[9]), VTime(0), Dur(100), 64).unwrap();
        assert_eq!(a.start, VTime(0));
        assert_eq!(b.start, VTime(0), "segments are independent broadcast domains");
        // But a forwarded frame occupies the remote segment's bus.
        let c = fabric.reserve_routed(0, targets(&[9]), VTime(0), Dur(50), 64).unwrap();
        assert_eq!(c.start, VTime(100));
        let d = fabric.reserve_routed(8, targets(&[9]), VTime(0), Dur(10), 64).unwrap();
        assert!(
            d.start >= VTime(200),
            "segment 1 is busy with its own window then the forwarded copy: {:?}",
            d.start
        );
    }

    #[test]
    fn fabric_armed_fault_hits_first_grant_anywhere() {
        let mut fabric = BusFabric::new(32, 8, Dur(30));
        fabric.arm_fault(VTime(5), WireFault::Drop);
        let clean = fabric.reserve_routed(0, targets(&[1]), VTime(0), Dur(4), 16).unwrap();
        assert_eq!(clean.fault, None, "start 0 < 5: clean");
        let hit = fabric.reserve_routed(8, targets(&[9]), VTime(6), Dur(4), 16).unwrap();
        assert_eq!(hit.fault, Some(WireFault::Drop), "fires on another segment's grant");
        let after = fabric.reserve_routed(16, targets(&[17]), VTime(6), Dur(4), 16).unwrap();
        assert_eq!(after.fault, None, "one-shot: consumed");
    }

    #[test]
    fn segmented_grants_follow_the_one_fault_rule() {
        let mut fabric = BusFabric::new(32, 8, Dur(30));
        fabric.add_flaky_window(VTime(0), VTime(1_000), BusKind::A);
        fabric.arm_fault(VTime(0), WireFault::Duplicate);
        // Armed and flaky hit the same grant: the armed fault fires and
        // the flaky cycle does not advance.
        let r = fabric.reserve_routed(0, targets(&[1]), VTime(0), Dur(4), 16).unwrap();
        assert_eq!(r.fault, Some(WireFault::Duplicate), "the armed one-shot comes first");
        assert_eq!(fabric.consecutive_faults(BusKind::A), 1, "it counts toward the streak");
        // Faulted grants on two other segments extend the same streak,
        // and the flaky cycle starts at its first kind.
        let r = fabric.reserve_routed(8, targets(&[9]), VTime(0), Dur(4), 16).unwrap();
        assert_eq!(r.fault, Some(WireFault::Drop), "the flaky cycle did not advance");
        let r = fabric.reserve_routed(16, targets(&[17]), VTime(0), Dur(4), 16).unwrap();
        assert_eq!(r.fault, Some(WireFault::Corrupt));
        assert_eq!(fabric.consecutive_faults(BusKind::A), 3, "one streak covers the fleet");
        // One clean grant on any segment resets it.
        let r = fabric.reserve_routed(24, targets(&[25]), VTime(1_000), Dur(4), 16).unwrap();
        assert_eq!(r.fault, None);
        assert_eq!(fabric.consecutive_faults(BusKind::A), 0, "a clean window resets the streak");
    }

    #[test]
    fn fleet_wide_failover_and_quarantine() {
        let mut fabric = BusFabric::new(32, 8, Dur(30));
        assert_eq!(fabric.fail_active(VTime(10)), Some(BusKind::B));
        let r = fabric.reserve_routed(20, targets(&[21]), VTime(10), Dur(5), 16).unwrap();
        assert_eq!(r.bus, BusKind::B, "every segment failed over");
        assert_eq!(fabric.quarantine(BusKind::B, VTime(20)), None, "no healthy standby left");
        assert!(!fabric.fail(BusKind::B), "second wire failing exhausts the pair");
        assert!(fabric.reserve_routed(0, targets(&[1]), VTime(30), Dur(5), 16).is_none());
    }
}
