//! The bus fabric: one broadcast domain, or a partitioned fleet of them.
//!
//! The paper's machine has a single dual intercluster bus — every
//! transmission serializes against every other (§7.4.2), which caps the
//! fleet at 32 clusters. [`BusFabric`] keeps that model as its identity
//! case (one segment, byte-for-byte the old [`BusSchedule`] behavior) and
//! adds the fleet-scale generalization: the clusters are partitioned into
//! fixed-size *segments*, each a full dual-bus broadcast domain with its
//! own transmission schedule, joined by deterministic store-and-forward
//! gateways.
//!
//! A frame is granted a window on its **sender's home segment** only.
//! Delivery to targets inside the segment happens at the window's end,
//! exactly as before. If any target lives in another segment, the whole
//! frame is delivered at window end **plus one fixed gateway latency**,
//! and the gateway's forwarded copy occupies each remote segment's bus
//! for the frame's transmission time. Keeping a single delivery instant
//! for all targets preserves §5.1's all-or-none and non-interleaving
//! properties per frame; determinism is untouched because routing is a
//! pure function of cluster ids and the latency is a constant.

use auros_sim::{Dur, VTime};

use crate::schedule::{BusCounters, BusKind, BusSchedule, Grant, WireFault};

/// A partitioned intercluster bus: `ceil(clusters / segment_size)`
/// independent dual-bus broadcast domains joined by gateways.
///
/// With one segment the fabric is a transparent wrapper around a single
/// [`BusSchedule`] — the identity the determinism suite pins.
#[derive(Debug)]
pub struct BusFabric {
    segments: Vec<BusSchedule>,
    /// Clusters per segment; 0 means "unsegmented" (everything in
    /// segment 0), the paper's configuration.
    segment_size: u16,
    /// Fixed store-and-forward latency added when a frame leaves its
    /// home segment.
    gateway_latency: Dur,
    /// One-shot faults armed fabric-wide (multi-segment only): the first
    /// window granted anywhere at or after the arm time absorbs the
    /// fault. Sorted by arm time; single-segment fabrics delegate to the
    /// segment's own armed list instead.
    armed: Vec<(VTime, WireFault)>,
    /// Frames that crossed a gateway.
    gateway_frames: u64,
    /// Ticks of remote-segment bus time consumed by forwarded copies.
    gateway_forward_ticks: u64,
}

impl BusFabric {
    /// A single-segment fabric: the paper's one broadcast domain.
    pub fn single() -> BusFabric {
        BusFabric {
            segments: vec![BusSchedule::new()],
            segment_size: 0,
            gateway_latency: Dur::ZERO,
            armed: Vec::new(),
            gateway_frames: 0,
            gateway_forward_ticks: 0,
        }
    }

    /// A fabric for `clusters` clusters in segments of `segment_size`
    /// (0 = unsegmented). `gateway_latency` is charged to every frame
    /// that leaves its home segment.
    pub fn new(clusters: u16, segment_size: u16, gateway_latency: Dur) -> BusFabric {
        if segment_size == 0 {
            return BusFabric::single();
        }
        let n = (clusters as usize).div_ceil(segment_size as usize).max(1);
        BusFabric {
            segments: (0..n).map(|_| BusSchedule::new()).collect(),
            segment_size,
            gateway_latency,
            armed: Vec::new(),
            gateway_frames: 0,
            gateway_forward_ticks: 0,
        }
    }

    /// How many segments the fabric has.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segment a cluster's bus interface is attached to.
    pub fn segment_of(&self, cluster: u16) -> usize {
        cluster.checked_div(self.segment_size).unwrap_or(0) as usize
    }

    /// Frames that crossed a gateway so far.
    pub fn gateway_frames(&self) -> u64 {
        self.gateway_frames
    }

    fn is_single(&self) -> bool {
        self.segments.len() == 1
    }

    /// Applies a fabric-level armed one-shot to a fresh grant
    /// (multi-segment only; single-segment fabrics arm the segment).
    fn apply_fabric_fault(&mut self, res: &mut Grant) {
        if res.fault.is_none() && self.armed.first().is_some_and(|(t, _)| *t <= res.start) {
            res.fault = Some(self.armed.remove(0).1);
        }
    }

    /// Books the forwarded copy's occupancy of every remote segment a
    /// cross-segment frame reaches, and stretches delivery by the fixed
    /// gateway latency. The forwarded copy starts no earlier than the
    /// home window's end (store-and-forward).
    fn forward_cross_segment<I>(&mut self, res: &mut Grant, xmit: Dur, remotes: I)
    where
        I: Iterator<Item = usize>,
    {
        let home_end = res.deliver_at;
        let mut forwarded = false;
        for seg in remotes {
            if let Some(s) = self.segments.get_mut(seg) {
                s.account_forward(home_end, xmit);
                self.gateway_forward_ticks += xmit.as_ticks();
                forwarded = true;
            }
        }
        if forwarded {
            self.gateway_frames += 1;
            res.deliver_at += self.gateway_latency;
        }
    }

    /// Reserves a first-attempt window for a frame from cluster `src` to
    /// `targets`. The window is granted on the home segment; delivery is
    /// stretched by the gateway latency iff any target is remote.
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

    /// [`Self::reserve_routed`] for a retransmission (accounted under
    /// retries on the home segment, like [`BusSchedule::reserve_retry`]).
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
        let home = self.segment_of(src);
        let seg = &mut self.segments[home];
        let mut res = if retry {
            seg.reserve_retry(earliest, xmit, bytes)
        } else {
            seg.reserve(earliest, xmit, bytes)
        }?;
        if self.is_single() {
            return Some(res); // Identity: nothing crosses, nothing armed here.
        }
        self.apply_fabric_fault(&mut res);
        // Collect the distinct remote segments (tiny, ordered: targets
        // come from a frame's target list).
        let mut remotes: Vec<usize> =
            targets.map(|t| self.segment_of(t)).filter(|&s| s != home).collect();
        remotes.sort_unstable();
        remotes.dedup();
        self.forward_cross_segment(&mut res, xmit, remotes.into_iter());
        Some(res)
    }

    /// Arms a one-shot transient fault. Single segment: on the segment
    /// (identical to the historical behavior). Multi-segment: fabric-wide
    /// — the first window granted anywhere at or after `at` absorbs it.
    pub fn arm_fault(&mut self, at: VTime, fault: WireFault) {
        if self.is_single() {
            self.segments[0].arm_fault(at, fault);
        } else {
            self.armed.push((at, fault));
            self.armed.sort_by_key(|(t, _)| *t);
        }
    }

    /// Declares a flaky window on `bus` — on every segment's `bus` (a
    /// fleet-wide storm on that wire of each dual pair).
    pub fn add_flaky_window(&mut self, from: VTime, until: VTime, bus: BusKind) {
        for seg in &mut self.segments {
            seg.add_flaky_window(from, until, bus);
        }
    }

    /// Publishes bus metrics. Single segment: the historical names
    /// (`bus.a.frames`, …), byte-identical. Multi-segment: per-segment
    /// names plus fabric gateway counters.
    pub fn publish_metrics(&self, reg: &mut auros_sim::MetricsRegistry) {
        if self.is_single() {
            self.segments[0].publish_metrics(reg);
            return;
        }
        for (i, seg) in self.segments.iter().enumerate() {
            seg.publish_metrics_prefixed(&format!("segment.{i}."), reg);
        }
        reg.set("fabric.segments", self.segments.len() as u64);
        reg.set("fabric.gateway_frames", self.gateway_frames);
        reg.set("fabric.gateway_forward_ticks", self.gateway_forward_ticks);
    }

    // ------------------------------------------------------------------
    // Whole-fabric bus management. The kernel's failover, quarantine and
    // probe logic speaks in terms of "the" dual pair; on a multi-segment
    // fabric these act on every segment (bus A dying means the A wire of
    // every domain — the correlated-fault reading of §7.4).
    // ------------------------------------------------------------------

    /// Fails one wire of the dual pair, fleet-wide. Returns `true` if a
    /// healthy bus remains (on the first segment — segments are
    /// symmetric under fleet-wide failure).
    pub fn fail(&mut self, bus: BusKind) -> bool {
        let mut ok = true;
        for seg in &mut self.segments {
            ok = seg.fail(bus);
        }
        ok
    }

    /// Fails the active bus of every segment at `now`. Returns the
    /// surviving bus kind, or `None` if the pair is exhausted.
    pub fn fail_active(&mut self, now: VTime) -> Option<BusKind> {
        let mut survivor = None;
        for seg in &mut self.segments {
            survivor = seg.fail_active(now);
        }
        survivor
    }

    /// The active bus (of segment 0; fleet-wide management keeps the
    /// segments in lockstep).
    pub fn active(&self) -> Option<BusKind> {
        self.segments[0].active()
    }

    /// Peak consecutive faulted windows on `bus` across segments.
    pub fn consecutive_faults(&self, bus: BusKind) -> u32 {
        self.segments.iter().map(|s| s.consecutive_faults(bus)).max().unwrap_or(0)
    }

    /// Benches `bus` on every segment (where a standby exists). Returns
    /// the standby that took over, if any segment switched.
    pub fn quarantine(&mut self, bus: BusKind, now: VTime) -> Option<BusKind> {
        let mut switched = None;
        for seg in &mut self.segments {
            if let Some(s) = seg.quarantine(bus, now) {
                switched = Some(s);
            }
        }
        switched
    }

    /// Whether `bus` is quarantined on any segment.
    pub fn is_quarantined(&self, bus: BusKind) -> bool {
        self.segments.iter().any(|s| s.is_quarantined(bus))
    }

    /// Heals `bus` on every segment.
    pub fn heal(&mut self, bus: BusKind) {
        for seg in &mut self.segments {
            seg.heal(bus);
        }
    }

    /// Whether a probe on `bus` at `now` survives on every segment that
    /// has it quarantined (a fleet probe heals all or nothing).
    pub fn probe_ok(&self, bus: BusKind, now: VTime) -> bool {
        self.segments.iter().all(|s| s.probe_ok(bus, now))
    }

    /// Traffic counters for one bus, summed across segments.
    pub fn counters(&self, bus: BusKind) -> BusCounters {
        let mut total = BusCounters::default();
        for seg in &self.segments {
            let c = seg.counters(bus);
            total.frames += c.frames;
            total.bytes += c.bytes;
            total.busy += c.busy;
            total.retries += c.retries;
        }
        total
    }

    /// When segment 0's bus next becomes free (single-segment: the bus).
    pub fn free_at(&self) -> VTime {
        self.segments[0].free_at()
    }

    /// Grants that probed fault structures, summed across segments
    /// (zero in fault-free runs).
    pub fn fault_probes(&self) -> u64 {
        self.segments.iter().map(|s| s.fault_probes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(list: &[u16]) -> impl Iterator<Item = u16> + '_ {
        list.iter().copied()
    }

    #[test]
    fn single_segment_is_the_identity() {
        let mut plain = BusSchedule::new();
        let mut fabric = BusFabric::single();
        for i in 0..50u64 {
            let a = plain.reserve(VTime(i * 3), Dur(10 + i % 4), 64).unwrap();
            let b = fabric
                .reserve_routed(0, targets(&[1, 2]), VTime(i * 3), Dur(10 + i % 4), 64)
                .unwrap();
            assert_eq!((a.start, a.deliver_at, a.bus), (b.start, b.deliver_at, b.bus));
            assert!(b.fault.is_none());
        }
        assert_eq!(fabric.gateway_frames(), 0);
        assert_eq!(fabric.counters(BusKind::A).frames, plain.counters(BusKind::A).frames);
    }

    #[test]
    fn segment_of_partitions_by_fixed_size() {
        let fabric = BusFabric::new(64, 16, Dur(30));
        assert_eq!(fabric.segment_count(), 4);
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
        assert_eq!(fabric.gateway_frames(), 0);
        // Cross-segment (two remote segments): one fixed charge.
        let r = fabric.reserve_routed(0, targets(&[9, 17]), VTime(0), Dur(10), 64).unwrap();
        assert_eq!(r.start, VTime(10), "home segment serializes its own windows");
        assert_eq!(r.deliver_at, VTime(10 + 10 + 30));
        assert_eq!(fabric.gateway_frames(), 1);
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
