//! Zero-copy fabric regression tests.
//!
//! The paper's bus delivers one transmission to three destinations
//! (§7.4.2); the simulation mirrors that with [`auros::bus::SharedBytes`]
//! payloads, so fanning a frame out to the destination, the destination's
//! backup, and the sender's backup shares a single payload buffer. These
//! tests pin that property with the allocation probe, and pin the bus
//! byte accounting so the representation change can never silently alter
//! wire sizes.

use auros::bus::payload_allocs;
use auros::{programs, SystemBuilder, VTime};

const DEADLINE: VTime = VTime(400_000_000);

const MSGS: u64 = 40;
const SIZE: u64 = 4096;

fn bulk_run(fault_tolerant: bool) -> auros::System {
    let mut b = SystemBuilder::new(3);
    if !fault_tolerant {
        b.without_fault_tolerance();
    }
    b.spawn(0, programs::bulk_producer("z", MSGS, SIZE));
    b.spawn(1, programs::bulk_consumer("z", MSGS, SIZE));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE), "bulk workload must complete");
    sys
}

/// One frame to three clusters costs exactly one payload allocation.
///
/// The probe counts fresh payload buffers (clones and slices are free),
/// so a fault-tolerant run — every data message delivered to its
/// destination, the destination's backup, and the sender's backup — must
/// allocate exactly once per message sent: at the sending kernel's
/// copy-in from guest memory. A run without fault tolerance (single
/// delivery target) must allocate exactly the same amount; the whole
/// cost of the two extra destinations is reference-count traffic.
#[test]
fn triple_delivery_costs_one_allocation_per_message() {
    let before = payload_allocs();
    let ft = bulk_run(true);
    let ft_allocs = payload_allocs() - before;

    let before = payload_allocs();
    let solo = bulk_run(false);
    let solo_allocs = payload_allocs() - before;

    assert_eq!(ft_allocs, MSGS, "one allocation per message sent, regardless of fan-out");
    assert_eq!(solo_allocs, ft_allocs, "fan-out must not allocate payload buffers");

    // Sanity: the fault-tolerant run really did deliver each message to
    // more destinations than the unprotected run.
    let deliveries =
        |s: &auros::System| s.world.stats.clusters.iter().map(|c| c.deliveries).sum::<u64>();
    assert!(
        deliveries(&ft) > deliveries(&solo),
        "fault-tolerant run must fan out to extra destinations ({} vs {})",
        deliveries(&ft),
        deliveries(&solo)
    );
}

/// Bus byte accounting is pinned: switching the payload representation
/// from `Vec<u8>` to `SharedBytes` must not move a single wire byte.
/// (The golden fingerprints in `tests/golden.rs` cover serialization
/// semantics; this pins the byte *accounting* explicitly.)
#[test]
fn bus_byte_accounting_is_unchanged() {
    let sys = bulk_run(true);
    let s = &sys.world.stats;
    assert_eq!(
        (s.bus_frames, s.bus_bytes),
        golden::BULK_FRAMES_BYTES,
        "bus accounting changed: new value ({}, {})",
        s.bus_frames,
        s.bus_bytes
    );
}

mod golden {
    /// `(bus_frames, bus_bytes)` for the fault-tolerant bulk workload,
    /// captured with the pre-zero-copy `Vec<u8>` payload representation.
    pub const BULK_FRAMES_BYTES: (u64, u64) = (71, 173402);
}
