//! S1 waived fixture: an observability counter escapes the rule with a
//! recorded reason, mirroring the bus payload-allocation probe.

// auros-lint: allow(S1) -- observability-only counter: monotonic, never read by sim logic
static ALLOCS: AtomicU64 = AtomicU64::new(0);

pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
