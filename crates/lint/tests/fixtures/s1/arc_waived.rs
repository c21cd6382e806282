//! S1 waived fixture, `Arc` shapes: a host-bridge handle that never
//! enters a message, waived with a recorded reason.

struct Bridge {
    // auros-lint: allow(S1) -- host-side bridge handle: never enters a message or crosses a cluster
    flag: Arc<AtomicU64>,
}
