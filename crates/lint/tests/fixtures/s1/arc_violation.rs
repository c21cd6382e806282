//! S1 fixture, `Arc` shapes: an `Arc` of a non-Freeze payload. Shared
//! ownership of a mutable cell is exactly the cross-cluster channel the
//! simulation must not have. Four shapes, one per line: two fields, a
//! type alias, and a signature.

struct Delivery {
    acks: Arc<AtomicU64>,
    guard: Arc<Mutex<u64>>,
}

type SharedState = Arc<RwLock<u64>>;

fn share() -> Arc<AtomicU64> {
    Arc::new(AtomicU64::new(0))
}
