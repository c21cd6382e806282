//! S1 fixture: shared mutable state in a deterministic crate. Eight
//! distinct shapes, all violations, one per line: `static mut`, an
//! interior-mutability static, a thread-local, a function-local static
//! (function bodies are not an escape hatch), and `Rc` and `Weak`
//! pointers to a mutable payload, direct, through a tainted struct, and
//! in a signature. The `Arc` shapes live in `arc_violation.rs`.

static mut TICKS: u64 = 0;

static SLOT: OnceLock<u64> = OnceLock::new();

thread_local! {
    static SCRATCH: Vec<u64> = Vec::new();
}

fn bump() {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    COUNTER.fetch_add(1, Ordering::Relaxed);
}

struct Shared {
    log: Rc<RefCell<Vec<u64>>>,
}

struct Peer {
    back: Weak<Cell<u64>>,
}

struct Tally {
    hits: Cell<u64>,
}

struct Board {
    tally: Rc<Tally>,
}

fn observer(board: &Board) -> Weak<Tally> {
    Rc::downgrade(&board.tally)
}
