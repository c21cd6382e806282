//! Graph-pin fixture: a small multi-module crate image whose symbol
//! graph (items, taint propagation) is pinned by
//! `tests/parse_graph.rs`. Not rule-pure on purpose — it exists to
//! exercise the graph, not the rules.

pub mod fabric {
    pub struct Frame {
        pub payload: Bytes,
        seq: u64,
    }

    pub struct Bytes {
        buf: Arc<[u8]>,
    }
}

mod metrics {
    pub struct Gauge {
        value: Cell<u64>,
    }

    pub type GaugeRef = Gauge;
}

pub mod state {
    static HIGH_WATER: u64 = 0;

    thread_local! {
        static LOCAL: u64 = 0;
    }
}
