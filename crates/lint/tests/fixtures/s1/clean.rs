//! S1 clean fixture: immutable Freeze globals and ordinary owned
//! state are fine — only *mutable* shared state is banned. Shared
//! pointers to frozen payloads are the blessed idiom; the `Arc` shapes
//! live in `arc_clean.rs`.

static LIMIT: u64 = 64;

const WINDOW: u64 = 400_000;

static BANNER: &str = "auros";

pub struct Counter {
    ticks: u64,
}

impl Counter {
    pub fn bump(&mut self) {
        self.ticks += 1;
    }
}

pub struct SharedBytes {
    buf: Rc<[u8]>,
}

fn intern(data: &[u8]) -> Rc<[u8]> {
    Rc::from(data)
}
