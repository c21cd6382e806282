//! S1 clean fixture, `Arc` shapes: `Arc` of Freeze payloads is the
//! blessed idiom — shared immutable bytes and text, trait objects, and
//! owned program text.

pub struct SharedBytes {
    buf: Arc<[u8]>,
    name: Arc<str>,
}

struct Image {
    image: Arc<dyn ProcessImage>,
    program: Arc<Vec<Inst>>,
}

fn intern(data: &[u8]) -> Arc<[u8]> {
    Arc::from(data)
}
