//! D5 fixture: panicking accessors on a fault-handling path.

pub fn promote(backups: &mut std::collections::BTreeMap<u64, Vec<u8>>, pid: u64) -> Vec<u8> {
    let image = backups.remove(&pid).unwrap();
    let first = image.first().copied().expect("image nonempty");
    let _ = first;
    image
}

pub fn size(tables: &[std::collections::BTreeMap<u64, usize>], pid: u64) -> usize {
    let by_ident = tables.last().map_or(0, |t| t[&pid]);
    let by_call = tables.to_vec().remove(0)[&pid];
    let by_index = tables[0][&pid];
    by_ident + by_call + by_index
}
