//! D5 fixture: an invariant-message expect and a map index, each
//! carrying its waiver.

pub fn promote(backups: &mut std::collections::BTreeMap<u64, Vec<u8>>, pid: u64) -> Vec<u8> {
    assert!(backups.contains_key(&pid));
    // auros-lint: allow(D5) -- invariant: presence asserted on the line above
    let len = backups[&pid].len();
    let _ = len;
    // auros-lint: allow(D5) -- invariant: presence asserted above
    backups.remove(&pid).expect("asserted above")
}
