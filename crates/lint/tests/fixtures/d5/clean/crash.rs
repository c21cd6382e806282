//! D5 fixture: the same logic with the failure cases handled. Unit tests
//! may unwrap freely — `#[cfg(test)]` code is host-side.

pub fn promote(backups: &mut std::collections::BTreeMap<u64, Vec<u8>>, pid: u64) -> Option<Vec<u8>> {
    let image = backups.remove(&pid)?;
    if image.is_empty() {
        return None;
    }
    Some(image)
}

/// A map read through `get`; array literals and slice types of
/// references are not indexes.
pub fn size(sizes: &std::collections::BTreeMap<u64, usize>, a: &mut u64, b: &mut u64) -> usize {
    for x in [&mut *a, &mut *b] {
        *x += 1;
    }
    let both: &[&u64] = &[&*a, &*b];
    sizes.get(both[0]).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_in_tests_are_fine() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(1u64, vec![7u8]);
        assert_eq!(super::promote(&mut m, 1).unwrap(), vec![7]);
        let sizes = std::collections::BTreeMap::from([(1u64, 3usize)]);
        assert_eq!(sizes[&1], 3);
    }
}
