//! Paged guest memory with dirty tracking.
//!
//! Pages are small (1 KiB) so that dirty-page counts are interesting at
//! simulation scale. The memory distinguishes three page states:
//!
//! * **unallocated** — never touched; a store allocates a zeroed page
//!   (first-touch allocation, no kernel involvement);
//! * **resident** — present, possibly dirty since the last sync;
//! * **valid but non-resident** — part of the address space but paged out
//!   (or never brought in after a backup's promotion); access raises a
//!   page fault that the kernel services through the page server (§7.6).

use std::collections::{BTreeMap, BTreeSet};

/// Bytes per page.
pub const PAGE_SIZE: usize = 1024;

/// A page index within a process's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageNo(pub u32);

/// Highest allowed page number; keeps guest addresses bounded.
pub const MAX_PAGE: u32 = 1 << 20;

/// The contents of one page.
pub type PageData = Box<[u8; PAGE_SIZE]>;

fn zero_page() -> PageData {
    Box::new([0u8; PAGE_SIZE])
}

#[derive(Clone)]
struct Resident {
    data: PageData,
    dirty: bool,
}

/// Outcome of a guest memory access.
#[derive(Debug, PartialEq, Eq)]
pub enum Access {
    /// The access completed.
    Ok,
    /// The page is valid but not resident; the kernel must install it.
    Fault(PageNo),
    /// The address is outside the representable address space.
    OutOfRange(u64),
}

/// A process's paged data space.
#[derive(Clone)]
pub struct PagedMemory {
    resident: BTreeMap<PageNo, Resident>,
    /// Pages that are part of the address space (allocated at some point).
    valid: BTreeSet<PageNo>,
}

impl Default for PagedMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl PagedMemory {
    /// Creates an empty address space.
    pub fn new() -> PagedMemory {
        PagedMemory { resident: BTreeMap::new(), valid: BTreeSet::new() }
    }

    /// An address space of `valid` pages with none resident, so the first
    /// touch of each faults: a promoted backup's memory (§7.10.2).
    pub fn non_resident(valid: BTreeSet<PageNo>) -> PagedMemory {
        PagedMemory { resident: BTreeMap::new(), valid }
    }

    /// The page containing `addr`, or `None` if out of range.
    pub fn page_of(addr: u64) -> Option<PageNo> {
        let page = addr / PAGE_SIZE as u64;
        // A multi-byte access may spill into the next page; callers check
        // both ends.
        if page < MAX_PAGE as u64 {
            Some(PageNo(page as u32))
        } else {
            None
        }
    }

    /// Pages currently valid (resident or not).
    pub fn valid_pages(&self) -> &BTreeSet<PageNo> {
        &self.valid
    }

    /// Pages resident in memory.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Returns `true` if `page` is resident.
    pub fn is_resident(&self, page: PageNo) -> bool {
        self.resident.contains_key(&page)
    }

    /// Pages dirtied since the last [`Self::clean_all`].
    pub fn dirty_pages(&self) -> Vec<PageNo> {
        self.resident.iter().filter(|(_, r)| r.dirty).map(|(p, _)| *p).collect()
    }

    /// A resident page's contents.
    pub fn page(&self, page: PageNo) -> Option<&[u8; PAGE_SIZE]> {
        self.resident.get(&page).map(|r| &*r.data)
    }

    /// Marks every resident page clean (after its contents were sent to
    /// the page server during sync, §7.8).
    pub fn clean_all(&mut self) {
        for r in self.resident.values_mut() {
            r.dirty = false;
        }
    }

    /// Marks every resident page dirty.
    ///
    /// A forked child's address space exists nowhere but in its cluster
    /// until its first sync flushes it, so every page starts dirty.
    pub fn mark_all_dirty(&mut self) {
        for r in self.resident.values_mut() {
            r.dirty = true;
        }
    }

    /// Installs a page (from the page server) as resident and clean.
    pub fn install(&mut self, page: PageNo, data: PageData) {
        self.valid.insert(page);
        self.resident.insert(page, Resident { data, dirty: false });
    }

    /// Evicts a resident page, returning its data and dirtiness.
    ///
    /// The page stays valid; the next guest access faults.
    pub fn evict(&mut self, page: PageNo) -> Option<(PageData, bool)> {
        self.resident.remove(&page).map(|r| (r.data, r.dirty))
    }

    /// Picks an eviction victim: the lowest-numbered clean resident page,
    /// else the lowest-numbered dirty one. Deterministic by construction.
    pub fn eviction_victim(&self) -> Option<(PageNo, bool)> {
        self.resident
            .iter()
            .find(|(_, r)| !r.dirty)
            .or_else(|| self.resident.iter().next())
            .map(|(p, r)| (*p, r.dirty))
    }

    fn ensure_for_write(&mut self, page: PageNo) -> Access {
        if self.resident.contains_key(&page) {
            return Access::Ok;
        }
        if self.valid.contains(&page) {
            return Access::Fault(page);
        }
        // First touch: allocate a zeroed page. It is dirty by definition —
        // it exists only here until the next sync flushes it.
        self.valid.insert(page);
        self.resident.insert(page, Resident { data: zero_page(), dirty: true });
        Access::Ok
    }

    fn ensure_for_read(&mut self, page: PageNo) -> Access {
        // Reading unallocated memory also allocates (zeroes), mirroring
        // zero-fill-on-demand; it must, so that a later restore sees the
        // same valid set regardless of read/write order.
        self.ensure_for_write(page)
    }

    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// Copies page-sized runs: one page lookup per page touched, not
    /// per byte — bulk payload copy-in is the hot path of the message
    /// fabric.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Access {
        match self.walk(addr, buf.len(), false) {
            Access::Ok => {}
            fault => return fault,
        }
        let mut done = 0;
        while done < buf.len() {
            let a = addr + done as u64;
            let page = PageNo((a / PAGE_SIZE as u64) as u32);
            let off = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let data = &self.resident[&page].data;
            buf[done..done + n].copy_from_slice(&data[off..off + n]);
            done += n;
        }
        Access::Ok
    }

    /// Writes `buf` at `addr`, marking touched pages dirty.
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Access {
        match self.walk(addr, buf.len(), true) {
            Access::Ok => {}
            fault => return fault,
        }
        let mut done = 0;
        while done < buf.len() {
            let a = addr + done as u64;
            let page = PageNo((a / PAGE_SIZE as u64) as u32);
            let off = (a % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let r = self.resident.get_mut(&page).expect("walked page resident");
            r.data[off..off + n].copy_from_slice(&buf[done..done + n]);
            r.dirty = true;
            done += n;
        }
        Access::Ok
    }

    /// The resident page holding all 8 bytes at `addr`, and their offset
    /// in it; `None` sends the access down the general path.
    fn word(&mut self, addr: u64) -> Option<(&mut Resident, usize)> {
        let off = (addr % PAGE_SIZE as u64) as usize;
        if off + 8 > PAGE_SIZE {
            return None;
        }
        let page = Self::page_of(addr)?;
        self.resident.get_mut(&page).map(|r| (r, off))
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, Access> {
        let mut buf = [0u8; 8];
        match self.word(addr) {
            Some((r, off)) => buf.copy_from_slice(&r.data[off..off + 8]),
            None => match self.read(addr, &mut buf) {
                Access::Ok => {}
                fault => return Err(fault),
            },
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Access {
        let Some((r, off)) = self.word(addr) else {
            return self.write(addr, &value.to_le_bytes());
        };
        r.data[off..off + 8].copy_from_slice(&value.to_le_bytes());
        r.dirty = true;
        Access::Ok
    }

    /// Ensures all pages covered by `[addr, addr+len)` are resident,
    /// allocating unallocated ones.
    fn walk(&mut self, addr: u64, len: usize, write: bool) -> Access {
        if len == 0 {
            return Access::Ok;
        }
        let end = match addr.checked_add(len as u64 - 1) {
            Some(e) => e,
            None => return Access::OutOfRange(addr),
        };
        let (first, last) = match (Self::page_of(addr), Self::page_of(end)) {
            (Some(a), Some(b)) => (a.0, b.0),
            _ => return Access::OutOfRange(end),
        };
        for p in first..=last {
            let page = PageNo(p);
            let access =
                if write { self.ensure_for_write(page) } else { self.ensure_for_read(page) };
            if access != Access::Ok {
                return access;
            }
        }
        Access::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_allocates_zeroed_dirty_page() {
        let mut m = PagedMemory::new();
        let mut buf = [1u8; 4];
        assert_eq!(m.read(100, &mut buf), Access::Ok);
        assert_eq!(buf, [0; 4]);
        assert_eq!(m.dirty_pages(), vec![PageNo(0)]);
        assert!(m.valid_pages().contains(&PageNo(0)));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = PagedMemory::new();
        assert_eq!(m.write_u64(2040, 0xdead_beef), Access::Ok);
        assert_eq!(m.read_u64(2040).unwrap(), 0xdead_beef);
        // 2040..2048 straddles pages 1 and 2 at 1 KiB pages? 2040+8 = 2048,
        // so the access covers bytes 2040..=2047, all within page 1.
        assert_eq!(m.dirty_pages(), vec![PageNo(1)]);
    }

    #[test]
    fn straddling_write_dirties_both_pages() {
        let mut m = PagedMemory::new();
        assert_eq!(m.write_u64(PAGE_SIZE as u64 - 4, 7), Access::Ok);
        assert_eq!(m.dirty_pages(), vec![PageNo(0), PageNo(1)]);
    }

    #[test]
    fn clean_all_resets_dirty_but_not_valid() {
        let mut m = PagedMemory::new();
        m.write_u64(0, 1);
        m.clean_all();
        assert!(m.dirty_pages().is_empty());
        assert!(m.valid_pages().contains(&PageNo(0)));
        m.write_u64(8, 2);
        assert_eq!(m.dirty_pages(), vec![PageNo(0)]);
    }

    #[test]
    fn eviction_then_access_faults() {
        let mut m = PagedMemory::new();
        m.write_u64(0, 42);
        let (data, dirty) = m.evict(PageNo(0)).unwrap();
        assert!(dirty);
        assert_eq!(m.read_u64(0), Err(Access::Fault(PageNo(0))));
        m.install(PageNo(0), data);
        assert_eq!(m.read_u64(0).unwrap(), 42);
        assert!(m.dirty_pages().is_empty(), "installed pages are clean");
    }

    #[test]
    fn non_resident_is_valid_and_faults_on_first_touch() {
        let valid: BTreeSet<PageNo> = [PageNo(0), PageNo(4)].into();
        let mut m = PagedMemory::non_resident(valid.clone());
        assert_eq!(m.valid_pages(), &valid);
        assert_eq!(m.resident_count(), 0);
        assert_eq!(m.read_u64(4 * PAGE_SIZE as u64), Err(Access::Fault(PageNo(4))));
        assert_eq!(m.write_u64(8, 1), Access::Fault(PageNo(0)));
        // A page outside the valid set is still first-touch allocated.
        assert_eq!(m.write_u64(PAGE_SIZE as u64, 1), Access::Ok);
        assert_eq!(m.dirty_pages(), vec![PageNo(1)]);
    }

    #[test]
    fn straddle_into_non_resident_page_faults_without_touching_the_first() {
        let mut m = PagedMemory::new();
        let edge = PAGE_SIZE as u64 - 4;
        assert_eq!(m.write_u64(edge - 8, u64::MAX), Access::Ok);
        assert_eq!(m.write_u64(PAGE_SIZE as u64, 1), Access::Ok);
        m.evict(PageNo(1));
        m.clean_all();
        let before = *m.page(PageNo(0)).unwrap();
        assert_eq!(m.write_u64(edge, 7), Access::Fault(PageNo(1)));
        assert_eq!(m.read_u64(edge), Err(Access::Fault(PageNo(1))));
        assert_eq!(m.page(PageNo(0)).unwrap(), &before);
        assert!(m.dirty_pages().is_empty(), "a faulting write dirties nothing");
    }

    #[test]
    fn access_ending_past_max_page_is_out_of_range() {
        let mut m = PagedMemory::new();
        let last = MAX_PAGE as u64 * PAGE_SIZE as u64 - 4;
        assert!(matches!(m.write_u64(last, 1), Access::OutOfRange(_)));
        assert!(matches!(m.read_u64(last), Err(Access::OutOfRange(_))));
        assert_eq!(m.resident_count(), 0, "nothing is allocated for a rejected access");
        assert_eq!(m.write_u64(last - 4, 1), Access::Ok, "the last whole word is in range");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = PagedMemory::new();
        let far = (MAX_PAGE as u64) * PAGE_SIZE as u64 + 5;
        assert!(matches!(m.write_u64(far, 1), Access::OutOfRange(_)));
        assert!(matches!(m.write_u64(u64::MAX - 2, 1), Access::OutOfRange(_)));
    }

    #[test]
    fn zero_length_access_is_ok_anywhere() {
        let mut m = PagedMemory::new();
        assert_eq!(m.write(u64::MAX, &[]), Access::Ok);
        assert_eq!(m.resident_count(), 0);
    }

    #[test]
    fn eviction_victim_prefers_clean_pages() {
        let mut m = PagedMemory::new();
        m.write_u64(0, 1); // page 0 dirty
        m.write_u64(PAGE_SIZE as u64, 2); // page 1 dirty
        m.clean_all();
        m.write_u64(PAGE_SIZE as u64, 3); // page 1 dirty again
        assert_eq!(m.eviction_victim(), Some((PageNo(0), false)));
        m.evict(PageNo(0));
        assert_eq!(m.eviction_victim(), Some((PageNo(1), true)));
    }
}
