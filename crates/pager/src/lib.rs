#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! The page server (§7.6, §7.8).
//!
//! "A page server is associated with disk space used to hold the modified
//! pages of a user's address space which have been paged out. … The page
//! server keeps one account for a primary process, and another for its
//! backup. The backup's account contains all modified pages in their
//! state as of last synchronization."
//!
//! The server's tables (the accounts) live in its state object — it is a
//! peripheral server, memory-resident, backed up actively in the other
//! cluster attached to its disk. The accounts also own the page images:
//! an image lives while a primary or backup account, the server's synced
//! image at its backup cluster, or a saved `PageOut` message at that
//! backup holds it, and is freed with its last holder. The [`PageStore`]
//! device models the dual-ported disk itself: it counts reads and writes.
//!
//! Copy-on-sync: when a sync message arrives, the backup account becomes
//! identical to the primary account by copying the page *mapping* — "after
//! a sync, only one copy of each page will exist. … two copies will be
//! kept only of those pages which have been modified since sync" (§7.8):
//! a later `PageOut` allocates a fresh blob id for the primary while the
//! backup account keeps referencing the old image.

use std::any::Any;
use std::collections::BTreeMap;

use auros_bus::proto::{ChanEnd, Control, PageBlob, PagerReply, PagerRequest, Payload};
use auros_bus::Pid;
use auros_kernel::server::{Device, ServerCtx, ServerLogic};
use auros_sim::Dur;
use auros_vm::PageNo;

/// A stored blob id on the page disk.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlobId(pub u64);

/// The page disk: dual-ported storage that survives cluster crashes.
///
/// Page images are owned by the accounts that name them, so the device
/// only counts the transfers. Blob ids are allocated by the page server
/// from its synced counter, so a promoted backup re-allocates the same
/// ids during replay.
#[derive(Debug, Default)]
pub struct PageStore {
    /// Total writes, for experiment accounting.
    pub writes: u64,
    /// Total reads, for experiment accounting.
    pub reads: u64,
}

impl PageStore {
    /// Creates an empty store.
    pub fn new() -> PageStore {
        PageStore::default()
    }
}

impl Device for PageStore {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A paged-out image and the blob id it was filed under.
#[derive(Clone, Debug, PartialEq)]
struct Page {
    id: BlobId,
    data: PageBlob,
}

/// One process's two page accounts.
#[derive(Clone, Debug, Default)]
struct Accounts {
    /// The primary account: page → image, current as of the latest flush.
    primary: BTreeMap<PageNo, Page>,
    /// The backup account: page → image as of the last synchronization.
    backup: BTreeMap<PageNo, Page>,
}

impl Accounts {
    /// Pages whose two accounts name different images (§7.8).
    fn double_copied(&self) -> usize {
        self.primary
            .iter()
            .filter(|(page, p)| self.backup.get(page).is_some_and(|b| b.id != p.id))
            .count()
    }
}

/// The page server's state — its resident "address space" (§7.9).
#[derive(Clone, Debug)]
pub struct PageServer {
    accounts: BTreeMap<Pid, Accounts>,
    /// Blob-id allocator; part of synced state so replay re-allocates
    /// identically.
    next_blob: u64,
    /// Page-outs processed, for experiment accounting.
    pub pageouts: u64,
    /// Page-ins served, for experiment accounting.
    pub pageins: u64,
    /// Account syncs applied (§7.8).
    pub account_syncs: u64,
}

impl Default for PageServer {
    fn default() -> Self {
        Self::new()
    }
}

impl PageServer {
    /// Creates an empty page server.
    pub fn new() -> PageServer {
        PageServer {
            accounts: BTreeMap::new(),
            next_blob: 1,
            pageouts: 0,
            pageins: 0,
            account_syncs: 0,
        }
    }

    fn alloc_blob(&mut self) -> BlobId {
        let id = BlobId(self.next_blob);
        self.next_blob += 1;
        id
    }

    /// Pages in the primary account of `pid` (test oracle).
    pub fn primary_pages(&self, pid: Pid) -> Vec<PageNo> {
        self.accounts.get(&pid).map(|a| a.primary.keys().copied().collect()).unwrap_or_default()
    }

    /// Pages in the backup account of `pid` (test oracle).
    pub fn backup_pages(&self, pid: Pid) -> Vec<PageNo> {
        self.accounts.get(&pid).map(|a| a.backup.keys().copied().collect()).unwrap_or_default()
    }

    /// How many pages currently have two physical copies (modified since
    /// the owner's last sync, §7.8).
    pub fn double_copied_pages(&self, pid: Pid) -> usize {
        self.accounts.get(&pid).map(Accounts::double_copied).unwrap_or(0)
    }
}

impl ServerLogic for PageServer {
    fn name(&self) -> &'static str {
        "pager"
    }

    fn on_message(&mut self, _src: Pid, end: ChanEnd, payload: &Payload, ctx: &mut ServerCtx<'_>) {
        match payload {
            Payload::Pager(PagerRequest::PageOut { pid, page, data }) => {
                self.pageouts += 1;
                let id = self.alloc_blob();
                ctx.device_as::<PageStore>().writes += 1;
                let image = Page { id, data: data.clone() };
                self.accounts.entry(*pid).or_default().primary.insert(*page, image);
                ctx.work(Dur(10));
            }
            Payload::Pager(PagerRequest::PageIn { pid, page }) => {
                self.pageins += 1;
                let data = self
                    .accounts
                    .get(pid)
                    .and_then(|a| a.primary.get(page))
                    .map(|p| p.data.clone());
                if data.is_some() {
                    ctx.device_as::<PageStore>().reads += 1;
                }
                ctx.send(
                    end,
                    Payload::PagerReply(PagerReply::Page { pid: *pid, page: *page, data }),
                );
                ctx.work(Dur(10));
            }
            Payload::Pager(PagerRequest::Promote { pid }) => {
                // The process's backup account becomes the primary
                // account (§7.10.2): the promoted process rolls forward
                // from the last-sync address space.
                if let Some(a) = self.accounts.get_mut(pid) {
                    a.primary = a.backup.clone();
                }
            }
            Payload::Pager(PagerRequest::DuplicateAccount { pid }) => {
                if let Some(a) = self.accounts.get_mut(pid) {
                    a.backup = a.primary.clone();
                }
            }
            Payload::Pager(PagerRequest::DropAccount { pid }) => {
                self.accounts.remove(pid);
            }
            Payload::Control(Control::Sync(rec)) => {
                // "The page server's response to the sync message is to
                // make the backup's account identical to that of the
                // primary" (§7.8). Copying the mapping — not the pages —
                // realizes the one-copy-per-page-after-sync property.
                self.account_syncs += 1;
                let a = self.accounts.entry(rec.pid).or_default();
                a.backup = a.primary.clone();
                ctx.work(Dur(5));
            }
            _ => {}
        }
    }

    fn clone_image(&self) -> Box<dyn ServerLogic> {
        Box::new(self.clone())
    }

    fn image_size(&self) -> usize {
        64 + self
            .accounts
            .values()
            .map(|a| 16 + (a.primary.len() + a.backup.len()) * 12)
            .sum::<usize>()
    }

    fn resident(&self) -> bool {
        // "The page server itself must permanently reside in memory"
        // (§7.6).
        true
    }

    fn publish_metrics(&self, reg: &mut auros_sim::MetricsRegistry) {
        reg.set("pager.pageouts", self.pageouts);
        reg.set("pager.pageins", self.pageins);
        reg.set("pager.account_syncs", self.account_syncs);
        reg.set("pager.accounts", self.accounts.len() as u64);
        let double: usize = self.accounts.values().map(Accounts::double_copied).sum();
        reg.set("pager.double_copied_pages", double as u64);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, KernelState, Side, SyncRecord};
    use auros_sim::VTime;
    use auros_vm::{Snapshot, PAGE_SIZE};
    use std::sync::Arc;

    fn end() -> ChanEnd {
        ChanEnd { channel: ChannelId(1), side: Side::B }
    }

    fn blob(fill: u8) -> PageBlob {
        Arc::new([fill; PAGE_SIZE])
    }

    fn sync_record(pid: Pid) -> SyncRecord {
        SyncRecord {
            pid,
            sync_seq: 1,
            image: Arc::new(Snapshot {
                regs: [0; 16],
                pc: 0,
                sig_stack: vec![],
                valid_pages: Default::default(),
                fuel_used: 0,
            }),
            kstate: Arc::new(KernelState::default()),
            reads_since_sync: vec![],
            residual_suppress: vec![],
            closed: vec![],
            rebuild: None,
        }
    }

    fn drive(server: &mut PageServer, store: &mut PageStore, payload: Payload) -> Vec<Payload> {
        let mut ctx = ServerCtx::new(VTime(0), Pid(99), Some(store));
        server.on_message(Pid(1), end(), &payload, &mut ctx);
        ctx.effects.sends.into_iter().map(|s| s.payload).collect()
    }

    #[test]
    fn pageout_then_pagein_round_trips() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(3), data: blob(7) }),
        );
        let replies = drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageIn { pid: Pid(1), page: PageNo(3) }),
        );
        match &replies[0] {
            Payload::PagerReply(PagerReply::Page { data: Some(d), .. }) => {
                assert_eq!(d[0], 7);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn pagein_of_unknown_page_returns_none() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        let replies = drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageIn { pid: Pid(1), page: PageNo(0) }),
        );
        match &replies[0] {
            Payload::PagerReply(PagerReply::Page { data, .. }) => assert!(data.is_none()),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn sync_commits_backup_account_with_page_sharing() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(0), data: blob(1) }),
        );
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(1), data: blob(2) }),
        );
        drive(&mut s, &mut store, Payload::Control(Control::Sync(Arc::new(sync_record(Pid(1))))));
        // After a sync, only one copy of each page exists (§7.8).
        assert_eq!(s.double_copied_pages(Pid(1)), 0);
        assert_eq!(s.backup_pages(Pid(1)), vec![PageNo(0), PageNo(1)]);
        // A new page-out diverges only that page.
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(0), data: blob(9) }),
        );
        assert_eq!(s.double_copied_pages(Pid(1)), 1);
    }

    #[test]
    fn promote_restores_last_sync_view() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(0), data: blob(1) }),
        );
        drive(&mut s, &mut store, Payload::Control(Control::Sync(Arc::new(sync_record(Pid(1))))));
        // The primary dirties the page again after sync.
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(0), data: blob(99) }),
        );
        // Crash: the backup account becomes primary.
        drive(&mut s, &mut store, Payload::Pager(PagerRequest::Promote { pid: Pid(1) }));
        let replies = drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageIn { pid: Pid(1), page: PageNo(0) }),
        );
        match &replies[0] {
            Payload::PagerReply(PagerReply::Page { data: Some(d), .. }) => {
                assert_eq!(d[0], 1, "rollforward starts from the last-sync contents");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn page_out(s: &mut PageServer, store: &mut PageStore, page: u32, data: &PageBlob) {
        let data = Arc::clone(data);
        drive(
            s,
            store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(page), data }),
        );
    }

    fn sync(s: &mut PageServer, store: &mut PageStore) {
        drive(s, store, Payload::Control(Control::Sync(Arc::new(sync_record(Pid(1))))));
    }

    #[test]
    fn drop_account_releases_blobs() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        let a = blob(1);
        let weak = Arc::downgrade(&a);
        page_out(&mut s, &mut store, 0, &a);
        drop(a);
        assert!(weak.upgrade().is_some(), "the primary account holds the image");
        drive(&mut s, &mut store, Payload::Pager(PagerRequest::DropAccount { pid: Pid(1) }));
        assert!(s.primary_pages(Pid(1)).is_empty());
        assert!(weak.upgrade().is_none(), "dropping the account frees its image");
        assert_eq!(store.writes, 1);
    }

    #[test]
    fn a_superseded_image_is_freed_at_the_next_sync() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        let (a, b) = (blob(1), blob(2));
        let (weak_a, weak_b) = (Arc::downgrade(&a), Arc::downgrade(&b));
        page_out(&mut s, &mut store, 0, &a);
        sync(&mut s, &mut store);
        page_out(&mut s, &mut store, 0, &b);
        sync(&mut s, &mut store);
        drop((a, b));
        assert!(weak_a.upgrade().is_none(), "no account names A after the second sync");
        assert!(weak_b.upgrade().is_some(), "both accounts share B");
    }

    #[test]
    fn the_backup_account_holds_the_last_synced_image() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        let (a, b) = (blob(1), blob(2));
        let (weak_a, weak_b) = (Arc::downgrade(&a), Arc::downgrade(&b));
        page_out(&mut s, &mut store, 0, &a);
        sync(&mut s, &mut store);
        page_out(&mut s, &mut store, 0, &b);
        drop((a, b));
        assert!(weak_a.upgrade().is_some(), "the backup account still names A");
        assert!(weak_b.upgrade().is_some(), "the primary account names B");
    }

    #[test]
    fn a_server_image_holds_the_pages_it_names() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        let a = blob(1);
        let weak = Arc::downgrade(&a);
        page_out(&mut s, &mut store, 0, &a);
        drop(a);
        let image = s.clone_image();
        drive(&mut s, &mut store, Payload::Pager(PagerRequest::DropAccount { pid: Pid(1) }));
        assert!(weak.upgrade().is_some(), "the synced server image still names A");
        drop(image);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn published_double_copies_count_only_diverged_pages() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        let published = |s: &PageServer| {
            let mut reg = auros_sim::MetricsRegistry::new();
            s.publish_metrics(&mut reg);
            reg.get("pager.double_copied_pages")
        };
        page_out(&mut s, &mut store, 0, &blob(1));
        sync(&mut s, &mut store);
        assert_eq!(published(&s), 0, "a sync leaves one shared copy of each page");
        page_out(&mut s, &mut store, 0, &blob(2));
        assert_eq!(published(&s), 1);
    }

    #[test]
    fn image_clone_is_deep() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(0), data: blob(1) }),
        );
        let image = s.clone_image();
        drive(&mut s, &mut store, Payload::Pager(PagerRequest::DropAccount { pid: Pid(1) }));
        let restored = image.as_any().downcast_ref::<PageServer>().unwrap();
        assert_eq!(restored.primary_pages(Pid(1)), vec![PageNo(0)]);
    }

    #[test]
    fn replay_reallocates_identical_blob_ids() {
        let mut a = PageServer::new();
        let mut b = a.clone();
        let mut store_a = PageStore::new();
        let mut store_b = PageStore::new();
        for (s, st) in [(&mut a, &mut store_a), (&mut b, &mut store_b)] {
            drive(
                s,
                st,
                Payload::Pager(PagerRequest::PageOut {
                    pid: Pid(1),
                    page: PageNo(0),
                    data: blob(1),
                }),
            );
        }
        assert_eq!(a.accounts[&Pid(1)].primary, b.accounts[&Pid(1)].primary);
    }
}
