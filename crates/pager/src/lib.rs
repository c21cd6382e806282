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
//! cluster attached to its disk. Page *contents* live on the [`PageStore`]
//! device, which is dual-ported and survives cluster crashes.
//!
//! Copy-on-sync: when a sync message arrives, the backup account becomes
//! identical to the primary account by copying the page *mapping* — "after
//! a sync, only one copy of each page will exist. … two copies will be
//! kept only of those pages which have been modified since sync" (§7.8):
//! a later `PageOut` allocates a fresh blob id for the primary while the
//! backup account keeps referencing the old blob.

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

/// The page disk: dual-ported storage for page contents.
///
/// Blob ids are allocated by the page server from its synced counter, so
/// a promoted backup re-allocates the same ids during replay.
#[derive(Debug, Default)]
pub struct PageStore {
    blobs: BTreeMap<BlobId, PageBlob>,
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

    /// Writes a blob (idempotent under replay: same id, same content).
    pub fn put(&mut self, id: BlobId, data: PageBlob) {
        self.writes += 1;
        self.blobs.insert(id, data);
    }

    /// Reads a blob.
    pub fn get(&mut self, id: BlobId) -> Option<PageBlob> {
        self.reads += 1;
        self.blobs.get(&id).cloned()
    }

    /// Removes blobs not referenced by `live` (garbage collection after
    /// account drops).
    pub fn retain_only(&mut self, live: &std::collections::BTreeSet<BlobId>) {
        self.blobs.retain(|id, _| live.contains(id));
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
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

/// One process's two page accounts.
#[derive(Clone, Debug, Default)]
struct Accounts {
    /// The primary account: page → blob, current as of the latest flush.
    primary: BTreeMap<PageNo, BlobId>,
    /// The backup account: page → blob as of the last synchronization.
    backup: BTreeMap<PageNo, BlobId>,
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
        self.accounts
            .get(&pid)
            .map(|a| {
                a.primary
                    .iter()
                    .filter(|(page, blob)| a.backup.get(page).is_some_and(|b| b != *blob))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Every blob referenced by any account.
    pub fn live_blobs(&self) -> std::collections::BTreeSet<BlobId> {
        self.accounts
            .values()
            .flat_map(|a| a.primary.values().chain(a.backup.values()))
            .copied()
            .collect()
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
                ctx.device_as::<PageStore>().put(id, data.clone());
                self.accounts.entry(*pid).or_default().primary.insert(*page, id);
                ctx.work(Dur(10));
            }
            Payload::Pager(PagerRequest::PageIn { pid, page }) => {
                self.pageins += 1;
                let blob = self.accounts.get(pid).and_then(|a| a.primary.get(page)).copied();
                let data = blob.and_then(|id| ctx.device_as::<PageStore>().get(id));
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
        let double: usize = self
            .accounts
            .values()
            .map(|a| a.primary.keys().filter(|p| a.backup.contains_key(p)).count())
            .sum();
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
        ctx.sends.into_iter().map(|s| s.payload).collect()
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

    #[test]
    fn drop_account_releases_blobs() {
        let mut s = PageServer::new();
        let mut store = PageStore::new();
        drive(
            &mut s,
            &mut store,
            Payload::Pager(PagerRequest::PageOut { pid: Pid(1), page: PageNo(0), data: blob(1) }),
        );
        assert_eq!(store.len(), 1);
        drive(&mut s, &mut store, Payload::Pager(PagerRequest::DropAccount { pid: Pid(1) }));
        assert!(s.primary_pages(Pid(1)).is_empty());
        let live = s.live_blobs();
        store.retain_only(&live);
        assert!(store.is_empty());
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
