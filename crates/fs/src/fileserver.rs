//! The file server (§7.4.1, §7.6, §7.9).
//!
//! One file server per file system. It has three jobs in the paper:
//!
//! 1. **Channel rendezvous** (§7.4.1): `open` requests arrive on a
//!    pre-existing channel; file names open files, other names pair up
//!    two openers into a user-to-user channel. The open reply carries the
//!    routing descriptor the opener's kernel (and, via the backup copy,
//!    the opener's backup cluster) uses to materialize the entry.
//! 2. **File service**: reads and writes are request/reply on the
//!    channel, through a buffer cache kept in the server's address space.
//! 3. **Explicit sync** (§7.9): when the cache is flushed to the
//!    dual-ported disk, the server syncs at the same moment — the disk
//!    carries the bulk of the state, so the sync message itself stays
//!    small, and shadow blocks keep the old file system state until the
//!    sync completes.

use std::any::Any;
use std::collections::BTreeMap;

use auros_bus::proto::{
    BackupMode, ChanEnd, ChanKind, ChannelId, ChannelInit, FsError, FsReply, FsRequest, Payload,
    Peer, ServiceKind, Side, TtyMsg,
};
use auros_bus::{ClusterId, Fd, Pid};
use auros_kernel::server::{ServerCtx, ServerLogic};
use auros_kernel::world::ports;
use auros_sim::Dur;

use crate::disk::{BlockNo, DiskPair, BLOCK_SIZE};

/// Cap on a single read reply.
const MAX_READ: usize = 16 * 1024;

/// A file identifier inside this file system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct FileId(u64);

#[derive(Clone, Debug, Default)]
struct Inode {
    blocks: Vec<BlockNo>,
    len: u64,
}

#[derive(Clone, Debug)]
struct Cursor {
    file: FileId,
    pos: u64,
}

/// A waiting rendezvous opener (§7.4.1).
#[derive(Clone, Debug)]
struct Opener {
    pid: Pid,
    cluster: ClusterId,
    backup: Option<ClusterId>,
    fd: Fd,
    mode: BackupMode,
}

impl Opener {
    /// The opener as the peer of the channel's other end.
    fn peer(&self) -> Peer {
        Peer::new(self.pid, self.cluster, self.backup, self.mode)
    }
}

/// Where a device-backed name routes (terminals, raw disks).
#[derive(Clone, Debug)]
pub struct DeviceRoute {
    /// The serving process.
    pub pid: Pid,
    /// Its current cluster.
    pub cluster: ClusterId,
    /// Its backup cluster.
    pub backup: Option<ClusterId>,
    /// The fs→server notification end (terminals only).
    pub notify_end: Option<ChanEnd>,
    /// The line within the server's interface module (terminals only;
    /// the global `tty:k` name maps onto a per-module line).
    pub line: u32,
}

/// The file server's state — its memory-resident address space.
#[derive(Clone, Debug)]
pub struct FileServer {
    root: BTreeMap<String, FileId>,
    inodes: BTreeMap<FileId, Inode>,
    channels: BTreeMap<ChanEnd, Cursor>,
    pending: BTreeMap<String, Opener>,
    /// Dirty buffer cache (block → contents), flushed on the sync cadence.
    cache: BTreeMap<BlockNo, Vec<u8>>,
    next_file: u64,
    next_block: u64,
    /// Channel-id allocator (synced state: replay re-allocates the same
    /// ids, see `ChannelId::allocated`).
    next_channel: u32,
    writes_since_flush: u64,
    /// Flush-and-sync after this many writes (§7.9 cadence; tunable).
    pub flush_every: u64,
    /// Terminal routes by name (`tty:0` …).
    pub tty_routes: BTreeMap<String, DeviceRoute>,
    /// Raw-disk routes by name (`raw:0` …).
    pub raw_routes: BTreeMap<String, DeviceRoute>,
    /// Requests handled, for experiment accounting.
    pub requests: u64,
    /// Explicit syncs requested, for experiment accounting.
    pub explicit_syncs: u64,
}

impl FileServer {
    /// Creates an empty file system.
    pub fn new() -> FileServer {
        FileServer {
            root: BTreeMap::new(),
            inodes: BTreeMap::new(),
            channels: BTreeMap::new(),
            pending: BTreeMap::new(),
            cache: BTreeMap::new(),
            next_file: 1,
            next_block: 1,
            next_channel: 1,
            writes_since_flush: 0,
            flush_every: 16,
            tty_routes: BTreeMap::new(),
            raw_routes: BTreeMap::new(),
            requests: 0,
            explicit_syncs: 0,
        }
    }

    /// Registers a terminal route for `tty:N` opens.
    pub fn add_tty_route(&mut self, name: impl Into<String>, route: DeviceRoute) {
        self.tty_routes.insert(name.into(), route);
    }

    /// Registers a raw-disk route for `raw:N` opens.
    pub fn add_raw_route(&mut self, name: impl Into<String>, route: DeviceRoute) {
        self.raw_routes.insert(name.into(), route);
    }

    /// Names of every file in the file system — test oracle.
    pub fn list_files(&self) -> Vec<String> {
        self.root.keys().cloned().collect()
    }

    /// The byte contents of a file as the server currently sees them
    /// (cache over disk) — test oracle.
    pub fn file_contents(&self, name: &str, disk: &mut DiskPair) -> Option<Vec<u8>> {
        let fid = self.root.get(name)?;
        let inode = self.inodes.get(fid)?;
        let mut out = Vec::with_capacity(inode.len as usize);
        for (i, bno) in inode.blocks.iter().enumerate() {
            let want = (inode.len as usize).saturating_sub(i * BLOCK_SIZE).min(BLOCK_SIZE);
            if want == 0 {
                break;
            }
            let mut block = vec![0u8; BLOCK_SIZE];
            if let Some(c) = self.cache.get(bno) {
                block[..c.len()].copy_from_slice(c);
            } else if let Some(d) = disk.read_block(*bno) {
                block[..d.len()].copy_from_slice(d);
            }
            out.extend_from_slice(&block[..want]);
        }
        Some(out)
    }

    fn alloc_channel(&mut self, self_pid: Pid) -> ChannelId {
        let id = ChannelId::allocated(self_pid, self.next_channel);
        self.next_channel += 1;
        id
    }

    /// Reads one block through the cache (associated function so callers
    /// can hold the device borrow alongside other `self` fields).
    fn block_via_cache(
        cache: &BTreeMap<BlockNo, Vec<u8>>,
        bno: BlockNo,
        disk: &mut DiskPair,
    ) -> Vec<u8> {
        let mut v = match cache.get(&bno) {
            Some(c) => c.clone(),
            None => disk.read_block(bno).map(|d| d.to_vec()).unwrap_or_default(),
        };
        v.resize(BLOCK_SIZE, 0);
        v
    }

    fn open_file(&mut self, name: &str) -> FileId {
        if let Some(fid) = self.root.get(name) {
            return *fid;
        }
        let fid = FileId(self.next_file);
        self.next_file += 1;
        self.root.insert(name.to_string(), fid);
        self.inodes.insert(fid, Inode::default());
        fid
    }

    /// Builds the opener-side and server-side descriptors for a channel
    /// between `opener` (side A) and a service (side B).
    #[allow(clippy::too_many_arguments)]
    fn channel_inits(
        channel: ChannelId,
        opener: &Opener,
        service: Pid,
        service_cluster: ClusterId,
        service_backup: Option<ClusterId>,
        kind: ChanKind,
    ) -> (ChannelInit, ChannelInit) {
        let a = ChanEnd { channel, side: Side::A };
        let a_init = ChannelInit {
            end: a,
            owner: opener.pid,
            fd: Some(opener.fd),
            peer: Peer::new(service, service_cluster, service_backup, BackupMode::Halfback),
            owner_backup: opener.backup,
            kind,
        };
        let b_init = ChannelInit {
            end: a.peer(),
            owner: service,
            fd: None,
            peer: opener.peer(),
            owner_backup: service_backup,
            kind,
        };
        (a_init, b_init)
    }

    fn handle_open(
        &mut self,
        req_end: ChanEnd,
        opener: Opener,
        name: &str,
        ctx: &mut ServerCtx<'_>,
    ) {
        let self_pid = ctx.self_pid;
        if name.starts_with('/') && name.ends_with('/') {
            // A directory: the channel reads back a newline-separated
            // listing of the files under the prefix (a snapshot taken at
            // open time, like a UNIX directory read).
            let listing: Vec<u8> = {
                let mut names: Vec<&String> =
                    self.root.keys().filter(|k| k.starts_with(name)).collect();
                names.sort();
                names.iter().flat_map(|n| n.bytes().chain([b'\n'])).collect()
            };
            let fid = FileId(u64::MAX - self.next_file);
            self.next_file += 1;
            self.inodes.insert(fid, Inode::default());
            // Materialize the snapshot as an anonymous file body.
            let channel = self.alloc_channel(self_pid);
            let (a_init, b_init) = Self::channel_inits(
                channel,
                &opener,
                self_pid,
                ctx.self_cluster,
                ctx.self_backup,
                ChanKind::ServerPort(ServiceKind::File),
            );
            self.channels.insert(b_init.end, Cursor { file: fid, pos: 0 });
            ctx.create_port(ctx.self_cluster, ctx.self_backup, b_init);
            ctx.send(req_end, Payload::FsReply(FsReply::OpenReply { fd: opener.fd, init: a_init }));
            // Write the listing through the normal write path so the
            // bytes live in cache/blocks like any file's.
            if !listing.is_empty() {
                self.write_at(fid, 0, &listing, ctx);
            }
            return;
        }
        if name.starts_with('/') {
            // A file: open (creating if absent) and hand out a cursor
            // channel whose B side we own.
            let fid = self.open_file(name);
            let channel = self.alloc_channel(self_pid);
            let (a_init, b_init) = Self::channel_inits(
                channel,
                &opener,
                self_pid,
                ctx.self_cluster,
                ctx.self_backup,
                ChanKind::ServerPort(ServiceKind::File),
            );
            self.channels.insert(b_init.end, Cursor { file: fid, pos: 0 });
            ctx.create_port(ctx.self_cluster, ctx.self_backup, b_init);
            ctx.send(req_end, Payload::FsReply(FsReply::OpenReply { fd: opener.fd, init: a_init }));
            return;
        }
        if let Some(route) = name.strip_prefix("tty:").and_then(|_| self.tty_routes.get(name)) {
            let route = route.clone();
            let term = route.line;
            let channel = self.alloc_channel(self_pid);
            let (a_init, b_init) = Self::channel_inits(
                channel,
                &opener,
                route.pid,
                route.cluster,
                route.backup,
                ChanKind::ServerPort(ServiceKind::Tty),
            );
            let tty_end = b_init.end;
            ctx.create_port(route.cluster, route.backup, b_init);
            if let Some(notify) = route.notify_end {
                // Tell the tty server which terminal and reader the new
                // channel serves; this leaves before the open reply, so
                // the binding exists before the first user write.
                ctx.send(
                    notify,
                    Payload::Tty(TtyMsg::Bind { end: tty_end, term, reader: opener.pid }),
                );
            }
            ctx.send(req_end, Payload::FsReply(FsReply::OpenReply { fd: opener.fd, init: a_init }));
            return;
        }
        if let Some(route) = name.strip_prefix("raw:").and_then(|_| self.raw_routes.get(name)) {
            let route = route.clone();
            let channel = self.alloc_channel(self_pid);
            let (a_init, b_init) = Self::channel_inits(
                channel,
                &opener,
                route.pid,
                route.cluster,
                route.backup,
                ChanKind::ServerPort(ServiceKind::Raw),
            );
            ctx.create_port(route.cluster, route.backup, b_init);
            ctx.send(req_end, Payload::FsReply(FsReply::OpenReply { fd: opener.fd, init: a_init }));
            return;
        }
        // A rendezvous name: pair up openers (§7.4.1).
        match self.pending.remove(name) {
            Some(first) => {
                let channel = self.alloc_channel(self_pid);
                let a = ChanEnd { channel, side: Side::A };
                let b = a.peer();
                let a_init = ChannelInit {
                    end: a,
                    owner: first.pid,
                    fd: Some(first.fd),
                    peer: opener.peer(),
                    owner_backup: first.backup,
                    kind: ChanKind::UserUser,
                };
                let b_init = ChannelInit {
                    end: b,
                    owner: opener.pid,
                    fd: Some(opener.fd),
                    peer: first.peer(),
                    owner_backup: opener.backup,
                    kind: ChanKind::UserUser,
                };
                // Replies go to each opener's file-server port; we own
                // the B side of both.
                let first_port =
                    ChanEnd { channel: ChannelId::bootstrap(first.pid, ports::FS), side: Side::B };
                ctx.send(
                    first_port,
                    Payload::FsReply(FsReply::OpenReply { fd: first.fd, init: a_init }),
                );
                ctx.send(
                    req_end,
                    Payload::FsReply(FsReply::OpenReply { fd: opener.fd, init: b_init }),
                );
            }
            None => {
                // First opener waits; the file server pairs openers to
                // the same name (§7.4.1).
                self.pending.insert(name.to_string(), opener);
            }
        }
    }

    fn handle_read(&mut self, end: ChanEnd, len: u32, ctx: &mut ServerCtx<'_>) {
        let Some(cursor) = self.channels.get(&end).cloned() else {
            ctx.send(end, Payload::FsReply(FsReply::Err(FsError::NotFound)));
            return;
        };
        let inode = self.inodes.get(&cursor.file).cloned().unwrap_or_default();
        let want = (len as usize).min(MAX_READ);
        let avail = inode.len.saturating_sub(cursor.pos) as usize;
        let n = want.min(avail);
        let mut out = Vec::with_capacity(n);
        {
            let disk = ctx.device_as::<DiskPair>();
            let mut pos = cursor.pos;
            while out.len() < n {
                let bi = (pos / BLOCK_SIZE as u64) as usize;
                let off = (pos % BLOCK_SIZE as u64) as usize;
                let Some(bno) = inode.blocks.get(bi).copied() else { break };
                let block = Self::block_via_cache(&self.cache, bno, disk);
                let take = (BLOCK_SIZE - off).min(n - out.len());
                out.extend_from_slice(&block[off..off + take]);
                pos += take as u64;
            }
        }
        let read = out.len() as u64;
        self.channels.get_mut(&end).expect("cursor exists").pos = cursor.pos + read;
        ctx.work(Dur((read / 64).max(1)));
        ctx.send(end, Payload::FsReply(FsReply::Data(out.into())));
    }

    /// Writes `data` into `fid` at `pos` through the cache.
    fn write_at(&mut self, fid: FileId, pos: u64, data: &[u8], ctx: &mut ServerCtx<'_>) -> u64 {
        let mut pos = pos;
        let mut remaining = data;
        {
            let disk = ctx.device_as::<DiskPair>();
            while !remaining.is_empty() {
                let bi = (pos / BLOCK_SIZE as u64) as usize;
                let off = (pos % BLOCK_SIZE as u64) as usize;
                // Extend the block list as needed (the allocator is
                // synced state, so replay re-allocates identically).
                while self.inodes.get(&fid).map(|i| i.blocks.len()).unwrap_or(0) <= bi {
                    let bno = BlockNo(self.next_block);
                    self.next_block += 1;
                    self.inodes.get_mut(&fid).expect("inode exists").blocks.push(bno);
                }
                let bno = self.inodes[&fid].blocks[bi];
                let mut block = Self::block_via_cache(&self.cache, bno, disk);
                let take = (BLOCK_SIZE - off).min(remaining.len());
                block[off..off + take].copy_from_slice(&remaining[..take]);
                self.cache.insert(bno, block);
                remaining = &remaining[take..];
                pos += take as u64;
            }
        }
        let inode = self.inodes.get_mut(&fid).expect("inode exists");
        inode.len = inode.len.max(pos);
        pos
    }

    fn handle_write(&mut self, end: ChanEnd, data: &[u8], ctx: &mut ServerCtx<'_>) {
        let Some(cursor) = self.channels.get(&end).cloned() else {
            ctx.send(end, Payload::FsReply(FsReply::Err(FsError::NotFound)));
            return;
        };
        let pos = self.write_at(cursor.file, cursor.pos, data, ctx);
        self.channels.get_mut(&end).expect("cursor exists").pos = pos;
        self.writes_since_flush += 1;
        ctx.work(Dur((data.len() / 64).max(1) as u64));
        ctx.send(end, Payload::FsReply(FsReply::Ack(data.len() as u64)));
        if self.writes_since_flush >= self.flush_every {
            self.flush_and_sync(ctx);
        }
    }

    /// Flushes the cache to disk and requests an explicit sync at the
    /// same moment (§7.9).
    fn flush_and_sync(&mut self, ctx: &mut ServerCtx<'_>) {
        let cache = std::mem::take(&mut self.cache);
        let blocks = cache.len() as u64;
        let disk = ctx.device_as::<DiskPair>();
        for (bno, data) in cache {
            disk.write_block(bno, data);
        }
        self.writes_since_flush = 0;
        self.explicit_syncs += 1;
        ctx.work(Dur(blocks * 8));
        ctx.request_sync();
    }
}

impl Default for FileServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerLogic for FileServer {
    fn name(&self) -> &'static str {
        "fileserver"
    }

    fn on_message(&mut self, _src: Pid, end: ChanEnd, payload: &Payload, ctx: &mut ServerCtx<'_>) {
        self.requests += 1;
        match payload {
            Payload::Fs(FsRequest::Open {
                name,
                opener,
                opener_cluster,
                opener_backup,
                opener_fd,
                opener_mode,
            }) => {
                let info = Opener {
                    pid: *opener,
                    cluster: *opener_cluster,
                    backup: *opener_backup,
                    fd: *opener_fd,
                    mode: *opener_mode,
                };
                let name = name.as_str().to_string();
                self.handle_open(end, info, &name, ctx);
            }
            Payload::Fs(FsRequest::FileRead { len }) => self.handle_read(end, *len, ctx),
            Payload::Fs(FsRequest::FileWrite { data }) => self.handle_write(end, data, ctx),
            Payload::Fs(FsRequest::FileSeek { pos }) => match self.channels.get_mut(&end) {
                Some(c) => {
                    c.pos = *pos;
                    ctx.send(end, Payload::FsReply(FsReply::Ack(*pos)));
                }
                None => ctx.send(end, Payload::FsReply(FsReply::Err(FsError::NotFound))),
            },
            Payload::Fs(FsRequest::CloseFile) => {
                self.channels.remove(&end);
                ctx.send(end, Payload::FsReply(FsReply::Ack(0)));
            }
            Payload::Fs(FsRequest::Unlink { name }) => {
                // Remove the name; block reclamation is bounded by the
                // next flush/sync, like the shadow-block discipline.
                match self.root.remove(name.as_str()) {
                    Some(fid) => {
                        self.inodes.remove(&fid);
                        ctx.send(end, Payload::FsReply(FsReply::Ack(0)));
                    }
                    None => ctx.send(end, Payload::FsReply(FsReply::Err(FsError::NotFound))),
                }
            }
            _ => {}
        }
    }

    fn on_peer_closed(&mut self, end: ChanEnd, _ctx: &mut ServerCtx<'_>) {
        self.channels.remove(&end);
    }

    fn clone_image(&self) -> Box<dyn ServerLogic> {
        Box::new(self.clone())
    }

    fn image_size(&self) -> usize {
        // The sync message carries only the pending-request tables, not
        // the cache: flushed blocks are on the dual-ported disk (§7.9).
        256 + self.channels.len() * 24
            + self.pending.len() * 48
            + self.root.len() * 24
            + self.inodes.values().map(|i| 16 + i.blocks.len() * 8).sum::<usize>()
    }

    fn resident(&self) -> bool {
        // "The file server cannot demand page its own text" (§7.9).
        true
    }

    fn publish_metrics(&self, reg: &mut auros_sim::MetricsRegistry) {
        reg.set("fs.requests", self.requests);
        reg.set("fs.explicit_syncs", self.explicit_syncs);
        reg.set("fs.files", self.root.len() as u64);
        reg.set("fs.dirty_blocks", self.cache.len() as u64);
        reg.set("fs.open_cursors", self.channels.len() as u64);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, Payload, Side};
    use auros_bus::ChannelName;
    use auros_sim::VTime;

    fn port(pid: u64) -> ChanEnd {
        ChanEnd { channel: ChannelId::bootstrap(Pid(pid), 1), side: Side::B }
    }

    fn open_req(pid: u64, fd: u32, name: &str) -> Payload {
        Payload::Fs(FsRequest::Open {
            name: ChannelName::new(name),
            opener: Pid(pid),
            opener_cluster: ClusterId(2),
            opener_backup: Some(ClusterId(0)),
            opener_fd: Fd(fd),
            opener_mode: BackupMode::Quarterback,
        })
    }

    fn drive(
        fs: &mut FileServer,
        disk: &mut DiskPair,
        end: ChanEnd,
        payload: Payload,
    ) -> Vec<(ChanEnd, Payload)> {
        let mut ctx =
            ServerCtx::new(VTime(1), Pid(99), Some(disk)).at(ClusterId(0), Some(ClusterId(1)));
        fs.on_message(Pid(1), end, &payload, &mut ctx);
        if ctx.effects.sync_after {
            fs.explicit_syncs += 0; // cadence already counted inside
        }
        ctx.effects.sends.into_iter().map(|s| (s.end, s.payload)).collect()
    }

    /// Extracts the opener's channel end from an open reply.
    fn opened_end(replies: &[(ChanEnd, Payload)]) -> ChanEnd {
        for (_, p) in replies {
            if let Payload::FsReply(FsReply::OpenReply { init, .. }) = p {
                return init.end.peer(); // The server-side end.
            }
        }
        panic!("no open reply in {replies:?}");
    }

    #[test]
    fn file_open_creates_inode_and_cursor() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        let replies = drive(&mut fs, &mut disk, port(7), open_req(7, 3, "/a"));
        assert_eq!(replies.len(), 1);
        let b_end = opened_end(&replies);
        assert!(fs.channels.contains_key(&b_end));
        assert_eq!(fs.list_files(), vec!["/a".to_string()]);
    }

    #[test]
    fn write_read_seek_round_trip() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        let b_end = opened_end(&drive(&mut fs, &mut disk, port(7), open_req(7, 3, "/f")));
        let r = drive(
            &mut fs,
            &mut disk,
            b_end,
            Payload::Fs(FsRequest::FileWrite { data: b"hello world".to_vec().into() }),
        );
        assert!(matches!(r[0].1, Payload::FsReply(FsReply::Ack(11))));
        drive(&mut fs, &mut disk, b_end, Payload::Fs(FsRequest::FileSeek { pos: 6 }));
        let r = drive(&mut fs, &mut disk, b_end, Payload::Fs(FsRequest::FileRead { len: 64 }));
        match &r[0].1 {
            Payload::FsReply(FsReply::Data(d)) => assert_eq!(d, b"world"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rendezvous_pairs_two_openers_in_order() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        let first = drive(&mut fs, &mut disk, port(7), open_req(7, 2, "pipe"));
        assert!(first.is_empty(), "first opener waits");
        let second = drive(&mut fs, &mut disk, port(8), open_req(8, 2, "pipe"));
        assert_eq!(second.len(), 2, "both openers answered");
        // The two inits describe the two sides of one channel.
        let mut ends = Vec::new();
        for (_, p) in &second {
            if let Payload::FsReply(FsReply::OpenReply { init, .. }) = p {
                ends.push(init.end);
                assert_eq!(init.kind, ChanKind::UserUser);
            }
        }
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[0].peer(), ends[1]);
    }

    #[test]
    fn tty_route_sends_bind_before_reply() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        let notify = ChanEnd { channel: ChannelId(555), side: Side::A };
        fs.add_tty_route(
            "tty:0",
            DeviceRoute {
                pid: Pid(40),
                cluster: ClusterId(1),
                backup: Some(ClusterId(2)),
                notify_end: Some(notify),
                line: 0,
            },
        );
        let replies = drive(&mut fs, &mut disk, port(7), open_req(7, 4, "tty:0"));
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].0, notify, "bind goes out first");
        assert!(
            matches!(replies[0].1, Payload::Tty(TtyMsg::Bind { reader, .. }) if reader == Pid(7))
        );
        assert!(matches!(replies[1].1, Payload::FsReply(FsReply::OpenReply { .. })));
    }

    #[test]
    fn unknown_device_name_waits_as_rendezvous() {
        // "tty:9" with no route falls through to rendezvous semantics.
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        let r = drive(&mut fs, &mut disk, port(7), open_req(7, 4, "tty:9"));
        assert!(r.is_empty());
        assert!(fs.pending.contains_key("tty:9"));
    }

    #[test]
    fn unlink_removes_and_errors_on_missing() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        drive(&mut fs, &mut disk, port(7), open_req(7, 3, "/x"));
        let r = drive(
            &mut fs,
            &mut disk,
            port(7),
            Payload::Fs(FsRequest::Unlink { name: ChannelName::new("/x") }),
        );
        assert!(matches!(r[0].1, Payload::FsReply(FsReply::Ack(0))));
        assert!(fs.list_files().is_empty());
        let r = drive(
            &mut fs,
            &mut disk,
            port(7),
            Payload::Fs(FsRequest::Unlink { name: ChannelName::new("/x") }),
        );
        assert!(matches!(r[0].1, Payload::FsReply(FsReply::Err(FsError::NotFound))));
    }

    #[test]
    fn directory_open_snapshots_listing() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        drive(&mut fs, &mut disk, port(7), open_req(7, 3, "/d/a"));
        drive(&mut fs, &mut disk, port(7), open_req(7, 4, "/d/b"));
        let b_end = opened_end(&drive(&mut fs, &mut disk, port(7), open_req(7, 5, "/d/")));
        let r = drive(&mut fs, &mut disk, b_end, Payload::Fs(FsRequest::FileRead { len: 256 }));
        match &r[0].1 {
            Payload::FsReply(FsReply::Data(d)) => {
                assert_eq!(String::from_utf8_lossy(d), "/d/a\n/d/b\n");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flush_cadence_requests_sync_and_writes_disk() {
        let mut fs = FileServer::new();
        fs.flush_every = 2;
        let mut disk = DiskPair::new();
        let b_end = opened_end(&drive(&mut fs, &mut disk, port(7), open_req(7, 3, "/w")));
        let mut ctx = ServerCtx::new(VTime(1), Pid(99), Some(&mut disk)).at(ClusterId(0), None);
        fs.on_message(
            Pid(7),
            b_end,
            &Payload::Fs(FsRequest::FileWrite { data: vec![1; 100].into() }),
            &mut ctx,
        );
        assert!(!ctx.effects.sync_after);
        let mut ctx2 = ServerCtx::new(VTime(2), Pid(99), Some(&mut disk)).at(ClusterId(0), None);
        fs.on_message(
            Pid(7),
            b_end,
            &Payload::Fs(FsRequest::FileWrite { data: vec![2; 100].into() }),
            &mut ctx2,
        );
        assert!(ctx2.effects.sync_after, "second write trips the flush cadence");
        assert!(disk.dirty_blocks() > 0, "cache reached the disk");
        assert_eq!(fs.explicit_syncs, 1);
    }

    #[test]
    fn image_clone_preserves_tables() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        drive(&mut fs, &mut disk, port(7), open_req(7, 3, "/keep"));
        let image = fs.clone_image();
        drive(
            &mut fs,
            &mut disk,
            port(7),
            Payload::Fs(FsRequest::Unlink { name: ChannelName::new("/keep") }),
        );
        let restored = image.as_any().downcast_ref::<FileServer>().unwrap();
        assert_eq!(restored.list_files(), vec!["/keep".to_string()]);
    }

    #[test]
    fn peer_close_drops_cursor_state() {
        let mut fs = FileServer::new();
        let mut disk = DiskPair::new();
        let b_end = opened_end(&drive(&mut fs, &mut disk, port(7), open_req(7, 3, "/c")));
        assert_eq!(fs.channels.len(), 1);
        let mut ctx = ServerCtx::new(VTime(3), Pid(99), Some(&mut disk));
        fs.on_peer_closed(b_end, &mut ctx);
        assert!(fs.channels.is_empty());
    }
}
