//! The raw disk server (§7.6).
//!
//! "A raw server is associated with each disk to handle requests for
//! direct access rather than via a file system." It exposes the disk as
//! a flat byte space addressed through the channel cursor; the shadow
//! semantics of the underlying [`DiskPair`] still apply, committed at
//! the server's periodic explicit sync.

use std::any::Any;
use std::collections::BTreeMap;

use auros_bus::proto::{ChanEnd, FsReply, FsRequest, Payload};
use auros_bus::Pid;
use auros_kernel::server::{ServerCtx, ServerLogic};
use auros_sim::Dur;

use crate::disk::{BlockNo, DiskPair, BLOCK_SIZE};

/// Cap on a single raw read reply.
const MAX_READ: usize = 16 * 1024;

/// The raw server's state.
#[derive(Clone, Debug)]
pub struct RawServer {
    cursors: BTreeMap<ChanEnd, u64>,
    writes_since_sync: u64,
    /// Explicit-sync cadence in write requests.
    pub sync_every: u64,
    /// Requests handled, for experiment accounting.
    pub requests: u64,
}

impl RawServer {
    /// Creates a raw server.
    pub fn new() -> RawServer {
        RawServer { cursors: BTreeMap::new(), writes_since_sync: 0, sync_every: 32, requests: 0 }
    }

    fn cursor(&mut self, end: ChanEnd) -> u64 {
        *self.cursors.entry(end).or_insert(0)
    }
}

impl Default for RawServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerLogic for RawServer {
    fn name(&self) -> &'static str {
        "rawserver"
    }

    fn on_message(&mut self, _src: Pid, end: ChanEnd, payload: &Payload, ctx: &mut ServerCtx<'_>) {
        self.requests += 1;
        match payload {
            Payload::Fs(FsRequest::FileRead { len }) => {
                let pos = self.cursor(end);
                let n = (*len as usize).min(MAX_READ);
                let mut out = Vec::with_capacity(n);
                {
                    let disk = ctx.device_as::<DiskPair>();
                    let mut p = pos;
                    while out.len() < n {
                        let bno = BlockNo(p / BLOCK_SIZE as u64);
                        let off = (p % BLOCK_SIZE as u64) as usize;
                        let mut block =
                            disk.read_block(bno).map(|d| d.to_vec()).unwrap_or_default();
                        block.resize(BLOCK_SIZE, 0);
                        let take = (BLOCK_SIZE - off).min(n - out.len());
                        out.extend_from_slice(&block[off..off + take]);
                        p += take as u64;
                    }
                }
                self.cursors.insert(end, pos + out.len() as u64);
                ctx.work(Dur((out.len() / 64).max(1) as u64));
                ctx.send(end, Payload::FsReply(FsReply::Data(out.into())));
            }
            Payload::Fs(FsRequest::FileWrite { data }) => {
                let pos = self.cursor(end);
                {
                    let disk = ctx.device_as::<DiskPair>();
                    let mut p = pos;
                    let mut remaining = data.as_slice();
                    while !remaining.is_empty() {
                        let bno = BlockNo(p / BLOCK_SIZE as u64);
                        let off = (p % BLOCK_SIZE as u64) as usize;
                        let mut block =
                            disk.read_block(bno).map(|d| d.to_vec()).unwrap_or_default();
                        block.resize(BLOCK_SIZE, 0);
                        let take = (BLOCK_SIZE - off).min(remaining.len());
                        block[off..off + take].copy_from_slice(&remaining[..take]);
                        disk.write_block(bno, block);
                        remaining = &remaining[take..];
                        p += take as u64;
                    }
                }
                self.cursors.insert(end, pos + data.len() as u64);
                self.writes_since_sync += 1;
                ctx.work(Dur((data.len() / 64).max(1) as u64));
                ctx.send(end, Payload::FsReply(FsReply::Ack(data.len() as u64)));
                if self.writes_since_sync >= self.sync_every {
                    self.writes_since_sync = 0;
                    ctx.request_sync();
                }
            }
            Payload::Fs(FsRequest::FileSeek { pos }) => {
                self.cursors.insert(end, *pos);
                ctx.send(end, Payload::FsReply(FsReply::Ack(*pos)));
            }
            Payload::Fs(FsRequest::CloseFile) => {
                self.cursors.remove(&end);
                ctx.send(end, Payload::FsReply(FsReply::Ack(0)));
            }
            _ => {}
        }
    }

    fn on_peer_closed(&mut self, end: ChanEnd, _ctx: &mut ServerCtx<'_>) {
        self.cursors.remove(&end);
    }

    fn clone_image(&self) -> Box<dyn ServerLogic> {
        Box::new(self.clone())
    }

    fn image_size(&self) -> usize {
        64 + self.cursors.len() * 16
    }

    fn resident(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, Side};
    use auros_sim::VTime;

    fn end() -> ChanEnd {
        ChanEnd { channel: ChannelId(7), side: Side::B }
    }

    fn drive(s: &mut RawServer, d: &mut DiskPair, p: Payload) -> Vec<Payload> {
        let mut ctx = ServerCtx::new(VTime(0), Pid(50), Some(d));
        s.on_message(Pid(1), end(), &p, &mut ctx);
        ctx.effects.sends.into_iter().map(|x| x.payload).collect()
    }

    #[test]
    fn write_then_seek_then_read_round_trips() {
        let mut s = RawServer::new();
        let mut d = DiskPair::new();
        let r = drive(
            &mut s,
            &mut d,
            Payload::Fs(FsRequest::FileWrite { data: b"hello".to_vec().into() }),
        );
        assert!(matches!(r[0], Payload::FsReply(FsReply::Ack(5))));
        drive(&mut s, &mut d, Payload::Fs(FsRequest::FileSeek { pos: 0 }));
        let r = drive(&mut s, &mut d, Payload::Fs(FsRequest::FileRead { len: 5 }));
        match &r[0] {
            Payload::FsReply(FsReply::Data(v)) => assert_eq!(v, b"hello"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn writes_straddle_block_boundaries() {
        let mut s = RawServer::new();
        let mut d = DiskPair::new();
        drive(&mut s, &mut d, Payload::Fs(FsRequest::FileSeek { pos: BLOCK_SIZE as u64 - 3 }));
        drive(
            &mut s,
            &mut d,
            Payload::Fs(FsRequest::FileWrite { data: b"abcdef".to_vec().into() }),
        );
        drive(&mut s, &mut d, Payload::Fs(FsRequest::FileSeek { pos: BLOCK_SIZE as u64 - 3 }));
        let r = drive(&mut s, &mut d, Payload::Fs(FsRequest::FileRead { len: 6 }));
        match &r[0] {
            Payload::FsReply(FsReply::Data(v)) => assert_eq!(v, b"abcdef"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(d.dirty_blocks() >= 2, "two blocks touched");
    }

    #[test]
    fn sync_cadence_requests_explicit_sync() {
        let mut s = RawServer::new();
        s.sync_every = 2;
        let mut d = DiskPair::new();
        let mut ctx = ServerCtx::new(VTime(0), Pid(50), Some(&mut d));
        s.on_message(
            Pid(1),
            end(),
            &Payload::Fs(FsRequest::FileWrite { data: vec![1].into() }),
            &mut ctx,
        );
        assert!(!ctx.effects.sync_after);
        let mut ctx2 = ServerCtx::new(VTime(1), Pid(50), Some(&mut d));
        s.on_message(
            Pid(1),
            end(),
            &Payload::Fs(FsRequest::FileWrite { data: vec![2].into() }),
            &mut ctx2,
        );
        assert!(ctx2.effects.sync_after, "second write trips the cadence");
    }

    #[test]
    fn peer_close_drops_cursor() {
        let mut s = RawServer::new();
        let mut d = DiskPair::new();
        drive(&mut s, &mut d, Payload::Fs(FsRequest::FileSeek { pos: 100 }));
        assert_eq!(s.cursors.len(), 1);
        let mut ctx = ServerCtx::new(VTime(0), Pid(50), Some(&mut d));
        s.on_peer_closed(end(), &mut ctx);
        assert!(s.cursors.is_empty());
    }
}
