//! The terminal server and the terminal interface device (§7.6).
//!
//! "There is a tty server in each cluster having terminals" — one server
//! controls every terminal *line* wired to its cluster's interface
//! module. The interface is dual-ported hardware, so typed input
//! survives a cluster crash: each line buffers input with a *committed*
//! read pointer that advances only when the tty server syncs — a
//! promoted backup re-reads everything its predecessor consumed but had
//! not yet synced, and duplicate forwarding to user processes is
//! absorbed by the write-count suppression machinery (§5.4). Output is
//! likewise held in the interface until the controlling server's sync
//! commits it, which keeps replay from double-printing.
//!
//! Control-C becomes a `kill` request to the process server, which
//! delivers the signal on the foreground process's signal channel
//! (§7.5.2: "asynchronous signals such as those resulting from typing a
//! control C at a terminal" travel by message).

use std::any::Any;
use std::collections::BTreeMap;

use auros_bus::proto::{ChanEnd, Payload, ProcRequest, TtyMsg};
use auros_bus::{Pid, Sig};
use auros_kernel::server::{Device, ServerCtx, ServerLogic};
use auros_kernel::world::{bootstrap_end, ports};
use auros_sim::Dur;

/// The interrupt character.
pub const CTRL_C: u8 = 0x03;

/// One terminal line's buffers.
#[derive(Debug, Default)]
struct Line {
    input: Vec<u8>,
    read_ptr: usize,
    committed_ptr: usize,
    output: Vec<u8>,
    committed_out: usize,
}

/// A dual-ported terminal interface module carrying several lines.
#[derive(Debug, Default)]
pub struct Terminal {
    lines: BTreeMap<u32, Line>,
}

impl Terminal {
    /// An interface with no input yet.
    pub fn new() -> Terminal {
        Terminal::default()
    }

    /// Unconsumed input available on `line`, advancing the read pointer.
    pub fn take_input(&mut self, line: u32) -> Vec<u8> {
        let l = self.lines.entry(line).or_default();
        let out = l.input[l.read_ptr..].to_vec();
        l.read_ptr = l.input.len();
        out
    }

    /// Lines with unconsumed input.
    pub fn pending_lines(&self) -> Vec<u32> {
        self.lines.iter().filter(|(_, l)| l.read_ptr < l.input.len()).map(|(n, _)| *n).collect()
    }

    /// Appends server output on `line` (held until the server's next
    /// sync).
    pub fn write_output(&mut self, line: u32, data: &[u8]) {
        self.lines.entry(line).or_default().output.extend_from_slice(data);
    }

    /// Output committed so far on `line` — what its user has seen.
    pub fn committed_output(&self, line: u32) -> &[u8] {
        self.lines.get(&line).map(|l| &l.output[..l.committed_out]).unwrap_or(&[])
    }

    /// All output on `line`, including uncommitted (test oracle).
    pub fn raw_output(&self, line: u32) -> &[u8] {
        self.lines.get(&line).map(|l| l.output.as_slice()).unwrap_or(&[])
    }
}

impl Device for Terminal {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn external_input(&mut self, line: u32, data: &[u8]) {
        self.lines.entry(line).or_default().input.extend_from_slice(data);
    }

    fn on_owner_sync(&mut self) {
        // Consumed input may now be discarded; buffered output is
        // released to the users.
        for l in self.lines.values_mut() {
            l.committed_ptr = l.read_ptr;
            l.committed_out = l.output.len();
        }
    }

    fn on_owner_promote(&mut self) {
        // Rewind every line: input consumed since the last sync is
        // re-read, output produced since is dropped (replay regenerates
        // it).
        for l in self.lines.values_mut() {
            l.read_ptr = l.committed_ptr;
            l.output.truncate(l.committed_out);
        }
    }
}

/// The tty server's state: one binding per line it serves.
#[derive(Clone, Debug)]
pub struct TtyServer {
    /// line → (channel end, foreground reader).
    bindings: BTreeMap<u32, (ChanEnd, Pid)>,
    outputs_since_sync: u64,
    /// Sync cadence in output writes.
    pub sync_every_outputs: u64,
    /// Interrupts forwarded, for experiment accounting.
    pub interrupts: u64,
}

impl TtyServer {
    /// Creates a tty server with no lines bound.
    ///
    /// Output commits on every write by default (`sync_every_outputs =
    /// 1`): an interactive terminal should show output promptly; raise
    /// the cadence to trade latency for sync traffic.
    pub fn new() -> TtyServer {
        TtyServer {
            bindings: BTreeMap::new(),
            outputs_since_sync: 0,
            sync_every_outputs: 1,
            interrupts: 0,
        }
    }

    /// The bound reader of `line`, if any (test oracle).
    pub fn reader(&self, line: u32) -> Option<Pid> {
        self.bindings.get(&line).map(|(_, r)| *r)
    }

    fn line_of(&self, end: ChanEnd) -> Option<u32> {
        self.bindings.iter().find(|(_, (e, _))| *e == end).map(|(n, _)| *n)
    }
}

impl Default for TtyServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerLogic for TtyServer {
    fn name(&self) -> &'static str {
        "ttyserver"
    }

    fn on_message(&mut self, _src: Pid, end: ChanEnd, payload: &Payload, ctx: &mut ServerCtx<'_>) {
        match payload {
            Payload::Tty(TtyMsg::Bind { end, term, reader }) => {
                self.bindings.insert(*term, (*end, *reader));
            }
            // Output from a bound process to its terminal line.
            Payload::Data(d) => {
                if let Some(line) = self.line_of(end) {
                    ctx.device_as::<Terminal>().write_output(line, d);
                    ctx.work(Dur((d.len() / 16).max(1) as u64));
                    self.outputs_since_sync += 1;
                    if self.outputs_since_sync >= self.sync_every_outputs {
                        self.outputs_since_sync = 0;
                        ctx.request_sync();
                    }
                }
            }
            _ => {}
        }
    }

    fn on_device(&mut self, ctx: &mut ServerCtx<'_>) {
        // "The tty server cannot wait for a page before reading incoming
        // characters" (§7.9) — it is resident and drains the interface
        // immediately, line by line.
        let lines = ctx.device_as::<Terminal>().pending_lines();
        let mut consumed_any = false;
        for line in lines {
            let bytes = ctx.device_as::<Terminal>().take_input(line);
            if bytes.is_empty() {
                continue;
            }
            consumed_any = true;
            let Some((end, reader)) = self.bindings.get(&line).copied() else {
                continue; // Input before any open: discarded, like real ttys.
            };
            let mut run: Vec<u8> = Vec::new();
            for b in bytes {
                if b == CTRL_C {
                    if !run.is_empty() {
                        ctx.send(end, Payload::Data(std::mem::take(&mut run).into()));
                    }
                    self.interrupts += 1;
                    ctx.send(
                        bootstrap_end(ctx.self_pid, ports::PROC),
                        Payload::Proc(ProcRequest::Kill { target: reader, sig: Sig::INT }),
                    );
                } else {
                    run.push(b);
                }
            }
            if !run.is_empty() {
                ctx.send(end, Payload::Data(run.into()));
            }
        }
        // Commit the consumed input promptly: sync after each device
        // event so a crash re-reads at most one event's worth.
        if consumed_any {
            ctx.request_sync();
        }
    }

    fn on_peer_closed(&mut self, end: ChanEnd, _ctx: &mut ServerCtx<'_>) {
        self.bindings.retain(|_, (e, _)| *e != end);
    }

    fn clone_image(&self) -> Box<dyn ServerLogic> {
        Box::new(self.clone())
    }

    fn image_size(&self) -> usize {
        32 + self.bindings.len() * 24
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

    fn chan(n: u64) -> ChanEnd {
        ChanEnd { channel: ChannelId(n), side: Side::B }
    }

    fn bind(s: &mut TtyServer, t: &mut Terminal, line: u32, reader: u64) {
        let mut ctx = ServerCtx::new(VTime(0), Pid(40), Some(t));
        s.on_message(
            Pid(2),
            chan(10 + line as u64),
            &Payload::Tty(TtyMsg::Bind {
                end: chan(10 + line as u64),
                term: line,
                reader: Pid(reader),
            }),
            &mut ctx,
        );
    }

    #[test]
    fn input_flows_to_the_bound_line() {
        let mut s = TtyServer::new();
        let mut t = Terminal::new();
        bind(&mut s, &mut t, 0, 9);
        t.external_input(0, b"ls\n");
        let mut ctx = ServerCtx::new(VTime(1), Pid(40), Some(&mut t));
        s.on_device(&mut ctx);
        assert_eq!(ctx.effects.sends.len(), 1);
        assert_eq!(ctx.effects.sends[0].end, chan(10));
        assert!(matches!(&ctx.effects.sends[0].payload, Payload::Data(d) if d == b"ls\n"));
        assert!(ctx.effects.sync_after, "input consumption commits via sync");
    }

    #[test]
    fn two_lines_route_independently() {
        let mut s = TtyServer::new();
        let mut t = Terminal::new();
        bind(&mut s, &mut t, 0, 9);
        bind(&mut s, &mut t, 1, 11);
        t.external_input(0, b"zero");
        t.external_input(1, b"one");
        let mut ctx = ServerCtx::new(VTime(1), Pid(40), Some(&mut t));
        s.on_device(&mut ctx);
        assert_eq!(ctx.effects.sends.len(), 2);
        assert_eq!(ctx.effects.sends[0].end, chan(10));
        assert_eq!(ctx.effects.sends[1].end, chan(11));
    }

    #[test]
    fn ctrl_c_becomes_kill_request_for_the_right_reader() {
        let mut s = TtyServer::new();
        let mut t = Terminal::new();
        bind(&mut s, &mut t, 0, 9);
        bind(&mut s, &mut t, 1, 11);
        t.external_input(1, &[b'a', CTRL_C, b'b']);
        let mut ctx = ServerCtx::new(VTime(1), Pid(40), Some(&mut t));
        s.on_device(&mut ctx);
        assert_eq!(ctx.effects.sends.len(), 3, "data run, kill, data run");
        assert!(matches!(
            &ctx.effects.sends[1].payload,
            Payload::Proc(ProcRequest::Kill { target, sig }) if *target == Pid(11) && *sig == Sig::INT
        ));
        assert_eq!(s.interrupts, 1);
    }

    #[test]
    fn output_held_until_sync_then_committed() {
        let mut s = TtyServer::new();
        let mut t = Terminal::new();
        bind(&mut s, &mut t, 0, 9);
        let mut ctx = ServerCtx::new(VTime(1), Pid(40), Some(&mut t));
        s.on_message(Pid(9), chan(10), &Payload::Data(b"hi"[..].into()), &mut ctx);
        assert_eq!(t.committed_output(0), b"");
        t.on_owner_sync();
        assert_eq!(t.committed_output(0), b"hi");
    }

    #[test]
    fn promote_rewinds_unsynced_input_and_output_on_every_line() {
        let mut t = Terminal::new();
        t.external_input(0, b"abc");
        t.external_input(1, b"xyz");
        let _ = t.take_input(0);
        let _ = t.take_input(1);
        t.write_output(0, b"out");
        t.on_owner_promote();
        assert_eq!(t.pending_lines(), vec![0, 1], "both lines rewound");
        assert_eq!(t.take_input(0), b"abc");
        assert_eq!(t.raw_output(0), b"");
    }

    #[test]
    fn unbound_input_is_discarded() {
        let mut s = TtyServer::new();
        let mut t = Terminal::new();
        t.external_input(3, b"early");
        let mut ctx = ServerCtx::new(VTime(1), Pid(40), Some(&mut t));
        s.on_device(&mut ctx);
        assert!(ctx.effects.sends.is_empty());
    }

    #[test]
    fn peer_close_unbinds_only_that_line() {
        let mut s = TtyServer::new();
        let mut t = Terminal::new();
        bind(&mut s, &mut t, 0, 9);
        bind(&mut s, &mut t, 1, 11);
        let mut ctx = ServerCtx::new(VTime(2), Pid(40), Some(&mut t));
        s.on_peer_closed(chan(10), &mut ctx);
        assert_eq!(s.reader(0), None);
        assert_eq!(s.reader(1), Some(Pid(11)));
    }
}
