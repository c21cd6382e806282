//! Server processes (§7.6).
//!
//! Operating-system services that must be globally available and backed
//! up cannot live in the unsynchronized per-cluster kernels; they live in
//! *server processes*. A server is a deterministic state machine driven
//! by its incoming messages: the kernel feeds it queued messages in
//! arrival order, charges its handling time to a work processor, and
//! synchronizes it by snapshotting its whole state object (its "address
//! space").
//!
//! Two varieties exist, matching the paper:
//!
//! * **System servers** (process server): paged, passively backed up,
//!   synchronized by the kernel on the same read-count/time triggers as
//!   user processes.
//! * **Peripheral servers** (page server, file server, raw server, tty
//!   server): memory-resident, attached to a device that survives cluster
//!   crashes (dual-ported), and synchronizing *explicitly* at moments
//!   they choose (§7.9) — they signal this with
//!   [`ServerCtx::request_sync`].

use std::any::Any;

use auros_bus::proto::{ChanEnd, ChannelInit, Payload};
use auros_bus::Pid;
use auros_sim::{Dur, VTime};

/// A dual-ported device (disk pair, terminal interface) owned by the
/// world; it survives cluster crashes and is reachable from the two
/// clusters it is connected to (§7.1).
pub trait Device: std::fmt::Debug + Any {
    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Downcast support (shared).
    fn as_any(&self) -> &dyn Any;
    /// External input arrives at the device (terminal keystrokes on one
    /// line). The default ignores it; terminal interfaces buffer it.
    fn external_input(&mut self, _line: u32, _data: &[u8]) {}
    /// The controlling server's sync message was applied at its backup:
    /// commit the device's shadow state (§7.9 — "an old copy … cannot be
    /// destroyed until the sync is complete").
    fn on_owner_sync(&mut self) {}
    /// The controlling server's backup was promoted: revert uncommitted
    /// device state to the last sync point (§7.10.2).
    fn on_owner_promote(&mut self) {}
    /// One half of the device's redundant hardware fails (§7.9: one
    /// mirror of a disk pair). The default ignores it; devices without
    /// redundancy have nothing to lose by halves.
    fn fail_half(&mut self, _second: bool) {}
}

/// A message a server asks the kernel to send on one of its channel ends.
#[derive(Debug)]
pub struct SendOnEnd {
    /// Which of the server's ends to send on.
    pub end: ChanEnd,
    /// What to send.
    pub payload: Payload,
}

/// The kernel services a server can use while handling a message.
///
/// All effects are *buffered*: the kernel applies them after the handler
/// returns, in order, so handling is transactional with respect to the
/// simulation.
pub struct ServerCtx<'a> {
    /// Current virtual time. Environmental — replies derived from it are
    /// protected by duplicate-send suppression, never by value equality.
    pub now: VTime,
    /// The server's own pid.
    pub self_pid: Pid,
    /// Cluster the server currently runs in (for building channel
    /// descriptors the file server hands to openers).
    pub self_cluster: auros_bus::ClusterId,
    /// Cluster hosting the server's backup, if backed up.
    pub self_backup: Option<auros_bus::ClusterId>,
    /// The device this server controls, if it is a peripheral server.
    pub device: Option<&'a mut dyn Device>,
    /// The effects this invocation buffers, applied at `ServerDone`.
    pub effects: ServerEffects,
}

/// Buffered server-handler effects, applied at `ServerDone`.
#[derive(Debug, Default)]
pub struct ServerEffects {
    /// Messages to send, in order.
    pub sends: Vec<SendOnEnd>,
    /// Timers to arm: (delay, token).
    pub timers: Vec<(Dur, u64)>,
    /// Routing entries to create: (primary cluster, backup cluster,
    /// descriptor). Emitted as `CreatePort` controls.
    pub create_ports: Vec<(auros_bus::ClusterId, Option<auros_bus::ClusterId>, ChannelInit)>,
    /// Whether the server requested an explicit sync (§7.9).
    pub sync_after: bool,
    /// Extra work-processor time beyond the fixed per-message cost.
    pub extra_work: Dur,
}

impl<'a> ServerCtx<'a> {
    /// Creates a context for one handler invocation.
    pub fn new(now: VTime, self_pid: Pid, device: Option<&'a mut dyn Device>) -> ServerCtx<'a> {
        ServerCtx {
            now,
            self_pid,
            self_cluster: auros_bus::ClusterId(0),
            self_backup: None,
            device,
            effects: ServerEffects::default(),
        }
    }

    /// Sets the server's location (used by the kernel host).
    pub fn at(
        mut self,
        cluster: auros_bus::ClusterId,
        backup: Option<auros_bus::ClusterId>,
    ) -> ServerCtx<'a> {
        self.self_cluster = cluster;
        self.self_backup = backup;
        self
    }

    /// Requests creation of routing entries for a channel end at the
    /// given clusters (emitted as a `CreatePort` control frame).
    pub fn create_port(
        &mut self,
        primary_at: auros_bus::ClusterId,
        backup_at: Option<auros_bus::ClusterId>,
        init: ChannelInit,
    ) {
        self.effects.create_ports.push((primary_at, backup_at, init));
    }

    /// Queues a message to send on `end`.
    pub fn send(&mut self, end: ChanEnd, payload: Payload) {
        self.effects.sends.push(SendOnEnd { end, payload });
    }

    /// Requests a timer callback `after` from now, carrying `token`.
    pub fn set_timer(&mut self, after: Dur, token: u64) {
        self.effects.timers.push((after, token));
    }

    /// Adds work-processor time to this handling.
    pub fn work(&mut self, d: Dur) {
        self.effects.extra_work += d;
    }

    /// Requests an explicit sync once this handler returns (§7.9).
    pub fn request_sync(&mut self) {
        self.effects.sync_after = true;
    }

    /// Downcasts the attached device.
    ///
    /// # Panics
    ///
    /// Panics if the server has no device or the type does not match —
    /// both are wiring bugs, not runtime conditions.
    pub fn device_as<T: Any>(&mut self) -> &mut T {
        self.device
            .as_mut()
            // auros-lint: allow(D5) -- documented panic contract (see doc above): device attachment is fixed at spawn_server time and never changes; an Option return would force every handler to invent a no-op arm for a state no fault plan can create, silently dropping device work instead of failing loudly at the wiring bug
            .expect("server has no attached device")
            .as_any_mut()
            .downcast_mut::<T>()
            // auros-lint: allow(D5) -- documented panic contract (see doc above): the concrete device type is chosen by the same builder call that chooses the server logic, so a mismatch is a compile-site pairing bug; it reproduces on the first message of any run, long before a fault plan is in play
            .expect("device type mismatch")
    }
}

/// A server's logic: a deterministic state machine over messages.
///
/// Determinism contract: `on_message` and `on_timer` must be pure
/// functions of `(self, arguments)` except for effects routed through the
/// context. Reading `ctx.now` is permitted (the process server *is* the
/// time authority) but any output derived from it is only consistent
/// under replay because duplicate sends are suppressed.
pub trait ServerLogic: std::fmt::Debug + Send + Sync {
    /// Short name for traces.
    fn name(&self) -> &'static str;

    /// Handles one incoming message.
    fn on_message(&mut self, src: Pid, end: ChanEnd, payload: &Payload, ctx: &mut ServerCtx<'_>);

    /// Handles a timer previously requested via [`ServerCtx::set_timer`].
    fn on_timer(&mut self, _token: u64, _ctx: &mut ServerCtx<'_>) {}

    /// Handles a device-ready notification (terminal input buffered).
    fn on_device(&mut self, _ctx: &mut ServerCtx<'_>) {}

    /// The peer of one of the server's channel ends closed or exited;
    /// the server drops any per-channel state.
    fn on_peer_closed(&mut self, _end: ChanEnd, _ctx: &mut ServerCtx<'_>) {}

    /// Called when this instance is promoted from backup to primary
    /// after a crash (§7.10.1 step 5). Peripheral servers re-establish
    /// device state (e.g. the file server reverts uncommitted disk
    /// blocks) and re-arm timers.
    fn on_promote(&mut self, _ctx: &mut ServerCtx<'_>) {}

    /// Deep-copies the state object — the server's sync image.
    fn clone_image(&self) -> Box<dyn ServerLogic>;

    /// Approximate image size in bytes, for sync cost accounting.
    fn image_size(&self) -> usize;

    /// Whether the server is memory-resident (peripheral servers, §7.9).
    /// Resident servers never page and recover without page faults.
    fn resident(&self) -> bool {
        false
    }

    /// Publishes the server's counters into the metrics registry. The
    /// default publishes nothing; servers with ledgers override it.
    fn publish_metrics(&self, _reg: &mut auros_sim::MetricsRegistry) {}

    /// Downcast support for test oracles.
    fn as_any(&self) -> &dyn Any;
}

/// Wrapper making a boxed server image carry across sync records.
#[derive(Debug)]
pub struct ServerImage(pub Box<dyn ServerLogic>);

impl auros_bus::proto::ProcessImage for ServerImage {
    fn clone_box(&self) -> Box<dyn auros_bus::proto::ProcessImage> {
        Box::new(ServerImage(self.0.clone_image()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn wire_size(&self) -> usize {
        self.0.image_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_bus::proto::{ChannelId, Side};

    #[derive(Debug, Clone)]
    struct Echo {
        seen: u64,
    }

    impl ServerLogic for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }

        fn on_message(
            &mut self,
            _src: Pid,
            end: ChanEnd,
            payload: &Payload,
            ctx: &mut ServerCtx<'_>,
        ) {
            self.seen += 1;
            if let Payload::Data(d) = payload {
                ctx.send(end, Payload::Data(d.clone()));
            }
            ctx.work(Dur(3));
        }

        fn clone_image(&self) -> Box<dyn ServerLogic> {
            Box::new(self.clone())
        }

        fn image_size(&self) -> usize {
            8
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn ctx_buffers_effects() {
        let mut logic = Echo { seen: 0 };
        let end = ChanEnd { channel: ChannelId(3), side: Side::B };
        let mut ctx = ServerCtx::new(VTime(10), Pid(9), None);
        logic.on_message(Pid(1), end, &Payload::Data(vec![1, 2].into()), &mut ctx);
        assert_eq!(logic.seen, 1);
        assert_eq!(ctx.effects.sends.len(), 1);
        assert_eq!(ctx.effects.extra_work, Dur(3));
        assert!(!ctx.effects.sync_after);
    }

    #[test]
    fn image_round_trips_through_process_image() {
        use auros_bus::proto::ProcessImage;
        let logic = Echo { seen: 42 };
        let image = ServerImage(logic.clone_image());
        let copy = image.clone_box();
        let back = copy.as_any().downcast_ref::<ServerImage>().unwrap();
        let echo = back.0.as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(echo.seen, 42);
    }
}
