//! The process server (§7.6, §7.5).
//!
//! A *system server*: it keeps track of the location of all processes in
//! the system via periodic reports from each kernel and services requests
//! for system status information. It is also the system's time authority
//! (`time` is a message exchange, never a local-kernel read, §7.5.1), the
//! alarm clock (§7.5.2), the signal router (`kill` requests become
//! messages on the target's signal channel), and the placement oracle for
//! new fullback backups (§7.10.2).

use std::collections::BTreeMap;

use auros_bus::proto::{ChanEnd, ChannelId, Payload, ProcReply, ProcRequest, Side};
use auros_bus::{ClusterId, Pid, Sig};
use auros_sim::Dur;

use crate::server::{ServerCtx, ServerLogic};
use crate::world::ports;

/// The process server's state — its whole "address space".
#[derive(Clone, Debug)]
pub struct ProcServer {
    /// All cluster ids in the system (static hardware configuration).
    clusters: Vec<ClusterId>,
    /// Last reported primary location of each process.
    known: BTreeMap<Pid, ClusterId>,
    /// Pending alarms: requester → (absolute deadline in ticks, token).
    alarms: BTreeMap<Pid, (u64, u64)>,
    /// Timer-token allocator (part of synced state so replay re-arms
    /// deterministically).
    next_token: u64,
}

impl ProcServer {
    /// Creates a process server knowing the hardware configuration.
    pub fn new(n_clusters: u16) -> ProcServer {
        ProcServer {
            clusters: (0..n_clusters).map(ClusterId).collect(),
            known: BTreeMap::new(),
            alarms: BTreeMap::new(),
            next_token: 1,
        }
    }

    /// The signal-channel end the server owns for `target` (side B of
    /// the target's bootstrap signal channel).
    fn signal_end_of(target: Pid) -> ChanEnd {
        ChanEnd { channel: ChannelId::bootstrap(target, ports::SIGNAL), side: Side::B }
    }

    /// Where a process last reported, if known.
    pub fn location_of(&self, pid: Pid) -> Option<ClusterId> {
        self.known.get(&pid).copied()
    }
}

impl ServerLogic for ProcServer {
    fn name(&self) -> &'static str {
        "procserver"
    }

    fn on_message(&mut self, src: Pid, end: ChanEnd, payload: &Payload, ctx: &mut ServerCtx<'_>) {
        let Payload::Proc(req) = payload else {
            return;
        };
        match req {
            ProcRequest::Time => {
                // The local clock of the server's cluster is the system's
                // time source; requesters and their backups see the same
                // value because the reply is saved/suppressed like any
                // message (§7.5.1).
                ctx.send(end, Payload::ProcReply(ProcReply::Time { now: ctx.now.ticks() }));
            }
            ProcRequest::Alarm { after } => {
                if *after == 0 {
                    self.alarms.remove(&src);
                } else {
                    let token = self.next_token;
                    self.next_token += 1;
                    let deadline = ctx.now.ticks().saturating_add(*after);
                    self.alarms.insert(src, (deadline, token));
                    ctx.set_timer(Dur(*after), token);
                }
            }
            ProcRequest::Kill { target, sig } => {
                ctx.send(Self::signal_end_of(*target), Payload::Signal(*sig));
            }
            ProcRequest::Report { cluster, pids } => {
                for pid in pids {
                    self.known.insert(*pid, *cluster);
                }
                ctx.work(Dur(pids.len() as u64));
            }
            ProcRequest::WhereIs { pid } => {
                let cluster = self.known.get(pid).copied();
                ctx.send(end, Payload::ProcReply(ProcReply::Location { pid: *pid, cluster }));
            }
            ProcRequest::PlaceBackup { pid, exclude } => {
                let cluster = self.clusters.iter().copied().find(|c| !exclude.contains(c));
                ctx.send(end, Payload::ProcReply(ProcReply::Place { pid: *pid, cluster }));
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ServerCtx<'_>) {
        // Deliver the alarm signal if the alarm is still pending and this
        // is its current token (a newer alarm supersedes an older timer).
        let fired: Option<Pid> =
            self.alarms.iter().find(|(_, (_, t))| *t == token).map(|(pid, _)| *pid);
        if let Some(pid) = fired {
            self.alarms.remove(&pid);
            ctx.send(Self::signal_end_of(pid), Payload::Signal(Sig::ALRM));
        }
    }

    fn on_promote(&mut self, ctx: &mut ServerCtx<'_>) {
        // Re-arm pending alarms at the new cluster. Deadlines are
        // absolute; anything already due fires immediately.
        let now = ctx.now.ticks();
        for (deadline, token) in self.alarms.values() {
            ctx.set_timer(Dur(deadline.saturating_sub(now).max(1)), *token);
        }
    }

    fn clone_image(&self) -> Box<dyn ServerLogic> {
        Box::new(self.clone())
    }

    fn image_size(&self) -> usize {
        64 + self.known.len() * 10 + self.alarms.len() * 24
    }

    fn resident(&self) -> bool {
        // "When efficiency is essential, a server's address space is
        // locked into memory" (§7.6); the process server qualifies.
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_sim::VTime;

    fn ctx(now: u64) -> ServerCtx<'static> {
        ServerCtx::new(VTime(now), Pid(99), None)
    }

    fn port_end() -> ChanEnd {
        ChanEnd { channel: ChannelId(500), side: Side::B }
    }

    #[test]
    fn time_replies_with_server_clock() {
        let mut s = ProcServer::new(3);
        let mut c = ctx(1234);
        s.on_message(Pid(1), port_end(), &Payload::Proc(ProcRequest::Time), &mut c);
        assert_eq!(c.effects.sends.len(), 1);
        match &c.effects.sends[0].payload {
            Payload::ProcReply(ProcReply::Time { now }) => assert_eq!(*now, 1234),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn alarm_sets_timer_and_fires_signal() {
        let mut s = ProcServer::new(3);
        let mut c = ctx(100);
        s.on_message(Pid(7), port_end(), &Payload::Proc(ProcRequest::Alarm { after: 50 }), &mut c);
        assert_eq!(c.effects.timers.len(), 1);
        let (delay, token) = c.effects.timers[0];
        assert_eq!(delay, Dur(50));
        let mut c2 = ctx(150);
        s.on_timer(token, &mut c2);
        assert_eq!(c2.effects.sends.len(), 1);
        assert_eq!(c2.effects.sends[0].end, ProcServer::signal_end_of(Pid(7)));
        assert!(matches!(c2.effects.sends[0].payload, Payload::Signal(s) if s == Sig::ALRM));
        // The alarm is consumed.
        let mut c3 = ctx(160);
        s.on_timer(token, &mut c3);
        assert!(c3.effects.sends.is_empty());
    }

    #[test]
    fn newer_alarm_supersedes_older_timer() {
        let mut s = ProcServer::new(3);
        let mut c = ctx(100);
        s.on_message(Pid(7), port_end(), &Payload::Proc(ProcRequest::Alarm { after: 50 }), &mut c);
        let old_token = c.effects.timers[0].1;
        let mut c2 = ctx(110);
        s.on_message(Pid(7), port_end(), &Payload::Proc(ProcRequest::Alarm { after: 99 }), &mut c2);
        // The old timer fires but must not deliver.
        let mut c3 = ctx(150);
        s.on_timer(old_token, &mut c3);
        assert!(c3.effects.sends.is_empty());
        let new_token = c2.effects.timers[0].1;
        let mut c4 = ctx(209);
        s.on_timer(new_token, &mut c4);
        assert_eq!(c4.effects.sends.len(), 1);
    }

    #[test]
    fn alarm_zero_cancels() {
        let mut s = ProcServer::new(3);
        let mut c = ctx(100);
        s.on_message(Pid(7), port_end(), &Payload::Proc(ProcRequest::Alarm { after: 50 }), &mut c);
        let token = c.effects.timers[0].1;
        let mut c2 = ctx(110);
        s.on_message(Pid(7), port_end(), &Payload::Proc(ProcRequest::Alarm { after: 0 }), &mut c2);
        let mut c3 = ctx(150);
        s.on_timer(token, &mut c3);
        assert!(c3.effects.sends.is_empty());
    }

    #[test]
    fn kill_routes_to_target_signal_channel() {
        let mut s = ProcServer::new(3);
        let mut c = ctx(1);
        s.on_message(
            Pid(1),
            port_end(),
            &Payload::Proc(ProcRequest::Kill { target: Pid(9), sig: Sig::INT }),
            &mut c,
        );
        assert_eq!(c.effects.sends[0].end, ProcServer::signal_end_of(Pid(9)));
    }

    #[test]
    fn reports_update_locations_and_whereis_answers() {
        let mut s = ProcServer::new(3);
        let mut c = ctx(1);
        s.on_message(
            Pid(0),
            port_end(),
            &Payload::Proc(ProcRequest::Report {
                cluster: ClusterId(2),
                pids: vec![Pid(5), Pid(6)],
            }),
            &mut c,
        );
        assert_eq!(s.location_of(Pid(5)), Some(ClusterId(2)));
        let mut c2 = ctx(2);
        s.on_message(
            Pid(1),
            port_end(),
            &Payload::Proc(ProcRequest::WhereIs { pid: Pid(6) }),
            &mut c2,
        );
        match &c2.effects.sends[0].payload {
            Payload::ProcReply(ProcReply::Location { cluster, .. }) => {
                assert_eq!(*cluster, Some(ClusterId(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn placement_avoids_excluded_clusters() {
        let mut s = ProcServer::new(4);
        let mut c = ctx(1);
        s.on_message(
            Pid(1),
            port_end(),
            &Payload::Proc(ProcRequest::PlaceBackup {
                pid: Pid(9),
                exclude: vec![ClusterId(0), ClusterId(1)],
            }),
            &mut c,
        );
        match &c.effects.sends[0].payload {
            Payload::ProcReply(ProcReply::Place { cluster, .. }) => {
                assert_eq!(*cluster, Some(ClusterId(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Excluding everything yields no placement.
        let mut c2 = ctx(2);
        s.on_message(
            Pid(1),
            port_end(),
            &Payload::Proc(ProcRequest::PlaceBackup {
                pid: Pid(9),
                exclude: (0..4).map(ClusterId).collect(),
            }),
            &mut c2,
        );
        match &c2.effects.sends[0].payload {
            Payload::ProcReply(ProcReply::Place { cluster, .. }) => assert_eq!(*cluster, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn promote_rearms_pending_alarms() {
        let mut s = ProcServer::new(3);
        let mut c = ctx(100);
        s.on_message(Pid(7), port_end(), &Payload::Proc(ProcRequest::Alarm { after: 500 }), &mut c);
        let mut s2 = s.clone();
        let mut c2 = ctx(300);
        s2.on_promote(&mut c2);
        assert_eq!(c2.effects.timers.len(), 1);
        assert_eq!(c2.effects.timers[0].0, Dur(300), "deadline 600 minus now 300");
    }
}
