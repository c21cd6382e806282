//! The supervision layer: restart budgets, backoff, poison quarantine.
//!
//! §7.10.3's partial failure brings a process's backup up in place. The
//! paper leaves the *policy* implicit; this module makes it explicit and
//! testable, in the vocabulary of the recovery-policy literature: each
//! process holds a restart budget counted over a sliding virtual-time
//! window, reincarnations after the first in a window wait out a
//! deterministic exponential backoff, and a message that repeatedly
//! kills its consumer before any progress is quarantined into a
//! dead-letter ledger so the next reincarnation survives it. When the
//! budget runs dry the supervisor escalates: it stops reincarnating,
//! emits a `SupervisionGiveUp` trace event, and leaves the run loudly
//! incomplete rather than looping forever.
//!
//! Everything here is reactive: a fault-free run arms nothing, schedules
//! nothing, and emits nothing, so goldens and trace fingerprints are
//! byte-identical with the layer present.

use std::collections::{BTreeMap, BTreeSet};

use auros_bus::ClusterId;
use auros_bus::{MsgId, Payload, Pid};
use auros_sim::{Dur, Loc, TraceKind, VTime};

use crate::config::{RESTART_BACKOFF, RESTART_WINDOW};
use crate::world::{Event, World};

/// One quarantined message's ledger entry: who it killed, what it
/// carried, and whether quarantine also diverted it out of the stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeadLetter {
    /// The process the message repeatedly killed.
    pub victim: Pid,
    /// The first payload word of the poisoned data message — the
    /// *record*, for application dead-letter accounting (a pipeline's
    /// conservation oracle matches this against its input multiset).
    pub record: u64,
    /// Whether the saved backup copies were purged
    /// ([`crate::Config::divert_quarantined`]), so the reincarnation
    /// replays past the message instead of re-consuming it.
    pub diverted: bool,
}

/// Supervision bookkeeping, owned by the [`World`].
#[derive(Debug, Default)]
pub struct Supervisor {
    /// Armed one-shot poison triggers: the first data message `pid`
    /// consumes at or after the trigger time becomes poisoned.
    armed: BTreeMap<Pid, VTime>,
    /// Message ids that currently kill their consumer on every read.
    sticky: BTreeSet<u64>,
    /// Consecutive deaths each poisoned message has caused.
    deaths: BTreeMap<u64, u32>,
    /// Quarantined messages: id → ledger entry.
    dead_letters: BTreeMap<u64, DeadLetter>,
    /// Reincarnation times per process, pruned to the sliding window.
    restarts: BTreeMap<Pid, Vec<VTime>>,
}

impl World {
    /// Arms a poison trigger: the first data message `pid` consumes at
    /// or after `at` deterministically kills it, and keeps killing each
    /// reincarnation until the supervisor quarantines the message.
    pub fn arm_poison(&mut self, at: VTime, pid: Pid) {
        self.supervision.armed.insert(pid, at);
        self.stats.injected_poisons += 1;
    }

    /// Armed poison triggers that have not struck yet. A settled run
    /// should report zero: a trigger that never fired is a plan bug the
    /// oracle reports loudly.
    pub fn armed_poison_count(&self) -> usize {
        self.supervision.armed.len()
    }

    /// Poisoned messages still killing their consumer (not yet
    /// quarantined). Zero at rest unless the supervisor gave up first.
    pub fn sticky_poison_count(&self) -> usize {
        self.supervision.sticky.len()
    }

    /// Messages quarantined into the dead-letter ledger.
    pub fn dead_letter_count(&self) -> usize {
        self.supervision.dead_letters.len()
    }

    /// The dead-letter ledger: `(message id, entry)` in id order. The
    /// application oracles read this to prove conservation — every
    /// quarantined record accounted, none duplicated into committed
    /// output.
    pub fn dead_letter_records(&self) -> Vec<(u64, DeadLetter)> {
        self.supervision.dead_letters.iter().map(|(id, dl)| (*id, *dl)).collect()
    }

    /// Decides, at consume time, whether `q` poisons `pid`. Servers are
    /// never poisoned (the fault model aims at user processes; the
    /// server consume path relies on the message surviving its read).
    pub(crate) fn poison_strikes(
        &mut self,
        cid: ClusterId,
        pid: Pid,
        q: &crate::routing::Queued,
    ) -> bool {
        let ci = cid.0 as usize;
        let is_user =
            self.clusters[ci].procs.get(&pid).is_some_and(|p| !p.is_server() && !p.is_dead());
        if !is_user {
            return false;
        }
        if self.supervision.sticky.contains(&q.msg.id.0) {
            return true;
        }
        let armed_at = self.supervision.armed.get(&pid).copied();
        match armed_at {
            Some(at) if self.now() >= at && matches!(q.msg.payload, Payload::Data(_)) => {
                self.supervision.armed.remove(&pid);
                self.supervision.sticky.insert(q.msg.id.0);
                true
            }
            _ => false,
        }
    }

    /// A poisoned message struck: account the death, quarantine the
    /// message once it has killed `poison_after` consecutive
    /// reincarnations, and kill the consumer through the ordinary
    /// partial-failure path (§7.10.3) so recovery machinery is shared.
    ///
    /// `record` is the message's first payload word, captured into the
    /// dead-letter ledger for application-level conservation oracles.
    pub(crate) fn poison_kill(&mut self, cid: ClusterId, pid: Pid, msg: MsgId, record: u64) {
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::SupervisionPoisonKill { pid: pid.0, msg: msg.0 },
        );
        self.stats.poison_kills += 1;
        let deaths = {
            let d = self.supervision.deaths.entry(msg.0).or_insert(0);
            *d += 1;
            *d
        };
        if deaths >= self.cfg.poison_after {
            self.supervision.sticky.remove(&msg.0);
            // Dead-letter diversion (opt-in): purge the saved backup
            // copies so the reincarnation rolls forward *past* the
            // poisoned message. Safe because the poison killed at the
            // read — no send after the poisoned position ever escaped,
            // so §5.4's suppression accounting is unaffected and the
            // divergence downstream is ordinary supervised recovery.
            let diverted = if self.cfg.divert_quarantined {
                let mut purged = 0;
                for c in self.clusters.iter_mut().filter(|c| c.alive) {
                    purged += c.routing.purge_backup_msg(pid, msg);
                }
                if purged > 0 {
                    self.stats.diverted_records += 1;
                    self.trace.emit(
                        now,
                        Loc::Cluster(cid.0),
                        TraceKind::SupervisionDivert { pid: pid.0, msg: msg.0 },
                    );
                }
                purged > 0
            } else {
                false
            };
            self.supervision
                .dead_letters
                .insert(msg.0, DeadLetter { victim: pid, record, diverted });
            self.stats.quarantined_poisons += 1;
            self.trace.emit(
                now,
                Loc::Cluster(cid.0),
                TraceKind::SupervisionQuarantine { pid: pid.0, msg: msg.0, deaths: deaths as u64 },
            );
        }
        self.on_partial_failure(pid);
    }

    /// The supervision gate in front of a partial-failure promotion:
    /// prune the sliding window, spend one restart from the budget (or
    /// give up), and promote either immediately (first restart of a
    /// window, preserving the §7.10.3 latency) or after a deterministic
    /// exponential backoff.
    pub(crate) fn supervised_promote(&mut self, cid: ClusterId, pid: Pid, dead: ClusterId) {
        let now = self.now();
        let budget = self.cfg.restart_budget as usize;
        let verdict = {
            let history = self.supervision.restarts.entry(pid).or_default();
            history.retain(|&t| t + RESTART_WINDOW > now);
            if history.len() >= budget {
                Err(history.len() as u64)
            } else {
                history.push(now);
                Ok(history.len() as u64)
            }
        };
        match verdict {
            Err(restarts) => {
                self.trace.emit(
                    now,
                    Loc::Cluster(cid.0),
                    TraceKind::SupervisionGiveUp { pid: pid.0, restarts },
                );
                self.stats.give_ups += 1;
                self.abandon_process(cid, pid);
            }
            Ok(restart) => {
                let delay = if restart >= 2 {
                    RESTART_BACKOFF.saturating_mul(1u64 << (restart - 2).min(6))
                } else {
                    Dur::ZERO
                };
                self.stats.supervised_restarts += 1;
                self.trace.emit(
                    now,
                    Loc::Cluster(cid.0),
                    TraceKind::SupervisionRestart { pid: pid.0, restart, delay: delay.as_ticks() },
                );
                if delay == Dur::ZERO {
                    self.promote_backup(cid, pid, dead);
                } else {
                    self.stats.backoff_ticks += delay.as_ticks();
                    self.queue.schedule(
                        now + delay,
                        Event::SupervisedPromote { cluster: cid, pid, dead },
                    );
                }
            }
        }
    }

    /// A backoff delay elapsed: promote the stored backup if it is still
    /// there and its host survived the wait.
    pub(crate) fn on_supervised_promote_due(
        &mut self,
        cluster: ClusterId,
        pid: Pid,
        dead: ClusterId,
    ) {
        let ci = cluster.0 as usize;
        if !self.clusters[ci].alive || !self.clusters[ci].backups.contains_key(&pid) {
            return;
        }
        self.promote_backup(cluster, pid, dead);
        self.try_dispatch(cluster);
    }

    /// Budget exhausted: discard the stored backup and its saved routing
    /// entries so the abandoned process leaves no orphaned state behind.
    fn abandon_process(&mut self, cid: ClusterId, pid: Pid) {
        let ci = cid.0 as usize;
        self.clusters[ci].backups.remove(&pid);
        self.clusters[ci].routing.drop_saved(pid);
        self.clusters[ci].nondet_logs.remove(&pid);
    }
}
