//! The determinism and survivability oracles.
//!
//! §3.3's transparency promise, made testable: a run with a single
//! injected hardware failure must be *externally indistinguishable* from
//! the fault-free run — same exit statuses, same file contents, same
//! terminal output. [`RunDigest`] captures exactly the externally
//! visible record; the property tests compare digests across fault
//! plans.
//!
//! External indistinguishability alone can hide internal rot: a run can
//! produce the right bytes while leaving orphaned backups or undrained
//! suppression budgets behind, time bombs for the *next* fault.
//! [`check_survival`] inspects the survivors' kernel structures directly
//! — routing and directory consistency, backup reachability, suppression
//! drainage, and promoted processes actually reaching live state.

use std::collections::BTreeMap;
use std::fmt;

use auros_bus::Pid;
use auros_kernel::{BlockState, ProcessState};

use crate::System;

/// The externally visible record of one run.
#[derive(Clone, PartialEq, Eq)]
pub struct RunDigest {
    /// Exit status of each spawned process (`None` = never finished).
    /// Pids are derivation-stable, so they match across runs of the
    /// same workload.
    pub exits: BTreeMap<Pid, Option<u64>>,
    /// Every file's contents, by name.
    pub files: BTreeMap<String, Vec<u8>>,
    /// Committed output of each terminal.
    pub terminals: Vec<Vec<u8>>,
}

impl RunDigest {
    /// Returns the pids whose statuses differ between two digests.
    pub fn exit_differences(&self, other: &RunDigest) -> Vec<Pid> {
        let keys: std::collections::BTreeSet<Pid> =
            self.exits.keys().chain(other.exits.keys()).copied().collect();
        keys.into_iter().filter(|p| self.exits.get(p) != other.exits.get(p)).collect()
    }

    /// A stable short fingerprint for logging.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (pid, status) in &self.exits {
            mix(&pid.0.to_le_bytes());
            mix(&status.unwrap_or(u64::MAX).to_le_bytes());
        }
        for (name, data) in &self.files {
            mix(name.as_bytes());
            mix(data);
        }
        for t in &self.terminals {
            mix(t);
        }
        h
    }
}

/// The survivability verdict on a finished run: structural invariants
/// of the surviving clusters, checked after the workload completed and
/// in-flight activity settled.
#[derive(Clone, Debug, Default)]
pub struct SurvivalReport {
    /// Human-readable invariant violations; empty means the survivors
    /// are structurally sound.
    pub violations: Vec<String>,
}

impl SurvivalReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the survivors' kernel structures after a run.
///
/// Invariants, in order:
/// 1. **Routing consistency** — every live cluster's usable primary
///    entry points its peer-primary and peer-backup hints at *live*
///    clusters (crash handling repaired them, §7.10.1 step 1).
/// 2. **Directory consistency** — all live clusters agree on the global
///    server directory and every named location is a live cluster.
/// 3. **No orphan backups** — every stored backup's primary cluster is
///    alive; a backup whose primary died should have been promoted.
/// 4. **Suppression drained** — no routing entry still owes suppressed
///    sends once the workload finished: a promoted process replays past
///    its last duplicate (§5.4).
/// 5. **Promoted backups reach live state** — no process is still gated
///    on backup re-creation (`AwaitBackup`, §7.3).
/// 6. **Link layer drained** — no frame is still held behind a
///    sequence gap once the run settled; a held frame at rest means a
///    retransmission was lost for good.
/// 7. **No corruption escaped** — every mangled frame the wire injected
///    was caught by the receiver checksum (`corruptions_caught ==
///    wire_corruptions`): a mismatch means corrupted bytes were
///    consumed as if sound.
/// 8. **Every armed poison struck** — a poison trigger that never fired
///    means the campaign missed its victim and exercised nothing.
/// 9. **Poisons are conserved** — absent a budgeted give-up, every
///    injected poison must have ended in the dead-letter ledger; a
///    shortfall means a crash loop is still open (or a poison was
///    silently forgotten).
/// 10. **No crash loop left running** — a message still sticky at rest,
///     with no give-up to account for it, would re-kill the next
///     incarnation forever.
pub fn check_survival(sys: &System) -> SurvivalReport {
    let mut violations = Vec::new();
    let live: Vec<u16> = sys.world.clusters.iter().filter(|c| c.alive).map(|c| c.id.0).collect();
    let is_live = |c: auros_bus::ClusterId| live.contains(&c.0);

    for c in sys.world.clusters.iter().filter(|c| c.alive) {
        // 1: routing hints point at live clusters.
        for (end, e) in c.routing.primary_iter() {
            if !e.usable || e.peer_closed {
                continue;
            }
            if let Some(pp) = e.peer.primary {
                if !is_live(pp) {
                    violations.push(format!(
                        "c{}: entry {end:?} routes its peer to dead cluster {pp}",
                        c.id.0
                    ));
                }
            }
            if let Some(pb) = e.peer.backup {
                if !is_live(pb) {
                    violations.push(format!(
                        "c{}: entry {end:?} keeps a peer-backup hint at dead cluster {pb}",
                        c.id.0
                    ));
                }
            }
            // 4: suppression budgets drained.
            if e.suppress_writes > 0 {
                violations.push(format!(
                    "c{}: entry {end:?} still owes {} suppressed sends",
                    c.id.0, e.suppress_writes
                ));
            }
        }
        // 2: directory locations are live.
        for (name, slot) in [
            ("pager", &c.directory.pager),
            ("fs", &c.directory.fs),
            ("procserver", &c.directory.procserver),
        ] {
            match slot {
                Some((_, primary, backup)) => {
                    if !is_live(*primary) {
                        violations.push(format!(
                            "c{}: directory places the {name} in dead cluster {primary}",
                            c.id.0
                        ));
                    }
                    if let Some(b) = backup {
                        if !is_live(*b) {
                            violations.push(format!(
                                "c{}: directory places the {name}'s backup in dead cluster {b}",
                                c.id.0
                            ));
                        }
                    }
                }
                None => violations.push(format!("c{}: directory lost the {name}", c.id.0)),
            }
        }
        // 3: no orphan backups.
        for (pid, record) in &c.backups {
            if !is_live(record.primary_cluster) {
                violations.push(format!(
                    "c{}: backup of {pid} is orphaned — its primary cluster {} is dead",
                    c.id.0, record.primary_cluster
                ));
            }
        }
        // 5: promoted backups reached live state.
        for (pid, pcb) in &c.procs {
            if matches!(pcb.state(), ProcessState::Blocked(BlockState::AwaitBackup { .. })) {
                violations.push(format!("c{}: {pid} is still gated on backup re-creation", c.id.0));
            }
        }
    }

    // 6: the link layer holds no frame behind a sequence gap at rest.
    let held = sys.world.held_link_frames();
    if held != 0 {
        violations.push(format!("link layer still holds {held} frames behind sequence gaps"));
    }
    // 7: every injected corruption was caught at the receiver.
    let stats = &sys.world.stats;
    if stats.corruptions_caught != stats.wire_corruptions {
        violations.push(format!(
            "checksum caught {} of {} injected corruptions — the rest were consumed",
            stats.corruptions_caught, stats.wire_corruptions
        ));
    }
    // 8: every armed poison struck its victim.
    let armed = sys.world.armed_poison_count();
    if armed != 0 {
        violations.push(format!("{armed} armed poison(s) never struck their victim"));
    }
    // 9: poisons are conserved — quarantined or absorbed by a give-up.
    if stats.give_ups == 0 && stats.quarantined_poisons != stats.injected_poisons {
        violations.push(format!(
            "{} of {} injected poisons reached the dead-letter ledger and no give-up \
             accounts for the rest",
            stats.quarantined_poisons, stats.injected_poisons
        ));
    }
    // 10: no crash loop is still open at rest.
    let sticky = sys.world.sticky_poison_count();
    if sticky > 0 && stats.give_ups == 0 {
        violations.push(format!(
            "{sticky} poison(s) still sticky at rest — the next incarnation would die again"
        ));
    }

    // 2 (cross-cluster half): all survivors agree on the directory.
    let dirs: Vec<(u16, String)> = sys
        .world
        .clusters
        .iter()
        .filter(|c| c.alive)
        .map(|c| (c.id.0, format!("{:?}", c.directory)))
        .collect();
    if let Some((first_id, first)) = dirs.first() {
        for (id, d) in &dirs[1..] {
            if d != first {
                violations
                    .push(format!("directories disagree: c{first_id} has {first}, c{id} has {d}"));
            }
        }
    }

    SurvivalReport { violations }
}

impl fmt::Debug for RunDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RunDigest {{ fingerprint: {:#018x}", self.fingerprint())?;
        for (pid, status) in &self.exits {
            writeln!(f, "  exit {pid}: {status:?}")?;
        }
        for (name, data) in &self.files {
            writeln!(f, "  file {name}: {} bytes", data.len())?;
        }
        for (i, t) in self.terminals.iter().enumerate() {
            writeln!(f, "  tty{i}: {:?}", String::from_utf8_lossy(t))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(status: u64) -> RunDigest {
        RunDigest {
            exits: [(Pid(1), Some(status))].into_iter().collect(),
            files: [("/a".to_string(), vec![1, 2])].into_iter().collect(),
            terminals: vec![b"hi".to_vec()],
        }
    }

    #[test]
    fn equal_digests_have_equal_fingerprints() {
        assert_eq!(digest(5), digest(5));
        assert_eq!(digest(5).fingerprint(), digest(5).fingerprint());
    }

    #[test]
    fn differing_exits_are_reported() {
        let a = digest(5);
        let b = digest(6);
        assert_ne!(a, b);
        assert_eq!(a.exit_differences(&b), vec![Pid(1)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn missing_pid_counts_as_difference() {
        let a = digest(5);
        let mut b = digest(5);
        b.exits.insert(Pid(2), None);
        assert_eq!(a.exit_differences(&b), vec![Pid(2)]);
    }
}
