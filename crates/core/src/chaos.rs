//! Seeded chaos sweep: random fault plans against the survivability
//! oracle.
//!
//! The paper's fault model is crisp — any *single* hardware failure is
//! survived transparently (§3.1), and sequenced multiple failures are
//! survived once re-protection completes between them (§7.10.2) — but a
//! handful of hand-written scenarios only probes the corners someone
//! thought of. The sweep samples fault plans from a seeded generator
//! (cluster crashes, bus failures, disk-mirror failures, sequenced
//! double faults) and runs each against its fault-free twin:
//!
//! * a plan *inside* the fault model must complete, match the fault-free
//!   digest, and leave the survivors structurally sound
//!   ([`check_survival`]);
//! * a plan *outside* the model (both buses, primary and backup before
//!   re-protection, both dual ports of a device) must fail **loudly** —
//!   an incomplete run, or survivors observing the loss and exiting
//!   with different statuses — never a completed run whose every exit
//!   status matches the twin while the file or terminal output differs,
//!   which would be silent corruption.
//!
//! Every run is deterministic, so any failure reproduces from the seed.

use auros_bus::proto::BackupMode;
use auros_bus::BusKind;
use auros_sim::{DetRng, Dur, VTime};

use crate::apps::{AppKind, AppWorkload};
use crate::fault::FaultEvent;
use crate::oracle::{check_survival, RunDigest};
use crate::{programs, System, SystemBuilder};

/// Clusters in the sweep machine.
const CLUSTERS: u16 = 4;
/// Hard stop for each run, far beyond normal completion.
const DEADLINE: VTime = VTime(5_000_000);
/// Flight-recorder depth: every run keeps its most recent events in a
/// bounded ring so a failing plan can be localized without paying for
/// unbounded capture across hundreds of sweeps.
const RING_DEPTH: usize = 4096;

/// Which workload the sweep drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// The original fixed workload: pingpong, file writer, compute loop.
    Baseline,
    /// The traffic-DSL KV store ([`AppKind::KvStore`]).
    KvStore,
    /// The chat fan-out service ([`AppKind::ChatFanout`]).
    ChatFanout,
    /// The ETL pipeline with dead-letter diversion
    /// ([`AppKind::EtlPipeline`]).
    EtlPipeline,
}

impl Scenario {
    /// The application workload this scenario drives, if any. Derived
    /// from the sweep seed, so one seed reproduces traffic and faults
    /// alike.
    pub fn app(self, seed: u64) -> Option<AppWorkload> {
        match self {
            Scenario::Baseline => None,
            Scenario::KvStore => Some(AppWorkload::new(AppKind::KvStore, seed)),
            Scenario::ChatFanout => Some(AppWorkload::new(AppKind::ChatFanout, seed)),
            Scenario::EtlPipeline => Some(AppWorkload::new(AppKind::EtlPipeline, seed)),
        }
    }

    /// Every scenario, baseline first.
    pub const ALL: [Scenario; 4] =
        [Scenario::Baseline, Scenario::KvStore, Scenario::ChatFanout, Scenario::EtlPipeline];
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed; every sampled plan derives from it.
    pub seed: u64,
    /// How many fault plans to sample.
    pub plans: usize,
    /// Efficiency ceiling: a survivable plan that completes may burn at
    /// most this multiple of the fault-free twin's busy work. Catches
    /// supervision pathologies (restart thrash, replay storms) that the
    /// digest comparison alone cannot see.
    pub max_work_factor: u64,
    /// Which workload to drive the plans against.
    pub scenario: Scenario,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xA42_0001,
            plans: 100,
            max_work_factor: 3,
            scenario: Scenario::Baseline,
        }
    }
}

/// The shape of one sampled plan.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PlanKind {
    /// One cluster crashes (§3.1).
    SingleCrash,
    /// The active bus fails; the standby takes over (§7.1).
    SingleBusFail,
    /// One mirror of the file-system disk pair fails (§7.9).
    SingleDiskHalf,
    /// Two different clusters crash, the second after re-protection
    /// completed (§7.10.2).
    CrashThenCrash,
    /// A cluster crashes, returns to service, and crashes again.
    CrashRestoreCrash,
    /// A bus failure and a cluster crash in one run — different fault
    /// domains, both inside the model.
    BusFailPlusCrash,
    /// Both buses fail: outside the fault model, must be reported.
    DoubleBusFail,
    /// A second cluster crashes before re-protection completes, taking
    /// the fresh promotions' hosts down: outside the model.
    RapidDoubleCrash,
    /// A handful of one-shot transient wire faults — drops, corruptions,
    /// duplications, delays — scattered through the run. The reliable
    /// delivery layer must make every one invisible.
    TransientMix,
    /// Bus A turns flaky for a window: every grant in the span suffers a
    /// wire fault. Quarantine must bench it, the standby must carry the
    /// traffic, and the run must stay externally indistinguishable.
    FlakyBusWindow,
    /// A correlated cascade: a cluster crashes, and with elevated
    /// probability the cluster that inherited its primaries crashes too,
    /// inside the recovery window — before re-protection completes.
    /// Cascaded instances are outside the model; the sampler records the
    /// per-instance expectation.
    CascadeFailover,
    /// A poison payload deterministically re-kills its consumer after
    /// each restart. The supervision layer must quarantine the message
    /// into the dead-letter ledger (or exhaust the restart budget and
    /// give up loudly) — never loop forever.
    CrashLoop,
    /// Both clusters of a dual-ported zone die at the same instant:
    /// correlated loss the single-failure model does not cover, so the
    /// run must be reported unsurvivable.
    ZoneOutage,
    /// A flaky-bus window aligned to the synchronization cadence, with
    /// one-shot transients inside it: wire faults land exactly when sync
    /// demand peaks. The reliability layer must still make every one
    /// invisible.
    SyncStorm,
}

impl PlanKind {
    /// Whether the paper's fault model promises survival of this shape.
    ///
    /// For [`PlanKind::CascadeFailover`] this is the *uncascaded*
    /// default; the sampler overrides it per instance when the second,
    /// correlated crash is drawn.
    pub fn expect_survivable(self) -> bool {
        !matches!(self, PlanKind::DoubleBusFail | PlanKind::RapidDoubleCrash | PlanKind::ZoneOutage)
    }

    /// All shapes the sampler draws from.
    pub const ALL: [PlanKind; 14] = [
        PlanKind::SingleCrash,
        PlanKind::SingleBusFail,
        PlanKind::SingleDiskHalf,
        PlanKind::CrashThenCrash,
        PlanKind::CrashRestoreCrash,
        PlanKind::BusFailPlusCrash,
        PlanKind::DoubleBusFail,
        PlanKind::RapidDoubleCrash,
        PlanKind::TransientMix,
        PlanKind::FlakyBusWindow,
        PlanKind::CascadeFailover,
        PlanKind::CrashLoop,
        PlanKind::ZoneOutage,
        PlanKind::SyncStorm,
    ];
}

/// What one plan did.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// Index within the sweep.
    pub index: usize,
    /// Sampled shape.
    pub kind: PlanKind,
    /// The concrete fault events.
    pub events: Vec<FaultEvent>,
    /// Whether the fault model promises survival.
    pub expect_survivable: bool,
    /// Whether the workload completed before the deadline.
    pub completed: bool,
    /// Whether the run survived in full: completed, externally
    /// indistinguishable, structurally sound.
    pub survived: bool,
    /// Worst crash-to-last-promotion latency of the run, in ticks.
    pub recovery_latency: Option<u64>,
    /// Poison payloads the plan injected.
    pub injected_poisons: u64,
    /// Poisons the supervision layer quarantined into the dead-letter
    /// ledger.
    pub quarantined_poisons: u64,
    /// Supervised restarts the run granted.
    pub supervised_restarts: u64,
    /// Processes abandoned after exhausting their restart budget.
    pub give_ups: u64,
    /// First oracle violation, if any.
    pub violation: Option<String>,
}

/// The sweep's verdict.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The master seed (reproduces everything).
    pub seed: u64,
    /// Per-plan outcomes.
    pub outcomes: Vec<PlanOutcome>,
    /// Oracle failures: survivable plans that did not survive, and any
    /// plan — survivable or not — that corrupted silently (completed
    /// with every exit status matching the fault-free twin while file
    /// or terminal output differs).
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Plans that survived in full.
    pub fn survived(&self) -> usize {
        self.outcomes.iter().filter(|o| o.survived).count()
    }

    /// Plans reported unsurvivable (incomplete runs).
    pub fn unsurvivable(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.completed).count()
    }

    /// How many plans of `kind` were sampled.
    pub fn count_of(&self, kind: PlanKind) -> usize {
        self.outcomes.iter().filter(|o| o.kind == kind).count()
    }

    /// Shapes the sweep never sampled. A coverage gate: a sweep sized
    /// for the full distribution should return an empty list, and a
    /// non-empty one means a shape silently escaped testing.
    pub fn unsampled(&self) -> Vec<PlanKind> {
        PlanKind::ALL.into_iter().filter(|k| self.count_of(*k) == 0).collect()
    }

    /// Worst crash-to-last-promotion latency across the sweep, in ticks.
    pub fn max_recovery_latency(&self) -> Option<u64> {
        self.outcomes.iter().filter_map(|o| o.recovery_latency).max()
    }

    /// A one-screen summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "chaos sweep: seed {:#x}, {} plans, {} survived, {} reported unsurvivable, {} failures",
            self.seed,
            self.outcomes.len(),
            self.survived(),
            self.unsurvivable(),
            self.failures.len()
        );
        for kind in PlanKind::ALL {
            let _ = writeln!(out, "  {:?}: {}", kind, self.count_of(kind));
        }
        if let Some(l) = self.max_recovery_latency() {
            let _ = writeln!(out, "  worst recovery latency: {l} ticks");
        }
        let injected: u64 = self.outcomes.iter().map(|o| o.injected_poisons).sum();
        if injected > 0 {
            let quarantined: u64 = self.outcomes.iter().map(|o| o.quarantined_poisons).sum();
            let restarts: u64 = self.outcomes.iter().map(|o| o.supervised_restarts).sum();
            let give_ups: u64 = self.outcomes.iter().map(|o| o.give_ups).sum();
            let _ = writeln!(
                out,
                "  supervision: {injected} poisons injected, {quarantined} quarantined, \
                 {restarts} restarts granted, {give_ups} give-ups"
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILURE: {f}");
        }
        out
    }
}

/// The fixed sweep workload: traffic on every cluster and every fault
/// domain — cross-cluster rendezvous messaging, file-system writes, and
/// demand-paged computation. Everything runs as a fullback, the paper's
/// flagship mode, so sequenced faults exercise §7.10.2 backup
/// re-creation rather than quarterback run-unprotected semantics.
fn workload(b: &mut SystemBuilder, app: Option<&AppWorkload>) {
    match app {
        None => {
            b.spawn_with_mode(0, programs::pingpong("chaos", 40, true), BackupMode::Fullback);
            b.spawn_with_mode(1, programs::pingpong("chaos", 40, false), BackupMode::Fullback);
            b.spawn_with_mode(2, programs::file_writer("/chaos", 8, 48), BackupMode::Fullback);
            b.spawn_with_mode(3, programs::compute_loop(600, 4), BackupMode::Fullback);
        }
        Some(a) => a.install(b),
    }
}

/// Spawn indices a poison trigger may target: processes that consume
/// data payloads. The baseline list is the rendezvous pair — the file
/// writer only ever reads file-server replies, so a poison aimed at it
/// would never trigger.
fn poisonable(app: Option<&AppWorkload>) -> Vec<usize> {
    match app {
        None => vec![0, 1],
        Some(a) => a.poisonable_spawns(),
    }
}

/// Synchronization cadence of the sweep machine: the default kernel
/// config forces a sync whenever a primary burns `sync_max_fuel =
/// 50_000` ticks, so sync demand peaks near multiples of it.
const SYNC_CADENCE: u64 = 50_000;

/// Samples one fault plan from `rng`, returning the shape, the concrete
/// events, and whether *this instance* is expected survivable (the
/// correlated shapes decide that per draw).
fn sample_plan(rng: &mut DetRng, poisonable: &[usize]) -> (PlanKind, Vec<FaultEvent>, bool) {
    let kind = PlanKind::ALL[rng.below(PlanKind::ALL.len() as u64) as usize];
    let mut expect_survivable = kind.expect_survivable();
    let events = match kind {
        PlanKind::SingleCrash => {
            let cluster = rng.below(CLUSTERS as u64) as u16;
            vec![FaultEvent::ClusterCrash { at: VTime(rng.range(3_000, 60_000)), cluster }]
        }
        PlanKind::SingleBusFail => {
            vec![FaultEvent::BusFail { at: VTime(rng.range(2_000, 60_000)) }]
        }
        PlanKind::SingleDiskHalf => {
            vec![FaultEvent::DiskHalfFail { at: VTime(rng.range(2_000, 60_000)), disk: 0 }]
        }
        PlanKind::CrashThenCrash => {
            let a = rng.below(CLUSTERS as u64) as u16;
            // The second victim must not be `a`'s dual-ported partner:
            // the partner pair hosts *both* homes of a peripheral
            // server (fs and pager at 0/1, the process server at 3/2),
            // and peripheral servers are halfbacks pinned to their
            // device's two ports (§7.3) — losing both is outside the
            // fault model no matter how far apart the crashes land.
            let partner = a ^ 1;
            let candidates: Vec<u16> = (0..CLUSTERS).filter(|&c| c != a && c != partner).collect();
            let b = candidates[rng.below(candidates.len() as u64) as usize];
            let t1 = rng.range(3_000, 10_000);
            // Far enough apart for re-protection to finish (§7.10.2).
            let t2 = t1 + rng.range(50_000, 65_000);
            vec![
                FaultEvent::ClusterCrash { at: VTime(t1), cluster: a },
                FaultEvent::ClusterCrash { at: VTime(t2), cluster: b },
            ]
        }
        PlanKind::CrashRestoreCrash => {
            let a = rng.below(CLUSTERS as u64) as u16;
            let t1 = rng.range(3_000, 10_000);
            let tr = t1 + rng.range(25_000, 35_000);
            let t2 = tr + rng.range(40_000, 50_000);
            vec![
                FaultEvent::ClusterCrash { at: VTime(t1), cluster: a },
                FaultEvent::Restore { at: VTime(tr), cluster: a },
                FaultEvent::ClusterCrash { at: VTime(t2), cluster: a },
            ]
        }
        PlanKind::BusFailPlusCrash => {
            let cluster = rng.below(CLUSTERS as u64) as u16;
            vec![
                FaultEvent::BusFail { at: VTime(rng.range(2_000, 50_000)) },
                FaultEvent::ClusterCrash { at: VTime(rng.range(3_000, 60_000)), cluster },
            ]
        }
        PlanKind::DoubleBusFail => {
            let t1 = rng.range(2_000, 30_000);
            let t2 = t1 + rng.range(1_000, 30_000);
            vec![FaultEvent::BusFail { at: VTime(t1) }, FaultEvent::BusFail { at: VTime(t2) }]
        }
        PlanKind::RapidDoubleCrash => {
            // The neighbour hosts the victims' backups; killing it before
            // re-protection completes destroys both copies.
            let a = rng.below(CLUSTERS as u64) as u16;
            let b = (a + 1) % CLUSTERS;
            let t1 = rng.range(3_000, 15_000);
            let t2 = t1 + 1 + rng.below(1_500);
            vec![
                FaultEvent::ClusterCrash { at: VTime(t1), cluster: a },
                FaultEvent::ClusterCrash { at: VTime(t2), cluster: b },
            ]
        }
        PlanKind::TransientMix => {
            let n = 2 + rng.below(4) as usize;
            (0..n)
                .map(|_| {
                    let at = VTime(rng.range(2_000, 60_000));
                    match rng.below(4) {
                        0 => FaultEvent::FrameDrop { at },
                        1 => FaultEvent::FrameCorrupt { at },
                        2 => FaultEvent::FrameDuplicate { at },
                        _ => FaultEvent::FrameDelay { at, by: Dur(rng.range(200, 1_500)) },
                    }
                })
                .collect()
        }
        PlanKind::FlakyBusWindow => {
            let from = rng.range(2_000, 30_000);
            let until = from + rng.range(3_000, 9_000);
            vec![FaultEvent::BusFlaky { from: VTime(from), until: VTime(until), bus: BusKind::A }]
        }
        PlanKind::CascadeFailover => {
            let a = rng.below(CLUSTERS as u64) as u16;
            // The default backup placement puts a's backups — and hence
            // its promoted primaries — in the next cluster around the
            // ring.
            let inheritor = (a + 1) % CLUSTERS;
            let t1 = rng.range(3_000, 15_000);
            let mut events = vec![FaultEvent::ClusterCrash { at: VTime(t1), cluster: a }];
            // Elevated correlation: three of four draws cascade into the
            // inheritor inside its recovery window, before re-protection
            // can complete — those instances exceed the fault model.
            if rng.below(4) < 3 {
                let t2 = t1 + rng.range(2_000, 12_000);
                events.push(FaultEvent::ClusterCrash { at: VTime(t2), cluster: inheritor });
                expect_survivable = false;
            }
            events
        }
        PlanKind::CrashLoop => {
            // Poison one of the scenario's data consumers (the baseline
            // list is the rendezvous pair; app scenarios name their
            // consuming roles). Every workload keeps data flowing past
            // tick 4_500, so the trigger arms early enough to be
            // guaranteed a strike.
            let spawn = poisonable[rng.below(poisonable.len() as u64) as usize];
            vec![FaultEvent::PoisonMessage { at: VTime(rng.range(2_000, 4_500)), spawn }]
        }
        PlanKind::ZoneOutage => {
            let zone = rng.below((CLUSTERS / 2) as u64) as u16;
            vec![FaultEvent::ZoneOutage { at: VTime(rng.range(3_000, 40_000)), zone }]
        }
        PlanKind::SyncStorm => {
            // Align the flaky window to a sync wave, then land a few
            // one-shot transients inside it.
            let centre = (1 + rng.below(2)) * SYNC_CADENCE;
            let from = centre - rng.range(2_000, 6_000);
            let until = centre + rng.range(2_000, 6_000);
            let mut events = vec![FaultEvent::BusFlaky {
                from: VTime(from),
                until: VTime(until),
                bus: BusKind::A,
            }];
            for _ in 0..(2 + rng.below(2)) {
                let at = VTime(rng.range(from + 1, until));
                events.push(match rng.below(3) {
                    0 => FaultEvent::FrameDrop { at },
                    1 => FaultEvent::FrameCorrupt { at },
                    _ => FaultEvent::FrameDuplicate { at },
                });
            }
            events
        }
    };
    (kind, events, expect_survivable)
}

fn build(plan: &[FaultEvent], app: Option<&AppWorkload>) -> System {
    let mut b = SystemBuilder::new(CLUSTERS);
    workload(&mut b, app);
    b.fault_plan(plan.iter().copied());
    let mut sys = b.try_build().expect("sampled plans are always well-formed");
    // Flight recorder on: every category, bounded ring (§ the fingerprints
    // still cover all emitted events, so eviction loses storage, not
    // evidence).
    sys.world.trace = auros_sim::TraceLog::ring(RING_DEPTH);
    sys
}

/// Runs the sweep.
pub fn run_sweep(cfg: &ChaosConfig) -> ChaosReport {
    let app = cfg.scenario.app(cfg.seed);
    let app = app.as_ref();
    // The fault-free twin, computed once: the workload is fixed.
    let mut clean_sys = build(&[], app);
    assert!(clean_sys.run(DEADLINE), "the fault-free workload must complete");
    let clean: RunDigest = clean_sys.digest();
    let clean_trace = clean_sys.world.trace.snapshot();
    let clean_work = clean_sys.world.stats.total_work_busy().as_ticks();
    // App scenarios hold the twin against the executable model, not
    // merely against itself: a twin that already lost an acked write or
    // broke conservation would otherwise make every faulted run "pass".
    let mut failures = Vec::new();
    if let Some(a) = app {
        for v in a.check(&mut clean_sys) {
            failures.push(format!("fault-free twin violates the {:?} model: {v}", a.kind));
        }
    }

    let spawns = poisonable(app);
    let mut rng = DetRng::seed(cfg.seed);
    let mut outcomes = Vec::with_capacity(cfg.plans);
    for index in 0..cfg.plans {
        let mut plan_rng = rng.split(index as u64);
        let (kind, events, expect_survivable) = sample_plan(&mut plan_rng, &spawns);
        let mut sys = build(&events, app);
        let completed = sys.run(DEADLINE);
        let digest = completed.then(|| sys.digest());
        // Dead-letter diversion makes quarantined CrashLoop plans
        // *legitimately* diverge from the twin — records flow around
        // the poisoned message. Those runs answer to the conservation
        // oracle instead of the digest comparison.
        let diverted_run = app.is_some_and(|a| a.divert_quarantined())
            && kind == PlanKind::CrashLoop
            && sys.world.stats.diverted_records > 0;
        let violation;
        let survived = match &digest {
            Some(d) if *d == clean => {
                let survival = check_survival(&sys);
                violation = survival.violations.first().cloned();
                survival.ok()
            }
            Some(_) if diverted_run => {
                let mut v = check_survival(&sys).violations;
                if let Some(a) = app {
                    v.extend(a.check_conservation(&mut sys));
                }
                violation = v.first().cloned();
                v.is_empty()
            }
            Some(d) => {
                // Localize: where did the faulted run's event stream first
                // depart from the fault-free twin's? Purely diagnostic —
                // the verdict is still the digest comparison above.
                let faulted_trace = sys.world.trace.snapshot();
                let div = auros_sim::first_divergence(&clean_trace, &faulted_trace)
                    .map(|dv| format!("; {dv}"))
                    .unwrap_or_default();
                violation = Some(format!(
                    "completed with diverging output (faulted {:#x}, clean {:#x}){div}",
                    d.fingerprint(),
                    clean.fingerprint()
                ));
                false
            }
            None => {
                violation = Some("workload did not complete (reported unsurvivable)".to_string());
                false
            }
        };
        // An expected-survivable plan must survive in full. An
        // expected-unsurvivable plan may be reported (incomplete), may
        // fail *detectably* (survivors observe the loss and exit with
        // different statuses), or — if timing was lenient — may survive
        // outright with relaxed structure; what it must never do is
        // corrupt silently: complete with every exit status matching the
        // fault-free twin while the file or terminal output differs.
        // One carve-out: if the divergence is confined to files and the
        // file server (with its backup) was destroyed, the loss is
        // *detected* — a post-run reader gets an error, not wrong bytes.
        let silent_corruption = match &digest {
            Some(d) if *d != clean && d.exits == clean.exits => {
                let fs_lost = sys.with_fs(|_, _| ()).is_none();
                !(fs_lost && d.terminals == clean.terminals)
            }
            _ => false,
        };
        if (expect_survivable && !survived) || silent_corruption {
            failures.push(format!(
                "plan {index} ({kind:?}) {events:?}: {}",
                violation.clone().unwrap_or_default()
            ));
        }
        let injected_poisons = sys.world.stats.injected_poisons;
        let quarantined_poisons = sys.world.stats.quarantined_poisons;
        let supervised_restarts = sys.world.stats.supervised_restarts;
        let give_ups = sys.world.stats.give_ups;
        // The crash-loop invariant: no poison may loop forever. Every
        // CrashLoop plan must terminate either in quarantine-then-
        // progress (the run completes, every injected poison sits in the
        // dead-letter ledger) or in a budgeted give-up (the run is
        // reported incomplete and at least one process was loudly
        // abandoned).
        if kind == PlanKind::CrashLoop {
            let quarantine_then_progress =
                completed && survived && quarantined_poisons == injected_poisons;
            let budgeted_give_up = !completed && give_ups >= 1;
            if !(quarantine_then_progress || budgeted_give_up) {
                failures.push(format!(
                    "plan {index} (CrashLoop) {events:?}: neither quarantine-then-progress nor \
                     budgeted give-up ({quarantined_poisons}/{injected_poisons} quarantined, \
                     {give_ups} give-ups, completed={completed})"
                ));
            }
        }
        // The efficiency invariant: surviving a fault must not cost
        // unbounded rework. Restart thrash or replay storms show up here
        // even when the final digest is byte-identical.
        if expect_survivable && completed {
            let work = sys.world.stats.total_work_busy().as_ticks();
            if work > cfg.max_work_factor.saturating_mul(clean_work) {
                failures.push(format!(
                    "plan {index} ({kind:?}) {events:?}: burned {work} busy ticks against a \
                     fault-free {clean_work} (ceiling {}x)",
                    cfg.max_work_factor
                ));
            }
        }
        let recovery_latency = sys.world.stats.max_recovery_latency().map(|d| d.as_ticks());
        outcomes.push(PlanOutcome {
            index,
            kind,
            events,
            expect_survivable,
            completed,
            survived,
            recovery_latency,
            injected_poisons,
            quarantined_poisons,
            supervised_restarts,
            give_ups,
            violation,
        });
    }
    ChaosReport { seed: cfg.seed, outcomes, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive by construction: adding a `PlanKind` variant without
    /// deciding its place here fails to compile, and the test below
    /// fails if `ALL` drops or duplicates a variant.
    fn ordinal(kind: PlanKind) -> usize {
        match kind {
            PlanKind::SingleCrash => 0,
            PlanKind::SingleBusFail => 1,
            PlanKind::SingleDiskHalf => 2,
            PlanKind::CrashThenCrash => 3,
            PlanKind::CrashRestoreCrash => 4,
            PlanKind::BusFailPlusCrash => 5,
            PlanKind::DoubleBusFail => 6,
            PlanKind::RapidDoubleCrash => 7,
            PlanKind::TransientMix => 8,
            PlanKind::FlakyBusWindow => 9,
            PlanKind::CascadeFailover => 10,
            PlanKind::CrashLoop => 11,
            PlanKind::ZoneOutage => 12,
            PlanKind::SyncStorm => 13,
        }
    }

    #[test]
    fn all_lists_every_plan_kind_exactly_once() {
        let mut seen = [0usize; PlanKind::ALL.len()];
        for kind in PlanKind::ALL {
            seen[ordinal(kind)] += 1;
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "PlanKind::ALL must list every variant exactly once, got {seen:?}"
        );
    }

    #[test]
    fn sampled_plans_are_always_well_formed() {
        // Every draw the sweep can make must pass plan validation; a
        // panic inside `build` would otherwise abort a sweep mid-flight.
        let mut rng = DetRng::seed(0xC0FFEE);
        for index in 0..200 {
            let mut plan_rng = rng.split(index);
            let (kind, events, _) = sample_plan(&mut plan_rng, &[0, 1]);
            let mut b = SystemBuilder::new(CLUSTERS);
            workload(&mut b, None);
            b.fault_plan(events.iter().copied());
            assert!(b.try_build().is_ok(), "plan {index} ({kind:?}) {events:?} failed validation");
        }
    }
}
