#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! The §2 comparator systems.
//!
//! The paper positions its message-based design against two families of
//! fault-tolerant systems:
//!
//! 1. **Lockstep duplication** (Stratus-style): "a process and its
//!    backups execute simultaneously on tightly coupled processors …
//!    Though recovery in case of a crash is instantaneous, the duplicate
//!    hardware provides no increased computational capability."
//! 2. **Explicit checkpointing**: an inactive backup kept current by
//!    copying the primary's whole data space; "the frequent copying …
//!    slows down the primary and uses up a large portion of the added
//!    computing power."
//!
//! The checkpoint strategy is implemented inside the kernel
//! ([`auros_kernel::checkpoint`]) so it shares every cost constant with
//! the message system; this crate provides the builder entry points, the
//! lockstep *capacity model*, and the workload-normalized comparisons
//! the E3/E9 benches print.
//!
//! **Scope note.** The checkpoint baseline is compared on
//! *normal-execution overhead only* (the quantity §2 argues about).
//! Recovery under uncoordinated checkpointing has well-known orphan
//! message problems — that being hard is precisely the paper's
//! motivation — so the baseline does not implement it.

use auros::{programs, System, SystemBuilder, VTime};
use auros_kernel::config::FtStrategy;

/// A normal-execution overhead measurement for one strategy.
#[derive(Clone, Copy, Debug)]
pub struct OverheadSample {
    /// Virtual time the workload took.
    pub makespan: u64,
    /// Work-processor busy ticks.
    pub work_busy: u64,
    /// Executive-processor busy ticks.
    pub exec_busy: u64,
    /// Bytes carried by the intercluster bus.
    pub bus_bytes: u64,
    /// Syncs (message system) or checkpoints (comparator) performed.
    pub state_saves: u64,
}

/// Builds the standard OLTP comparison workload: one bank serving
/// `clients` clients, `tx` transactions each, over `table_pages`
/// accounts (one page each).
pub fn oltp_builder(
    clusters: u16,
    strategy: FtStrategy,
    clients: u16,
    tx: u64,
    table_pages: u64,
) -> SystemBuilder {
    let mut b = SystemBuilder::new(clusters);
    b.config_mut().strategy = strategy;
    b.spawn(0, programs::bank_server("bank", tx * clients as u64));
    for k in 0..clients {
        let cluster = 1 + (k % (clusters - 1));
        b.spawn(cluster, programs::bank_client("bank", tx, table_pages.max(2), 1 + k as u64));
    }
    b
}

/// Runs a built system to completion and samples its overheads.
///
/// # Panics
///
/// Panics if the workload does not finish before the deadline.
pub fn measure(mut sys: System, deadline: VTime) -> OverheadSample {
    assert!(sys.run(deadline), "baseline workload must complete");
    let s = &sys.world.stats;
    OverheadSample {
        makespan: sys.now().ticks(),
        work_busy: s.total_work_busy().as_ticks(),
        exec_busy: s.total_exec_busy().as_ticks(),
        bus_bytes: s.bus_bytes,
        state_saves: s.total_syncs() + s.clusters.iter().map(|c| c.checkpoints).sum::<u64>(),
    }
}

/// The lockstep capacity model (E9).
///
/// Every processor is mirrored, so a lockstep machine of `n` clusters
/// has the *useful* capacity of `n / 2` unduplicated clusters; its
/// throughput on a scalable workload is that of the no-FT system on
/// half the hardware. Returns the cluster count to simulate.
pub fn lockstep_equivalent_clusters(n: u16) -> u16 {
    (n / 2).max(2)
}

/// Strategy selector for [`throughput`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// The paper's message system.
    MessageSystem,
    /// No fault tolerance.
    NoFt,
    /// Lockstep duplication (§2): half the hardware does useful work.
    Lockstep,
}

/// Throughput (transactions per million ticks) of one strategy on `n`
/// clusters for the standard scalable workload: one bank/client pair per
/// cluster pair.
// auros-lint: allow(D4) -- reporting-only ratio: computed from final integer totals after the simulation has ended
pub fn throughput(strategy: Strategy, n: u16, tx: u64) -> f64 {
    let (sim_clusters, ft) = match strategy {
        Strategy::MessageSystem => (n, FtStrategy::MessageSystem),
        Strategy::NoFt => (n, FtStrategy::None),
        Strategy::Lockstep => (lockstep_equivalent_clusters(n), FtStrategy::None),
    };
    let mut b = SystemBuilder::new(sim_clusters);
    b.config_mut().strategy = ft;
    let pairs = (sim_clusters / 2).max(1);
    for k in 0..pairs {
        let name = format!("bank{k}");
        let c0 = (2 * k) % sim_clusters;
        let c1 = (2 * k + 1) % sim_clusters;
        b.spawn(c0, programs::bank_server(&name, tx));
        b.spawn(c1, programs::bank_client(&name, tx, 8, 5 + k as u64));
    }
    let mut sys = b.build();
    assert!(sys.run(VTime(4_000_000_000)), "throughput workload must complete");
    let total_tx = tx * pairs as u64;
    // auros-lint: allow(D4) -- reporting-only ratio: computed from final integer totals after the simulation has ended
    total_tx as f64 * 1_000_000.0 / sys.now().ticks() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEADLINE: VTime = VTime(2_000_000_000);

    #[test]
    fn checkpointing_slows_the_primary_far_more() {
        // §2's claim, measured: same workload, same cost constants.
        let msg = measure(oltp_builder(3, FtStrategy::MessageSystem, 1, 48, 8).build(), DEADLINE);
        let ckpt = measure(oltp_builder(3, FtStrategy::Checkpoint, 1, 48, 8).build(), DEADLINE);
        assert!(
            ckpt.work_busy > msg.work_busy * 2,
            "checkpoint copies must dominate: {ckpt:?} vs {msg:?}"
        );
        assert!(ckpt.bus_bytes > msg.bus_bytes, "full images cross the bus");
        assert!(ckpt.makespan > msg.makespan, "the primary is visibly slower");
    }

    #[test]
    fn checkpoint_count_tracks_sends() {
        let ckpt = measure(oltp_builder(3, FtStrategy::Checkpoint, 1, 16, 4).build(), DEADLINE);
        // One checkpoint per client send and per server reply, at least.
        assert!(ckpt.state_saves >= 32, "{ckpt:?}");
    }

    #[test]
    fn lockstep_model_halves_capacity() {
        assert_eq!(lockstep_equivalent_clusters(8), 4);
        assert_eq!(lockstep_equivalent_clusters(4), 2);
        assert_eq!(lockstep_equivalent_clusters(2), 2, "floor at a valid machine");
    }

    #[test]
    fn message_system_throughput_beats_lockstep_at_scale() {
        let msg = throughput(Strategy::MessageSystem, 6, 24);
        let lock = throughput(Strategy::Lockstep, 6, 24);
        assert!(msg > lock, "spare capacity must run primaries (§2): msg={msg:.1} lock={lock:.1}");
    }

    #[test]
    fn no_ft_is_the_throughput_ceiling() {
        let msg = throughput(Strategy::MessageSystem, 4, 24);
        let none = throughput(Strategy::NoFt, 4, 24);
        assert!(none >= msg * 0.8, "FT overhead is bounded: none={none:.1} msg={msg:.1}");
    }
}
