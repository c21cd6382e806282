//! Rendering the hardware architecture (the paper's Figure 1).
//!
//! The Auragen 4000 (§7.1): 2–32 clusters on a dual high-speed
//! intercluster bus; each cluster has work processors, an executive
//! processor, shared memory, and optional dual-ported interface modules.
//! [`render`] draws a live system's topology so that Figure 1 can be
//! regenerated from a running configuration rather than copied.

use crate::System;

/// Renders the system's topology as ASCII art.
pub fn render(sys: &System) -> String {
    let mut out = String::new();
    let n = sys.world.cfg.clusters;
    let w = auros_kernel::config::WORK_PROCESSORS;
    out.push_str(&format!("Auragen 4000 — {n} processor clusters on a dual intercluster bus\n\n"));
    out.push_str("  ═════════════════ intercluster bus A ═════════════════\n");
    out.push_str("  ───────────────── intercluster bus B ─────────────────\n");
    for c in &sys.world.clusters {
        let status = if c.alive { "up  " } else { "DOWN" };
        let procs = c.procs.values().filter(|p| !p.is_dead()).count();
        let backups = c.backups.len();
        out.push_str("        │\n  ┌─────┴──────────────────────────────┐\n");
        out.push_str(&format!("  │ cluster {:<2} [{status}]                   │\n", c.id.0));
        out.push_str(&format!("  │   executive processor + {w} work processors │\n"));
        out.push_str(&format!("  │   {procs:>3} primaries, {backups:>3} inactive backups │\n",));
        let mut peripherals = Vec::new();
        if sys.world.server_devices.values().any(|_| true) {
            for (pid, dev) in &sys.world.server_devices {
                if c.procs.contains_key(pid) {
                    peripherals.push(format!("dev{dev}"));
                }
            }
        }
        if !peripherals.is_empty() {
            out.push_str(&format!("  │   interface modules: {:<16} │\n", peripherals.join(", ")));
        }
        out.push_str("  └────────────────────────────────────┘\n");
    }
    out.push_str("\n  dual-ported peripherals: ");
    out.push_str(&format!("{} device(s) shared across cluster pairs\n", sys.world.devices.len()));
    out
}

/// The clusters that form availability zone `zone`.
///
/// A zone is a dual-ported cluster pair sharing interface modules
/// (§7.9): clusters `2z` and `2z + 1`. A zone outage takes both down at
/// the same instant, so nothing inside the pair can absorb the failure —
/// recovery must come from clusters outside the zone.
pub fn zone_members(zone: u16) -> [u16; 2] {
    [2 * zone, 2 * zone + 1]
}

/// How many complete zones a machine of `clusters` clusters has.
///
/// An odd trailing cluster belongs to no complete zone and cannot be
/// named by a zone outage.
pub fn zone_count(clusters: u16) -> u16 {
    clusters / 2
}

/// Structural facts about the topology, for assertions (Figure 1's
/// checkable content).
#[derive(Debug, PartialEq, Eq)]
pub struct TopologyFacts {
    /// Cluster count (2–32 per §7.1).
    pub clusters: u16,
    /// Work processors per cluster (two on the Auragen 4000).
    pub work_processors: u8,
    /// Whether a dual bus is present.
    pub dual_bus: bool,
    /// Number of dual-ported devices.
    pub devices: usize,
    /// (primary cluster, backup cluster) of each installed server.
    pub server_pairs: Vec<(u16, Option<u16>)>,
}

/// Extracts the checkable topology facts from a live system.
pub fn facts(sys: &System) -> TopologyFacts {
    let dir = &sys.world.clusters[0].directory;
    let mut server_pairs = Vec::new();
    for (_, p, b) in [dir.pager, dir.fs, dir.procserver].into_iter().flatten() {
        server_pairs.push((p.0, b.map(|c| c.0)));
    }
    TopologyFacts {
        clusters: sys.world.cfg.clusters,
        work_processors: auros_kernel::config::WORK_PROCESSORS,
        dual_bus: true,
        devices: sys.world.devices.len(),
        server_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;

    #[test]
    fn render_mentions_every_cluster_and_the_dual_bus() {
        let mut b = SystemBuilder::new(4);
        b.terminals(1);
        let sys = b.build();
        let art = render(&sys);
        assert!(art.contains("bus A"));
        assert!(art.contains("bus B"));
        for i in 0..4 {
            assert!(art.contains(&format!("cluster {i}")), "{art}");
        }
    }

    #[test]
    fn zones_partition_the_dual_ported_pairs() {
        assert_eq!(zone_members(0), [0, 1]);
        assert_eq!(zone_members(1), [2, 3]);
        assert_eq!(zone_members(2), [4, 5]);
        assert_eq!(zone_count(4), 2);
        assert_eq!(zone_count(5), 2);
        assert_eq!(zone_count(6), 3);
        assert_eq!(zone_count(2), 1);
    }

    #[test]
    fn facts_reflect_configuration() {
        let mut b = SystemBuilder::new(3);
        b.terminals(2);
        let sys = b.build();
        let f = facts(&sys);
        assert_eq!(f.clusters, 3);
        assert_eq!(f.work_processors, 2);
        assert!(f.dual_bus);
        // Page store + fs disk + two terminals.
        assert_eq!(f.devices, 4);
        assert_eq!(f.server_pairs.len(), 3);
        // Peripheral servers pair with the other cluster on their device
        // (§7.9: "its backup must be in the other").
        for (p, b) in &f.server_pairs {
            assert_ne!(Some(*p), *b);
        }
    }
}
