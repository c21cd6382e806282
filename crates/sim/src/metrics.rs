//! The metrics registry: a fleet-wide snapshot of the typed ledgers.
//!
//! The counters themselves live in typed ledgers — the kernel's
//! `WorldStats`/`ClusterStats`, the bus's `BusCounters`, each server's
//! fields — and every consumer that wants a per-cluster or per-segment
//! figure reads those directly. [`MetricsRegistry`] is the one flat view
//! on top: each subsystem publishes its fleet totals under static dotted
//! names (`kernel.bus_frames`, `bus.a.frames`, `pager.pageouts`), so the
//! set of names does not grow with the fleet and a publish builds no
//! strings. Iteration follows the `BTreeMap` name order, so a snapshot is
//! byte-stable across runs.

use std::collections::BTreeMap;

/// A deterministic snapshot of named `u64` counters.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets the named counter to `v`.
    pub fn set(&mut self, name: &'static str, v: u64) {
        self.counters.insert(name, v);
    }

    /// Value of a counter, or 0 if never published.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_set_and_listed_in_name_order() {
        let mut reg = MetricsRegistry::new();
        reg.set("z.last", 1);
        reg.set("a.first", 2);
        reg.set("a.first", 5);
        assert_eq!(reg.get("a.first"), 5);
        assert_eq!(reg.get("missing"), 0);
        let names: Vec<_> = reg.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "z.last"]);
    }
}
