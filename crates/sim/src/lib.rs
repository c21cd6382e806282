#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! Deterministic discrete-event simulation substrate.
//!
//! Everything in the auros workspace runs on top of this crate: a virtual
//! clock ([`VTime`]), an event queue with deterministic tie-breaking
//! ([`EventQueue`]), a seeded random-number generator ([`DetRng`]), a
//! structured trace log ([`trace::TraceLog`]), and the registry of
//! statically named fleet totals the other crates publish their typed
//! ledgers into ([`MetricsRegistry`]).
//!
//! The whole point of the substrate is *replayability*: a simulation run is
//! a pure function of its inputs (configuration, seed, workload, fault
//! plan). The paper's central claim — that a backup process rolling forward
//! from its last synchronization point is externally indistinguishable from
//! the primary it replaces — is only testable if the surrounding world is
//! deterministic, so no wall-clock time, OS threads, or ambient randomness
//! are permitted anywhere above this crate.

pub mod event;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::{EventQueue, ScheduledAt};
pub use metrics::MetricsRegistry;
pub use rng::DetRng;
pub use time::{Dur, VTime};
pub use trace::{
    first_divergence, Divergence, Loc, TraceCategory, TraceEnd, TraceEvent, TraceKind, TraceLog,
};
