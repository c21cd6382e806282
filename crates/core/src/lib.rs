#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! # auros — a message system supporting fault tolerance
//!
//! A from-scratch reproduction of Borg, Baumbach & Glazer, *"A Message
//! System Supporting Fault Tolerance"* (SOSP 1983): the Auragen 4000 /
//! Auros design, in which every interprocess message is atomically
//! delivered to three destinations — the primary destination, the
//! destination's inactive backup, and the sender's backup — so that all
//! executing processes survive any single hardware failure, transparently
//! and without programmer involvement.
//!
//! The machine is simulated deterministically: a run is a pure function
//! of its configuration, workload, and fault plan, which is precisely
//! what makes the paper's central claim checkable — a run with a crash
//! injected must be externally indistinguishable from the fault-free run.
//!
//! ## Quick start
//!
//! ```
//! use auros::{SystemBuilder, programs};
//! use auros_sim::VTime;
//!
//! // Two processes chat over a rendezvous channel; cluster 0 is crashed
//! // mid-conversation and the backups take over transparently.
//! let build = |crash: bool| {
//!     let mut b = SystemBuilder::new(3);
//!     b.spawn(0, programs::pingpong("demo", 20, true));
//!     b.spawn(1, programs::pingpong("demo", 20, false));
//!     if crash {
//!         b.crash_at(VTime(60_000), 0);
//!     }
//!     let mut sys = b.build();
//!     assert!(sys.run(VTime(10_000_000)), "workload completes");
//!     sys.digest()
//! };
//! assert_eq!(build(false), build(true));
//! ```

pub mod apps;
pub mod builder;
pub mod chaos;
pub mod fault;
pub mod oracle;
pub mod programs;
pub mod report;
pub mod topology;
pub mod traffic;

pub use builder::{System, SystemBuilder};
pub use fault::{FaultEvent, FaultPlanError};
pub use oracle::RunDigest;

// Re-export the layers for downstream crates and examples.
pub use auros_bus as bus;
pub use auros_fs as fs;
pub use auros_kernel as kernel;
pub use auros_pager as pager;
pub use auros_sim as sim;
pub use auros_vm as vm;

pub use auros_bus::proto::BackupMode;
pub use auros_bus::{ClusterId, Pid};
pub use auros_kernel::{Config, CostModel};
pub use auros_sim::{Dur, VTime};
