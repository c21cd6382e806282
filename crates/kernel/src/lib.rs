#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! The Auros kernel — the paper's primary contribution.
//!
//! A per-cluster kernel embeds the message system (§5, §7.4): routing
//! tables whose entries hold message queues and the read/write counts the
//! fault-tolerance scheme revolves around; an outgoing queue drained by
//! the executive processor onto the intercluster bus; the synchronization
//! engine (§7.8); fork with birth notices and deferred backup creation
//! (§7.7); signal channels (§7.5.2); crash handling (§7.10.1) and
//! rollforward recovery with duplicate-send suppression (§5.4, §7.10.2).
//!
//! The [`World`] owns every cluster plus the bus and the discrete-event
//! queue; everything else hangs off it. Server processes (page server,
//! file server family, process server) implement [`ServerLogic`] and are
//! hosted by the kernel exactly like user processes — they are scheduled,
//! backed up, synchronized, and recovered through the same machinery
//! (§7.2: global services live in backed-up server processes, not in the
//! unsynchronized kernels).

pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod crash;
pub mod process;
pub mod procserver;
pub mod routing;
pub mod server;
pub mod spawn;
pub mod stats;
pub mod supervise;
pub mod sync;
pub mod syscall;
pub mod world;

pub use cluster::Cluster;
pub use config::{Config, CostModel};
pub use process::{BlockState, Pcb, ProcessBody, ProcessState};
pub use routing::{BackupEntry, Entry, Queued, RoutingTable};
pub use server::{Device, SendOnEnd, ServerCtx, ServerLogic};
pub use stats::{ClusterStats, WorldStats};
pub use supervise::DeadLetter;
pub use world::{Event, World};
