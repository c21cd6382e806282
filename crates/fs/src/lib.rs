#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! Peripheral servers (§7.6, §7.9): the file server, the raw disk
//! server, and the terminal server, plus the dual-ported devices they
//! control.
//!
//! Peripheral servers differ from ordinary processes in two ways the
//! paper spells out: they are memory-resident (their state object is
//! their address space; nothing of theirs lives at the page server), and
//! they synchronize *explicitly* at moments of their choosing — the file
//! server syncs when it flushes its buffer cache to disk, so that "once
//! written out to a dual ported disk, a substantial portion of the
//! server's address space is available to its backup" (§7.9).
//!
//! Crash consistency comes from shadow blocks: the disk keeps the state
//! as of the last sync until the next sync completes, "in case a crash
//! occurs during the operation" — which also makes the file system
//! "considerably more robust than is that in UNIX" (§7.9).

pub mod disk;
pub mod fileserver;
pub mod rawserver;
pub mod tty;

pub use disk::{DiskPair, BLOCK_SIZE};
pub use fileserver::FileServer;
pub use rawserver::RawServer;
pub use tty::{Terminal, TtyServer};
