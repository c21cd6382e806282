#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! Deterministic guest-process virtual machine.
//!
//! The paper (§4) rests on one requirement: *"If two processes start out in
//! the identical state, and receive identical input, they will perform
//! identically and thus produce identical output."* Rather than trusting
//! native code to be deterministic, user processes in this reproduction are
//! programs for a small register machine with paged memory. That buys three
//! things the kernel needs:
//!
//! 1. **Determinism by construction** — the interpreter has no ambient
//!    inputs; every run of a program from the same state with the same
//!    messages is identical.
//! 2. **Exact dirty-page sets** — synchronization (§7.8) flushes the pages
//!    modified since the last sync; the memory model tracks them.
//! 3. **A pure-data process image** — registers, program counter, signal
//!    stack, and the valid-page set form a [`Snapshot`] small enough to
//!    ride in a sync message, exactly like the paper's PCB state.
//!
//! The machine traps to the kernel for system calls ([`Sys`]) and page
//! faults; it never performs I/O itself.

pub mod builder;
pub mod inst;
pub mod machine;
pub mod mem;

pub use builder::ProgramBuilder;
pub use inst::{Inst, Program, Reg, Sys};
pub use machine::{Exit, Machine, Snapshot, VmError};
pub use mem::{PageData, PageNo, PagedMemory, PAGE_SIZE};
