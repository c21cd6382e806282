#![warn(missing_docs)]

//! The experiment harness: regenerates the paper's evaluation.
//!
//! The paper is a design paper — §8 states plainly that "realistic
//! performance measurements are not available" — so its evaluation is
//! Figure 1 (the architecture, reproduced by `auros::topology`) plus
//! §8's qualitative efficiency claims and the §2 design-space argument.
//! Each experiment here turns one claim into a measured table; the
//! tables are printed by `cargo run -p auros-bench --bin experiments`.
//! `EXPERIMENTS.md` records claim-vs-measured for every row.

pub mod experiments;
pub mod flight;
pub mod table;

pub use experiments::*;
pub use table::Table;
