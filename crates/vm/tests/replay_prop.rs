//! Property test of the crate's load-bearing guarantee: a machine
//! restored from a snapshot, with pages demand-installed from a "page
//! account", finishes in exactly the state the uninterrupted run reaches
//! — for *arbitrary* programs, snapshot points, and quantum sizes.

use std::collections::BTreeMap;

use auros_vm::inst::regs::*;
use auros_vm::{Exit, Machine, PageNo, Program, ProgramBuilder};
use proptest::prelude::*;

/// One generated body operation (always terminating).
#[derive(Debug, Clone)]
enum Op {
    Li(u8, u64),
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Xor(u8, u8, u8),
    Store { addr: u16, src: u8 },
    Load { addr: u16, dst: u8 },
    Compute(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = 4u8..12; // Stay clear of the loop counter and ABI registers.
    prop_oneof![
        (r.clone(), any::<u64>()).prop_map(|(d, v)| Op::Li(d, v)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Add(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Mul(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Xor(d, a, b)),
        (0u16..6000, r.clone()).prop_map(|(addr, src)| Op::Store { addr, src }),
        (0u16..6000, r).prop_map(|(addr, dst)| Op::Load { addr, dst }),
        (1u16..40).prop_map(Op::Compute),
    ]
}

/// Builds a terminating program: the op body repeated `loops` times,
/// then a checksum of registers and memory into R1, then exit.
fn build(ops: &[Op], loops: u64) -> Program {
    let mut b = ProgramBuilder::new("prop");
    b.li(R15, loops);
    let top = b.here();
    for op in ops {
        match *op {
            Op::Li(d, v) => {
                b.li(auros_vm::Reg(d), v);
            }
            Op::Add(d, a, x) => {
                b.add(auros_vm::Reg(d), auros_vm::Reg(a), auros_vm::Reg(x));
            }
            Op::Mul(d, a, x) => {
                b.mul(auros_vm::Reg(d), auros_vm::Reg(a), auros_vm::Reg(x));
            }
            Op::Xor(d, a, x) => {
                b.xor(auros_vm::Reg(d), auros_vm::Reg(a), auros_vm::Reg(x));
            }
            Op::Store { addr, src } => {
                b.li(R14, addr as u64);
                b.store_at(auros_vm::Reg(src), R14, 0);
            }
            Op::Load { addr, dst } => {
                b.li(R14, addr as u64);
                b.load(auros_vm::Reg(dst), R14, 0);
            }
            Op::Compute(n) => {
                b.compute(n as u32);
            }
        }
    }
    b.addi(R15, R15, -1);
    b.jnz(R15, top);
    // Fold the registers into R1 so any divergence is visible.
    b.li(R1, 0);
    for r in 4..12u8 {
        b.add(R1, R1, auros_vm::Reg(r));
    }
    b.trap(auros_vm::Sys::Exit);
    b.build()
}

/// Runs to the Exit trap, reporting (R1, valid-page count). Reference
/// runs never fault (all pages stay resident), so faults are errors.
fn run_to_exit(m: &mut Machine, quantum: u64) -> (u64, usize) {
    loop {
        match m.run(quantum) {
            (Exit::Trap(auros_vm::Sys::Exit), _) => {
                return (m.reg(R1), m.memory().valid_pages().len());
            }
            (Exit::FuelOut, _) => continue,
            other => panic!("unexpected exit {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Snapshot/restore + demand paging reproduce the uninterrupted run.
    #[test]
    fn prop_snapshot_restore_replays_identically(
        ops in proptest::collection::vec(op_strategy(), 1..25),
        loops in 1u64..12,
        cut in 1u64..5_000,
        quantum in 16u64..700,
    ) {
        let program = build(&ops, loops);

        // Reference: uninterrupted run.
        let mut reference = Machine::new(program.clone());
        let want = run_to_exit(&mut reference, u64::MAX);

        // Primary runs `cut` fuel, then "syncs": snapshot + page account.
        // If the program finishes inside the cut there is nothing to
        // replay — the snapshot already is the final state.
        let mut primary = Machine::new(program.clone());
        let finished_early = match primary.run(cut) {
            (Exit::FuelOut, _) => false,
            (Exit::Trap(auros_vm::Sys::Exit), _) => true,
            other => panic!("unexpected {other:?}"),
        };
        if finished_early {
            prop_assert_eq!(primary.reg(R1), want.0);
            return Ok(());
        }
        let snap = primary.snapshot();
        let account: BTreeMap<PageNo, auros_vm::PageData> = snap
            .valid_pages
            .iter()
            .filter_map(|p| primary.memory().page(*p).map(|d| (*p, Box::new(*d))))
            .collect();

        // Backup restores with no pages resident and demand-faults.
        let got = {
            let mut m = Machine::restore(program, &snap);
            loop {
                match m.run(quantum) {
                    (Exit::Trap(auros_vm::Sys::Exit), _) => {
                        break (m.reg(R1), m.memory().valid_pages().len());
                    }
                    (Exit::FuelOut, _) => continue,
                    (Exit::PageFault(p), _) => {
                        let data = account
                            .get(&p)
                            .cloned()
                            .unwrap_or_else(|| Box::new([0u8; auros_vm::PAGE_SIZE]));
                        m.memory_mut().install(p, data);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        prop_assert_eq!(got, want, "replay must reach the identical final state");
    }

    /// Fuel accounting is independent of quantum size.
    #[test]
    fn prop_fuel_total_is_quantum_invariant(
        ops in proptest::collection::vec(op_strategy(), 1..15),
        loops in 1u64..8,
        q1 in 8u64..200,
        q2 in 200u64..5_000,
    ) {
        let program = build(&ops, loops);
        let total = |quantum: u64| {
            let mut m = Machine::new(program.clone());
            loop {
                match m.run(quantum) {
                    (Exit::Trap(auros_vm::Sys::Exit), _) => break m.fuel_used(),
                    (Exit::FuelOut, _) => continue,
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        prop_assert_eq!(total(q1), total(q2));
    }
}
