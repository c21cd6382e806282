//! The guest-machine interpreter.
//!
//! [`Machine::run`] executes instructions until a fuel budget (the
//! scheduling quantum) is exhausted or the guest traps. The kernel owns
//! the machine between runs: it services traps by reading and writing
//! registers and memory, installs pages on faults, and takes [`Snapshot`]s
//! at synchronization points.

use std::collections::BTreeSet;
use std::fmt;

use crate::inst::{Inst, Program, Reg, Sys, NUM_REGS};
use crate::mem::{Access, PageNo, PagedMemory};

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The fuel budget ran out mid-program.
    FuelOut,
    /// The guest executed `Trap(sys)`; the program counter has advanced
    /// past the trap. The kernel services the call and resumes or blocks
    /// the process.
    Trap(Sys),
    /// A valid but non-resident page was touched; the program counter
    /// still points at the faulting instruction, which will re-execute
    /// once the kernel installs the page.
    PageFault(PageNo),
    /// The program halted (ran `Halt` or off the end of its text).
    Halted,
    /// The guest misbehaved; the kernel will kill the process.
    Fault(VmError),
}

/// Guest errors that terminate the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Jump or fall-through to an instruction index outside the program.
    BadPc(u32),
    /// Memory access outside the representable address space.
    BadAddress(u64),
    /// `SigReturn` with no signal frame on the stack.
    StraySigReturn,
    /// Signal handler nesting exceeded the fixed limit.
    SignalOverflow,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::BadPc(pc) => write!(f, "jump to invalid pc {pc}"),
            VmError::BadAddress(a) => write!(f, "access to invalid address {a:#x}"),
            VmError::StraySigReturn => write!(f, "sigreturn without active signal frame"),
            VmError::SignalOverflow => write!(f, "signal handler nesting too deep"),
        }
    }
}

/// Maximum signal-handler nesting depth.
const MAX_SIG_DEPTH: usize = 8;

/// The cluster-independent CPU state of a process.
///
/// This is what rides in a sync message (§7.8: "the virtual address of the
/// next instruction to be executed, … current values in registers") plus
/// the valid-page set that tells a promoted backup which pages to demand
/// from the page server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// General-purpose registers.
    pub regs: [u64; NUM_REGS],
    /// Next instruction index.
    pub pc: u32,
    /// Return addresses of in-progress signal handlers.
    pub sig_stack: Vec<u32>,
    /// Pages belonging to the address space at snapshot time.
    pub valid_pages: BTreeSet<PageNo>,
    /// Fuel consumed since process start (cluster-independent accounting).
    pub fuel_used: u64,
}

impl Snapshot {
    /// Approximate wire size in bytes, for bus cost accounting.
    pub fn wire_size(&self) -> usize {
        NUM_REGS * 8 + 4 + self.sig_stack.len() * 4 + self.valid_pages.len() * 4 + 8
    }
}

/// A running (or restorable) guest machine.
///
/// `Clone` performs a deep copy of the address space — exactly what
/// `fork` needs.
#[derive(Clone)]
pub struct Machine {
    program: Program,
    regs: [u64; NUM_REGS],
    pc: u32,
    sig_stack: Vec<u32>,
    memory: PagedMemory,
    fuel_used: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine at the entry point of `program` with an empty
    /// address space.
    pub fn new(program: Program) -> Machine {
        Machine {
            program,
            regs: [0; NUM_REGS],
            pc: 0,
            sig_stack: Vec::new(),
            memory: PagedMemory::new(),
            fuel_used: 0,
            halted: false,
        }
    }

    /// Rebuilds a machine from a snapshot.
    ///
    /// No pages are resident afterwards: the caller (the kernel, promoting
    /// a backup) installs pages on demand as the guest faults on them,
    /// exactly as §7.10.2 describes.
    pub fn restore(program: Program, snap: &Snapshot) -> Machine {
        Machine {
            program,
            regs: snap.regs,
            pc: snap.pc,
            sig_stack: snap.sig_stack.clone(),
            memory: PagedMemory::non_resident(snap.valid_pages.clone()),
            fuel_used: snap.fuel_used,
            halted: false,
        }
    }

    /// Captures the cluster-independent state (for a sync message).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            regs: self.regs,
            pc: self.pc,
            sig_stack: self.sig_stack.clone(),
            valid_pages: self.memory.valid_pages().clone(),
            fuel_used: self.fuel_used,
        }
    }

    /// The program this machine executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.0 as usize]
    }

    /// Writes a register (used by the kernel to deliver syscall results).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.0 as usize] = v;
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Moves the program counter.
    ///
    /// The kernel uses this to *rewind* a blocking trap (`read`, `which`,
    /// `fork`) back onto its trap instruction so that the call re-executes
    /// when the process wakes — which also means a snapshot taken while
    /// blocked replays the call for free.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Total fuel consumed so far.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Mutable access to guest memory (for the kernel's copyin/copyout
    /// and page installation).
    pub fn memory_mut(&mut self) -> &mut PagedMemory {
        &mut self.memory
    }

    /// Shared access to guest memory.
    pub fn memory(&self) -> &PagedMemory {
        &self.memory
    }

    /// Pushes a signal-handler invocation: the current pc is saved and
    /// execution diverts to `handler`.
    ///
    /// Returns `false` (and leaves state untouched) if nesting would
    /// exceed the limit; the kernel then kills the process.
    pub fn enter_signal_handler(&mut self, handler: u32) -> bool {
        if self.sig_stack.len() >= MAX_SIG_DEPTH {
            return false;
        }
        self.sig_stack.push(self.pc);
        self.pc = handler;
        true
    }

    /// Runs until `fuel` is exhausted or the guest stops.
    ///
    /// Returns the exit reason and the fuel actually consumed, which is
    /// also added to [`Self::fuel_used`]. Fuel is checked before every
    /// instruction and charged 1 per instruction, plus 1 for `Load` and
    /// `Store` and `n` for `Compute(n)`, so a quantum may overshoot by the
    /// last instruction's cost. The charge stands even when the
    /// instruction stops the run. On exit the program counter is:
    ///
    /// * on the next instruction after [`Exit::FuelOut`];
    /// * on the faulting `Load`/`Store` after [`Exit::PageFault`], which
    ///   re-executes (and is charged again) once the kernel installs the
    ///   page;
    /// * on the faulting instruction after [`VmError::BadAddress`] and
    ///   [`VmError::BadPc`], a jump past the end of the text (a jump to
    ///   exactly its end halts on the next fetch);
    /// * past the trap after [`Exit::Trap`] and after a stray `SigReturn`;
    ///   a `SigReturn` with a frame resumes the saved pc and runs on;
    /// * past `Halt`, or at the end of the text, after [`Exit::Halted`].
    ///   Every later run of a halted machine returns `(Halted, 0)`.
    pub fn run(&mut self, fuel: u64) -> (Exit, u64) {
        use Inst::*;
        let Machine { program, regs, pc: saved_pc, sig_stack, memory, fuel_used, halted } = self;
        if *halted {
            return (Exit::Halted, 0);
        }
        let insts = program.insts();
        let mut pc = *saved_pc;
        let mut used: u64 = 0;
        let exit = loop {
            if used >= fuel {
                break Exit::FuelOut;
            }
            let Some(&inst) = insts.get(pc as usize) else {
                *halted = true;
                break Exit::Halted;
            };
            used += 1;
            match inst {
                Li(d, imm) => regs[d.0 as usize] = imm,
                Mov(d, s) => regs[d.0 as usize] = regs[s.0 as usize],
                Add(d, a, b) => {
                    regs[d.0 as usize] = regs[a.0 as usize].wrapping_add(regs[b.0 as usize])
                }
                Sub(d, a, b) => {
                    regs[d.0 as usize] = regs[a.0 as usize].wrapping_sub(regs[b.0 as usize])
                }
                Mul(d, a, b) => {
                    regs[d.0 as usize] = regs[a.0 as usize].wrapping_mul(regs[b.0 as usize])
                }
                Xor(d, a, b) => regs[d.0 as usize] = regs[a.0 as usize] ^ regs[b.0 as usize],
                And(d, a, b) => regs[d.0 as usize] = regs[a.0 as usize] & regs[b.0 as usize],
                Or(d, a, b) => regs[d.0 as usize] = regs[a.0 as usize] | regs[b.0 as usize],
                Addi(d, s, imm) => regs[d.0 as usize] = regs[s.0 as usize].wrapping_add(imm as u64),
                Ltu(d, a, b) => {
                    regs[d.0 as usize] = u64::from(regs[a.0 as usize] < regs[b.0 as usize])
                }
                Eq(d, a, b) => {
                    regs[d.0 as usize] = u64::from(regs[a.0 as usize] == regs[b.0 as usize])
                }
                Load(d, s, off) => {
                    used += 1;
                    let addr = regs[s.0 as usize].wrapping_add(off as u64);
                    match memory.read_u64(addr) {
                        Ok(v) => regs[d.0 as usize] = v,
                        Err(Access::Fault(p)) => break Exit::PageFault(p),
                        Err(_) => break Exit::Fault(VmError::BadAddress(addr)),
                    }
                }
                Store(d, s, off) => {
                    used += 1;
                    let addr = regs[d.0 as usize].wrapping_add(off as u64);
                    match memory.write_u64(addr, regs[s.0 as usize]) {
                        Access::Ok => {}
                        Access::Fault(p) => break Exit::PageFault(p),
                        Access::OutOfRange(_) => break Exit::Fault(VmError::BadAddress(addr)),
                    }
                }
                Jmp(t) | Jnz(_, t) | Jz(_, t) => {
                    let taken = match inst {
                        Jnz(c, _) => regs[c.0 as usize] != 0,
                        Jz(c, _) => regs[c.0 as usize] == 0,
                        _ => true,
                    };
                    if taken {
                        if t as usize > insts.len() {
                            break Exit::Fault(VmError::BadPc(t));
                        }
                        pc = t;
                        continue;
                    }
                }
                Compute(n) => used += n as u64,
                Trap(sys) => {
                    pc += 1;
                    if sys != Sys::SigReturn {
                        break Exit::Trap(sys);
                    }
                    // `SigReturn` is handled entirely in the machine:
                    // control transfers back without kernel help.
                    match sig_stack.pop() {
                        Some(ret) => pc = ret,
                        None => break Exit::Fault(VmError::StraySigReturn),
                    }
                    continue;
                }
                Halt => {
                    pc += 1;
                    *halted = true;
                    break Exit::Halted;
                }
            }
            pc += 1;
        };
        *saved_pc = pc;
        *fuel_used += used;
        (exit, used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::regs::*;
    use crate::mem::{MAX_PAGE, PAGE_SIZE};

    fn run_to_halt(m: &mut Machine) -> u64 {
        loop {
            match m.run(1_000_000) {
                (Exit::Halted, _) => return m.reg(R0),
                (Exit::FuelOut, _) => continue,
                other => panic!("unexpected exit: {other:?}"),
            }
        }
    }

    #[test]
    fn arithmetic_and_branches() {
        // Sum 1..=10 into R0.
        let mut b = ProgramBuilder::new("sum");
        b.li(R1, 10);
        b.li(R0, 0);
        let top = b.here();
        b.add(R0, R0, R1);
        b.addi(R1, R1, -1);
        b.jnz(R1, top);
        b.halt();
        let mut m = Machine::new(b.build());
        assert_eq!(run_to_halt(&mut m), 55);
    }

    #[test]
    fn fuel_out_resumes_exactly() {
        let mut b = ProgramBuilder::new("spin");
        b.li(R1, 1000);
        let top = b.here();
        b.addi(R1, R1, -1);
        b.jnz(R1, top);
        b.li(R0, 99);
        b.halt();
        let p = b.build();

        // Run with tiny quanta and with one huge quantum; results must match.
        let mut small = Machine::new(p.clone());
        let mut total_small = 0;
        let status = loop {
            let (exit, used) = small.run(7);
            total_small += used;
            match exit {
                Exit::Halted => break small.reg(R0),
                Exit::FuelOut => continue,
                other => panic!("{other:?}"),
            }
        };
        let mut big = Machine::new(p);
        let (exit, total_big) = big.run(u64::MAX);
        assert_eq!(exit, Exit::Halted);
        assert_eq!(status, 99);
        assert_eq!(big.reg(R0), 99);
        assert_eq!(total_small, total_big, "fuel accounting must not depend on quantum size");
    }

    #[test]
    fn trap_advances_pc_past_trap() {
        let mut b = ProgramBuilder::new("t");
        b.trap(Sys::GetPid);
        b.li(R1, 5);
        b.halt();
        let mut m = Machine::new(b.build());
        let (exit, _) = m.run(100);
        assert_eq!(exit, Exit::Trap(Sys::GetPid));
        m.set_reg(R0, 42); // Kernel writes the result.
        let (exit, _) = m.run(100);
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(R0), 42);
        assert_eq!(m.reg(R1), 5);
    }

    #[test]
    fn page_fault_reexecutes_faulting_instruction() {
        let mut b = ProgramBuilder::new("pf");
        b.li(R1, 0);
        b.load(R0, R1, 0);
        b.halt();
        let mut m = Machine::new(b.build());
        // Make page 0 valid but non-resident.
        m.memory_mut().write_u64(0, 1234);
        let (data, _) = m.memory_mut().evict(PageNo(0)).unwrap();
        let (exit, _) = m.run(100);
        assert_eq!(exit, Exit::PageFault(PageNo(0)));
        m.memory_mut().install(PageNo(0), data);
        let (exit, _) = m.run(100);
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(R0), 1234);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // A program whose output depends on memory contents built up over
        // time: write i*i to slot i, then sum the squares.
        let mut b = ProgramBuilder::new("sq");
        b.li(R1, 0); // i
        b.li(R2, 20); // n
        let top = b.here();
        b.mul(R3, R1, R1);
        b.li(R4, 8);
        b.mul(R4, R1, R4);
        b.store_at(R3, R4, 0);
        b.addi(R1, R1, 1);
        b.ltu(R5, R1, R2);
        b.jnz(R5, top);
        // Sum phase.
        b.li(R0, 0);
        b.li(R1, 0);
        let top2 = b.here();
        b.li(R4, 8);
        b.mul(R4, R1, R4);
        b.load(R3, R4, 0);
        b.add(R0, R0, R3);
        b.addi(R1, R1, 1);
        b.ltu(R5, R1, R2);
        b.jnz(R5, top2);
        b.halt();
        let p = b.build();

        // Reference run.
        let mut reference = Machine::new(p.clone());
        let want = run_to_halt(&mut reference);

        // Run partway, snapshot, capture pages (as the page server would),
        // then restore and fault pages back in.
        let mut primary = Machine::new(p.clone());
        let (exit, _) = primary.run(37);
        assert_eq!(exit, Exit::FuelOut);
        let snap = primary.snapshot();
        let mut account = std::collections::BTreeMap::new();
        for page in primary.memory().valid_pages().clone() {
            account.insert(page, Box::new(*primary.memory().page(page).unwrap()));
        }
        let mut backup = Machine::restore(p, &snap);
        let got = loop {
            match backup.run(1_000_000) {
                (Exit::Halted, _) => break backup.reg(R0),
                (Exit::FuelOut, _) => continue,
                (Exit::PageFault(page), _) => {
                    backup.memory_mut().install(page, account[&page].clone());
                }
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(got, want, "backup must recompute the identical result");
    }

    #[test]
    fn signal_handler_enter_and_return() {
        let mut b = ProgramBuilder::new("sig");
        // Main: loop forever incrementing R1.
        let main = b.here();
        b.addi(R1, R1, 1);
        b.jmp(main);
        // Handler: set R2 and return.
        let handler = b.pos();
        b.li(R2, 7);
        b.trap(Sys::SigReturn);
        let mut m = Machine::new(b.build());
        m.run(50);
        let before = m.reg(R1);
        assert!(m.enter_signal_handler(handler));
        m.run(10);
        assert_eq!(m.reg(R2), 7);
        assert!(m.reg(R1) > before, "main loop resumed after sigreturn");
        assert!(m.snapshot().sig_stack.is_empty());
    }

    #[test]
    fn stray_sigreturn_faults() {
        let mut b = ProgramBuilder::new("stray");
        b.trap(Sys::SigReturn);
        let mut m = Machine::new(b.build());
        let (exit, _) = m.run(10);
        assert_eq!(exit, Exit::Fault(VmError::StraySigReturn));
    }

    #[test]
    fn signal_nesting_limit() {
        let mut b = ProgramBuilder::new("deep");
        b.halt();
        let mut m = Machine::new(b.build());
        for _ in 0..MAX_SIG_DEPTH {
            assert!(m.enter_signal_handler(0));
        }
        assert!(!m.enter_signal_handler(0));
    }

    #[test]
    fn bad_jump_faults() {
        let p = Program::new("bad", vec![Inst::Jmp(1000)]);
        let mut m = Machine::new(p);
        let (exit, _) = m.run(10);
        assert_eq!(exit, Exit::Fault(VmError::BadPc(1000)));
    }

    #[test]
    fn falling_off_the_end_halts() {
        let p = Program::new("end", vec![Inst::Li(R0, 3)]);
        let mut m = Machine::new(p);
        let (exit, _) = m.run(10);
        assert_eq!(exit, Exit::Halted);
        assert_eq!(m.reg(R0), 3);
        // Running a halted machine is a no-op.
        assert_eq!(m.run(10), (Exit::Halted, 0));
    }

    #[test]
    fn compute_burns_fuel() {
        let mut b = ProgramBuilder::new("c");
        b.compute(500);
        b.halt();
        let mut m = Machine::new(b.build());
        let (exit, used) = m.run(10);
        assert_eq!(exit, Exit::FuelOut);
        assert!(used >= 10, "compute overshoot is billed");
        let (exit, _) = m.run(1000);
        assert_eq!(exit, Exit::Halted);
    }

    /// Makes page `p` valid but not resident, so the first touch faults.
    fn paged_out(m: &mut Machine, p: u32) {
        m.memory_mut().write_u64(p as u64 * PAGE_SIZE as u64, 1);
        m.memory_mut().evict(PageNo(p));
    }

    /// The `run` contract, one row per exit kind: each row runs a program
    /// with the given quanta in turn and pins `(exit, used, pc(),
    /// fuel_used())` after every run. A page fault is serviced with a
    /// zeroed page before the next run.
    #[test]
    fn run_contract_table() {
        use Inst::*;
        // (fuel, exit, used, pc, fuel_used) per run.
        type Row = (u64, Exit, u64, u32, u64);
        type Case = (&'static str, Vec<Inst>, fn(&mut Machine), Vec<Row>);
        let bad_addr = MAX_PAGE as u64 * PAGE_SIZE as u64;
        let cases: Vec<Case> = vec![
            (
                "fuel out between instructions",
                vec![Li(R0, 1), Li(R0, 2), Li(R0, 3), Halt],
                |_| {},
                vec![(2, Exit::FuelOut, 2, 2, 2), (10, Exit::Halted, 2, 4, 4)],
            ),
            (
                "compute overshoots the quantum",
                vec![Compute(500), Halt],
                |_| {},
                vec![(10, Exit::FuelOut, 501, 1, 501), (10, Exit::Halted, 1, 2, 502)],
            ),
            (
                "page fault on load charges and re-executes",
                vec![Li(R1, 0), Load(R0, R1, 0), Halt],
                |m| paged_out(m, 0),
                vec![(100, Exit::PageFault(PageNo(0)), 3, 1, 3), (100, Exit::Halted, 3, 3, 6)],
            ),
            (
                "page fault on store charges and re-executes",
                vec![Li(R1, 2048), Li(R2, 7), Store(R1, R2, 0), Halt],
                |m| paged_out(m, 2),
                vec![(100, Exit::PageFault(PageNo(2)), 4, 2, 4), (100, Exit::Halted, 3, 4, 7)],
            ),
            (
                "bad address on load",
                vec![Li(R1, u64::MAX - 2), Load(R0, R1, 0)],
                |_| {},
                vec![(100, Exit::Fault(VmError::BadAddress(u64::MAX - 2)), 3, 1, 3)],
            ),
            (
                "bad address on store",
                vec![Li(R1, bad_addr), Store(R1, R0, 8)],
                |_| {},
                vec![(100, Exit::Fault(VmError::BadAddress(bad_addr + 8)), 3, 1, 3)],
            ),
            (
                "jmp past len",
                vec![Jmp(2)],
                |_| {},
                vec![(100, Exit::Fault(VmError::BadPc(2)), 1, 0, 1)],
            ),
            (
                "jnz past len",
                vec![Li(R1, 1), Jnz(R1, 3)],
                |_| {},
                vec![(100, Exit::Fault(VmError::BadPc(3)), 2, 1, 2)],
            ),
            (
                "jz past len",
                vec![Jz(R1, 2)],
                |_| {},
                vec![(100, Exit::Fault(VmError::BadPc(2)), 1, 0, 1)],
            ),
            (
                "jump to exactly len halts on the next fetch",
                vec![Jmp(1)],
                |_| {},
                vec![(100, Exit::Halted, 1, 1, 1), (100, Exit::Halted, 0, 1, 1)],
            ),
            (
                "trap moves past the trap",
                vec![Trap(Sys::GetPid), Halt],
                |_| {},
                vec![(100, Exit::Trap(Sys::GetPid), 1, 1, 1), (100, Exit::Halted, 1, 2, 2)],
            ),
            (
                "stray sigreturn moves past it before the fault",
                vec![Trap(Sys::SigReturn)],
                |_| {},
                vec![(100, Exit::Fault(VmError::StraySigReturn), 1, 1, 1)],
            ),
            (
                "sigreturn resumes the saved pc",
                vec![Li(R1, 1), Halt, Li(R2, 7), Trap(Sys::SigReturn)],
                |m| assert!(m.enter_signal_handler(2)),
                vec![
                    (2, Exit::FuelOut, 2, 0, 2),
                    (100, Exit::Halted, 2, 2, 4),
                    (100, Exit::Halted, 0, 2, 4),
                ],
            ),
            (
                "halt",
                vec![Halt, Li(R0, 1)],
                |_| {},
                vec![(100, Exit::Halted, 1, 1, 1), (100, Exit::Halted, 0, 1, 1)],
            ),
            (
                "falling off the end",
                vec![Li(R0, 3)],
                |_| {},
                vec![(100, Exit::Halted, 1, 1, 1), (100, Exit::Halted, 0, 1, 1)],
            ),
        ];
        for (name, insts, prep, rows) in cases {
            let mut m = Machine::new(Program::new(name, insts));
            prep(&mut m);
            for (i, &(fuel, exit, used, pc, fuel_used)) in rows.iter().enumerate() {
                let got = m.run(fuel);
                assert_eq!(
                    (got.0, got.1, m.pc(), m.fuel_used()),
                    (exit, used, pc, fuel_used),
                    "{name}: run {i}"
                );
                if let Exit::PageFault(p) = got.0 {
                    m.memory_mut().install(p, Box::new([0u8; PAGE_SIZE]));
                }
            }
        }
    }

    #[test]
    fn store_dirty_pages_visible_for_sync() {
        let mut b = ProgramBuilder::new("d");
        b.li(R1, (3 * PAGE_SIZE) as u64);
        b.li(R2, 77);
        b.store_at(R2, R1, 0);
        b.halt();
        let mut m = Machine::new(b.build());
        m.run(100);
        assert_eq!(m.memory().valid_pages().len(), 1);
        assert_eq!(m.memory_mut().dirty_pages(), vec![PageNo(3)]);
    }
}
