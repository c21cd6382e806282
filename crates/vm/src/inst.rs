//! Instruction set of the guest machine.
//!
//! A deliberately small RISC-flavoured ISA: sixteen 64-bit registers,
//! absolute branch targets (resolved by [`crate::ProgramBuilder`]), and a
//! `Sys` trap family mirroring the system calls of §7.5 of the paper
//! (`open`, `read`, `write`, `fork`, `bunch`, `which`, `alarm`, `time`,
//! `getpid`, signal management).
//!
//! System-call argument convention: arguments in `R1..=R3` (plus memory
//! where noted), result in `R0`. The kernel reads and writes guest
//! registers through [`crate::Machine`] accessors when servicing a trap.

use std::fmt;
use std::sync::Arc;

/// A register index (`0..16`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Reg(pub u8);

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 16;

/// Conventional names for the registers used by the syscall ABI.
pub mod regs {
    use super::Reg;

    /// Return value register.
    pub const R0: Reg = Reg(0);
    /// First syscall argument.
    pub const R1: Reg = Reg(1);
    /// Second syscall argument.
    pub const R2: Reg = Reg(2);
    /// Third syscall argument.
    pub const R3: Reg = Reg(3);
    /// General-purpose register.
    pub const R4: Reg = Reg(4);
    /// General-purpose register.
    pub const R5: Reg = Reg(5);
    /// General-purpose register.
    pub const R6: Reg = Reg(6);
    /// General-purpose register.
    pub const R7: Reg = Reg(7);
    /// General-purpose register.
    pub const R8: Reg = Reg(8);
    /// General-purpose register.
    pub const R9: Reg = Reg(9);
    /// General-purpose register.
    pub const R10: Reg = Reg(10);
    /// General-purpose register.
    pub const R11: Reg = Reg(11);
    /// General-purpose register.
    pub const R12: Reg = Reg(12);
    /// General-purpose register.
    pub const R13: Reg = Reg(13);
    /// General-purpose register (used as scratch by the builder helpers).
    pub const R14: Reg = Reg(14);
    /// General-purpose register (loop counter in generated programs).
    pub const R15: Reg = Reg(15);
}

/// System calls the guest can request.
///
/// The trap itself carries no arguments; the kernel fetches them from the
/// guest registers per the ABI documented on each variant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sys {
    /// Open a channel. `R1` = name pointer, `R2` = name length.
    /// Returns the file descriptor in `R0`. Blocks until the open reply
    /// arrives from the file server (§7.4.1).
    Open,
    /// Close a channel. `R1` = fd.
    Close,
    /// Write a message on a channel. `R1` = fd, `R2` = buffer pointer,
    /// `R3` = length. Returns length in `R0`. Whether the call blocks for
    /// a server answer depends on the channel's peer type (§7.5.1).
    Write,
    /// Read the next message from a channel. `R1` = fd, `R2` = buffer
    /// pointer, `R3` = capacity. Returns the message length in `R0`.
    /// Always synchronous: blocks until a message is available (§7.5.1).
    Read,
    /// Add a channel to a bunch group. `R1` = group id, `R2` = fd.
    Bunch,
    /// Await the first message on any channel of a group. `R1` = group id.
    /// Returns the ready fd in `R0` (§7.5.1).
    Which,
    /// Fork a child continuing at the same program point.
    /// Returns the child's pid in the parent's `R0` and zero in the
    /// child's `R0`, UNIX-style (§7.7).
    Fork,
    /// Terminate the process. `R1` = exit status.
    Exit,
    /// Return the globally unique process id in `R0` (§7.5.1).
    GetPid,
    /// Return the current time in `R0`, obtained by message from the
    /// process server, never from the local kernel clock (§7.5.1).
    Time,
    /// Request an alarm signal after `R1` ticks of real time (§7.5.2).
    Alarm,
    /// Install a signal handler. `R1` = signal number, `R2` = handler
    /// address (instruction index), or zero to ignore the signal.
    SigHandler,
    /// Return from a signal handler to the interrupted instruction.
    SigReturn,
    /// Send signal `R2` to process `R1` via its signal channel.
    Kill,
    /// Reposition a file channel's cursor. `R1` = fd, `R2` = absolute
    /// byte position. Blocks for the file server's acknowledgement.
    Seek,
    /// Voluntarily end the current scheduling quantum.
    Yield,
    /// Remove a file. `R1` = name pointer, `R2` = name length. Blocks
    /// for the file server's acknowledgement; `R0` = 0 on success.
    Unlink,
    /// Request a nondeterministic value in `R0` (models asynchronous-IO
    /// results and other nondeterministic events; §10). The kernel
    /// records the value and piggybacks it on the next outgoing message
    /// so a backup can replay it; a crash before any message escapes is
    /// free to re-decide.
    Rand,
}

/// One guest instruction.
///
/// Costs: every instruction consumes one fuel unit except `Load`/`Store`
/// (two) and `Compute(n)` (`n`); traps end the quantum and are billed by
/// the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inst {
    /// `dst <- imm`.
    Li(Reg, u64),
    /// `dst <- src`.
    Mov(Reg, Reg),
    /// `dst <- a + b` (wrapping).
    Add(Reg, Reg, Reg),
    /// `dst <- a - b` (wrapping).
    Sub(Reg, Reg, Reg),
    /// `dst <- a * b` (wrapping).
    Mul(Reg, Reg, Reg),
    /// `dst <- a ^ b`.
    Xor(Reg, Reg, Reg),
    /// `dst <- a & b`.
    And(Reg, Reg, Reg),
    /// `dst <- a | b`.
    Or(Reg, Reg, Reg),
    /// `dst <- src + imm` (wrapping; imm is sign-extended).
    Addi(Reg, Reg, i64),
    /// `dst <- if a < b { 1 } else { 0 }` (unsigned).
    Ltu(Reg, Reg, Reg),
    /// `dst <- if a == b { 1 } else { 0 }`.
    Eq(Reg, Reg, Reg),
    /// `dst <- mem[src + off]`, 8 bytes little-endian.
    Load(Reg, Reg, u32),
    /// `mem[dst + off] <- src`, 8 bytes little-endian.
    Store(Reg, Reg, u32),
    /// Unconditional jump to instruction index.
    Jmp(u32),
    /// Jump if register is nonzero.
    Jnz(Reg, u32),
    /// Jump if register is zero.
    Jz(Reg, u32),
    /// Burn `n` fuel units of pure computation.
    Compute(u32),
    /// Trap to the kernel.
    Trap(Sys),
    /// Stop executing; equivalent to `Trap(Sys::Exit)` with status `R1`.
    Halt,
}

/// An immutable program: the process's text segment.
///
/// Programs are shared (`Arc`) between a primary, its backup's snapshot,
/// and any forked children — mirroring the read-only text pages the paper
/// fetches from a file server rather than the page server (§7.6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    insts: Arc<Vec<Inst>>,
    name: String,
}

impl Program {
    /// Wraps a finished instruction vector.
    pub fn new(name: impl Into<String>, insts: Vec<Inst>) -> Program {
        Program { insts: Arc::new(insts), name: name.into() }
    }

    /// The program's name, for traces.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program text, indexed by pc.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} insts)", self.name, self.insts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_in_and_out_of_bounds() {
        let p = Program::new("t", vec![Inst::Halt]);
        assert_eq!(p.insts().first(), Some(&Inst::Halt));
        assert_eq!(p.insts().get(1), None);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn programs_share_text() {
        let p = Program::new("t", vec![Inst::Halt; 1000]);
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.insts, &q.insts));
    }

    #[test]
    fn display_mentions_name() {
        let p = Program::new("worker", vec![]);
        assert!(p.to_string().contains("worker"));
    }
}
