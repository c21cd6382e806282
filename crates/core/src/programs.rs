//! A library of guest workload programs.
//!
//! These are the "user programs" of the reproduction: deterministic
//! guest-VM programs exercising the system the way the paper's on-line
//! transaction processing environment would (§3). Every program's exit
//! status is a checksum over everything it observed, so the determinism
//! oracle catches any divergence between a fault-free run and a run that
//! crashed and recovered.
//!
//! Guest ABI reminder: syscall arguments in `R1..=R3`, result in `R0`
//! (see [`auros_vm::Sys`]).
//!
//! # Examples
//!
//! ```
//! use auros::{programs, SystemBuilder, VTime};
//!
//! let mut b = SystemBuilder::new(2);
//! let producer = b.spawn(0, programs::producer("q", 10));
//! let consumer = b.spawn(1, programs::consumer("q", 10));
//! let mut sys = b.build();
//! assert!(sys.run(VTime(50_000_000)));
//! assert_eq!(sys.exit_of(producer), sys.exit_of(consumer));
//! ```

use auros_vm::inst::regs::*;
use auros_vm::{Program, ProgramBuilder, Sys};

/// Address of the name scratch area.
const NAME_AT: u64 = 256;
/// Address of the message buffer.
const BUF: u64 = 1024;
/// Address of the bulk data buffer.
const DATA: u64 = 4096;
/// Base address of in-memory tables (page-aligned, one page per slot).
const TABLE: u64 = 65536;
/// Guest page size (reexported for address arithmetic).
const PAGE: u64 = auros_vm::PAGE_SIZE as u64;

/// Emits `open(name)`; fd lands in `R4`. Clobbers `R1..R3`.
fn emit_open(b: &mut ProgramBuilder, name: &str) {
    b.blit(NAME_AT, name.as_bytes(), R1, R2);
    b.li(R1, NAME_AT);
    b.li(R2, name.len() as u64);
    b.trap(Sys::Open);
    b.mov(R4, R0);
}

/// Pure computation touching `pages` distinct pages per iteration.
///
/// Exits with a checksum over the evolving table, so replay divergence
/// is observable.
pub fn compute_loop(iters: u64, pages: u64) -> Program {
    let mut b = ProgramBuilder::new("compute_loop");
    b.li(R10, 0); // checksum
    b.li(R5, iters); // remaining iterations
    b.li(R12, 0); // iteration index
    let outer = b.here();
    b.li(R6, 0); // page index
    let inner = b.here();
    // addr = TABLE + page * PAGE
    b.li(R7, PAGE);
    b.mul(R7, R6, R7);
    b.li(R8, TABLE);
    b.add(R7, R7, R8);
    // table[page] = table[page] * 3 + iteration
    b.load(R9, R7, 0);
    b.li(R8, 3);
    b.mul(R9, R9, R8);
    b.add(R9, R9, R12);
    b.store_at(R9, R7, 0);
    b.add(R10, R10, R9);
    b.compute(20);
    b.addi(R6, R6, 1);
    b.li(R8, pages);
    b.ltu(R9, R6, R8);
    b.jnz(R9, inner);
    b.addi(R12, R12, 1);
    b.addi(R5, R5, -1);
    b.jnz(R5, outer);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// One side of a ping-pong conversation over a rendezvous channel.
///
/// The initiator sends a token, the responder transforms and returns it;
/// both exit with a checksum over every token they saw (§5.1's canonical
/// two-process workload).
pub fn pingpong(name: &str, rounds: u64, initiator: bool) -> Program {
    let mut b = ProgramBuilder::new(if initiator { "ping" } else { "pong" });
    emit_open(&mut b, name);
    b.li(R10, 0); // checksum
    b.li(R5, rounds);
    b.li(R6, 1); // token
    let top = b.here();
    if initiator {
        // Send token, receive transformed token.
        b.li(R7, BUF);
        b.store_at(R6, R7, 0);
        b.mov(R1, R4);
        b.li(R2, BUF);
        b.li(R3, 8);
        b.trap(Sys::Write);
        b.mov(R1, R4);
        b.li(R2, BUF + 8);
        b.li(R3, 8);
        b.trap(Sys::Read);
        b.li(R7, BUF + 8);
        b.load(R6, R7, 0);
        b.add(R10, R10, R6);
        b.addi(R6, R6, 1);
    } else {
        // Receive token, transform (t*2+1), send back.
        b.mov(R1, R4);
        b.li(R2, BUF);
        b.li(R3, 8);
        b.trap(Sys::Read);
        b.li(R7, BUF);
        b.load(R6, R7, 0);
        b.add(R10, R10, R6);
        b.add(R6, R6, R6);
        b.addi(R6, R6, 1);
        b.li(R7, BUF + 8);
        b.store_at(R6, R7, 0);
        b.mov(R1, R4);
        b.li(R2, BUF + 8);
        b.li(R3, 8);
        b.trap(Sys::Write);
    }
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Streams `count` values into a rendezvous channel.
pub fn producer(name: &str, count: u64) -> Program {
    let mut b = ProgramBuilder::new("producer");
    emit_open(&mut b, name);
    b.li(R5, count);
    b.li(R6, 0); // index
    b.li(R10, 0); // checksum
    let top = b.here();
    // value = index * 2654435761 + 17
    b.li(R7, 2_654_435_761);
    b.mul(R7, R6, R7);
    b.addi(R7, R7, 17);
    b.add(R10, R10, R7);
    b.li(R8, BUF);
    b.store_at(R7, R8, 0);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.addi(R6, R6, 1);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Consumes `count` values from a rendezvous channel; exits with their
/// sum.
pub fn consumer(name: &str, count: u64) -> Program {
    let mut b = ProgramBuilder::new("consumer");
    emit_open(&mut b, name);
    b.li(R5, count);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0);
    b.add(R10, R10, R6);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Streams `count` messages of `size` bytes each into a rendezvous
/// channel (bulk-transfer shape: one large buffer per send).
///
/// The first word of each message carries a derived value; the rest of
/// the buffer is whatever the touched pages hold. Exits with a checksum
/// over the sent values so replay divergence is observable.
pub fn bulk_producer(name: &str, count: u64, size: u64) -> Program {
    let mut b = ProgramBuilder::new("bulk_producer");
    emit_open(&mut b, name);
    // Touch every page of the transfer buffer so sends read resident
    // memory rather than faulting mid-syscall.
    b.li(R6, 0);
    let touch = b.here();
    b.li(R7, DATA);
    b.add(R7, R7, R6);
    b.store_at(R6, R7, 0);
    b.li(R8, PAGE);
    b.add(R6, R6, R8);
    b.li(R8, size);
    b.ltu(R9, R6, R8);
    b.jnz(R9, touch);
    b.li(R5, count);
    b.li(R6, 0); // index
    b.li(R10, 0); // checksum
    let top = b.here();
    // value = index * 2654435761 + 99
    b.li(R7, 2_654_435_761);
    b.mul(R7, R6, R7);
    b.addi(R7, R7, 99);
    b.add(R10, R10, R7);
    b.li(R8, DATA);
    b.store_at(R7, R8, 0);
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.li(R3, size);
    b.trap(Sys::Write);
    b.addi(R6, R6, 1);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Consumes `count` messages of up to `size` bytes from a rendezvous
/// channel; exits with the sum of each message's first word.
pub fn bulk_consumer(name: &str, count: u64, size: u64) -> Program {
    let mut b = ProgramBuilder::new("bulk_consumer");
    emit_open(&mut b, name);
    b.li(R5, count);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.li(R3, size);
    b.trap(Sys::Read);
    b.li(R7, DATA);
    b.load(R6, R7, 0);
    b.add(R10, R10, R6);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// A pipeline stage: reads values from `input`, transforms them
/// (`v * 3 + 7`), and writes them to `output`.
pub fn pipeline_stage(input: &str, output: &str, count: u64) -> Program {
    let mut b = ProgramBuilder::new("stage");
    emit_open(&mut b, input);
    b.mov(R11, R4); // input fd
    emit_open(&mut b, output);
    b.mov(R12, R4); // output fd
    b.li(R5, count);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R11);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0);
    b.add(R10, R10, R6);
    b.li(R8, 3);
    b.mul(R6, R6, R8);
    b.addi(R6, R6, 7);
    b.li(R7, BUF + 8);
    b.store_at(R6, R7, 0);
    b.mov(R1, R12);
    b.li(R2, BUF + 8);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// The bank: serves `n_req` requests of the form `[account, amount]`,
/// updating one page-sized account slot each, and replies with the new
/// balance. Exits with a checksum over every balance it produced.
///
/// This is the paper's on-line transaction processing shape (§3): state
/// in the data space, one message in, one message out per transaction.
pub fn bank_server(name: &str, n_req: u64) -> Program {
    let mut b = ProgramBuilder::new("bank_server");
    emit_open(&mut b, name);
    b.li(R5, n_req);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 16);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0); // account
    b.load(R8, R7, 8); // amount
                       // slot = TABLE + account * PAGE
    b.li(R9, PAGE);
    b.mul(R9, R6, R9);
    b.li(R11, TABLE);
    b.add(R9, R9, R11);
    b.load(R11, R9, 0);
    b.add(R11, R11, R8); // balance += amount
    b.store_at(R11, R9, 0);
    b.add(R10, R10, R11);
    // Reply with the balance.
    b.li(R7, BUF + 16);
    b.store_at(R11, R7, 0);
    b.mov(R1, R4);
    b.li(R2, BUF + 16);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.compute(30);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// A bank client issuing `n_tx` deterministic pseudo-random transactions
/// over `accounts` accounts; exits with a checksum over the balances it
/// was quoted.
pub fn bank_client(name: &str, n_tx: u64, accounts: u64, seed: u64) -> Program {
    let mut b = ProgramBuilder::new("bank_client");
    emit_open(&mut b, name);
    b.li(R5, n_tx);
    b.li(R6, seed | 1); // LCG state
    b.li(R10, 0);
    let top = b.here();
    // LCG step.
    b.li(R7, 6_364_136_223_846_793_005);
    b.mul(R6, R6, R7);
    b.li(R7, 1_442_695_040_888_963_407);
    b.add(R6, R6, R7);
    // account = state & (accounts-1); amount = state & 0xff.
    b.li(R7, accounts - 1);
    b.and(R8, R6, R7);
    b.li(R7, 0xff);
    b.and(R9, R6, R7);
    b.li(R7, BUF);
    b.store_at(R8, R7, 0);
    b.store_at(R9, R7, 8);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 16);
    b.trap(Sys::Write);
    b.mov(R1, R4);
    b.li(R2, BUF + 16);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF + 16);
    b.load(R8, R7, 0);
    b.add(R10, R10, R8);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Writes `chunks` deterministic chunks of `chunk_size` bytes (a
/// multiple of 8) to a file; exits with the acknowledged byte total.
pub fn file_writer(path: &str, chunks: u64, chunk_size: u64) -> Program {
    assert_eq!(chunk_size % 8, 0, "chunk_size must be a multiple of 8");
    let mut b = ProgramBuilder::new("file_writer");
    emit_open(&mut b, path);
    b.li(R5, chunks);
    b.li(R12, 0); // chunk index
    b.li(R10, 0); // acked bytes
    let chunk_top = b.here();
    // Fill DATA..DATA+chunk_size with f(chunk, offset).
    b.li(R6, 0);
    let fill = b.here();
    b.li(R7, 1_315_423_911);
    b.mul(R7, R12, R7);
    b.add(R7, R7, R6);
    b.li(R8, DATA);
    b.add(R8, R8, R6);
    b.store_at(R7, R8, 0);
    b.addi(R6, R6, 8);
    b.li(R8, chunk_size);
    b.ltu(R9, R6, R8);
    b.jnz(R9, fill);
    // Write the chunk.
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.li(R3, chunk_size);
    b.trap(Sys::Write);
    b.add(R10, R10, R0);
    b.addi(R12, R12, 1);
    b.addi(R5, R5, -1);
    b.jnz(R5, chunk_top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// An interactive session: echoes `chunks` input chunks back to the
/// terminal, then exits with the byte count echoed.
pub fn tty_session(tty: &str, chunks: u64) -> Program {
    let mut b = ProgramBuilder::new("tty_session");
    emit_open(&mut b, tty);
    b.li(R5, chunks);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.li(R3, 128);
    b.trap(Sys::Read);
    b.add(R10, R10, R0);
    b.mov(R3, R0);
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.trap(Sys::Write);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Installs a SIGINT handler that counts interrupts, computes until
/// `sigs` interrupts have arrived, then exits with the count.
pub fn interrupt_counter(sigs: u64) -> Program {
    let mut b = ProgramBuilder::new("interrupt_counter");
    // Forward reference to the handler address: emit a jump over it.
    let start = b.new_label();
    b.jmp(start);
    let handler_pc = b.pos();
    b.addi(R11, R11, 1);
    b.trap(Sys::SigReturn);
    b.bind(start);
    b.li(R1, auros_bus::Sig::INT.0 as u64);
    b.li(R2, handler_pc as u64);
    b.trap(Sys::SigHandler);
    let spin = b.here();
    b.compute(100);
    b.li(R7, sigs);
    b.ltu(R8, R11, R7);
    b.jnz(R8, spin);
    b.mov(R1, R11);
    b.trap(Sys::Exit);
    b.build()
}

/// Requests an alarm after `delay` ticks, spins until it fires, then
/// exits with the handler's count (1).
pub fn alarm_waiter(delay: u64) -> Program {
    let mut b = ProgramBuilder::new("alarm_waiter");
    let start = b.new_label();
    b.jmp(start);
    let handler_pc = b.pos();
    b.addi(R11, R11, 1);
    b.trap(Sys::SigReturn);
    b.bind(start);
    b.li(R1, auros_bus::Sig::ALRM.0 as u64);
    b.li(R2, handler_pc as u64);
    b.trap(Sys::SigHandler);
    b.li(R1, delay);
    b.trap(Sys::Alarm);
    let spin = b.here();
    b.compute(50);
    b.jz(R11, spin);
    b.mov(R1, R11);
    b.trap(Sys::Exit);
    b.build()
}

/// Forks `children` children; each child computes and exits with
/// `1000 + index`; the parent exits with `children`.
pub fn forker(children: u64, child_work: u32) -> Program {
    let mut b = ProgramBuilder::new("forker");
    b.li(R5, children);
    b.li(R6, 0); // child index
    let top = b.here();
    let parent_cont = b.new_label();
    b.trap(Sys::Fork);
    b.jnz(R0, parent_cont);
    // Child: compute, then exit 1000 + index.
    b.compute(child_work);
    b.li(R7, 1000);
    b.add(R1, R7, R6);
    b.trap(Sys::Exit);
    b.bind(parent_cont);
    b.addi(R6, R6, 1);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.li(R1, children);
    b.trap(Sys::Exit);
    b.build()
}

/// Asks the process server for the time twice with computation between;
/// exits with `t2 - t1` (nonzero, and identical under replay).
pub fn clock_sampler(work: u32) -> Program {
    let mut b = ProgramBuilder::new("clock_sampler");
    b.trap(Sys::Time);
    b.mov(R5, R0);
    b.compute(work);
    b.trap(Sys::Time);
    b.sub(R1, R0, R5);
    b.trap(Sys::Exit);
    b.build()
}

/// Waits on two channels with bunch/which, consuming `count` messages
/// total; exits with a checksum folding in which channel each message
/// arrived on (§7.5.1's `bunch`/`which`).
pub fn selector(name_a: &str, name_b: &str, count: u64) -> Program {
    let mut b = ProgramBuilder::new("selector");
    emit_open(&mut b, name_a);
    b.mov(R11, R4);
    emit_open(&mut b, name_b);
    b.mov(R12, R4);
    // Group 1 = {fd_a, fd_b}.
    b.li(R1, 1);
    b.mov(R2, R11);
    b.trap(Sys::Bunch);
    b.li(R1, 1);
    b.mov(R2, R12);
    b.trap(Sys::Bunch);
    b.li(R5, count);
    b.li(R10, 0);
    let top = b.here();
    b.li(R1, 1);
    b.trap(Sys::Which);
    b.mov(R6, R0); // ready fd
    b.mov(R1, R6);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R8, R7, 0);
    // checksum = checksum * 2 + value + ready_fd (order-sensitive).
    b.add(R10, R10, R10);
    b.add(R10, R10, R8);
    b.add(R10, R10, R6);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Streams `count` *nondeterministic* values (from `Sys::Rand`, the §10
/// extension) into a channel; exits with their sum. Paired with
/// [`consumer`], whose sum must always match — even across crashes —
/// because piggybacked results replay and un-escaped ones are free to
/// be re-decided.
pub fn rand_streamer(name: &str, count: u64) -> Program {
    let mut b = ProgramBuilder::new("rand_streamer");
    emit_open(&mut b, name);
    b.li(R5, count);
    b.li(R10, 0);
    let top = b.here();
    b.trap(Sys::Rand);
    b.mov(R6, R0);
    b.add(R10, R10, R6);
    b.li(R7, BUF);
    b.store_at(R6, R7, 0);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.compute(40);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Forks one child that immediately blocks opening `name` (a rendezvous
/// with no second opener yet), reads one value, and exits with it; the
/// parent then computes enough to trip the fuel sync trigger — forcing
/// the blocked child's first sync to record a pending `open` — and exits
/// with 7. Pair with [`delayed_producer`] and a crash in between to
/// exercise §7.8's blocked-process synchronization.
pub fn fork_blocked_opener(name: &str, parent_work: u32) -> Program {
    let mut b = ProgramBuilder::new("fork_blocked_opener");
    let parent = b.new_label();
    b.trap(Sys::Fork);
    b.jnz(R0, parent);
    // Child: block in open, then read one value and exit with it.
    emit_open(&mut b, name);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R1, R7, 0);
    b.trap(Sys::Exit);
    // Parent: compute long enough to trigger the sync, then exit.
    b.bind(parent);
    b.compute(parent_work);
    b.li(R1, 7);
    b.trap(Sys::Exit);
    b.build()
}

/// Computes for `delay` fuel, then opens `name` and sends one value
/// (`9991`), then exits. The late half of the rendezvous above.
pub fn delayed_producer(name: &str, delay: u32) -> Program {
    let mut b = ProgramBuilder::new("delayed_producer");
    b.compute(delay);
    emit_open(&mut b, name);
    b.li(R6, 9991);
    b.li(R7, BUF);
    b.store_at(R6, R7, 0);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.li(R1, 1);
    b.trap(Sys::Exit);
    b.build()
}

/// A multi-client bank: opens one rendezvous channel per client
/// (`name0`, `name1`, …), groups them with `bunch`, and serves `n_req`
/// requests with `which` — whichever client has a transaction waiting is
/// served next, in cluster-arrival order (§7.5.1). Exits with a checksum
/// over every balance produced.
pub fn bank_server_multi(name: &str, clients: u64, n_req: u64) -> Program {
    let mut b = ProgramBuilder::new("bank_server_multi");
    for k in 0..clients {
        let chan = format!("{name}{k}");
        emit_open(&mut b, &chan);
        // Group 1 collects every client channel.
        b.li(R1, 1);
        b.mov(R2, R4);
        b.trap(Sys::Bunch);
    }
    b.li(R5, n_req);
    b.li(R10, 0);
    let top = b.here();
    b.li(R1, 1);
    b.trap(Sys::Which);
    b.mov(R4, R0); // The ready client's fd.
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 16);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0); // account
    b.load(R8, R7, 8); // amount
    b.li(R9, PAGE);
    b.mul(R9, R6, R9);
    b.li(R11, TABLE);
    b.add(R9, R9, R11);
    b.load(R11, R9, 0);
    b.add(R11, R11, R8);
    b.store_at(R11, R9, 0);
    b.add(R10, R10, R11);
    b.li(R7, BUF + 16);
    b.store_at(R11, R7, 0);
    b.mov(R1, R4);
    b.li(R2, BUF + 16);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.compute(30);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Like [`bank_client`], but over the account range
/// `[offset, offset + accounts)`. Give concurrent clients disjoint
/// ranges and the bank's checksum becomes independent of the *order* in
/// which `which` happens to serve them — recovery preserves per-channel
/// exactness, not cross-channel arrival timing, so order-sensitive
/// shared state is the workload's own race, crash or no crash.
pub fn bank_client_at(name: &str, n_tx: u64, accounts: u64, offset: u64, seed: u64) -> Program {
    let mut b = ProgramBuilder::new("bank_client_at");
    emit_open(&mut b, name);
    b.li(R5, n_tx);
    b.li(R6, seed | 1);
    b.li(R10, 0);
    let top = b.here();
    b.li(R7, 6_364_136_223_846_793_005);
    b.mul(R6, R6, R7);
    b.li(R7, 1_442_695_040_888_963_407);
    b.add(R6, R6, R7);
    b.li(R7, accounts - 1);
    b.and(R8, R6, R7);
    b.li(R7, offset);
    b.add(R8, R8, R7);
    b.li(R7, 0xff);
    b.and(R9, R6, R7);
    b.li(R7, BUF);
    b.store_at(R8, R7, 0);
    b.store_at(R9, R7, 8);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 16);
    b.trap(Sys::Write);
    b.mov(R1, R4);
    b.li(R2, BUF + 16);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF + 16);
    b.load(R8, R7, 0);
    b.add(R10, R10, R8);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// Writes a file, removes it with `unlink`, then exits with the unlink
/// status (0 = removed).
pub fn file_unlinker(path: &str) -> Program {
    let mut b = ProgramBuilder::new("file_unlinker");
    emit_open(&mut b, path);
    b.li(R6, 4242);
    b.li(R7, BUF);
    b.store_at(R6, R7, 0);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Write);
    // Unlink the path (name still sits at NAME_AT from the open).
    b.li(R1, NAME_AT);
    b.li(R2, path.len() as u64);
    b.trap(Sys::Unlink);
    b.mov(R1, R0);
    b.trap(Sys::Exit);
    b.build()
}

/// Opens the directory `prefix` (a name ending in `/`) and exits with a
/// checksum over the listing bytes.
pub fn dir_lister(prefix: &str) -> Program {
    let mut b = ProgramBuilder::new("dir_lister");
    emit_open(&mut b, prefix);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.li(R3, 256);
    b.trap(Sys::Read);
    let done = b.new_label();
    b.jz(R0, done);
    b.mov(R5, R0);
    b.li(R6, 0);
    let sum = b.here();
    b.li(R7, DATA);
    b.add(R7, R7, R6);
    b.load(R8, R7, 0);
    b.add(R10, R10, R8);
    b.addi(R6, R6, 8);
    b.ltu(R9, R6, R5);
    b.jnz(R9, sum);
    b.jmp(top);
    b.bind(done);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// A two-generation family: forks one child, which forks one grandchild;
/// each generation computes and exits with a distinct status (parent 1,
/// child 2, grandchild 3). Exercises §7.7's family rules transitively —
/// all backups in one cluster, birth notices at each level.
pub fn nested_forker(work: u32) -> Program {
    let mut b = ProgramBuilder::new("nested_forker");
    let parent = b.new_label();
    b.trap(Sys::Fork);
    b.jnz(R0, parent);
    // Child: fork the grandchild.
    let child = b.new_label();
    b.trap(Sys::Fork);
    b.jnz(R0, child);
    // Grandchild.
    b.compute(work);
    b.li(R1, 3);
    b.trap(Sys::Exit);
    b.bind(child);
    b.compute(work);
    b.li(R1, 2);
    b.trap(Sys::Exit);
    b.bind(parent);
    b.compute(work);
    b.li(R1, 1);
    b.trap(Sys::Exit);
    b.build()
}

// ---------------------------------------------------------------------
// Application library (robust apps driven by the traffic DSL)
// ---------------------------------------------------------------------

/// Low 48 bits: application checksums reserve the high 16 bits of the
/// exit status for invariant-violation counters.
const CHECK_MASK: u64 = (1 << 48) - 1;

/// Emits `exit((R10 & CHECK_MASK) + (R13 << 48))` — the application
/// convention: checksum low, violation counter high.
fn emit_checked_exit(b: &mut ProgramBuilder) {
    b.li(R7, CHECK_MASK);
    b.and(R10, R10, R7);
    b.li(R7, 1 << 48);
    b.mul(R13, R13, R7);
    b.add(R1, R10, R13);
    b.trap(Sys::Exit);
}

/// The replicated KV store's server: one rendezvous channel per client
/// (`name0`, `name1`, …) grouped with `bunch`, serving `n_req` requests
/// of the form `[op, key, value]` (op 0 = get, 1 = put) with replies
/// `[version, value]`. Per-key state lives one page per key; a put
/// bumps the version. After the last request the server dumps
/// `[key, version, value]` per key to `state_path` — the durable state
/// the no-acked-write-lost oracle audits.
///
/// The exit checksum sums `version + value` over every reply, which is
/// permutation-invariant across clients **provided clients use disjoint
/// key ranges** (see [`bank_client_at`]'s note on `which` order).
pub fn kv_server_multi(
    name: &str,
    clients: u64,
    n_req: u64,
    keys: u64,
    state_path: &str,
) -> Program {
    let mut b = ProgramBuilder::new("kv_server_multi");
    for k in 0..clients {
        let chan = format!("{name}{k}");
        emit_open(&mut b, &chan);
        b.li(R1, 1);
        b.mov(R2, R4);
        b.trap(Sys::Bunch);
    }
    b.li(R5, n_req);
    b.li(R10, 0);
    let top = b.here();
    b.li(R1, 1);
    b.trap(Sys::Which);
    b.mov(R4, R0);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 24);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0); // op
    b.load(R8, R7, 8); // key
    b.load(R9, R7, 16); // value
                        // slot = TABLE + key * PAGE
    b.li(R11, PAGE);
    b.mul(R11, R8, R11);
    b.li(R12, TABLE);
    b.add(R11, R11, R12);
    let reply = b.new_label();
    b.jz(R6, reply);
    // Put: version += 1, store the value.
    b.load(R12, R11, 0);
    b.addi(R12, R12, 1);
    b.store_at(R12, R11, 0);
    b.store_at(R9, R11, 8);
    b.bind(reply);
    b.load(R12, R11, 0); // version
    b.load(R9, R11, 8); // current value
    b.add(R10, R10, R12);
    b.add(R10, R10, R9);
    b.li(R7, BUF + 32);
    b.store_at(R12, R7, 0);
    b.store_at(R9, R7, 8);
    b.mov(R1, R4);
    b.li(R2, BUF + 32);
    b.li(R3, 16);
    b.trap(Sys::Write);
    b.compute(25);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    // Dump the durable state: [key, version, value] per key.
    emit_open(&mut b, state_path);
    b.li(R6, 0); // key
    let dump = b.here();
    b.li(R11, PAGE);
    b.mul(R11, R6, R11);
    b.li(R12, TABLE);
    b.add(R11, R11, R12);
    b.load(R8, R11, 0);
    b.load(R9, R11, 8);
    b.li(R7, DATA);
    b.store_at(R6, R7, 0);
    b.store_at(R8, R7, 8);
    b.store_at(R9, R7, 16);
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.li(R3, 24);
    b.trap(Sys::Write);
    b.addi(R6, R6, 1);
    b.li(R8, keys);
    b.ltu(R9, R6, R8);
    b.jnz(R9, dump);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// A KV client driving one traffic-DSL session: each op is
/// `(gap, key, value, read)`, unrolled into straight-line code. Puts
/// are acknowledged by the server's `[version, value]` reply and then
/// appended to the `acks_path` ledger (`[key, value]` per acked put) —
/// the client-side half of the no-acked-write-lost oracle. Gets check
/// read-your-writes against the client's own last put per key; each
/// violation bumps the counter in the exit status's high 16 bits.
///
/// Keys must be globally disjoint across concurrent clients (the DSL
/// assigns disjoint ranges) so server-side state is independent of
/// cross-client arrival order.
pub fn kv_client(
    chan: &str,
    acks_path: &str,
    start_gap: u64,
    ops: &[(u64, u64, u64, bool)],
) -> Program {
    let mut b = ProgramBuilder::new("kv_client");
    emit_open(&mut b, chan);
    b.mov(R11, R4); // server channel fd
    emit_open(&mut b, acks_path);
    b.mov(R12, R4); // acks ledger fd
    b.li(R10, 0); // checksum
    b.li(R13, 0); // read-your-writes violations
    b.compute(start_gap.min(u32::MAX as u64) as u32);
    for &(gap, key, value, read) in ops {
        b.compute(gap.min(u32::MAX as u64) as u32);
        b.li(R7, BUF);
        b.li(R6, if read { 0 } else { 1 });
        b.store_at(R6, R7, 0);
        b.li(R6, key);
        b.store_at(R6, R7, 8);
        b.li(R6, if read { 0 } else { value });
        b.store_at(R6, R7, 16);
        b.mov(R1, R11);
        b.li(R2, BUF);
        b.li(R3, 24);
        b.trap(Sys::Write);
        b.mov(R1, R11);
        b.li(R2, BUF + 32);
        b.li(R3, 16);
        b.trap(Sys::Read);
        b.li(R7, BUF + 32);
        b.load(R8, R7, 0); // version
        b.load(R9, R7, 8); // value echoed back
        b.add(R10, R10, R8);
        b.add(R10, R10, R9);
        // slot = TABLE + key * PAGE holds (last put value, written flag).
        b.li(R6, PAGE);
        b.li(R7, key);
        b.mul(R6, R7, R6);
        b.li(R7, TABLE);
        b.add(R6, R6, R7);
        if read {
            // Read-your-writes: if this client ever put this key, the
            // reply value must echo its own last put.
            let unwritten = b.new_label();
            b.load(R8, R6, 8);
            b.jz(R8, unwritten);
            b.load(R8, R6, 0);
            b.sub(R8, R9, R8);
            b.jz(R8, unwritten);
            b.addi(R13, R13, 1);
            b.bind(unwritten);
        } else {
            // Record the acked put locally, then in the durable ledger.
            b.li(R7, value);
            b.store_at(R7, R6, 0);
            b.li(R8, 1);
            b.store_at(R8, R6, 8);
            b.li(R6, BUF + 48);
            b.li(R8, key);
            b.store_at(R8, R6, 0);
            b.store_at(R7, R6, 8);
            b.mov(R1, R12);
            b.li(R2, BUF + 48);
            b.li(R3, 16);
            b.trap(Sys::Write);
        }
    }
    emit_checked_exit(&mut b);
    b.build()
}

/// Base of the chat hub's subscriber-fd table (clear of the per-topic
/// sequence pages below it).
const SUBFD: u64 = TABLE + 48 * PAGE;

/// The chat hub: publishers send `[topic, value]` on per-publisher
/// channels (`name_p{i}`, grouped with `bunch`); the hub assigns each
/// topic a dense per-topic sequence number and fans `[topic, seq,
/// value]` out to every subscriber channel (`name_s{j}`). After
/// `total` messages it dumps `[topic, count]` per topic to
/// `state_path`. The exit checksum sums `topic + seq + value`, which is
/// permutation-invariant across publisher arrival orders: per-topic
/// sequence numbers are dense, so their sum depends only on each
/// topic's message *count*, fixed by the traces.
pub fn chat_hub(
    name: &str,
    pubs: u64,
    subs: u64,
    total: u64,
    topics: u64,
    state_path: &str,
) -> Program {
    let mut b = ProgramBuilder::new("chat_hub");
    for j in 0..subs {
        let chan = format!("{name}_s{j}");
        emit_open(&mut b, &chan);
        b.li(R7, SUBFD + j * 8);
        b.store_at(R4, R7, 0);
    }
    for i in 0..pubs {
        let chan = format!("{name}_p{i}");
        emit_open(&mut b, &chan);
        b.li(R1, 1);
        b.mov(R2, R4);
        b.trap(Sys::Bunch);
    }
    b.li(R5, total);
    b.li(R10, 0);
    let top = b.here();
    b.li(R1, 1);
    b.trap(Sys::Which);
    b.mov(R4, R0);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 16);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0); // topic
    b.load(R8, R7, 8); // value
                       // seq = ++seqs[topic]
    b.li(R9, PAGE);
    b.mul(R9, R6, R9);
    b.li(R11, TABLE);
    b.add(R9, R9, R11);
    b.load(R11, R9, 0);
    b.addi(R11, R11, 1);
    b.store_at(R11, R9, 0);
    b.add(R10, R10, R6);
    b.add(R10, R10, R11);
    b.add(R10, R10, R8);
    b.li(R7, BUF + 24);
    b.store_at(R6, R7, 0);
    b.store_at(R11, R7, 8);
    b.store_at(R8, R7, 16);
    // Fan out to every subscriber.
    b.li(R12, 0);
    let fan = b.here();
    b.li(R7, SUBFD);
    b.li(R8, 8);
    b.mul(R8, R12, R8);
    b.add(R7, R7, R8);
    b.load(R1, R7, 0);
    b.li(R2, BUF + 24);
    b.li(R3, 24);
    b.trap(Sys::Write);
    b.addi(R12, R12, 1);
    b.li(R8, subs);
    b.ltu(R9, R12, R8);
    b.jnz(R9, fan);
    b.compute(20);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    // Dump per-topic fan-out counts.
    emit_open(&mut b, state_path);
    b.li(R6, 0);
    let dump = b.here();
    b.li(R9, PAGE);
    b.mul(R9, R6, R9);
    b.li(R11, TABLE);
    b.add(R9, R9, R11);
    b.load(R8, R9, 0);
    b.li(R7, DATA);
    b.store_at(R6, R7, 0);
    b.store_at(R8, R7, 8);
    b.mov(R1, R4);
    b.li(R2, DATA);
    b.li(R3, 16);
    b.trap(Sys::Write);
    b.addi(R6, R6, 1);
    b.li(R8, topics);
    b.ltu(R9, R6, R8);
    b.jnz(R9, dump);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// A chat publisher driving one traffic-DSL session: each message is
/// `(gap, topic, value)`, unrolled; sends are one-way. Exits with the
/// sum of `topic + value` over everything it published.
pub fn chat_publisher(chan: &str, start_gap: u64, msgs: &[(u64, u64, u64)]) -> Program {
    let mut b = ProgramBuilder::new("chat_publisher");
    emit_open(&mut b, chan);
    b.li(R10, 0);
    b.compute(start_gap.min(u32::MAX as u64) as u32);
    for &(gap, topic, value) in msgs {
        b.compute(gap.min(u32::MAX as u64) as u32);
        b.li(R7, BUF);
        b.li(R6, topic);
        b.store_at(R6, R7, 0);
        b.add(R10, R10, R6);
        b.li(R6, value);
        b.store_at(R6, R7, 8);
        b.add(R10, R10, R6);
        b.mov(R1, R4);
        b.li(R2, BUF);
        b.li(R3, 16);
        b.trap(Sys::Write);
    }
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// A chat subscriber: reads exactly `total` fan-out messages
/// `[topic, seq, value]` and checks per-topic sequence contiguity —
/// every topic's sequence numbers must arrive as 1, 2, 3, … with no
/// gap, duplicate, or reordering; each violation bumps the high-bits
/// counter. Combined with the fixed read count this pins staleness to
/// zero at exit: the subscriber saw every message, exactly once, in
/// per-topic order. The checksum sums `topic + seq + value`
/// (pairing-invariant, so cross-topic interleaving cannot perturb it).
pub fn chat_subscriber(chan: &str, total: u64) -> Program {
    let mut b = ProgramBuilder::new("chat_subscriber");
    emit_open(&mut b, chan);
    b.li(R5, total);
    b.li(R10, 0);
    b.li(R13, 0); // contiguity violations
    let top = b.here();
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 24);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0); // topic
    b.load(R8, R7, 8); // seq
    b.load(R9, R7, 16); // value
    b.add(R10, R10, R6);
    b.add(R10, R10, R8);
    b.add(R10, R10, R9);
    // last[topic] must be seq - 1.
    b.li(R11, PAGE);
    b.mul(R11, R6, R11);
    b.li(R12, TABLE);
    b.add(R11, R11, R12);
    b.load(R12, R11, 0);
    b.addi(R12, R12, 1);
    b.sub(R12, R8, R12);
    let ok = b.new_label();
    b.jz(R12, ok);
    b.addi(R13, R13, 1);
    b.bind(ok);
    b.store_at(R8, R11, 0);
    b.addi(R5, R5, -1);
    b.jnz(R5, top);
    emit_checked_exit(&mut b);
    b.build()
}

/// The ETL source: streams one traffic-DSL session's records
/// (`(gap, value)` pairs, unrolled) into the pipeline, then the
/// `u64::MAX` end-of-stream sentinel. Exits with the masked sum of the
/// records sent.
pub fn etl_source(chan: &str, start_gap: u64, records: &[(u64, u64)]) -> Program {
    let mut b = ProgramBuilder::new("etl_source");
    emit_open(&mut b, chan);
    b.li(R10, 0);
    b.compute(start_gap.min(u32::MAX as u64) as u32);
    for &(gap, value) in records {
        b.compute(gap.min(u32::MAX as u64) as u32);
        b.li(R6, value);
        b.li(R7, BUF);
        b.store_at(R6, R7, 0);
        b.add(R10, R10, R6);
        b.mov(R1, R4);
        b.li(R2, BUF);
        b.li(R3, 8);
        b.trap(Sys::Write);
    }
    b.li(R6, u64::MAX);
    b.li(R7, BUF);
    b.store_at(R6, R7, 0);
    b.mov(R1, R4);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.li(R7, CHECK_MASK);
    b.and(R10, R10, R7);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// The ETL worker: consumes records from `input`, transforms each
/// (`v * 3 + 7`), and forwards to `output` until the sentinel, which it
/// forwards before exiting with the masked sum of transformed records.
///
/// Consumption is the poison oracle's peek-before-commit point: a
/// poisoned record kills the worker *at the read*, before the
/// transformed write escapes, so a quarantined-and-diverted record
/// vanishes from the committed output wholly — never half-transformed —
/// and the dead-letter ledger entry accounts for it exactly.
pub fn etl_worker(input: &str, output: &str) -> Program {
    let mut b = ProgramBuilder::new("etl_worker");
    emit_open(&mut b, input);
    b.mov(R11, R4);
    emit_open(&mut b, output);
    b.mov(R12, R4);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R11);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0);
    let done = b.new_label();
    b.li(R8, u64::MAX);
    b.sub(R8, R6, R8);
    b.jz(R8, done);
    b.li(R8, 3);
    b.mul(R6, R6, R8);
    b.addi(R6, R6, 7);
    b.add(R10, R10, R6);
    b.li(R7, BUF + 8);
    b.store_at(R6, R7, 0);
    b.mov(R1, R12);
    b.li(R2, BUF + 8);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.compute(15);
    b.jmp(top);
    b.bind(done);
    // Forward the sentinel so the logger terminates too.
    b.mov(R1, R12);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.li(R7, CHECK_MASK);
    b.and(R10, R10, R7);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

/// The ETL logger: consumes transformed records from `input` and
/// commits each to the `path` ledger (8 bytes per record, in arrival
/// order) until the sentinel. Exits with the masked sum of committed
/// records — the committed-output side of the conservation oracle.
pub fn etl_logger(input: &str, path: &str) -> Program {
    let mut b = ProgramBuilder::new("etl_logger");
    emit_open(&mut b, input);
    b.mov(R11, R4);
    emit_open(&mut b, path);
    b.mov(R12, R4);
    b.li(R10, 0);
    let top = b.here();
    b.mov(R1, R11);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Read);
    b.li(R7, BUF);
    b.load(R6, R7, 0);
    let done = b.new_label();
    b.li(R8, u64::MAX);
    b.sub(R8, R6, R8);
    b.jz(R8, done);
    b.add(R10, R10, R6);
    b.mov(R1, R12);
    b.li(R2, BUF);
    b.li(R3, 8);
    b.trap(Sys::Write);
    b.jmp(top);
    b.bind(done);
    b.li(R7, CHECK_MASK);
    b.and(R10, R10, R7);
    b.mov(R1, R10);
    b.trap(Sys::Exit);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use auros_vm::{Exit, Machine};

    #[test]
    fn compute_loop_is_deterministic_and_pure() {
        let p = compute_loop(10, 3);
        let run = || {
            let mut m = Machine::new(p.clone());
            loop {
                match m.run(10_000) {
                    (Exit::Trap(Sys::Exit), _) => return m.reg(R1),
                    (Exit::FuelOut, _) => continue,
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        assert_eq!(run(), run());
        assert_ne!(run(), 0);
    }

    #[test]
    fn compute_loop_touches_the_requested_pages() {
        let p = compute_loop(2, 5);
        let mut m = Machine::new(p);
        loop {
            match m.run(10_000) {
                (Exit::Trap(Sys::Exit), _) => break,
                (Exit::FuelOut, _) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        // Five table pages were dirtied.
        assert!(m.memory().valid_pages().len() >= 5);
    }

    #[test]
    fn programs_stop_at_their_first_syscall() {
        // Each channel program must immediately trap Open.
        for p in [
            pingpong("x", 1, true),
            producer("x", 1),
            consumer("x", 1),
            bank_server("x", 1),
            bank_client("x", 1, 8, 42),
            file_writer("/f", 1, 64),
            tty_session("tty:0", 1),
            selector("a", "b", 2),
        ] {
            let mut m = Machine::new(p.clone());
            loop {
                match m.run(100_000) {
                    (Exit::Trap(Sys::Open), _) => break,
                    (Exit::FuelOut, _) => continue,
                    other => panic!("{}: unexpected {other:?}", p.name()),
                }
            }
        }
    }

    #[test]
    fn forker_traps_fork_then_children_take_zero_branch() {
        let p = forker(2, 10);
        let mut m = Machine::new(p);
        let (exit, _) = m.run(100_000);
        assert_eq!(exit, Exit::Trap(Sys::Fork));
        // Simulate the child: R0 = 0 takes the child path to Exit.
        let mut child = m.clone();
        child.set_reg(R0, 0);
        loop {
            match child.run(100_000) {
                (Exit::Trap(Sys::Exit), _) => {
                    assert_eq!(child.reg(R1), 1000);
                    break;
                }
                (Exit::FuelOut, _) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        // And the parent: R0 = child pid continues the loop.
        m.set_reg(R0, 999);
        let (exit, _) = m.run(100_000);
        assert_eq!(exit, Exit::Trap(Sys::Fork), "parent forks the second child");
    }

    #[test]
    fn interrupt_counter_counts_handler_entries() {
        let p = interrupt_counter(2);
        let mut m = Machine::new(p);
        // Find the handler pc the program installed.
        let (exit, _) = m.run(10_000);
        assert_eq!(exit, Exit::Trap(Sys::SigHandler));
        let handler = m.reg(R2) as u32;
        // Spin a while, then deliver two signals by hand.
        m.run(5_000);
        assert!(m.enter_signal_handler(handler));
        m.run(5_000);
        assert!(m.enter_signal_handler(handler));
        loop {
            match m.run(100_000) {
                (Exit::Trap(Sys::Exit), _) => {
                    assert_eq!(m.reg(R1), 2);
                    break;
                }
                (Exit::FuelOut, _) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
