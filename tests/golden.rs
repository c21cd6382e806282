//! Golden digests: canonical workloads pinned by fingerprint.
//!
//! The simulation is a pure function of its inputs, so these values are
//! stable across machines and runs. A change here means the system's
//! observable semantics changed — which must be deliberate. (Timing-only
//! changes — cost-model tweaks — legitimately move fingerprints of
//! workloads with cross-channel races; the pinned workloads below avoid
//! those, so only semantic changes or serialization-visible timing
//! changes touch them.)

use auros::sim::TraceLog;
use auros::{programs, SystemBuilder, VTime};

const DEADLINE: VTime = VTime(400_000_000);

fn fp(build: impl FnOnce(&mut SystemBuilder)) -> u64 {
    let mut b = SystemBuilder::new(3);
    build(&mut b);
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    sys.digest().fingerprint()
}

/// Recomputes and compares; on mismatch prints the new value so a
/// deliberate change can update the constant.
fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "golden digest changed for {name}: new value {got:#018x}");
}

#[test]
fn golden_pingpong() {
    let got = fp(|b| {
        b.spawn(0, programs::pingpong("g", 100, true));
        b.spawn(1, programs::pingpong("g", 100, false));
    });
    let crashed = fp(|b| {
        b.spawn(0, programs::pingpong("g", 100, true));
        b.spawn(1, programs::pingpong("g", 100, false));
        b.crash_at(VTime(8_000), 0);
    });
    assert_eq!(got, crashed, "crash transparency is part of the golden contract");
    check("pingpong", got, golden::PINGPONG);
}

#[test]
fn golden_bank() {
    let got = fp(|b| {
        b.spawn(0, programs::bank_server("g", 64));
        b.spawn(1, programs::bank_client("g", 64, 16, 9));
    });
    check("bank", got, golden::BANK);
}

#[test]
fn golden_files_and_terminal() {
    let got = fp(|b| {
        b.terminals(1);
        b.spawn(0, programs::file_writer("/g", 6, 256));
        b.spawn(1, programs::tty_session("tty:0", 1));
        b.type_at(VTime(40_000), 0, b"golden\n");
    });
    check("files+tty", got, golden::FILES_TTY);
}

/// More runnable processes than work processors: 32 compute loops and a
/// pingpong responder share cluster 0's two workers, so the scheduler
/// runs saturated for the whole run. Pins the run digest, every trace
/// category's fingerprint and the final tick, so a scheduler change that
/// moves any dispatch, quantum or message shows here.
#[test]
fn golden_saturated_cluster() {
    let mut b = SystemBuilder::new(3);
    for i in 0..32 {
        b.spawn(0, programs::compute_loop(150 + i, 2));
    }
    b.spawn(1, programs::pingpong("s", 20, true));
    b.spawn(0, programs::pingpong("s", 20, false));
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE));
    check("saturated", sys.digest().fingerprint(), golden::SATURATED);
    assert_eq!(
        sys.world.trace.fingerprints(),
        golden::SATURATED_TRACE,
        "trace fingerprints changed"
    );
    assert_eq!(sys.world.now(), golden::SATURATED_END, "final tick changed");
}

/// Every lifecycle path of recovery in one run: a crash of cluster 0
/// promotes a fullback behind its gate, places its new backup and sends
/// the rebuild sync (§7.10.2, §7.3); it also takes the backups of a
/// halfback and of the servers, which the restore of cluster 0
/// re-protects (§7.10.1). One process fails alone and is promoted
/// (§10), a residency limit makes compute processes block on pages
/// (§7.6), and a file writer keeps the file server cycling between idle
/// and runnable. Pins the digest, every trace category's fingerprint
/// and the final tick, so any change to the order of a recovery's
/// events shows here.
#[test]
fn golden_recovery() {
    use auros::sim::TraceKind;
    use auros::BackupMode;
    let mut b = SystemBuilder::new(5);
    b.config_mut().resident_page_limit = Some(4);
    b.spawn_with_mode(0, programs::pingpong("rf", 120, true), BackupMode::Fullback);
    b.spawn_with_mode(2, programs::pingpong("rf", 120, false), BackupMode::Fullback);
    b.spawn_with_mode(3, programs::pingpong("rh", 200, true), BackupMode::Halfback);
    b.spawn_with_mode(4, programs::pingpong("rh", 200, false), BackupMode::Halfback);
    let lone = b.spawn_with_mode(2, programs::compute_loop(80, 10), BackupMode::Halfback);
    b.spawn_with_mode(1, programs::file_writer("/r", 40, 128), BackupMode::Halfback);
    b.crash_at(VTime(8_000), 0);
    b.fail_process_at(VTime(15_000), lone);
    b.restore_at(VTime(30_000), 0);
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE));
    let count = |f: fn(&TraceKind) -> bool| sys.world.trace.count_where(f);
    assert!(count(|k| matches!(k, TraceKind::BackupPlaced { .. })) >= 1, "a fullback is placed");
    assert_eq!(count(|k| matches!(k, TraceKind::PartialFailure { .. })), 1);
    assert_eq!(count(|k| matches!(k, TraceKind::ClusterRestored)), 1);
    let rebuilds = count(|k| matches!(k, TraceKind::SyncApplied { is_new: true, .. }));
    assert!(rebuilds >= 4, "placement and restore create new backups: {rebuilds}");
    assert!(count(|k| matches!(k, TraceKind::PageInstalled { .. })) > 0, "pages fault back in");
    check("recovery", sys.digest().fingerprint(), golden::RECOVERY);
    assert_eq!(
        sys.world.trace.fingerprints(),
        golden::RECOVERY_TRACE,
        "trace fingerprints changed"
    );
    assert_eq!(sys.world.now(), golden::RECOVERY_END, "final tick changed");
}

/// Every wire fault the bus model injects, in one run: a flaky window on
/// bus A strikes enough consecutive windows to bench it, and probes heal
/// it after the window (§7.4.2's dual pair); armed drop, corrupt,
/// duplicate and delay one-shots hit single windows, one of them inside
/// the flaky window; and a later failure of the active bus moves the
/// in-flight frames to the standby (§7.1). Pins the digest, every trace
/// category's fingerprint, the final tick and the bus ledgers, so any
/// change to the order in which the bus grants, faults or fails over
/// shows here.
#[test]
fn golden_wire_faults() {
    use auros::bus::BusKind;
    use auros::sim::TraceKind;
    use auros::{BackupMode, Dur};
    let mut b = SystemBuilder::new(3);
    b.spawn_with_mode(0, programs::pingpong("w", 60, true), BackupMode::Fullback);
    b.spawn_with_mode(1, programs::pingpong("w", 60, false), BackupMode::Fullback);
    b.spawn_with_mode(2, programs::file_writer("/w", 12, 64), BackupMode::Fullback);
    b.flaky_bus(VTime(4_000), VTime(14_000), BusKind::A);
    b.drop_frame_at(VTime(5_000))
        .corrupt_frame_at(VTime(18_000))
        .duplicate_frame_at(VTime(21_000))
        .delay_frame_at(VTime(2_000), Dur(3_000));
    b.bus_fail_at(VTime(30_000));
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE));
    let count = |f: fn(&TraceKind) -> bool| sys.world.trace.count_where(f);
    assert!(count(|k| matches!(k, TraceKind::BusQuarantined { .. })) >= 1, "bus A is benched");
    assert!(count(|k| matches!(k, TraceKind::ProbeHealed { .. })) >= 1, "a probe heals it");
    assert!(count(|k| matches!(k, TraceKind::Retransmit { .. })) >= 1, "lost frames are resent");
    assert!(count(|k| matches!(k, TraceKind::FrameHeld { .. })) >= 1, "the late frame is passed");
    assert!(count(|k| matches!(k, TraceKind::BusFailover { .. })) >= 1, "the standby takes over");
    let m = sys.metrics();
    let ledgers: Vec<u64> = ["a", "b"]
        .iter()
        .flat_map(|bus| {
            ["frames", "bytes", "busy_ticks", "retries", "failed", "quarantined"]
                .map(|field| m.get(&format!("bus.{bus}.{field}")))
        })
        .collect();
    assert_eq!(ledgers, golden::WIRE_BUS, "bus ledgers changed");
    check("wire faults", sys.digest().fingerprint(), golden::WIRE);
    assert_eq!(sys.world.trace.fingerprints(), golden::WIRE_TRACE, "trace fingerprints changed");
    assert_eq!(sys.world.now(), golden::WIRE_END, "final tick changed");
}

/// The re-protection paths of crash handling, one run each: two crashes
/// of a fullback pair's hosts, where the first promotes the initiator
/// behind its gate, marks its peer's channel unusable, places a new
/// backup and releases the channel with the rebuild sync (§7.10.1,
/// §7.10.2); two partial failures of one fullback, which repair the
/// channels toward the failed process's backup (§10); and a promoted,
/// unprotected quarterback killed by a second crash of its new host,
/// whose peer's channel is orphaned (§7.3). Each pins the digest, every
/// trace category's fingerprint and the final tick, so any change to the
/// order in which crash handling repairs routing entries shows here.
#[test]
fn golden_reprotection() {
    use auros::sim::TraceKind;
    use auros::BackupMode;
    let traced = |b: SystemBuilder| {
        let mut sys = b.build();
        sys.world.trace = TraceLog::capture_all();
        sys
    };
    let pin = |name: &str, sys: &mut auros::System, want: &(u64, [u64; 9], VTime)| {
        check(name, sys.digest().fingerprint(), want.0);
        assert_eq!(sys.world.trace.fingerprints(), want.1, "{name}: trace fingerprints changed");
        assert_eq!(sys.world.now(), want.2, "{name}: final tick changed");
    };
    let count = |sys: &auros::System, f: fn(&TraceKind) -> bool| sys.world.trace.count_where(f);

    let mut b = SystemBuilder::new(4);
    b.spawn_with_mode(0, programs::pingpong("pp", 150, true), BackupMode::Fullback);
    b.spawn_with_mode(1, programs::pingpong("pp", 150, false), BackupMode::Fullback);
    b.crash_at(VTime(8_000), 0);
    b.crash_at(VTime(60_000), 1);
    let mut sys = traced(b);
    assert!(sys.run(DEADLINE));
    assert!(
        count(&sys, |k| matches!(k, TraceKind::BackupPlaced { .. })) >= 1,
        "a fullback is placed"
    );
    assert!(
        count(&sys, |k| matches!(k, TraceKind::SyncApplied { is_new: true, .. })) >= 1,
        "the rebuild sync creates the backup that releases the unusable channel"
    );
    pin("reprotect crash", &mut sys, &golden::REPROTECT_CRASH);

    let mut b = SystemBuilder::new(4);
    let v = b.spawn_with_mode(0, programs::pingpong("pff", 300, true), BackupMode::Fullback);
    b.spawn_with_mode(1, programs::pingpong("pff", 300, false), BackupMode::Fullback);
    b.fail_process_at(VTime(8_000), v);
    b.fail_process_at(VTime(40_000), v);
    let mut sys = traced(b);
    assert!(sys.run(DEADLINE));
    assert_eq!(count(&sys, |k| matches!(k, TraceKind::PartialFailure { .. })), 2);
    assert!(count(&sys, |k| matches!(k, TraceKind::BackupPlaced { .. })) >= 2, "placed twice");
    assert!(
        count(&sys, |k| matches!(k, TraceKind::SyncApplied { is_new: true, .. })) >= 2,
        "each rebuild sync releases the peer's unusable channel"
    );
    pin("reprotect partial", &mut sys, &golden::REPROTECT_PARTIAL);

    let mut b = SystemBuilder::new(3);
    b.spawn_with_mode(0, programs::pingpong("pp", 4000, true), BackupMode::Quarterback);
    b.spawn_with_mode(2, programs::pingpong("pp", 4000, false), BackupMode::Quarterback);
    b.crash_at(VTime(8_000), 0);
    b.crash_at(VTime(30_000), 1);
    let mut sys = traced(b);
    sys.run_until(VTime(60_000));
    assert!(sys.exit_of(0).is_none(), "the initiator died unprotected");
    // The responder's channel is orphaned: after the second crash is
    // handled it keeps running, and never consumes another message.
    let events = sys.world.trace.snapshot();
    let done = events
        .iter()
        .position(|e| matches!(e.kind, TraceKind::CrashHandlingDone { dead: 1 }))
        .expect("the second crash is handled");
    let responder = sys.pids[1].0;
    let after = &events[done..];
    assert!(after.iter().any(|e| e.kind == TraceKind::Dispatched { pid: responder }));
    assert!(!after
        .iter()
        .any(|e| matches!(e.kind, TraceKind::Consumed { pid, .. } if pid == responder)));
    pin("reprotect orphan", &mut sys, &golden::REPROTECT_ORPHAN);
}

/// Every system call through the full machine, with one crash: seek,
/// unlink, time, alarm, kill, which/bunch, rand, file and raw-disk reads
/// and writes, a directory listing and fork. Cluster 2 crashes at
/// 20,000 while its file writer is blocked in a write whose sync record
/// carries the pending call, so the promoted writer completes that call
/// from its saved queue, and while the forker's never-synced children
/// run, so the promoted forker replays both forks (§7.10.2). Pins the
/// digest, every trace category's fingerprint and the final tick, so any
/// change to the order in which a call sends, blocks, copies or
/// completes shows here.
#[test]
fn golden_syscalls() {
    use auros::sim::TraceKind;
    let fresh = || {
        let mut b = SystemBuilder::new(4);
        b.raw_disks(1);
        b.config_mut().sync_max_reads = 4;
        b
    };
    // Pids are derivation-stable: the victim's pid comes from a dry build.
    let victim = {
        let mut dry = fresh();
        let v = dry.spawn(1, usr1_counter(3));
        dry.build().pids[v]
    };
    let run = |crash: bool| {
        let mut b = fresh();
        let v = b.spawn(1, usr1_counter(3));
        b.spawn(3, killer(victim, 3, 3_000));
        let writer = b.spawn(2, programs::file_writer("/d/w", 40, 64));
        b.spawn(2, slow_forker(30_000));
        b.spawn(2, programs::clock_sampler(4_000));
        b.spawn(2, seeker("/sk"));
        b.spawn(3, seeker("raw:0"));
        b.spawn(1, programs::file_writer("raw:0", 4, 64));
        b.spawn(0, programs::file_unlinker("/d/gone"));
        b.spawn(3, programs::dir_lister("/d/"));
        b.spawn(1, programs::alarm_waiter(5_000));
        b.spawn(3, programs::selector("sa", "sb", 12));
        b.spawn(0, programs::producer("sa", 6));
        b.spawn(1, programs::producer("sb", 6));
        b.spawn(2, programs::rand_streamer("rs", 6));
        b.spawn(0, programs::consumer("rs", 6));
        if crash {
            b.crash_at(VTime(20_000), 2);
        }
        let mut sys = b.build();
        assert_eq!(sys.pids[v], victim, "pids are derivation-stable");
        sys.world.trace = TraceLog::capture_all();
        assert!(sys.run(DEADLINE));
        (sys, writer)
    };
    let clean = run(false).0.digest();
    let (mut sys, writer) = run(true);
    assert_eq!(sys.digest(), clean, "the crash is transparent");
    let count = |f: fn(&TraceKind) -> bool| sys.world.trace.count_where(f);
    assert_eq!(count(|k| matches!(k, TraceKind::SignalHandling { .. })), 4, "3 kills, 1 alarm");
    assert_eq!(count(|k| matches!(k, TraceKind::Forked { .. })), 2);
    assert_eq!(count(|k| matches!(k, TraceKind::ForkReplayed { .. })), 2);
    assert_eq!(count(|k| matches!(k, TraceKind::PromotingBackup { .. })), 2);
    // The promoted writer's first act is to consume the reply its
    // pending write waited for, before it is ever dispatched.
    let writer = sys.pids[writer].0;
    let events = sys.world.trace.snapshot();
    let promoted = events
        .iter()
        .position(|e| matches!(e.kind, TraceKind::PromotingBackup { pid, .. } if pid == writer))
        .expect("the writer is promoted");
    let first = events[promoted..].iter().find_map(|e| match e.kind {
        TraceKind::Consumed { pid, .. } | TraceKind::Dispatched { pid } if pid == writer => {
            Some(e.kind)
        }
        _ => None,
    });
    assert!(matches!(first, Some(TraceKind::Consumed { .. })), "pending call completed: {first:?}");
    check("syscalls", sys.digest().fingerprint(), golden::SYSCALLS.0);
    assert_eq!(sys.world.trace.fingerprints(), golden::SYSCALLS.1, "trace fingerprints changed");
    assert_eq!(sys.world.now(), golden::SYSCALLS.2, "final tick changed");
}

/// A file (or raw-disk) round trip: opens `path`, writes 16 bytes from
/// address 1024, seeks back to offset 8, reads 8 bytes into 2048 and
/// exits with the word read.
fn seeker(path: &str) -> auros::vm::Program {
    use auros::vm::inst::regs::*;
    use auros::vm::{ProgramBuilder, Sys};
    let mut p = ProgramBuilder::new("seeker");
    p.blit(256, path.as_bytes(), R1, R2);
    p.li(R1, 256);
    p.li(R2, path.len() as u64);
    p.trap(Sys::Open);
    p.mov(R4, R0);
    p.li(R6, 0x1111_2222_3333_4444);
    p.li(R7, 1024);
    p.store_at(R6, R7, 0);
    p.li(R6, 0x5555_6666_7777_8888);
    p.store_at(R6, R7, 8);
    p.mov(R1, R4);
    p.li(R2, 1024);
    p.li(R3, 16);
    p.trap(Sys::Write);
    p.mov(R1, R4);
    p.li(R2, 8);
    p.trap(Sys::Seek);
    p.mov(R1, R4);
    p.li(R2, 2048);
    p.li(R3, 8);
    p.trap(Sys::Read);
    p.li(R7, 2048);
    p.load(R1, R7, 0);
    p.trap(Sys::Exit);
    p.build()
}

/// Counts USR1 signals in a handler until `n` arrive, then exits with
/// the count.
fn usr1_counter(n: u64) -> auros::vm::Program {
    use auros::vm::inst::regs::*;
    use auros::vm::{ProgramBuilder, Sys};
    let mut p = ProgramBuilder::new("usr1_counter");
    let start = p.new_label();
    p.jmp(start);
    let handler = p.pos();
    p.addi(R11, R11, 1);
    p.trap(Sys::SigReturn);
    p.bind(start);
    p.li(R1, auros::bus::Sig::USR1.0 as u64);
    p.li(R2, handler as u64);
    p.trap(Sys::SigHandler);
    let spin = p.here();
    p.compute(100);
    p.li(R7, n);
    p.ltu(R8, R11, R7);
    p.jnz(R8, spin);
    p.mov(R1, R11);
    p.trap(Sys::Exit);
    p.build()
}

/// Sends USR1 to `victim` `n` times, `gap` fuel apart, then exits 0.
fn killer(victim: auros::bus::Pid, n: u64, gap: u32) -> auros::vm::Program {
    use auros::vm::inst::regs::*;
    use auros::vm::{ProgramBuilder, Sys};
    let mut k = ProgramBuilder::new("killer");
    for _ in 0..n {
        k.compute(gap);
        k.li(R1, victim.0);
        k.li(R2, auros::bus::Sig::USR1.0 as u64);
        k.trap(Sys::Kill);
    }
    k.li(R1, 0);
    k.trap(Sys::Exit);
    k.build()
}

/// Forks two children, each computing `work` in 500-fuel steps and
/// exiting with `1000 + index`; the parent then computes `work` the same
/// way and exits with 2.
fn slow_forker(work: u64) -> auros::vm::Program {
    use auros::vm::inst::regs::*;
    use auros::vm::{ProgramBuilder, Sys};
    let spin = |p: &mut ProgramBuilder| {
        p.li(R9, work / 500);
        let top = p.here();
        p.compute(500);
        p.addi(R9, R9, -1);
        p.jnz(R9, top);
    };
    let mut p = ProgramBuilder::new("slow_forker");
    p.li(R5, 2);
    p.li(R6, 0);
    let top = p.here();
    let parent = p.new_label();
    p.trap(Sys::Fork);
    p.jnz(R0, parent);
    spin(&mut p);
    p.li(R7, 1000);
    p.add(R1, R7, R6);
    p.trap(Sys::Exit);
    p.bind(parent);
    p.addi(R6, R6, 1);
    p.addi(R5, R5, -1);
    p.jnz(R5, top);
    spin(&mut p);
    p.li(R1, 2);
    p.trap(Sys::Exit);
    p.build()
}

/// The pinned values. Regenerate by running with `--nocapture` after a
/// deliberate semantic change and copying the printed values.
mod golden {
    pub const PINGPONG: u64 = 0x9e657baf4eb04ef8;
    pub const BANK: u64 = 0xfd23a4dfb9447524;
    pub const FILES_TTY: u64 = 0x4c87ecd8b8e5dc58;
    pub const SATURATED: u64 = 0xbff013311a0671c1;
    pub const SATURATED_TRACE: [u64; 9] = [
        0x2072a755590c4baa,
        0xf57fc7e4beee71a6,
        0x5c37a7bf97176f77,
        0xb3d2a156732cb261,
        0x4a420402c76f035a,
        0,
        0,
        0,
        0,
    ];
    pub const SATURATED_END: auros::VTime = auros::VTime(255_000);
    pub const RECOVERY: u64 = 0x322ec7a0014009f4;
    pub const RECOVERY_TRACE: [u64; 9] = [
        0xcda47a11b0b3981d,
        0x452f5e919f1b982f,
        0xb698486c57ed5fcd,
        0x20e670285945330a,
        0x5554878b379c3464,
        0x729ac829144c62c7,
        0,
        0x741e36727770ab7c,
        0,
    ];
    pub const RECOVERY_END: auros::VTime = auros::VTime(155_000);
    pub const WIRE: u64 = 0xda10aae96d61c29c;
    pub const WIRE_TRACE: [u64; 9] = [
        0xabf6bfed6632eca5,
        0x1257aaba1600be6f,
        0xb8299b423a9986ff,
        0xd527ec37d499414e,
        0x6af3d345a92ab347,
        0,
        0,
        0,
        0,
    ];
    pub const WIRE_END: auros::VTime = auros::VTime(60_094);
    /// `bus.{a,b}.{frames,bytes,busy_ticks,retries,failed,quarantined}`.
    pub const WIRE_BUS: [u64; 12] = [89, 6242, 2273, 3, 0, 0, 95, 10560, 2638, 2, 1, 0];
    /// `golden_reprotection`: (digest, trace fingerprints, final tick).
    pub const REPROTECT_CRASH: (u64, [u64; 9], auros::VTime) = (
        0x9ad2dc68c26cab11,
        [
            0xe714c94206f45e5e,
            0xf10563a9b8eb3ea2,
            0x7f591c031aedebe5,
            0x9ec6d69e5392cb15,
            0x8fc91de3525cfad3,
            0x68e4bc5be0bcd4c0,
            0,
            0xa22ca329d9fd3543,
            0,
        ],
        auros::VTime(75_000),
    );
    pub const REPROTECT_PARTIAL: (u64, [u64; 9], auros::VTime) = (
        0x7073cbc8e0a80454,
        [
            0xec2757daf69bbe49,
            0x0888272039b9ef7e,
            0xf0a8b08804275f39,
            0xea03af35bd82d945,
            0xfca9d92d3113190c,
            0xd9fc536181b91818,
            0,
            0x7aa638256dc48352,
            0,
        ],
        auros::VTime(90_000),
    );
    pub const REPROTECT_ORPHAN: (u64, [u64; 9], auros::VTime) = (
        0x31bb630143ae6b6c,
        [
            0xe99478ebdadef8bc,
            0x74f03304f7d7b5e3,
            0x88d13a7a829e5b4c,
            0,
            0x368052e07a82ae34,
            0x5f804c5c7d36e76b,
            0,
            0xd4355ac6a0cef2f7,
            0,
        ],
        auros::VTime(60_000),
    );
    /// `golden_syscalls`: (digest, trace fingerprints, final tick).
    pub const SYSCALLS: (u64, [u64; 9], auros::VTime) = (
        0x371e3e0c19464cef,
        [
            0xe80f1cb18bc47580,
            0x4efa8805d2465332,
            0x249163f024e46471,
            0xb525bfa2f693a3ca,
            0xbd24b95985810d3f,
            0xd0d2205da9ae320c,
            0,
            0x1f808fe7d30635c6,
            0x25f0cccb8b34554d,
        ],
        auros::VTime(115_000),
    );
}
