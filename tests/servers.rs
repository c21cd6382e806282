//! Server-process behaviour through the full system: page accounts,
//! shadow-block crash consistency, terminal commit semantics, process
//! server state.

use auros::fs::DiskPair;
use auros::sim::{TraceKind, TraceLog};
use auros::{programs, SystemBuilder, VTime};

const DEADLINE: VTime = VTime(400_000_000);

#[test]
fn page_accounts_track_sync_generations() {
    let mut b = SystemBuilder::new(2);
    // Lots of page traffic: 16 pages rewritten every iteration.
    b.config_mut().sync_max_fuel = 3_000;
    b.spawn(0, programs::compute_loop(60, 16));
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE));
    let pager = sys.pager_state().expect("pager alive");
    assert!(pager.pageouts > 0, "dirty pages were flushed at syncs");
    assert!(pager.account_syncs > 0, "account commits happened");
    // Typed cross-check: every sync the ledger counts was recorded as a
    // SyncStart event, and at least one flushed dirty pages.
    let starts = sys.world.trace.count_where(|k| matches!(*k, TraceKind::SyncStart { .. })) as u64;
    assert_eq!(starts, sys.world.stats.total_syncs(), "recorder and ledger disagree on syncs");
    assert!(
        sys.world
            .trace
            .count_where(|k| matches!(*k, TraceKind::SyncStart { flushed, .. } if flushed > 0))
            > 0,
        "some sync flushed dirty pages"
    );
}

#[test]
fn backup_account_equals_primary_after_final_sync() {
    let mut b = SystemBuilder::new(2);
    // Short-lived processes may never sync at all (§7.7's deferral);
    // force a tight cadence so flushes happen.
    b.config_mut().sync_max_fuel = 2_000;
    b.spawn(0, programs::compute_loop(40, 6));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    // After exit the account is dropped; inspect totals instead.
    let pager = sys.pager_state().expect("pager alive");
    assert!(pager.pageouts >= 6, "at least one flush of each page");
}

#[test]
fn shadow_blocks_preserve_old_state_until_sync() {
    let mut b = SystemBuilder::new(2);
    // Enough writes to cross the server's flush cadence (16 writes).
    let w = b.spawn(0, programs::file_writer("/shadow", 20, 256));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.exit_of(w), Some(5120));
    let (commits, _dirty) =
        sys.with_fs(|_, disk| (disk.commits, disk.dirty_blocks())).expect("fs alive");
    assert!(commits > 0, "cache flushes committed the disk");
}

#[test]
fn fileserver_crash_mid_stream_preserves_consistency() {
    // Deterministic replay after an fs crash must leave the same bytes.
    let run = |crash: bool| {
        let mut b = SystemBuilder::new(3);
        let _w = b.spawn(2, programs::file_writer("/c", 20, 128));
        if crash {
            b.crash_at(VTime(12_000), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.file_contents("/c").expect("file exists")
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn disk_revert_discards_uncommitted_writes_on_promotion() {
    let mut b = SystemBuilder::new(3);
    b.spawn(2, programs::file_writer("/r", 20, 128));
    b.crash_at(VTime(12_000), 0);
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE));
    let reverts = sys.with_fs(|_, disk| disk.reverts).expect("fs alive");
    assert_eq!(reverts, 1, "the promoted file server reverted the overlay");
    // The revert must come from the §7.10.1 path: the recorder saw the
    // fs cluster's crash detected and the fs backup promoted.
    let fs_pid = sys.fs_pid.0;
    assert!(
        sys.world.trace.count_where(|k| matches!(*k, TraceKind::CrashDetected { dead: 0 })) > 0,
        "crash of the fs cluster was detected"
    );
    assert!(
        sys.world
            .trace
            .count_where(|k| matches!(*k, TraceKind::PromotingBackup { pid, .. } if pid == fs_pid))
            > 0,
        "the file server's backup was promoted"
    );
}

#[test]
fn terminal_commits_follow_tty_syncs() {
    let mut b = SystemBuilder::new(2);
    b.terminals(1);
    let i = b.spawn(0, programs::tty_session("tty:0", 1));
    b.type_at(VTime(30_000), 0, b"only line\n");
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.exit_of(i), Some(10));
    assert_eq!(sys.terminal_output(0), b"only line\n");
}

#[test]
fn two_terminals_are_independent() {
    let mut b = SystemBuilder::new(3);
    b.terminals(2);
    let a = b.spawn(2, programs::tty_session("tty:0", 1));
    let c = b.spawn(2, programs::tty_session("tty:1", 1));
    b.type_at(VTime(30_000), 0, b"to-zero\n");
    b.type_at(VTime(40_000), 1, b"to-one\n");
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.exit_of(a), Some(8));
    assert_eq!(sys.exit_of(c), Some(7));
    assert_eq!(sys.terminal_output(0), b"to-zero\n");
    assert_eq!(sys.terminal_output(1), b"to-one\n");
}

#[test]
fn pager_copy_on_sync_shares_pages() {
    // Between syncs, rewritten pages double; after each sync the backup
    // account shares every page with the primary (§7.8).
    let mut b = SystemBuilder::new(2);
    b.config_mut().sync_max_fuel = 2_000;
    b.spawn(0, programs::compute_loop(100, 8));
    let mut sys = b.build();
    // Run partway and inspect the live account.
    sys.run_until(VTime(40_000));
    let pid = sys.pids[0];
    let pager = sys.pager_state().expect("pager alive");
    let primary = pager.primary_pages(pid);
    if !primary.is_empty() {
        // The backup account never holds pages the primary lacks.
        for page in pager.backup_pages(pid) {
            assert!(primary.contains(&page));
        }
    }
    assert!(sys.run(DEADLINE));
}

#[test]
fn raw_server_survives_its_cluster_crash() {
    let run = |crash: bool| {
        let mut b = SystemBuilder::new(3);
        b.raw_disks(1); // raw server in cluster 0, backup in 1
        let _w = b.spawn(2, programs::file_writer("raw:0", 12, 256));
        if crash {
            b.crash_at(VTime(12_000), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        sys.exit_of(0)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn mirrored_disk_survives_single_media_failure() {
    let mut b = SystemBuilder::new(2);
    let w = b.spawn(0, programs::file_writer("/m", 6, 256));
    let mut sys = b.build();
    // Fail one mirror before the workload runs.
    let disk_idx = sys.fs_device;
    sys.world.devices[disk_idx]
        .as_any_mut()
        .downcast_mut::<DiskPair>()
        .expect("disk pair")
        .fail_mirror(false);
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.exit_of(w), Some(6 * 256));
    let b_reads = sys.with_fs(|_, d| d.b.reads).expect("fs alive");
    assert!(b_reads > 0, "reads failed over to the healthy mirror");
}

#[test]
fn eviction_under_memory_pressure_demand_pages_back() {
    let mut b = SystemBuilder::new(2);
    // 12 table pages + scratch, but only 6 may stay resident.
    b.config_mut().resident_page_limit = Some(6);
    b.config_mut().sync_max_fuel = 4_000;
    let i = b.spawn(0, programs::compute_loop(40, 12));
    let mut sys = b.build();
    sys.world.trace = TraceLog::capture_all();
    assert!(sys.run(DEADLINE), "workload completes under paging pressure");
    let faults: u64 = sys.world.stats.clusters.iter().map(|c| c.page_faults).sum();
    assert!(faults > 0, "evicted pages were demand-faulted back");
    // Typed paging events: evictions were recorded, and every fault the
    // ledger counts reinstalled a page.
    let evicted = sys.world.trace.count_where(|k| matches!(*k, TraceKind::PageEvicted { .. }));
    let installed = sys.world.trace.count_where(|k| matches!(*k, TraceKind::PageInstalled { .. }));
    assert!(evicted > 0, "evictions were recorded");
    assert_eq!(installed as u64, faults, "recorder and ledger disagree on page faults");
    // The checksum must equal the unconstrained run's: paging is
    // transparent to the computation.
    let mut b2 = SystemBuilder::new(2);
    let j = b2.spawn(0, programs::compute_loop(40, 12));
    let mut free = b2.build();
    assert!(free.run(DEADLINE));
    assert_eq!(sys.exit_of(i), free.exit_of(j));
}

#[test]
fn unlink_removes_a_file() {
    let mut b = SystemBuilder::new(2);
    let u = b.spawn(0, programs::file_unlinker("/doomed"));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.exit_of(u), Some(0), "unlink succeeded");
    assert!(sys.file_contents("/doomed").is_none(), "file is gone");
}

#[test]
fn unlink_of_missing_file_fails() {
    use auros_vm::inst::regs::*;
    use auros_vm::{ProgramBuilder, Sys};
    let mut b = SystemBuilder::new(2);
    let mut p = ProgramBuilder::new("unlink_missing");
    p.blit(256, b"/never-existed", R1, R2);
    p.li(R1, 256);
    p.li(R2, 14);
    p.trap(Sys::Unlink);
    p.mov(R1, R0);
    p.trap(Sys::Exit);
    let u = b.spawn(0, p.build());
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.exit_of(u), Some(u64::MAX), "unlink of a missing file errors");
}

#[test]
fn directory_listing_reflects_files() {
    let mut b = SystemBuilder::new(2);
    let _w1 = b.spawn(0, programs::file_writer("/logs/a", 1, 64));
    let _w2 = b.spawn(0, programs::file_writer("/logs/b", 1, 64));
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    // A second phase lists the directory.
    let mut b2 = SystemBuilder::new(2);
    b2.spawn(0, programs::file_writer("/logs/a", 1, 64));
    b2.spawn(0, programs::file_writer("/logs/b", 1, 64));
    let lister = b2.spawn(1, programs::dir_lister("/logs/"));
    let mut sys2 = b2.build();
    assert!(sys2.run(DEADLINE));
    // The listing checksum is deterministic and nonzero when both file
    // names made it in before the listing snapshot... the lister races
    // the writers, so just require completion and determinism.
    let first = sys2.exit_of(lister);
    let mut b3 = SystemBuilder::new(2);
    b3.spawn(0, programs::file_writer("/logs/a", 1, 64));
    b3.spawn(0, programs::file_writer("/logs/b", 1, 64));
    let lister3 = b3.spawn(1, programs::dir_lister("/logs/"));
    let mut sys3 = b3.build();
    assert!(sys3.run(DEADLINE));
    assert_eq!(first, sys3.exit_of(lister3), "listing is deterministic");
}

#[test]
fn unlink_survives_fileserver_crash() {
    let run = |crash: Option<u64>| {
        let mut b = SystemBuilder::new(3);
        let u = b.spawn(2, programs::file_unlinker("/ul"));
        let w = b.spawn(1, programs::file_writer("/kept", 4, 128));
        if let Some(at) = crash {
            b.crash_at(VTime(at), 0);
        }
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        let _ = (u, w);
        sys.digest()
    };
    let clean = run(None);
    for at in [5_000, 12_000] {
        assert_eq!(clean, run(Some(at)), "unlink + crash at {at}");
    }
}

#[test]
fn two_lines_of_one_interface_module() {
    // Terminals 0 and 2 both live in cluster 0 (k % n with n=2): one
    // interface module, one tty server, two lines (§7.6's "a tty server
    // in each cluster having terminals").
    let mut b = SystemBuilder::new(2);
    b.terminals(3); // tty:0 -> c0 line0, tty:1 -> c1 line0, tty:2 -> c0 line1
    let s0 = b.spawn(1, programs::tty_session("tty:0", 1));
    let s2 = b.spawn(1, programs::tty_session("tty:2", 1));
    b.type_at(VTime(40_000), 0, b"line zero\n");
    b.type_at(VTime(60_000), 2, b"line two\n");
    let mut sys = b.build();
    assert!(sys.run(DEADLINE));
    assert_eq!(sys.exit_of(s0), Some(10));
    assert_eq!(sys.exit_of(s2), Some(9));
    assert_eq!(sys.terminal_output(0), b"line zero\n");
    assert_eq!(sys.terminal_output(2), b"line two\n");
    // Terminals 0 and 2 share a device; terminal 1 has its own.
    assert_eq!(sys.term_map[0].0, sys.term_map[2].0);
    assert_ne!(sys.term_map[0].0, sys.term_map[1].0);
    // And only two tty servers exist for the three terminals.
    assert_eq!(sys.tty_pids.len(), 2);
}

#[test]
fn shared_tty_server_crash_preserves_both_lines() {
    let run = |crash: bool| {
        let mut b = SystemBuilder::new(3);
        b.terminals(4); // c0: lines 0 (tty:0) and 1 (tty:3); c1: tty:1; c2: tty:2
        let a = b.spawn(2, programs::tty_session("tty:0", 2));
        let c = b.spawn(2, programs::tty_session("tty:3", 2));
        b.type_at(VTime(30_000), 0, b"a1\n");
        b.type_at(VTime(50_000), 3, b"c1\n");
        if crash {
            b.crash_at(VTime(60_000), 0); // kill the shared tty server's home
        }
        b.type_at(VTime(90_000), 0, b"a2\n");
        b.type_at(VTime(110_000), 3, b"c2\n");
        let mut sys = b.build();
        assert!(sys.run(DEADLINE));
        let _ = (a, c);
        (sys.terminal_output(0), sys.terminal_output(3))
    };
    assert_eq!(run(false), run(true), "both lines survive their server's crash");
}

/// A reply copy into a page that is not resident fetches the page once.
/// The reader's buffer (page 0) is paged out under a one-page residency
/// limit when its file read's reply arrives, and a stream of handled
/// signals re-examines the pending read many times while the page is on
/// its way. Every re-examination used to send another `PageIn`, and the
/// extra installs overwrote the copied-in data with the pre-read image.
#[test]
fn pending_read_copy_requests_its_page_once() {
    use auros_vm::inst::regs::*;
    use auros_vm::{ProgramBuilder, Sys, PAGE_SIZE};
    let page = PAGE_SIZE as u64;
    let words: Vec<u64> = (1..=8u64).map(|i| i * 0x0101_0101_0101).collect();
    let reader = || {
        let mut p = ProgramBuilder::new("paged_reader");
        let start = p.new_label();
        p.jmp(start);
        let handler = p.pos();
        p.addi(R11, R11, 1);
        p.trap(Sys::SigReturn);
        p.bind(start);
        p.li(R1, auros::bus::Sig::USR1.0 as u64);
        p.li(R2, handler as u64);
        p.trap(Sys::SigHandler);
        // Touch page 0: the pre-read image of the buffer.
        p.li(R6, 0x55);
        p.li(R7, 0);
        p.store_at(R6, R7, 0);
        // Open `/f`, its name on page 2.
        p.blit(2 * page, b"/f", R1, R2);
        p.li(R1, 2 * page);
        p.li(R2, 2);
        p.trap(Sys::Open);
        p.mov(R4, R0);
        // Write 64 bytes from page 1, seek back and read them into page 0.
        p.li(R7, page);
        for (i, w) in words.iter().enumerate() {
            p.li(R6, *w);
            p.store_at(R6, R7, 8 * i as u32);
        }
        p.mov(R1, R4);
        p.li(R2, page);
        p.li(R3, 64);
        p.trap(Sys::Write);
        p.mov(R1, R4);
        p.li(R2, 0);
        p.trap(Sys::Seek);
        p.mov(R1, R4);
        p.li(R2, 0);
        p.li(R3, 64);
        p.trap(Sys::Read);
        p.mov(R12, R0);
        p.compute(2_000);
        // Exit with the buffer's checksum plus the bytes read.
        p.li(R7, 0);
        for i in 0..8 {
            p.load(R6, R7, 8 * i);
            p.add(R12, R12, R6);
        }
        p.mov(R1, R12);
        p.trap(Sys::Exit);
        p.build()
    };
    let killer = |victim: auros::Pid| {
        let mut k = ProgramBuilder::new("usr1_storm");
        k.li(R5, 400);
        let top = k.here();
        k.compute(20);
        k.li(R1, victim.0);
        k.li(R2, auros::bus::Sig::USR1.0 as u64);
        k.trap(Sys::Kill);
        k.addi(R5, R5, -1);
        k.jnz(R5, top);
        k.li(R1, 0);
        k.trap(Sys::Exit);
        k.build()
    };
    let run = |limit: Option<usize>| {
        let fresh = || {
            let mut b = SystemBuilder::new(3);
            b.config_mut().resident_page_limit = limit;
            b
        };
        let victim = {
            let mut dry = fresh();
            let r = dry.spawn(2, reader());
            dry.build().pids[r]
        };
        let mut b = fresh();
        let r = b.spawn(2, reader());
        b.spawn(1, killer(victim));
        let mut sys = b.build();
        assert_eq!(sys.pids[r], victim, "pids are derivation-stable");
        sys.world.trace = TraceLog::capture_all();
        assert!(sys.run(DEADLINE));
        let count = |f: &dyn Fn(&TraceKind) -> bool| sys.world.trace.count_where(f);
        let installs =
            count(&|k| matches!(*k, TraceKind::PageInstalled { pid, .. } if pid == victim.0));
        let evictions =
            count(&|k| matches!(*k, TraceKind::PageEvicted { pid, .. } if pid == victim.0));
        (sys.exit_of(r), installs, evictions)
    };
    let want = words.iter().fold(64u64, |a, w| a.wrapping_add(*w));
    assert_eq!(run(None).0, Some(want), "the read lands in the buffer");
    let (exit, installs, evictions) = run(Some(1));
    assert!(evictions > 0, "the buffer is paged out");
    assert!(installs <= evictions, "{installs} installs for {evictions} evictions");
    assert_eq!(exit, Some(want), "paging is transparent to the read");
}
