//! Golden values for the shared workload drivers.
//!
//! Each experiment reaches the simulator through one driver per
//! workload shape: [`episode_seconds`] for barrier episodes,
//! [`read_stream`] for remote-read streams, [`run_workload`] for the LCK
//! lock loop and [`cg_time`] for CG. The experiment tests assert
//! orderings only, so a driver change that moves one cycle would pass
//! them and show up only in a byte compare of `results/`. These tests
//! pin the exact `f64` bits each driver returns at one small point per
//! shape an experiment uses it in.

use ksr_machine::{Machine, MachineConfig};
use ksr_mem::ProtocolOptions;
use ksr_nas::CgConfig;
use ksr_sync::{AnyBarrier, BarrierKind, TournamentBarrier};

use crate::fig4_barriers::{episode_seconds, BarrierMachine};
use crate::lad_latency::{probe_latency, read_stream, saturation_point};
use crate::lck_locks::{run_workload, LockKind};
use crate::table1_cg::cg_time;

fn assert_bits(name: &str, value: f64, bits: u64) {
    assert_eq!(
        value.to_bits(),
        bits,
        "{name}: got {value:?} ({:#018x}), pinned {:?}",
        value.to_bits(),
        f64::from_bits(bits)
    );
}

#[test]
fn barrier_episode_driver_is_pinned() {
    // FIG4/5 and SEC323: a preset machine through `BarrierMachine`.
    let ksr1 = episode_seconds(BarrierMachine::Ksr1.config(4, 1), 4, 3, |m| {
        AnyBarrier::alloc(BarrierKind::Mcs, m, 4).expect("alloc")
    });
    assert_bits("KSR-1 MCS, 4 procs", ksr1, 0x3f11_f850_0856_0fd7);
    // SCB: every cell of a two-level ring tree.
    let ring = episode_seconds(MachineConfig::ksr_ring(2, &[8, 2]), 16, 3, |m| {
        AnyBarrier::alloc(BarrierKind::Tournament, m, 16).expect("alloc")
    });
    assert_bits(
        "ring[8x2] tournament, 16 procs",
        ring,
        0x3f23_4125_643d_973a,
    );
    // ABL: an ablated protocol and a concrete barrier type.
    let mut cfg = MachineConfig::ksr1(3);
    cfg.protocol = ProtocolOptions {
        poststore: false,
        ..ProtocolOptions::default()
    };
    let snarf_only = episode_seconds(cfg, 8, 3, |m| {
        TournamentBarrier::alloc(m, 8, true).expect("alloc")
    });
    assert_bits(
        "snarf-only tournament(M)",
        snarf_only,
        0x3f13_122b_7bae_cd08,
    );
}

#[test]
fn read_stream_driver_is_pinned() {
    // LAD ladder: one reader, one owner.
    assert_bits(
        "probe",
        probe_latency(&[8, 2, 2], 8, 1),
        0x4082_2000_0000_0000,
    );
    // LAD saturation: antipodal streams, plus the fabric's slot wait.
    let (lat, wait) = saturation_point(&[8, 2, 2], 8, 3);
    assert_bits("saturation latency", lat, 0x408a_8800_0000_0000);
    assert_bits("saturation slot wait", wait, 0x4009_4ba9_7db4_4579);
    // ABL hammer: every processor reads its ring neighbour's data.
    let mut m = Machine::new(MachineConfig::ksr1(2)).expect("machine");
    let cells = m.config().cells;
    let hammer = read_stream(&mut m, 4, 256 * 1024, 512, |p| (p + 1) % cells);
    assert_bits("hammer", hammer, 0x4066_2000_0000_0000);
}

#[test]
fn lock_loop_is_pinned_for_every_kind() {
    for (kind, us_bits) in [
        (LockKind::Hw, 0x4054_68cc_cccc_cccd),
        (LockKind::Ticket, 0x4056_8266_6666_6666),
        (LockKind::Cohort, 0x4058_2400_0000_0000),
    ] {
        let (us, rmr) = run_workload(kind, &[8], 8, 500, 2, 11);
        assert_bits(&format!("{kind:?} us/acquire"), us, us_bits);
        assert_bits(&format!("{kind:?} RMR/acquire"), rmr, 0);
    }
}

#[test]
fn cg_driver_is_pinned_at_ext_quick_config() {
    let cfg = CgConfig {
        n: 280,
        offdiag_per_row: 36,
        iterations: 2,
        seed: 4_040,
        poststore: false,
        uncache_matrix: false,
    };
    assert_bits("EXT quick CG", cg_time(cfg, 2, 900), 0x3fa5_7ab6_7f83_6dde);
}
