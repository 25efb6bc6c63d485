//! A run holds its per-generation history once.
//!
//! Every backend records one [`GenStats`] per generation and hands that
//! vector to [`RunOutcome::trajectory`] by move. This test measures the
//! process's peak resident memory (`VmHWM`) across one run per backend
//! at the admission bound's generation counts and bounds its growth by
//! a small multiple of the history's own bytes, so a second copy of the
//! history (a clone, a converted trajectory, a side trace) fails it.
//!
//! It is the only test in its binary: the peak is process-wide, so no
//! other test may allocate while it measures.

#![cfg(target_os = "linux")]

use std::mem::size_of;

use ga_core::{GaParams, GenStats};
use ga_engine::{global, BackendKind, Limits, RunSpec, Workload};
use ga_fitness::TestFunction;

/// Reset the peak resident set to the current one (Linux `clear_refs`
/// code 5), then read the peak back in bytes.
fn reset_peak() -> u64 {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
    peak_bytes()
}

/// `VmHWM` from `/proc/self/status`, in bytes.
fn peak_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line");
    kb * 1024
}

fn spec(width: u8, gens: u32) -> RunSpec {
    RunSpec {
        width,
        workload: Workload::Function(TestFunction::F2),
        params: GaParams::new(2, gens, 10, 1, 7),
        deadline_ms: None,
    }
}

#[test]
fn peak_memory_of_a_run_is_one_history() {
    // The software backends at the admission bound (pop 2, 2^21
    // evaluations); the cycle-accurate ones at 1/16 of it, which keeps
    // a debug build quick and the history far above allocator noise.
    let cases = [
        (BackendKind::Behavioral, 16, 2_097_150, 1.25),
        (BackendKind::Swga, 16, 2_097_150, 1.25),
        (BackendKind::BitSim64, 16, 2_097_150, 1.25),
        (BackendKind::RtlInterp, 16, 131_070, 1.75),
        (BackendKind::Rtl32, 32, 131_070, 1.75),
    ];
    for (kind, width, gens, bound) in cases {
        let engine = global().get(kind).expect("registered backend");
        // A short warm-up run builds the process-wide fitness ROM and
        // CA-RNG table, so the measured run is charged for its own
        // allocations only.
        let warm = engine.prepare(spec(width, 4)).expect("admitted");
        engine.run(&warm, &Limits::default()).expect("warm-up runs");

        let prepared = engine.prepare(spec(width, gens)).expect("admitted");
        let before = reset_peak();
        let outcome = engine.run(&prepared, &Limits::default()).expect("runs");
        let growth = peak_bytes().saturating_sub(before);
        let history = (gens as usize + 1) * size_of::<GenStats>();
        assert_eq!(outcome.trajectory.len(), gens as usize + 1);
        drop(outcome);
        let multiple = growth as f64 / history as f64;
        eprintln!("{}: peak growth {multiple:.2}x the history", kind.name());
        assert!(
            multiple <= bound,
            "{}: peak grew {growth} B for a {history} B history ({multiple:.2}x > {bound}x)",
            kind.name()
        );
    }
}
