//! Regenerate Tables VII, VIII and IX: best fitness found by the
//! cycle-accurate hardware system for mBF6_2, mBF7_2 and mShubert2D
//! under the 24-cell grid (six seeds × two population sizes × two
//! crossover thresholds; 64 generations; mutation 1/16).
//!
//! The grid goes through the shared parallel sweep runner cell-by-cell
//! (finer-grained than the old one-thread-per-seed-row split, and with
//! deterministic input-ordered collection), and the binary emits
//! `BENCH_table7_9.json` with the simulated cycles, the cycles the
//! system stepped one by one and the wall time per stepped cycle.
//! `GA_BENCH_GENS` overrides the generation count for smoke runs.
//!
//! Run with `cargo run --release -p ga-bench --bin table7_9`.

use carng::seeds::TABLE7_SEEDS;
use ga_bench::{
    default_threads, gens_override, grid3, render_grid, run_hw_counted, run_sweep, table7_params,
    BenchReport, Stopwatch, TABLE7_POPS, TABLE7_XRS,
};
use ga_fitness::TestFunction;

/// One cell per (seed, pop, xr) in `grid3` row-major order — which is
/// exactly the paper's layout: seed rows, then the p32/x10, p32/x12,
/// p64/x10, p64/x12 columns.
/// The grid of best fitness; adds the runs' simulated and stepped cycles
/// to `cycles` (stepped: `None` off `rtl`).
fn grid_for(f: TestFunction, threads: usize, cycles: &mut (u64, Option<u64>)) -> Vec<Vec<u16>> {
    let cells = grid3(&TABLE7_SEEDS, &TABLE7_POPS, &TABLE7_XRS);
    let runs = run_sweep(&cells, threads, |_, &(seed, pop, xr)| {
        let mut params = table7_params(seed, pop, xr);
        if let Some(g) = gens_override() {
            params.n_gens = g;
        }
        run_hw_counted(f, &params)
    });
    cycles.0 += runs.iter().filter_map(|(r, _)| r.cycles).sum::<u64>();
    let stepped: Option<u64> = runs.iter().map(|(_, stepped)| *stepped).sum();
    cycles.1 = cycles.1.zip(stepped).map(|(a, b)| a + b);
    runs.chunks(TABLE7_POPS.len() * TABLE7_XRS.len())
        .map(|row| row.iter().map(|(r, _)| r.best_fitness).collect())
        .collect()
}

fn main() {
    let threads = default_threads();
    let sw = Stopwatch::start();
    let mut cycles = (0u64, Some(0u64));
    for (f, table, paper_best, paper_optimum) in [
        (TestFunction::Mbf6_2, "Table VII", 8135u16, 8183u16),
        (TestFunction::Mbf7_2, "Table VIII", 61_496, 63_904),
        (TestFunction::MShubert2D, "Table IX", 65_535, 65_535),
    ] {
        let optimum = f.global_max();
        let cells = grid_for(f, threads, &mut cycles);
        println!(
            "{}",
            render_grid(
                &format!(
                    "{table} — best fitness for {} (64 gens, mut 1/16)",
                    f.name()
                ),
                &TABLE7_SEEDS,
                &cells,
                optimum
            )
        );
        let best = cells.iter().flatten().copied().max().unwrap();
        let gap = 100.0 * (optimum as f64 - best as f64) / optimum as f64;
        println!(
            "best found {best} (optimum {optimum}, gap {gap:.2}%) — paper: best {paper_best} of optimum {paper_optimum}\n"
        );
    }
    println!("The paper's headline claim — every hardware result within 3.7% of the");
    println!("global optimum, with the optimum itself found for several settings —");
    println!("is checked automatically in tests/paper_claims.rs.");

    let wall = sw.seconds();
    let n_cells = 3 * TABLE7_SEEDS.len() * TABLE7_POPS.len() * TABLE7_XRS.len();
    let mut report = BenchReport::new("table7_9", wall, 1, threads as u64)
        .metric("grid_cells", n_cells as f64)
        .metric("sim_cycles", cycles.0 as f64);
    if let Some(stepped) = cycles.1 {
        report = report
            .metric("stepped_cycles", stepped as f64)
            .metric("host_ns_per_stepped_cycle", wall * 1e9 / stepped as f64);
    }
    report.emit_or_warn();
}
