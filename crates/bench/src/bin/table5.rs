//! Regenerate Table V: RT-level simulation results for BF6, F2 and F3
//! under the paper's ten parameter settings (best fitness found and the
//! convergence generation — the generation where the average fitness
//! changes by less than 5%).
//!
//! The ten runs go through the shared parallel sweep runner (each is an
//! independent simulated FPGA run) and the binary emits
//! `BENCH_table5.json` with the wall time, the simulated cycles, the
//! cycles the system stepped one by one (the rest it skips exactly) and
//! the wall time per stepped cycle. `GA_BENCH_GENS` overrides the
//! generation count (the CI smoke run uses a short one).
//!
//! Run with `cargo run --release -p ga-bench --bin table5`.

use ga_bench::{
    default_threads, gens_override, run_hw_counted, run_sweep, table5_params, BenchReport,
    Stopwatch, TABLE5_RUNS,
};

fn main() {
    let threads = default_threads();
    let sw = Stopwatch::start();
    let results = run_sweep(&TABLE5_RUNS, threads, |_, row| {
        let mut params = table5_params(row);
        if let Some(g) = gens_override() {
            params.n_gens = g;
        }
        run_hw_counted(row.function, &params)
    });
    let wall = sw.seconds();

    println!("Table V — RT-level results (this implementation vs paper)");
    println!(
        "{:>3} {:>10} {:>6} {:>4} {:>6} | {:>11} {:>12} | {:>10}",
        "run", "function", "seed", "pop", "xover", "best fitness", "convergence", "paper best"
    );
    // The paper's printed best-fitness column for runs 1–10.
    let paper_best = [
        4047u16, 4271, 4271, 4146, 4047, 3060, 2096, 3060, 3060, 3060,
    ];
    println!("{}", "-".repeat(84));
    let mut sim_cycles: u64 = 0;
    for ((row, paper), (run, _)) in TABLE5_RUNS.iter().zip(paper_best).zip(&results) {
        sim_cycles += run.cycles.unwrap_or(0);
        let conv = run
            .conv_gen
            .map(|g| g.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>3} {:>10} {:>6} {:>4} {:>6} | {:>11} {:>12} | {:>10}",
            row.run,
            row.function.name(),
            row.seed,
            row.pop,
            row.xover,
            run.best_fitness,
            conv,
            paper
        );
    }
    println!();
    println!("notes: identical GA architecture, but the CA rule vector and seed-to-");
    println!("stream mapping differ from the authors' unpublished RNG, so per-row");
    println!("values differ while the qualitative shape (optimum found only under");
    println!("some settings; seed choice decisive) reproduces. See EXPERIMENTS.md.");

    let stepped: Option<u64> = results.iter().map(|(_, stepped)| *stepped).sum();
    let mut report = BenchReport::new("table5", wall, 1, threads as u64)
        .metric("runs", results.len() as f64)
        .metric("sim_cycles", sim_cycles as f64);
    if let Some(stepped) = stepped {
        report = report
            .metric("stepped_cycles", stepped as f64)
            .metric("host_ns_per_stepped_cycle", wall * 1e9 / stepped as f64);
    }
    report.emit_or_warn();
}
