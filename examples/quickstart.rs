//! Quickstart: program the GA IP core and run one optimization.
//!
//! This is the paper's basic usage flow (§III-B.8): build the system of
//! Fig. 4 (core + RNG + GA memory + fitness module), program the GA
//! parameters over the two-way initialization handshake (Table III),
//! pulse `start_GA`, and read the best candidate when `GA_done` rises.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ga_ip::prelude::*;

fn main() {
    // A block-ROM lookup fitness module for the maxi-max test function
    // F3(x, y) = 8x + 4y (global optimum 3060 at x = y = 255).
    let fems = FemBank::new(vec![FemSlot::Lookup(LookupFem::for_function(
        TestFunction::F3,
    ))]);
    let mut system = GaSystem::new(fems);

    // Program the runtime parameters: population 32, 32 generations,
    // crossover 10/16 = 0.625, mutation 1/16 = 0.0625, seed 0x2961 —
    // the paper's workhorse setting.
    let params = GaParams::new(32, 32, 10, 1, 0x2961);
    let cycles = system.program(&params);
    println!("programmed 6 parameters over the init handshake in {cycles} cycles");

    // Run to GA_done.
    let run = system.run(50_000_000).expect("watchdog");
    println!(
        "GA_done after {} cycles ({:.3} ms at 50 MHz)",
        run.cycles,
        run.seconds * 1e3
    );
    println!(
        "best candidate: {:#06X} (x = {}, y = {}), fitness {} / 3060",
        run.best.chrom,
        run.best.chrom >> 8,
        run.best.chrom & 0xFF,
        run.best.fitness
    );

    // The per-generation probe (the paper captured the same two series
    // with Chipscope).
    println!("\ngen   best    avg");
    let row = |s: &ga_core::GenStats| {
        let avg = s.fit_sum as f64 / params.pop_size as f64;
        println!("{:>3} {:>6} {avg:>6.0}", s.gen, s.best_fitness);
    };
    run.history.iter().take(8).for_each(row);
    println!("...");
    row(run.history.last().unwrap());
}
