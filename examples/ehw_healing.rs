//! Evolvable-hardware adaptive healing — the paper's motivating
//! application ("the GA core has been used as a search engine for
//! real-time adaptive healing").
//!
//! Scenario: a virtual reconfigurable circuit realizes a target Boolean
//! function; a radiation-style fault strikes one cell; the GA core
//! (running as the complete intrinsic-EHW configuration of §II-D —
//! optimizer and reconfigurable fabric on one chip) evolves a new
//! configuration that restores the target behaviour around the fault.
//!
//! ```sh
//! cargo run --release --example ehw_healing
//! ```

use ga_ip::ga_ehw::vrc::PERFECT_FITNESS;
use ga_ip::prelude::*;

fn main() {
    // The mission function: realized by configuration 0x1B26.
    let golden_config = 0x1B26u16;
    let target = Vrc::new(golden_config).truth_table();
    println!("target truth table: {target:#06X} (realized by config {golden_config:#06X})");

    // Radiation strikes: cell 6's output sticks low. This corrupts 10
    // of the golden configuration's 16 truth-table rows, and 512 of the
    // 65 536 configurations can restore the target around it (both
    // facts verified by exhaustive enumeration).
    let fault = Fault::StuckAt {
        cell: 6,
        value: false,
    };
    let broken = healing_fitness(golden_config, target, Some(fault));
    println!("after fault {fault:?}: golden config scores {broken}/{PERFECT_FITNESS} — degraded");

    // The GA core searches for a healing configuration, evaluating every
    // candidate *intrinsically*: the VRC fabric (on "another chip") is
    // wired through the external fitness ports — the hybrid intrinsic
    // EHW configuration of Fig. 5. Each evaluation sweeps all 16 input
    // patterns across the faulted fabric.
    let fems = FemBank::new(vec![FemSlot::External]);
    let mut system =
        GaSystem::new(fems).with_external_fem(Box::new(VrcFem::new(target, Some(fault))));
    let params = GaParams::new(64, 64, 10, 2, 0xB342);
    let run = system
        .program_and_run(&params, 500_000_000)
        .expect("watchdog");

    println!(
        "\nGA healing run: {} cycles ({:.2} ms at 50 MHz)",
        run.cycles,
        run.seconds * 1e3
    );
    println!(
        "healed configuration {:#06X}: fitness {}/{}",
        run.best.chrom, run.best.fitness, PERFECT_FITNESS
    );
    let healed_tt = Vrc::new(run.best.chrom).with_fault(fault).truth_table();
    println!("truth table on faulted fabric: {healed_tt:#06X}");
    if run.best.fitness == PERFECT_FITNESS {
        println!("✔ full functional recovery around the stuck cell");
    } else {
        let rows = run.best.fitness / 4095;
        println!("partial recovery: {rows}/16 truth-table rows correct");
    }

    // Healing trajectory.
    println!("\ngen   best fitness");
    for s in run.history.iter().step_by(8) {
        println!("{:>3} {:>8}", s.gen, s.best_fitness);
    }
}
