//! Differential tests: the behavioral engine and the cycle-accurate
//! hardware system must agree bit-for-bit.
//!
//! This is the reproduction's strongest correctness check and mirrors
//! the paper's own verification methodology ("the RT-level VHDL model
//! was simulated thoroughly to test the correctness of the synthesized
//! netlist" against the behavioral model): same parameters + same seed
//! ⇒ identical populations, identical per-generation statistics,
//! identical RNG draw counts, identical final answer.

use carng::CaRng;
use ga_core::{GaEngine, GaParams, GaSystem};
use ga_fitness::{FemBank, FemSlot, LookupFem, TestFunction};
use proptest::prelude::*;

fn hw_system(f: TestFunction) -> GaSystem {
    GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
        LookupFem::for_function(f),
    )]))
}

/// Run both models and compare everything observable.
fn assert_models_agree(f: TestFunction, params: GaParams) {
    let sw = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c)).run();

    let mut hw = hw_system(f);
    let hw_run = hw
        .program_and_run(&params, 500_000_000)
        .expect("hardware run timed out");

    // Final answer.
    assert_eq!(hw_run.best.chrom, sw.best.chrom, "best chromosome differs");
    assert_eq!(hw_run.best.fitness, sw.best.fitness, "best fitness differs");

    // Per-generation statistics (gen 0 .. n_gens).
    assert_eq!(hw_run.history.len(), sw.history.len(), "history length");
    for (h, s) in hw_run.history.iter().zip(sw.history.iter()) {
        assert_eq!(h, s, "statistics at gen {}", s.gen);
    }

    // RNG consumption: draw-for-draw identical.
    assert_eq!(hw_run.rng_draws, sw.rng_draws, "RNG draw count differs");

    // Final population, individual for individual, via the memory
    // backdoor (like JTAG readback of the block RAM).
    let base = hw.modules().core.current_bank_base();
    let hw_pop = hw.modules().mem.backdoor_population(base, params.pop_size);
    assert_eq!(
        hw_pop.as_slice(),
        GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c))
            .replay_final_population()
            .as_slice()
    );
}

/// Helper on the behavioral engine: run to completion and return the
/// final population.
trait ReplayExt {
    fn replay_final_population(self) -> Vec<ga_core::Individual>;
}

impl<R: carng::Rng16, F: FnMut(u16) -> u16> ReplayExt for GaEngine<R, F> {
    fn replay_final_population(mut self) -> Vec<ga_core::Individual> {
        self.init_population();
        for _ in 0..self.params().n_gens {
            self.step_generation();
        }
        self.population().to_vec()
    }
}

#[test]
fn models_agree_on_paper_rt_level_setting() {
    // Table V's workhorse setting: pop 32, 32 generations, XR 10.
    assert_models_agree(TestFunction::Bf6, GaParams::new(32, 32, 10, 1, 45890));
}

#[test]
fn models_agree_on_f2_and_f3() {
    assert_models_agree(TestFunction::F2, GaParams::new(32, 16, 10, 1, 10593));
    assert_models_agree(TestFunction::F3, GaParams::new(32, 16, 10, 1, 1567));
}

#[test]
fn models_agree_on_hardware_experiment_setting() {
    // Tables VII–IX: pop 64, 64 generations.
    assert_models_agree(TestFunction::Mbf6_2, GaParams::new(64, 64, 10, 1, 0x2961));
}

#[test]
fn models_agree_with_tiny_population() {
    assert_models_agree(TestFunction::F3, GaParams::new(2, 8, 10, 1, 0xFFFF));
}

#[test]
fn models_agree_with_odd_population() {
    assert_models_agree(TestFunction::Mbf7_2, GaParams::new(15, 8, 12, 3, 0xA0A0));
}

#[test]
fn models_agree_with_extreme_thresholds() {
    // Crossover/mutation always-off and (almost) always-on.
    assert_models_agree(TestFunction::F2, GaParams::new(16, 8, 0, 0, 0xB342));
    assert_models_agree(TestFunction::F2, GaParams::new(16, 8, 15, 15, 0xB342));
}

#[test]
fn models_agree_on_max_population() {
    assert_models_agree(
        TestFunction::MShubert2D,
        GaParams::new(128, 4, 13, 2, 0x061F),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random parameter vectors: the models must agree everywhere in the
    /// programmable space.
    #[test]
    fn models_agree_on_random_parameters(
        pop in 2u8..=40,
        n_gens in 1u32..=10,
        xt in 0u8..=15,
        mt in 0u8..=15,
        seed in 1u16..=u16::MAX,
        func in 0usize..6,
    ) {
        let f = TestFunction::ALL[func];
        let params = GaParams::new(pop, n_gens, xt, mt, seed);
        assert_models_agree(f, params);
    }
}

/// RNG independence, differentially: swap the CA for the LFSR in BOTH
/// models and they must still agree with each other (§III-B.7: "the
/// operation of the GA core is independent of the RNG implementation").
#[test]
fn models_agree_with_lfsr_rng() {
    use carng::Lfsr16;
    use ga_core::rngmod::RngModule;

    let params = GaParams::new(24, 12, 10, 1, 0x2961);
    let f = TestFunction::Mbf6_2;
    let sw = GaEngine::new(params, Lfsr16::new(params.seed), |c| f.eval_u16(c)).run();

    let mut hw = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(
        LookupFem::for_function(f),
    )]))
    .with_rng(RngModule::new_lfsr(1));
    let hw_run = hw.program_and_run(&params, 500_000_000).unwrap();

    assert_eq!(hw_run.best.chrom, sw.best.chrom);
    assert_eq!(hw_run.history.len(), sw.history.len());
    for (h, s) in hw_run.history.iter().zip(sw.history.iter()) {
        assert_eq!(h, s, "gen {}", s.gen);
    }
}
