//! The instrumented software GA.
//!
//! The software baseline runs the exact algorithm of the IP core (same
//! operators, same RNG, same draw order), so it *is* the behavioral
//! engine, [`GaEngine`], charging every step to [`OpCounts`]: the
//! dynamic operation mix a compiled C implementation executes on the
//! PowerPC. Fitness evaluations are bus reads: the lookup ROM stays on
//! the FPGA fabric exactly as in the paper's measurement setup.
//!
//! The per-step op annotations below correspond to a plain `-O2`
//! compilation of the equivalent C (no vectorization on a PPC405).

use carng::CaRng;
use ga_core::behavioral::{GenStats, Individual};
use ga_core::{GaEngine, GaParams, Step, StepCost};

use crate::cost::OpCounts;

impl StepCost for OpCounts {
    #[inline]
    fn charge(&mut self, step: Step) {
        match step {
            // Software CA-RNG step: two shifts, two XORs, an AND, the
            // state store, and the call overhead of `rand16()`.
            Step::Draw => {
                self.alu += 5;
                self.store += 1;
                self.call += 1;
            }
            // Argument marshaling + the PLB read of the fabric ROM.
            Step::Evaluate => {
                self.alu += 2;
                self.bus_read += 1;
            }
            // Array stores + running sum + best check + loop overhead.
            Step::Store => {
                self.store += 2;
                self.alu += 3;
                self.branch += 2;
            }
            // Elite copy: two stores + bookkeeping.
            Step::Elite => {
                self.store += 2;
                self.alu += 2;
            }
            // Proportionate selection: threshold scale (64-bit multiply
            // = two `mullw`/`mulhw` + shift) then the cumulative scan.
            // The modeled C program scans linearly, and that scan is
            // what is charged: one load, ALU op and branch per member
            // visited — the chosen index plus one, `pop` on a miss —
            // plus the fall-through branch of a miss. The host finds the
            // same member by binary search; that is not charged.
            Step::Select { index, miss } => {
                self.mul += 2;
                self.alu += 2;
                let visited = index as u64 + 1;
                self.load += visited;
                self.alu += visited;
                self.branch += visited;
                if miss {
                    self.branch += 1;
                }
            }
            // Crossover: field extraction + decision + mask algebra.
            Step::Crossover => {
                self.alu += 8;
                self.branch += 1;
            }
            // Mutation: field extraction + decision + XOR.
            Step::Mutation => {
                self.alu += 4;
                self.branch += 1;
            }
            // Swap population pointers + generation bookkeeping.
            Step::Generation => {
                self.alu += 4;
                self.branch += 1;
            }
        }
    }
}

/// Result of an instrumented software run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwRun {
    /// Best individual found.
    pub best: Individual,
    /// Dynamic operation counts.
    pub ops: OpCounts,
    /// Fitness evaluations (each is one bus read).
    pub evaluations: u64,
    /// Per-generation statistics, generation 0 (initial population)
    /// included. The recording itself is *not* costed: the measured C
    /// program logs nothing (the paper reads these values off
    /// Chipscope probes).
    pub history: Vec<GenStats>,
}

/// The instrumented software GA: the behavioral engine over the CA RNG,
/// charging [`OpCounts`].
pub struct CountingGa<F: FnMut(u16) -> u16>(GaEngine<CaRng, F, OpCounts>);

impl<F: FnMut(u16) -> u16> CountingGa<F> {
    /// Create the software optimizer. `fitness` stands in for the
    /// fabric lookup ROM; each call is costed as one PLB round trip.
    pub fn new(params: GaParams, fitness: F) -> Self {
        CountingGa(GaEngine::with_cost(
            params,
            CaRng::new(params.seed),
            fitness,
            OpCounts::default(),
        ))
    }

    /// Run the full optimization and return the op tally.
    pub fn run(self) -> SwRun {
        let run = self.0.run();
        SwRun {
            best: run.best,
            ops: run.cost,
            evaluations: run.evaluations,
            history: run.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;
    use ga_core::GaEngine;
    use ga_fitness::TestFunction;

    #[test]
    fn software_ga_matches_behavioral_engine_result() {
        // The software implementation is "similar to the GA optimization
        // algorithm in the IP core" — here it is draw-identical, so the
        // answers must agree exactly.
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let f = TestFunction::Mbf6_2;
        let sw = CountingGa::new(params, |c| f.eval_u16(c)).run();
        let engine = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c)).run();
        assert_eq!(sw.best, engine.best);
        assert_eq!(sw.evaluations, engine.evaluations);
    }

    #[test]
    fn history_matches_behavioral_engine_generation_for_generation() {
        // The trajectory, not just the answer: gen 0 through the final
        // generation must carry identical (best, fit_sum) at every step.
        for (pop, gens, seed) in [(32u8, 16u32, 0x2961u16), (15, 8, 0x061F), (64, 8, 45890)] {
            let params = GaParams::new(pop, gens, 10, 1, seed);
            let f = TestFunction::Bf6;
            let sw = CountingGa::new(params, |c| f.eval_u16(c)).run();
            let engine = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c)).run();
            assert_eq!(sw.history.len(), gens as usize + 1);
            assert_eq!(sw.history, engine.history, "pop {pop} seed {seed:#06x}");
        }
    }

    #[test]
    fn bus_reads_equal_evaluations() {
        let params = GaParams::new(16, 8, 10, 1, 0xB342);
        let sw = CountingGa::new(params, |c| TestFunction::F3.eval_u16(c)).run();
        assert_eq!(sw.ops.bus_read, sw.evaluations);
        assert_eq!(sw.evaluations, 16 + 8 * 15);
    }

    #[test]
    fn op_counts_scale_with_population() {
        let small = CountingGa::new(GaParams::new(8, 8, 10, 1, 7), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        let large = CountingGa::new(GaParams::new(64, 8, 10, 1, 7), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        // Selection is O(pop²) per generation: ops grow superlinearly.
        assert!(large.ops.total_ops() > 8 * small.ops.total_ops());
    }

    #[test]
    fn all_zero_fitness_selections_scan_everyone_and_miss() {
        // pop 8 breeds 7 offspring per generation: 4 pairs, so 8
        // selections, 4 crossovers and 7 mutations. With every fitness
        // 0 each selection scans all 8 members and takes the miss branch.
        let sw = CountingGa::new(GaParams::new(8, 3, 10, 1, 0x5555), |_| 0).run();
        assert_eq!(sw.ops.load, 3 * 8 * 8);
        let stores = 8 + 3 * 7;
        let branches = 2 * stores + 3 * 4 + 3 * 7 + 3 + 3 * 8 * (8 + 1);
        assert_eq!(sw.ops.branch, branches);
    }

    #[test]
    fn selection_scan_dominates_loads() {
        let params = GaParams::new(64, 16, 10, 1, 0x061F);
        let sw = CountingGa::new(params, |c| TestFunction::Bf6.eval_u16(c)).run();
        // Each selection scans up to pop members: loads must dwarf
        // stores in this workload.
        assert!(sw.ops.load > 4 * sw.ops.store);
    }
}
