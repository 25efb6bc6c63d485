//! The behavioral GA engine — the algorithm of Fig. 2, draw-for-draw
//! identical to the cycle-accurate hardware core.
//!
//! This is the model the authors wrote first ("the behavior of the GA
//! optimizer was modeled in VHDL and simulated to test its
//! correctness") and it is the reference the hardware FSM is checked
//! against: the differential tests in `tests/` assert that both models
//! produce the same populations, the same best individual, and consume
//! the same number of RNG draws for every parameter set.
//!
//! One optimization cycle (Fig. 2):
//!
//! 1. generate a random initial population and evaluate it;
//! 2. per generation: copy the elite into the new population, then fill
//!    it with offspring bred by proportionate selection, single-point
//!    crossover and single-bit mutation;
//! 3. after the programmed number of generations, output the best
//!    individual found.

use carng::{Rng16, SnapshotRng};
use hwsim::Deadline;

use crate::ops;
use crate::params::GaParams;
use crate::snapshot::{EngineSnapshot, SnapshotError};

/// A chromosome and its fitness, as stored in one 32-bit GA-memory word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Individual {
    /// 16-bit chromosome encoding.
    pub chrom: u16,
    /// 16-bit fitness value.
    pub fitness: u16,
}

/// Per-generation statistics — what the paper's Chipscope probes
/// recorded ("best fitness" and "sum of fitness" per generation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats {
    /// Generation index; 0 is the initial random population.
    pub gen: u32,
    /// Best individual in this population.
    pub best: Individual,
    /// Sum of all fitness values in this population.
    pub fit_sum: u32,
    /// Population size (for computing the average).
    pub pop_size: u8,
}

impl GenStats {
    /// Average fitness of the population.
    pub fn avg(&self) -> f64 {
        self.fit_sum as f64 / self.pop_size as f64
    }
}

/// Result of a complete optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaRun<C = ()> {
    /// Best individual found over the whole run.
    pub best: Individual,
    /// Statistics for generation 0 (initial population) through the
    /// final generation.
    pub history: Vec<GenStats>,
    /// Number of fitness evaluations requested.
    pub evaluations: u64,
    /// Number of 16-bit random numbers consumed.
    pub rng_draws: u64,
    /// What the engine's [`StepCost`] charged over the run (`()` for
    /// an uncosted run).
    pub cost: C,
}

/// One costed step of the generational loop, as [`GaEngine`] executes
/// it. A [`StepCost`] turns the sequence into whatever it models (the
/// software baseline's PowerPC operation mix, for one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One 16-bit RNG draw.
    Draw,
    /// One fitness evaluation.
    Evaluate,
    /// One evaluated member (initial or offspring) stored into the
    /// population being built, with its running sum and best updated.
    Store,
    /// The elite copied into slot 0 of a new population.
    Elite,
    /// One proportionate selection took member `index`; `miss` when no
    /// cumulative sum exceeded the threshold (all-zero fitness), so a
    /// linear scan visits every member and falls through to the last.
    Select {
        /// Index of the chosen member.
        index: usize,
        /// Whether the scan fell through without a hit.
        miss: bool,
    },
    /// One crossover decision (its fields already drawn).
    Crossover,
    /// One mutation decision (its fields already drawn).
    Mutation,
    /// One generation finished and the populations swapped.
    Generation,
}

/// A cost model charged by [`GaEngine`] for every [`Step`] it executes.
/// The unit type charges nothing and is the engine's default.
pub trait StepCost {
    /// Account for one executed step.
    fn charge(&mut self, step: Step);
}

impl StepCost for () {
    #[inline(always)]
    fn charge(&mut self, _step: Step) {}
}

/// How the 4-bit operator fields are extracted from RNG draws — an
/// ablation axis (see [`crate::ops::xover_fields`] for why the shared
/// draw is the correct design for a CA PRNG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldMode {
    /// One 16-bit draw carries both the decision nibble and the
    /// cut/mutation point from disjoint predefined positions (the
    /// paper's "bits from predefined positions"; provably jointly
    /// uniform over the CA's full period). The hardware behaviour.
    #[default]
    SharedDraw,
    /// Decision and point come from the low nibbles of *consecutive*
    /// draws — the naive design. With a rule-90/150 CA this conditions
    /// the point on the decision through the local update and visibly
    /// cripples mutation (kept for the ablation study).
    ConsecutiveDraws,
}

/// The behavioral GA engine, generic over the RNG implementation (the
/// paper: "the operation of the GA core is independent of the RNG
/// implementation"), the fitness function and the [`StepCost`] charged
/// as it runs. It is the repo's one 16-bit generational loop: the
/// software baseline is this engine charging `swga::OpCounts`.
pub struct GaEngine<R: Rng16, F: FnMut(u16) -> u16, C: StepCost = ()> {
    params: GaParams,
    rng: R,
    fitness: F,
    cost: C,
    cur: Vec<Individual>,
    /// Prefix sums of `cur`'s fitness ([`ops::prefix_sums`]), rebuilt at
    /// the top of every [`GaEngine::step_generation`] — their only use.
    prefix: Vec<u32>,
    best: Individual,
    fit_sum: u32,
    gen: u32,
    evaluations: u64,
    rng_draws: u64,
    elitism: bool,
    field_mode: FieldMode,
}

impl<R: Rng16, F: FnMut(u16) -> u16> GaEngine<R, F> {
    /// Create an uncosted engine. The RNG is reseeded with
    /// `params.seed`.
    pub fn new(params: GaParams, rng: R, fitness: F) -> Self {
        GaEngine::with_cost(params, rng, fitness, ())
    }
}

impl<R: Rng16, F: FnMut(u16) -> u16, C: StepCost> GaEngine<R, F, C> {
    /// Create an engine that charges every step it executes to `cost`.
    /// The RNG is reseeded with `params.seed`.
    pub fn with_cost(params: GaParams, mut rng: R, fitness: F, cost: C) -> Self {
        params.validate().expect("invalid GA parameters");
        rng.reseed(params.seed);
        GaEngine {
            params,
            rng,
            fitness,
            cost,
            cur: Vec::with_capacity(params.pop_size as usize),
            prefix: Vec::with_capacity(params.pop_size as usize),
            best: Individual::default(),
            fit_sum: 0,
            gen: 0,
            evaluations: 0,
            rng_draws: 0,
            elitism: true,
            field_mode: FieldMode::SharedDraw,
        }
    }

    /// Disable elitism (ablation only — the IP core is always elitist,
    /// which is what gives it Rudolph's convergence guarantee \[17\]).
    pub fn with_elitism(mut self, elitism: bool) -> Self {
        self.elitism = elitism;
        self
    }

    /// Select the field-extraction mode (ablation only).
    pub fn with_field_mode(mut self, mode: FieldMode) -> Self {
        self.field_mode = mode;
        self
    }

    /// Draw the (decision, point) pair for one operator according to
    /// the configured field mode.
    fn operator_fields(&mut self, for_mutation: bool) -> (u8, u8) {
        match self.field_mode {
            FieldMode::SharedDraw => {
                let d = self.draw();
                if for_mutation {
                    ops::mut_fields(d)
                } else {
                    ops::xover_fields(d)
                }
            }
            FieldMode::ConsecutiveDraws => {
                let decision = (self.draw() & 0xF) as u8;
                let point = (self.draw() & 0xF) as u8;
                (decision, point)
            }
        }
    }

    fn draw(&mut self) -> u16 {
        self.cost.charge(Step::Draw);
        self.rng_draws += 1;
        self.rng.next_u16()
    }

    fn evaluate(&mut self, chrom: u16) -> u16 {
        self.cost.charge(Step::Evaluate);
        self.evaluations += 1;
        (self.fitness)(chrom)
    }

    /// Generate and evaluate the random initial population (generation 0).
    /// The chromosomes come from one batched [`Rng16::fill_u16s`] call —
    /// by the trait contract this is the same stream as `pop_size`
    /// repeated draws.
    pub fn init_population(&mut self) -> GenStats {
        self.cur.clear();
        self.fit_sum = 0;
        self.gen = 0;
        let mut chroms = vec![0u16; self.params.pop_size as usize];
        self.rng.fill_u16s(&mut chroms);
        self.rng_draws += chroms.len() as u64;
        let mut best = Individual::default();
        for (i, &chrom) in chroms.iter().enumerate() {
            // The batched draws, charged one per member.
            self.cost.charge(Step::Draw);
            let fitness = self.evaluate(chrom);
            self.cost.charge(Step::Store);
            let ind = Individual { chrom, fitness };
            self.cur.push(ind);
            if i == 0 || fitness > best.fitness {
                best = ind;
            }
            self.fit_sum += fitness as u32;
        }
        self.best = best;
        self.stats()
    }

    /// Proportionate selection over the current population: one RNG
    /// draw scales the fitness sum down to a threshold, and
    /// [`ops::select_index`] binary-searches the generation's prefix
    /// sums for the first individual whose cumulative fitness exceeds
    /// it (the last one if none does, i.e. all-zero fitness) — the
    /// member the hardware's linear scan picks, in O(log pop).
    fn select(&mut self) -> Individual {
        let r = self.draw();
        let threshold = ops::selection_threshold(self.fit_sum, r);
        let index = ops::select_index(&self.prefix, threshold);
        // The scan misses exactly when even the whole population's
        // cumulative sum does not hit.
        self.cost.charge(Step::Select {
            index,
            miss: !ops::selection_hit(self.fit_sum, threshold),
        });
        self.cur[index]
    }

    /// Breed one full generation (Fig. 2's inner loop) and swap
    /// populations. Returns the new population's statistics.
    pub fn step_generation(&mut self) -> GenStats {
        let pop = self.params.pop_size as usize;
        ops::prefix_sums(self.cur.iter().map(|i| i.fitness), &mut self.prefix);
        debug_assert_eq!(self.prefix.last(), Some(&self.fit_sum));
        let mut new_pop: Vec<Individual> = Vec::with_capacity(pop);
        let mut new_sum = 0u32;
        let mut new_best = self.best;
        if self.elitism {
            // Elitism: the best individual survives unmodified in slot 0.
            self.cost.charge(Step::Elite);
            new_pop.push(self.best);
            new_sum = self.best.fitness as u32;
        } else {
            // Ablation mode: the whole population is replaced; track the
            // best-so-far only for reporting.
            new_best = Individual::default();
        }

        while new_pop.len() < pop {
            let p1 = self.select();
            let p2 = self.select();
            // One draw supplies both the crossover decision and the cut
            // point, from the predefined bit positions (see
            // [`ops::xover_fields`] for why they must share a draw).
            let (xd, cut) = self.operator_fields(false);
            self.cost.charge(Step::Crossover);
            let (o1, o2) = if ops::decision(xd, self.params.xover_threshold) {
                ops::crossover(p1.chrom, p2.chrom, cut)
            } else {
                (p1.chrom, p2.chrom)
            };
            for mut chrom in [o1, o2] {
                if new_pop.len() >= pop {
                    break;
                }
                let (md, point) = self.operator_fields(true);
                self.cost.charge(Step::Mutation);
                if ops::decision(md, self.params.mut_threshold) {
                    chrom = ops::mutate(chrom, point);
                }
                let fitness = self.evaluate(chrom);
                self.cost.charge(Step::Store);
                let ind = Individual { chrom, fitness };
                if fitness > new_best.fitness {
                    new_best = ind;
                }
                new_sum += fitness as u32;
                new_pop.push(ind);
            }
        }

        self.cost.charge(Step::Generation);
        self.cur = new_pop;
        self.fit_sum = new_sum;
        self.best = new_best;
        self.gen += 1;
        self.stats()
    }

    fn stats(&self) -> GenStats {
        GenStats {
            gen: self.gen,
            best: self.best,
            fit_sum: self.fit_sum,
            pop_size: self.params.pop_size,
        }
    }

    /// Run the full optimization cycle: [`GaEngine::run_with_deadline`]
    /// without a deadline.
    pub fn run(self) -> GaRun<C> {
        self.run_with_deadline(None)
            .expect("a run without a deadline completes")
    }

    /// Run the full optimization cycle (Fig. 2), recording every
    /// generation's statistics. The `deadline` is checked between
    /// generations, as [`crate::GaSystem::run_with_deadline`] checks it
    /// between cycles, so an in-flight generation always completes.
    /// Returns `None` when the deadline passed before the last one.
    pub fn run_with_deadline(mut self, deadline: Option<&Deadline>) -> Option<GaRun<C>> {
        let mut history = Vec::with_capacity(self.params.n_gens as usize + 1);
        let init = self.init_population();
        // With elitism the final generation's best IS the best ever;
        // without it (ablation) the best can be lost, so the run keeps
        // the best over every generation.
        let mut best = init.best;
        history.push(init);
        for _ in 0..self.params.n_gens {
            if deadline.is_some_and(Deadline::is_past) {
                return None;
            }
            let stats = self.step_generation();
            if stats.best.fitness > best.fitness {
                best = stats.best;
            }
            history.push(stats);
        }
        Some(GaRun {
            best,
            history,
            evaluations: self.evaluations,
            rng_draws: self.rng_draws,
            cost: self.cost,
        })
    }

    /// Current population (testing / differential checks).
    pub fn population(&self) -> &[Individual] {
        &self.cur
    }

    /// Best individual so far.
    pub fn best(&self) -> Individual {
        self.best
    }

    /// Number of RNG draws consumed so far.
    pub fn rng_draws(&self) -> u64 {
        self.rng_draws
    }

    /// Number of fitness evaluations so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The parameter set in force.
    pub fn params(&self) -> GaParams {
        self.params
    }

    /// Capture the full engine state at a generation boundary. Requires
    /// an initialized population (like [`GaEngine::inject`]); restoring
    /// the snapshot — into this engine, a fresh one, or one on a
    /// different [`SnapshotRng`] backend — continues the run
    /// bit-identically.
    pub fn snapshot(&self) -> EngineSnapshot
    where
        R: SnapshotRng,
    {
        assert!(!self.cur.is_empty(), "snapshot before init_population");
        EngineSnapshot {
            params: self.params,
            elitism: self.elitism,
            field_mode: self.field_mode,
            gen: self.gen,
            fit_sum: self.fit_sum,
            evaluations: self.evaluations,
            rng_draws: self.rng_draws,
            rng_next: self.rng.save(),
            best: self.best,
            population: self.cur.clone(),
        }
    }

    /// Install a snapshot, replacing the engine's entire state (the
    /// fitness function stays — the caller is responsible for restoring
    /// into an engine serving the same workload). Fails with a typed
    /// error, leaving the engine untouched, when the snapshot is
    /// internally inconsistent ([`EngineSnapshot::validate`]) or its RNG
    /// position is unreachable for this backend.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError>
    where
        R: SnapshotRng,
    {
        snap.validate()?;
        self.rng
            .load(snap.rng_draws, snap.rng_next)
            .map_err(|what| SnapshotError::BadValue { what })?;
        self.params = snap.params;
        self.elitism = snap.elitism;
        self.field_mode = snap.field_mode;
        self.cur = snap.population.clone();
        self.best = snap.best;
        self.fit_sum = snap.fit_sum;
        self.gen = snap.gen;
        self.evaluations = snap.evaluations;
        self.rng_draws = snap.rng_draws;
        Ok(())
    }

    /// Replace the worst individual with `migrant` (island-model
    /// migration): the incoming individual takes the slot of the
    /// current population's minimum-fitness member, and the fitness sum
    /// is updated so subsequent proportionate selections stay exact.
    pub fn inject(&mut self, migrant: Individual) {
        assert!(!self.cur.is_empty(), "inject before init_population");
        let worst = self
            .cur
            .iter()
            .enumerate()
            .min_by_key(|(_, i)| i.fitness)
            .map(|(k, _)| k)
            .expect("population non-empty");
        self.fit_sum = self.fit_sum - self.cur[worst].fitness as u32 + migrant.fitness as u32;
        self.cur[worst] = migrant;
        if migrant.fitness > self.best.fitness {
            self.best = migrant;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;
    use ga_fitness::TestFunction;

    fn engine(f: TestFunction, params: GaParams) -> GaEngine<CaRng, impl FnMut(u16) -> u16> {
        GaEngine::new(params, CaRng::new(params.seed), move |c| f.eval_u16(c))
    }

    #[test]
    fn initial_population_is_the_rng_stream() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut e = engine(TestFunction::F3, params);
        e.init_population();
        // First draw after reseed is the seed itself, then the CA stream.
        let mut rng = CaRng::new(0x2961);
        for ind in e.population() {
            assert_eq!(ind.chrom, rng.next_u16());
        }
    }

    #[test]
    fn elitism_keeps_best_monotone() {
        let params = GaParams::new(32, 32, 10, 1, 0xB342);
        let run = engine(TestFunction::Bf6, params).run();
        let mut prev = 0u16;
        for s in &run.history {
            assert!(
                s.best.fitness >= prev,
                "best fitness regressed at gen {}",
                s.gen
            );
            prev = s.best.fitness;
        }
    }

    #[test]
    fn elite_is_stored_in_slot_zero() {
        let params = GaParams::new(16, 3, 10, 1, 0x061F);
        let mut e = engine(TestFunction::F2, params);
        e.init_population();
        let elite = e.best();
        e.step_generation();
        assert_eq!(e.population()[0], elite);
    }

    #[test]
    fn easy_function_reaches_optimum() {
        // Table V/Fig. 12: F3 is solved with small populations and few
        // generations.
        let params = GaParams::new(32, 32, 10, 1, 1567);
        let run = engine(TestFunction::F3, params).run();
        assert_eq!(run.best.fitness, 3060, "F3 optimum not found");
    }

    #[test]
    fn f2_near_optimal_for_all_paper_seeds_optimal_for_some() {
        // Table V runs #6–#9: F2's optimum 3060 is found for some
        // parameter settings and seeds. Our CA rule vector differs from
        // the authors' (theirs is unpublished), so the *specific* seed
        // that succeeds differs too; we assert the paper's qualitative
        // claim — every seed gets within 1%, at least one setting finds
        // the exact optimum.
        let mut exact = 0;
        for seed in carng::seeds::TABLE5_SEEDS {
            for pop in [32u8, 64] {
                let params = GaParams::new(pop, 32, 10, 1, seed);
                let run = engine(TestFunction::F2, params).run();
                // Within ~2% of the optimum for every seed (the paper's
                // own hardware results are within 3.7% on the hard
                // functions).
                assert!(
                    run.best.fitness >= 3000,
                    "seed {seed} pop {pop}: {}",
                    run.best.fitness
                );
                if run.best.fitness == 3060 {
                    exact += 1;
                }
            }
        }
        assert!(exact >= 1, "no setting found the F2 optimum");
    }

    #[test]
    fn history_has_one_entry_per_generation_plus_initial() {
        let params = GaParams::new(8, 10, 10, 1, 7);
        let run = engine(TestFunction::F3, params).run();
        assert_eq!(run.history.len(), 11);
        assert_eq!(run.history[0].gen, 0);
        assert_eq!(run.history.last().unwrap().gen, 10);
    }

    #[test]
    fn evaluation_count_matches_formula() {
        // Initial pop + (pop − 1) offspring per generation (slot 0 is
        // the unevaluated elite copy).
        let params = GaParams::new(16, 5, 10, 1, 3);
        let run = engine(TestFunction::F3, params).run();
        assert_eq!(run.evaluations, 16 + 5 * 15);
    }

    #[test]
    fn fitness_sum_is_sum_of_population() {
        let params = GaParams::new(16, 4, 12, 2, 0xAAAA);
        let mut e = engine(TestFunction::Mbf6_2, params);
        e.init_population();
        for _ in 0..4 {
            let s = e.step_generation();
            let manual: u32 = e.population().iter().map(|i| i.fitness as u32).sum();
            assert_eq!(s.fit_sum, manual);
        }
    }

    #[test]
    fn zero_crossover_zero_mutation_clones_parents() {
        // With both operators disabled, every offspring is a selected
        // parent, so every chromosome in gen 1 already exists in gen 0.
        let params = GaParams::new(16, 1, 0, 0, 0x1234);
        let mut e = engine(TestFunction::Mbf7_2, params);
        e.init_population();
        let gen0: Vec<u16> = e.population().iter().map(|i| i.chrom).collect();
        e.step_generation();
        for ind in e.population() {
            assert!(gen0.contains(&ind.chrom));
        }
    }

    #[test]
    fn same_seed_same_run_different_seed_different_run() {
        let p1 = GaParams::new(32, 8, 10, 1, 0x2961);
        let r1 = engine(TestFunction::Bf6, p1).run();
        let r2 = engine(TestFunction::Bf6, p1).run();
        assert_eq!(r1, r2, "determinism");
        let p2 = GaParams { seed: 0x061F, ..p1 };
        let r3 = engine(TestFunction::Bf6, p2).run();
        assert_ne!(r1.history, r3.history, "seed must matter (§II-C)");
    }

    #[test]
    fn all_zero_fitness_population_does_not_panic() {
        let params = GaParams::new(8, 3, 10, 1, 0x5555);
        let run = GaEngine::new(params, CaRng::new(params.seed), |_| 0u16).run();
        assert_eq!(run.best.fitness, 0);
        assert_eq!(run.history.len(), 4);
    }

    #[test]
    fn odd_population_size_fills_exactly() {
        let params = GaParams::new(15, 3, 10, 1, 0x2961);
        let mut e = engine(TestFunction::F3, params);
        e.init_population();
        for _ in 0..3 {
            e.step_generation();
            assert_eq!(e.population().len(), 15);
        }
    }

    #[test]
    fn non_elitist_ablation_can_regress_per_generation() {
        let params = GaParams::new(16, 32, 12, 2, 0x2961);
        let run = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::Bf6.eval_u16(c)
        })
        .with_elitism(false)
        .run();
        // The per-generation best must regress at least once over 32
        // generations without the elite copy...
        let regressed = run
            .history
            .windows(2)
            .any(|w| w[1].best.fitness < w[0].best.fitness);
        assert!(regressed, "non-elitist run never regressed — suspicious");
        // ...and the reported overall best is still the max over history.
        let max = run.history.iter().map(|s| s.best.fitness).max().unwrap();
        assert_eq!(run.best.fitness, max);
    }

    #[test]
    fn consecutive_draw_field_mode_cripples_mutation_on_f3() {
        // The ablation that motivated ops::xover_fields: with fields
        // taken from consecutive CA draws, the conditional mutation
        // point is nearly deterministic and F3 stalls below optimum.
        let params = GaParams::new(32, 200, 10, 1, 1567);
        let shared = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        let naive = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .with_field_mode(FieldMode::ConsecutiveDraws)
        .run();
        assert_eq!(
            shared.best.fitness, 3060,
            "shared-draw mode must solve F3 in 200 gens"
        );
        assert!(
            naive.best.fitness < 3060,
            "naive mode unexpectedly solved F3 (got {})",
            naive.best.fitness
        );
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let params = GaParams::new(16, 12, 10, 1, 0x2961);
        let mut reference = engine(TestFunction::Bf6, params);
        reference.init_population();
        for _ in 0..12 {
            reference.step_generation();
        }
        // Interrupt at generation 5, snapshot, restore into a FRESH
        // engine seeded with something unrelated, and finish the run.
        let mut first = engine(TestFunction::Bf6, params);
        first.init_population();
        for _ in 0..5 {
            first.step_generation();
        }
        let snap = first.snapshot();
        let wire = snap.to_hex();
        let back = EngineSnapshot::from_hex(&wire).expect("wire round trip");
        let mut resumed = engine(
            TestFunction::Bf6,
            GaParams {
                seed: 0xFFFF,
                ..params
            },
        );
        resumed.restore(&back).expect("restores");
        for _ in 0..7 {
            resumed.step_generation();
        }
        assert_eq!(resumed.population(), reference.population());
        assert_eq!(resumed.best(), reference.best());
        assert_eq!(resumed.rng_draws(), reference.rng_draws());
        assert_eq!(resumed.evaluations(), reference.evaluations());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let params = GaParams::new(8, 4, 10, 1, 0x061F);
        let mut e = engine(TestFunction::F3, params);
        e.init_population();
        let mut snap = e.snapshot();
        snap.population.pop();
        let before = e.snapshot();
        assert!(e.restore(&snap).is_err(), "short population rejected");
        assert_eq!(e.snapshot(), before, "failed restore leaves state alone");
        let mut zero = before.clone();
        zero.rng_next = 0;
        assert!(e.restore(&zero).is_err(), "unreachable RNG state rejected");
    }

    #[test]
    fn restore_rejects_a_sum_or_best_the_population_disagrees_with() {
        // Selection binary-searches prefix sums that must end at
        // fit_sum, so an in-memory snapshot is held to the same
        // consistency rules as a decoded one.
        let params = GaParams::new(8, 4, 10, 1, 0x061F);
        let mut e = engine(TestFunction::F3, params);
        e.init_population();
        e.step_generation();
        let before = e.snapshot();
        let mut sum = before.clone();
        sum.fit_sum += 1;
        assert_eq!(
            e.restore(&sum),
            Err(SnapshotError::BadValue {
                what: "fitness sum disagrees with the population"
            })
        );
        assert_eq!(e.snapshot(), before, "failed restore leaves state alone");
        let mut best = before.clone();
        best.best.fitness = 0;
        assert!(e.restore(&best).is_err(), "best below the population");
        assert_eq!(e.snapshot(), before, "failed restore leaves state alone");
        e.restore(&before).expect("a consistent snapshot restores");
        e.step_generation();
    }

    /// Counts every charge by kind.
    #[derive(Debug, Default)]
    struct Tally {
        draws: u64,
        evaluations: u64,
        stores: u64,
        elites: u64,
        selections: u64,
        crossovers: u64,
        mutations: u64,
        generations: u64,
    }

    impl StepCost for Tally {
        fn charge(&mut self, step: Step) {
            match step {
                Step::Draw => self.draws += 1,
                Step::Evaluate => self.evaluations += 1,
                Step::Store => self.stores += 1,
                Step::Elite => self.elites += 1,
                Step::Select { .. } => self.selections += 1,
                Step::Crossover => self.crossovers += 1,
                Step::Mutation => self.mutations += 1,
                Step::Generation => self.generations += 1,
            }
        }
    }

    #[test]
    fn step_cost_sees_every_draw_evaluation_elite_and_generation() {
        let params = GaParams::new(15, 6, 10, 1, 0x2961);
        let gens = params.n_gens as u64;
        for mode in [FieldMode::SharedDraw, FieldMode::ConsecutiveDraws] {
            for elitism in [true, false] {
                let f = TestFunction::Bf6;
                let costed = GaEngine::with_cost(
                    params,
                    CaRng::new(params.seed),
                    |c| f.eval_u16(c),
                    Tally::default(),
                )
                .with_elitism(elitism)
                .with_field_mode(mode)
                .run();
                let what = format!("{mode:?}, elitism {elitism}");
                let t = &costed.cost;
                assert_eq!(t.draws, costed.rng_draws, "{what}: draws");
                assert_eq!(t.evaluations, costed.evaluations, "{what}: evaluations");
                assert_eq!(t.generations, gens, "{what}: generations");
                let elites = if elitism { gens } else { 0 };
                assert_eq!(t.elites, elites, "{what}: elites");
                assert_eq!(t.stores, costed.evaluations, "{what}: stores");
                // Every operator takes one draw in the hardware's shared
                // mode and two in the consecutive ablation.
                let per_operator = match mode {
                    FieldMode::SharedDraw => 1,
                    FieldMode::ConsecutiveDraws => 2,
                };
                assert_eq!(
                    t.draws,
                    params.pop_size as u64
                        + t.selections
                        + per_operator * (t.crossovers + t.mutations),
                    "{what}: draws per operator"
                );
                // Charging never changes the run.
                let plain = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c))
                    .with_elitism(elitism)
                    .with_field_mode(mode)
                    .run();
                assert_eq!(
                    (costed.best, &costed.history, costed.rng_draws),
                    (plain.best, &plain.history, plain.rng_draws),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn deadline_is_checked_between_generations() {
        let params = GaParams::new(8, 4, 10, 1, 0xB342);
        let past = Deadline::after_ms(0);
        assert_eq!(
            engine(TestFunction::F3, params).run_with_deadline(Some(&past)),
            None
        );
        let ample = Deadline::after_ms(60_000);
        assert_eq!(
            engine(TestFunction::F3, params).run_with_deadline(Some(&ample)),
            Some(engine(TestFunction::F3, params).run())
        );
    }

    #[test]
    fn lfsr_rng_also_works() {
        use carng::Lfsr16;
        let params = GaParams::new(32, 16, 10, 1, 0x2961);
        let run = GaEngine::new(params, Lfsr16::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        })
        .run();
        assert!(run.best.fitness >= 2800, "LFSR-driven GA still optimizes");
    }
}
