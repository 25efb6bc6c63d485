//! The cycle-accurate 32-bit GA: two complete 16-bit GA systems ganged
//! per Fig. 6, with the `scalingLogic_parSel` block and a shared 32-bit
//! fitness module.
//!
//! Composition rules implemented exactly as §III-D describes them:
//!
//! * each core has its **own RNG** (core 2 is seeded with the
//!   complemented seed) and its own GA memory bank holding its half of
//!   every individual;
//! * the **fitness module** sees the concatenated `{MSB, LSB}`
//!   candidate; `fit_valid` is sent to both cores. (We also mirror the
//!   fitness *value* to core 2 — the one wire beyond the paper's text,
//!   which is what keeps both cores' elite/fitness-sum registers
//!   tracking the same 32-bit individual; without it core 2's elitism
//!   has no fitness to rank by.)
//! * **parent selection** is decided by core 1 alone. The scaling
//!   logic (a) forces core 2's threshold draw to zero (its `rn` input
//!   is muxed to 0 during the threshold state — the status wire is part
//!   of the core's Moore outputs) and (b) intercepts core 2's
//!   memory-read fitness during the scan: zero until core 1's exported
//!   `sel_hit` wire fires, full-scale on that cycle — so core 2's
//!   cumulative sum crosses its (zero) threshold at exactly core 1's
//!   parent index.
//!
//! Because the two FSMs are identical, take data-independent paths
//! through crossover/mutation (one state each), and re-synchronize at
//! every fitness handshake, the cores run in **lockstep** — asserted by
//! the differential tests against [`crate::scaling::GaEngine32`].

use hwsim::{Clocked, Reg, Sim, SimError};

use crate::behavioral::GenStats;
use crate::hwcore::{BankSums, Leg};
use crate::memory::{pack, unpack, GaMemory};
use crate::params::GaParams;
use crate::ports::GaCoreIn;
use crate::rngmod::RngModule;
use crate::scaling::{GaRun32, Individual32};
use crate::system::UserIn;
use crate::GaCoreHw;

/// The shared 32-bit fitness module: same handshake and latency as the
/// 16-bit block-ROM FEM, evaluating the concatenated candidate.
struct Fem32<F: FnMut(u32) -> u16> {
    f: F,
    state: Reg<u8>, // 0 idle, 1 fetch, 2 hold
    value: Reg<u16>,
    valid: Reg<bool>,
}

impl<F: FnMut(u32) -> u16> Fem32<F> {
    fn new(f: F) -> Self {
        Fem32 {
            f,
            state: Reg::default(),
            value: Reg::default(),
            valid: Reg::default(),
        }
    }

    fn eval(&mut self, req_both: bool, cand32: u32) {
        match self.state.get() {
            0 => {
                if req_both {
                    self.value.set((self.f)(cand32));
                    self.state.set(1);
                }
            }
            1 => {
                self.valid.set(true);
                self.state.set(2);
            }
            _ => {
                if !req_both {
                    self.valid.set(false);
                    self.state.set(0);
                }
            }
        }
    }

    fn commit(&mut self) {
        self.state.commit();
        self.value.commit();
        self.valid.commit();
    }

    fn reset(&mut self) {
        self.state.reset_to(0);
        self.value.reset_to(0);
        self.valid.reset_to(false);
    }
}

/// The dual-core 32-bit GA system.
pub struct GaSystem32<F: FnMut(u32) -> u16> {
    core1: GaCoreHw,
    core2: GaCoreHw,
    rng1: RngModule,
    rng2: RngModule,
    mem1: GaMemory,
    mem2: GaMemory,
    fem: Fem32<F>,
    sim: Sim,
    history: Vec<GenStats>,
    pop_size: u8,
    /// Core 1's current bank's running sums for its selections.
    sums1: BankSums,
}

impl<F: FnMut(u32) -> u16> GaSystem32<F> {
    /// Build the composite around a 32-bit fitness function.
    pub fn new(fitness: F) -> Self {
        let mut s = GaSystem32 {
            core1: GaCoreHw::new(),
            core2: GaCoreHw::new(),
            rng1: RngModule::new_ca(1),
            rng2: RngModule::new_ca(2),
            mem1: GaMemory::new(),
            mem2: GaMemory::new(),
            fem: Fem32::new(fitness),
            sim: Sim::new_50mhz(),
            history: Vec::new(),
            pop_size: GaParams::default().pop_size,
            sums1: BankSums::default(),
        };
        s.core1.reset();
        s.core2.reset();
        s.fem.reset();
        s
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.sim.cycles()
    }

    /// One clock of the whole composite.
    fn step(&mut self, user: UserIn) {
        // Sample all registered outputs.
        let o1 = self.core1.out();
        let o2 = self.core2.out();
        let rn1 = self.rng1.rn();
        let rn2 = self.rng2.rn();
        let m1 = self.mem1.dout();
        let m2 = self.mem2.dout();
        let fem_valid = self.fem.valid.get();
        let fem_value = self.fem.value.get();

        // --- core 1 (master) -----------------------------------------
        let comb1 = self.core1.eval(&GaCoreIn {
            ga_load: user.ga_load,
            index: user.index,
            value: user.value,
            data_valid: user.data_valid,
            fit_value: fem_value,
            fit_valid: fem_valid,
            mem_data_in: m1,
            start_ga: user.start_ga,
            rn: rn1,
            ..Default::default()
        });

        // --- scalingLogic_parSel ---------------------------------------
        // Core 2's threshold draw is forced to zero; its selection-scan
        // fitness reads are 0 until core 1's same-cycle hit, then max.
        let rn2_in = if self.core2.is_sel_draw() { 0 } else { rn2 };
        let mem2_in = if self.core2.is_sel_scanning() {
            let ind = unpack(m2);
            let forced = if comb1.sel_hit { 0xFFFF } else { 0 };
            pack(crate::behavioral::Individual {
                chrom: ind.chrom,
                fitness: forced,
            })
        } else {
            m2
        };

        // --- core 2 (slave) --------------------------------------------
        let comb2 = self.core2.eval(&GaCoreIn {
            ga_load: user.ga_load,
            index: user.index,
            value: user.value,
            data_valid: user.data_valid,
            // fit_valid to both cores; the value is mirrored (see the
            // module docs for why).
            fit_value: fem_value,
            fit_valid: fem_valid,
            mem_data_in: mem2_in,
            start_ga: user.start_ga,
            rn: rn2_in,
            ..Default::default()
        });

        // --- shared FEM -------------------------------------------------
        let cand32 = ((o1.candidate as u32) << 16) | o2.candidate as u32;
        self.fem.eval(o1.fit_request && o2.fit_request, cand32);

        // --- RNGs and memories ------------------------------------------
        // Core 2's RNG powers on with the complemented seed (matching
        // the behavioral GaEngine32 convention) regardless of what its
        // seed register was programmed with.
        let seed2 = comb2
            .rn_seed_load
            .map(|_| !self.core1.programmed_params().seed);
        self.rng1.eval(comb1.rn_consume, comb1.rn_seed_load);
        self.rng2.eval(comb2.rn_consume, seed2);
        self.mem1.eval(o1.mem_address, o1.mem_data_out, o1.mem_wr);
        self.mem2.eval(o2.mem_address, o2.mem_data_out, o2.mem_wr);

        // Probe: the generation event fires on both cores the same
        // cycle (lockstep); core 1 carries the fitness, core 2 the LSB.
        if let (Some((gen, msb, fit, sum)), Some((gen2, lsb, _, _))) =
            (comb1.stats_event, comb2.stats_event)
        {
            debug_assert_eq!(gen, gen2, "cores out of lockstep at a generation boundary");
            self.history.push(GenStats {
                gen,
                best_chrom: ((msb as u32) << 16) | lsb as u32,
                best_fitness: fit,
                fit_sum: sum,
            });
        }

        // Commit everything: one clock edge.
        self.core1.commit();
        self.core2.commit();
        self.rng1.commit();
        self.rng2.commit();
        self.mem1.commit();
        self.mem2.commit();
        self.fem.commit();
        // Count the cycle (the composite commits its modules itself).
        struct Nop;
        impl Clocked for Nop {
            fn reset(&mut self) {}
            fn commit(&mut self) {}
        }
        let mut nop = Nop;
        self.sim.step(&mut nop, |_| {});
    }

    /// Cycles among [`GaSystem32::cycles`] stepped one by one; the rest
    /// were taken in bulk by the joint scan and pair skip.
    pub fn stepped_cycles(&self) -> u64 {
        self.sim.stepped_cycles()
    }

    /// The joint pair skip (DESIGN.md, "Scan and pair skip"): both cores
    /// take the breeding pair in progress leg by leg, in one host step,
    /// up to the next `SelDraw` of parent 1 or `GenEnd`. Only legs that
    /// fit the `budget` cycles left before the watchdog. Returns whether
    /// it took any cycle.
    fn skip_pair(&mut self, budget: u64) -> bool {
        let mut left = budget;
        while left > 0 {
            let Some(cycles) = self.skip_leg(left) else {
                break;
            };
            left -= cycles;
            if self.core1.at_pair_start() {
                break;
            }
        }
        left < budget
    }

    /// The joint scan skip alone: [`GaSystem32::skip_pair`]'s selection
    /// leg, taken only from the scan's first cycle.
    #[cfg(test)]
    fn skip_scan(&mut self, budget: u64) -> bool {
        self.core1.plan_scan(|_| 0).is_some() && self.skip_leg(budget).is_some()
    }

    /// Take the next [`Leg`] on both cores if they are at the same one
    /// and it fits `budget` (a fitness wait up to the budget), counting
    /// its cycles on the clock; otherwise both step. The shared FEM is
    /// still clocked, fed the joined request and candidate.
    ///
    /// In a selection core 1 finds the hit member *k* in its memory.
    /// Core 2 sees what `scalingLogic_parSel` feeds it: a zero threshold
    /// draw, then fitness 0 until core 1's hit and full scale on it, so
    /// it ends at the same *k* with `cum == 0`; if its plan ends
    /// anywhere else, the cores step. Returns the cycles taken.
    fn skip_leg(&mut self, budget: u64) -> Option<u64> {
        let leg = self.core1.leg()?;
        if self.core2.leg() != Some(leg) {
            return None;
        }
        let (o1, o2) = (self.core1.out(), self.core2.out());
        let request = o1.fit_request && o2.fit_request;
        let cand32 = ((o1.candidate as u32) << 16) | o2.candidate as u32;
        let cycles = match leg {
            Leg::Select => {
                let skip1 =
                    self.core1
                        .plan_selection(self.rng1.rn(), &self.mem1, &mut self.sums1)?;
                let forced = |j: u8| if j == skip1.member { 0xFFFF } else { 0 };
                let skip2 = self
                    .core2
                    .plan_select(0, forced)
                    .or_else(|| self.core2.plan_scan(forced))?;
                if skip2.member != skip1.member
                    || skip2.cycles() != skip1.cycles()
                    || skip1.cycles() > budget
                {
                    return None;
                }
                self.core1.skip_scan(skip1, &mut self.mem1, &mut self.rng1);
                self.core2.skip_scan(skip2, &mut self.mem2, &mut self.rng2);
                skip1.cycles()
            }
            Leg::Breed(cycles) if cycles <= budget => {
                self.core1.skip_breed(&mut self.rng1, &mut self.mem1);
                self.core2.skip_breed(&mut self.rng2, &mut self.mem2);
                cycles
            }
            Leg::Store if Leg::STORE_CYCLES <= budget => {
                self.core1.skip_store(&mut self.mem1);
                self.core2.skip_store(&mut self.mem2);
                Leg::STORE_CYCLES
            }
            Leg::Wait => {
                let mut cycles = 0;
                let mut answer = None;
                while answer.is_none() && cycles < budget {
                    let (valid, value) = (self.fem.valid.get(), self.fem.value.get());
                    self.fem.eval(request, cand32);
                    self.fem.commit();
                    cycles += 1;
                    answer = valid.then_some(value);
                }
                self.core1.skip_wait(cycles, answer, &mut self.mem1);
                self.core2.skip_wait(cycles, answer, &mut self.mem2);
                self.sim.advance(cycles);
                return Some(cycles);
            }
            _ => return None,
        };
        // Outside the wait the request is low, under which an idle FEM
        // stays as it is: clock it only while it drains.
        for _ in 0..cycles {
            if self.fem.state.get() == 0 {
                break;
            }
            self.fem.eval(request, cand32);
            self.fem.commit();
        }
        self.sim.advance(cycles);
        Some(cycles)
    }

    /// Program both cores with the same parameters (the user programs
    /// one init bus; both cores listen — Fig. 6 shows a single
    /// initialization path).
    pub fn program(&mut self, params: &GaParams) -> u64 {
        params.validate().expect("invalid GA parameters");
        self.pop_size = params.pop_size;
        let start = self.sim.cycles();
        let mut init = crate::init::InitModule::new(params);
        init.reset();
        init.start();
        let mut guard = 0;
        while !init.out().done {
            let io = init.out();
            let ack = self.core1.out().data_ack;
            init.eval(ack);
            self.step(UserIn {
                ga_load: io.ga_load,
                index: io.index,
                value: io.value,
                data_valid: io.data_valid,
                ..Default::default()
            });
            init.commit();
            guard += 1;
            assert!(guard < 1000, "init handshake hung");
        }
        self.step(UserIn::default());
        self.sim.cycles() - start
    }

    /// Pulse start and run to completion on both cores.
    pub fn run(&mut self, max_cycles: u64) -> Result<GaRun32, SimError> {
        self.run_with_deadline(max_cycles, None)
    }

    /// [`GaSystem32::run`] with an additional wall-clock budget,
    /// mirroring [`crate::GaSystem::run_with_deadline`]: the cycle
    /// watchdog bounds *simulated* time, the [`hwsim::Deadline`] bounds
    /// *host* time. Checked between cycles, so an in-flight cycle
    /// always completes.
    pub fn run_with_deadline(
        &mut self,
        max_cycles: u64,
        mut deadline: Option<&mut hwsim::Deadline>,
    ) -> Result<GaRun32, SimError> {
        self.history.clear();
        let start = self.sim.cycles();
        self.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        loop {
            let done1 = self.core1.out().ga_done;
            let done2 = self.core2.out().ga_done;
            if done1 && done2 {
                break;
            }
            let guard = self.sim.cycles() - start;
            if guard >= max_cycles {
                return Err(SimError::Timeout { cycles: guard });
            }
            if let Some(d) = deadline.as_deref_mut() {
                if d.expired() {
                    return Err(SimError::DeadlineExceeded { cycles: guard });
                }
            }
            if !self.skip_pair(max_cycles - guard) {
                self.step(UserIn::default());
            }
        }
        Ok(self.finish_run())
    }

    /// The run both cores just finished.
    fn finish_run(&mut self) -> GaRun32 {
        let chrom = ((self.core1.out().candidate as u32) << 16) | self.core2.out().candidate as u32;
        let fitness = self
            .history
            .last()
            .map(|s| s.best_fitness)
            .unwrap_or_default();
        GaRun32 {
            best: Individual32 { chrom, fitness },
            history: std::mem::take(&mut self.history),
            evaluations: self.core1.programmed_params().evaluations_per_run(),
        }
    }

    /// Program, then run.
    pub fn program_and_run(
        &mut self,
        params: &GaParams,
        max_cycles: u64,
    ) -> Result<GaRun32, SimError> {
        self.program(params);
        self.run(max_cycles)
    }

    /// Testbench probe: the final 32-bit population, concatenated from
    /// both memories' current banks.
    pub fn population(&self) -> Vec<Individual32> {
        let b1 = self.core1.current_bank_base();
        let b2 = self.core2.current_bank_base();
        let p1 = self.mem1.backdoor_population(b1, self.pop_size);
        let p2 = self.mem2.backdoor_population(b2, self.pop_size);
        p1.iter()
            .zip(&p2)
            .map(|(m, l)| Individual32 {
                chrom: ((m.chrom as u32) << 16) | l.chrom as u32,
                fitness: m.fitness,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::GaEngine32;
    use carng::CaRng;
    use ga_fitness::TestFunction;
    use proptest::prelude::*;

    fn sum_halves(c: u32) -> u16 {
        (((c >> 16) + (c & 0xFFFF)) / 2) as u16
    }

    fn minimax(c: u32) -> u16 {
        let msb = (c >> 16) as i64;
        let lsb = (c & 0xFFFF) as i64;
        ((msb - lsb) / 2 + 32768).clamp(0, 65535) as u16
    }

    /// The cycle-accurate composite must match the behavioral dual-core
    /// engine generation for generation.
    fn assert_32bit_models_agree(f: fn(u32) -> u16, params: GaParams) {
        let sw =
            GaEngine32::new(params, CaRng::new(params.seed), CaRng::new(!params.seed), f).run();
        let mut hw = GaSystem32::new(f);
        let run = hw
            .program_and_run(&params, 1_000_000_000)
            .expect("hardware run timed out");
        assert_eq!(run, sw);
    }

    /// The per-cycle reference: `step()` from `start_GA` until both
    /// cores raise `GA_done`, under `run`'s watchdog rule, never taking
    /// the joint scan or pair skip.
    fn stepped_run<F: FnMut(u32) -> u16>(
        sys: &mut GaSystem32<F>,
        max_cycles: u64,
    ) -> Result<GaRun32, SimError> {
        sys.history.clear();
        let start = sys.sim.cycles();
        sys.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        while !(sys.core1.out().ga_done && sys.core2.out().ga_done) {
            let guard = sys.sim.cycles() - start;
            if guard >= max_cycles {
                return Err(SimError::Timeout { cycles: guard });
            }
            sys.step(UserIn::default());
        }
        Ok(sys.finish_run())
    }

    /// Everything a run leaves behind: both cores' registers (outputs,
    /// `profile()` and `rng_draws()` included), both memories with their
    /// read registers, both RNG modules, the shared FEM's registers and
    /// the clock.
    fn end_state<F: FnMut(u32) -> u16>(sys: &GaSystem32<F>) -> (String, String, String, u64) {
        (
            format!("{:?} {:?}", sys.core1, sys.core2),
            format!("{:?} {:?}", sys.mem1, sys.mem2),
            format!(
                "{:?} {:?} {:?} {:?} {:?}",
                sys.rng1, sys.rng2, sys.fem.state, sys.fem.value, sys.fem.valid
            ),
            sys.cycles(),
        )
    }

    /// `run` (joint scan and pair skip allowed) and the per-cycle
    /// reference must agree on the result and on every piece of state
    /// they leave. Returns the cycles `run` stepped one by one.
    fn assert_skip_exact(f: impl Fn(u32) -> u16 + Copy, params: &GaParams, max_cycles: u64) -> u64 {
        let mut fast = GaSystem32::new(f);
        let mut slow = GaSystem32::new(f);
        fast.program(params);
        slow.program(params);
        let before = fast.stepped_cycles();
        let got = fast.run(max_cycles);
        let want = stepped_run(&mut slow, max_cycles);
        assert_eq!(got, want, "{params:?}, max_cycles {max_cycles}");
        assert_eq!(fast.core1.profile(), slow.core1.profile());
        assert_eq!(fast.core2.profile(), slow.core2.profile());
        assert_eq!(fast.core1.rng_draws(), slow.core1.rng_draws());
        assert_eq!(
            end_state(&fast),
            end_state(&slow),
            "{params:?}, max_cycles {max_cycles}"
        );
        fast.stepped_cycles() - before
    }

    #[test]
    fn joint_pair_skip_is_taken_and_stops_within_its_budget() {
        let params = GaParams::new(32, 2, 10, 1, 0x2961);
        let make = || {
            let mut sys = GaSystem32::new(sum_halves);
            sys.program(&params);
            sys.step(UserIn {
                start_ga: true,
                ..Default::default()
            });
            while !sys.core1.at_pair_start() {
                sys.step(UserIn::default());
            }
            assert!(sys.core2.at_pair_start(), "cores in lockstep");
            sys
        };
        let mut slow = make();
        let mut states = vec![end_state(&slow)];
        slow.step(UserIn::default());
        states.push(end_state(&slow));
        while !slow.core1.at_pair_start() {
            slow.step(UserIn::default());
            states.push(end_state(&slow));
        }
        let pair = states.len() as u64 - 1;
        let mut sys = make();
        assert!(!sys.skip_pair(0));
        assert!(sys.skip_pair(u64::MAX));
        assert_eq!(
            end_state(&sys),
            states[pair as usize],
            "the whole pair, then stop"
        );
        for budget in [1, 5, pair / 2, pair - 1] {
            let mut sys = make();
            let start = sys.cycles();
            sys.skip_pair(budget);
            let taken = sys.cycles() - start;
            assert!(taken <= budget, "budget {budget}: took {taken}");
            assert_eq!(end_state(&sys), states[taken as usize], "budget {budget}");
        }
    }

    #[test]
    fn joint_pair_skip_steps_only_the_cycles_outside_the_pairs() {
        for (pop, gens) in [(2, 3), (7, 2), (32, 16)] {
            let params = GaParams::new(pop, gens, 10, 1, 0x2961);
            let stepped = assert_skip_exact(sum_halves, &params, u64::MAX);
            assert_eq!(stepped, 3 + 7 * pop as u64 + 3 * gens as u64, "{params:?}");
        }
    }

    #[test]
    fn joint_pair_skip_matches_stepping_on_the_fixed_grid() {
        let f2 = |c: u32| TestFunction::F2.eval_u32_split(c);
        for pop in [2, 7, 128] {
            for xt in [0, 15] {
                for mt in [0, 15] {
                    assert_skip_exact(f2, &GaParams::new(pop, 3, xt, mt, 0x2961), 100_000_000);
                }
            }
            assert_skip_exact(|_| 0, &GaParams::new(pop, 2, 10, 1, 0xB342), 100_000_000);
        }
    }

    #[test]
    fn joint_scan_skip_is_taken() {
        let params = GaParams::new(32, 2, 10, 1, 0x2961);
        let mut sys = GaSystem32::new(sum_halves);
        sys.program(&params);
        sys.step(UserIn {
            start_ga: true,
            ..Default::default()
        });
        while sys.core1.plan_scan(|_| 0).is_none() {
            sys.step(UserIn::default());
        }
        assert!(sys.core2.plan_scan(|_| 0).is_some(), "cores in lockstep");
        let before = sys.cycles();
        assert!(!sys.skip_scan(2), "must fit the watchdog");
        assert!(sys.skip_scan(u64::MAX));
        assert!(sys.cycles() - before >= 3);
        assert!(!sys.skip_scan(u64::MAX), "only at the scan's first cycle");
    }

    #[test]
    fn joint_scan_skip_matches_stepping_on_the_fixed_grid() {
        let f2 = |c: u32| TestFunction::F2.eval_u32_split(c);
        for pop in [2, 128] {
            for (xt, mt) in [(0, 0), (15, 15)] {
                assert_skip_exact(f2, &GaParams::new(pop, 3, xt, mt, 0x2961), 100_000_000);
            }
            // All-zero fitness: every scan ends on the `last` branch.
            assert_skip_exact(|_| 0, &GaParams::new(pop, 2, 10, 1, 0xB342), 100_000_000);
        }
    }

    #[test]
    fn watchdog_mid_scan_times_out_exactly_as_stepping() {
        let params = GaParams::new(4, 2, 10, 1, 0x2961);
        let mut probe = GaSystem32::new(sum_halves);
        probe.program(&params);
        let start = probe.cycles();
        probe.run(u64::MAX).unwrap();
        let total = probe.cycles() - start;
        for bound in 0..=total + 1 {
            assert_skip_exact(sum_halves, &params, bound);
        }
        let params = GaParams::new(128, 2, 10, 1, 0x2961);
        for bound in (30_000..30_007).chain([100, 1000, 1234, 5001, 20_000]) {
            assert_skip_exact(minimax, &params, bound);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn joint_pair_skip_matches_stepping_on_random_parameters(
            pop in 2u8..=128,
            n_gens in 1u32..=3,
            xt in 0u8..=15,
            mt in 0u8..=15,
            seed in 1u16..=u16::MAX,
            func in 0usize..6,
            percent in 50u64..=100,
        ) {
            // A watchdog bound late in the run stops it inside a pair.
            let f = move |c| TestFunction::ALL[func].eval_u32_split(c);
            let params = GaParams::new(pop, n_gens, xt, mt, seed);
            let mut probe = GaSystem32::new(f);
            probe.program(&params);
            let start = probe.cycles();
            probe.run(u64::MAX).unwrap();
            let bound = (probe.cycles() - start) * percent / 100;
            assert_skip_exact(f, &params, bound);
        }

        #[test]
        fn joint_scan_skip_matches_stepping_on_random_parameters(
            pop in 2u8..=128,
            n_gens in 1u32..=3,
            xt in 0u8..=15,
            mt in 0u8..=15,
            seed in 1u16..=u16::MAX,
            func in 0usize..6,
        ) {
            let f = TestFunction::ALL[func];
            let params = GaParams::new(pop, n_gens, xt, mt, seed);
            assert_skip_exact(move |c| f.eval_u32_split(c), &params, 100_000_000);
        }
    }

    #[test]
    fn models_agree_small() {
        assert_32bit_models_agree(sum_halves, GaParams::new(8, 4, 10, 1, 0x2961));
    }

    #[test]
    fn models_agree_paper_setting() {
        assert_32bit_models_agree(sum_halves, GaParams::new(32, 16, 10, 1, 0xB342));
    }

    #[test]
    fn models_agree_minimax_odd_pop() {
        assert_32bit_models_agree(minimax, GaParams::new(15, 8, 12, 3, 0x061F));
    }

    #[test]
    fn composite_population_is_consistent() {
        let params = GaParams::new(16, 6, 10, 1, 0xAAAA);
        let mut hw = GaSystem32::new(sum_halves);
        hw.program_and_run(&params, 500_000_000).unwrap();
        let pop = hw.population();
        assert_eq!(pop.len(), 16);
        // Every stored fitness must match the 32-bit function of the
        // stored chromosome (the mirrored-fitness wiring is coherent).
        for ind in &pop {
            assert_eq!(ind.fitness, sum_halves(ind.chrom), "{:#010X}", ind.chrom);
        }
    }

    #[test]
    fn dual_core_optimizes() {
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let mut hw = GaSystem32::new(sum_halves);
        let run = hw.program_and_run(&params, 1_000_000_000).unwrap();
        assert!(run.best.fitness > 55_000, "fitness {}", run.best.fitness);
    }
}
