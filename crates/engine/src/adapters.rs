//! [`Engine`] adapters for the five concrete backends.
//!
//! Each adapter owns the glue between the backend's native API and the
//! engine-layer contract: spec admission, deadline/watchdog plumbing,
//! trajectory capture, and the evaluation-count bookkeeping for
//! hardware models that do not count evaluations themselves
//! (`GaParams::evaluations_per_run` is the single source of truth).

use carng::{CaRng, Rng16, SnapshotRng};
use ga_core::analysis::convergence_generation;
use ga_core::behavioral::GenStats;
use ga_core::scaling::GenStats32;
use ga_core::{GaEngine, GaSystem, GaSystem32, StepCost};
use ga_fitness::{FemBank, FemSlot, LookupFem};
use hwsim::{Deadline, SimError};
use swga::OpCounts;

use crate::pack::TableRng;
use crate::spec::{
    BackendKind, Capabilities, Engine, EngineError, Limits, Prepared, RunOutcome, RunSpec,
    TrajPoint, Workload,
};

/// Build the lookup FEM realizing a workload on the RTL system: a paper
/// function's FEM reads its process-wide ROM image
/// ([`ga_fitness::TestFunction::rom`]), so no job tabulates one; a
/// healing workload tabulates [`ga_ehw::healing_fitness`] over all
/// 65 536 configurations per job (cheap — the VRC truth table is
/// bit-parallel — and not cached, as the target × fault key space is
/// unbounded), so the cycle-accurate core serves healing exactly like
/// any other FEM.
fn lookup_fem(workload: Workload) -> LookupFem {
    match workload {
        Workload::Function(f) => LookupFem::for_function(f),
        Workload::VrcHeal { target, fault } => {
            LookupFem::new(ga_fitness::rom::FitnessRom::tabulate_fn(|c| {
                ga_ehw::healing_fitness(c, target, Some(fault))
            }))
        }
    }
}

/// Lift a 16-bit per-generation history (shared by the behavioral
/// engine, the RTL interpreter's probe, and the swga reference) into
/// the backend-neutral trajectory. Public because the fault campaign
/// compares raw `HwRun` histories against registry goldens.
pub fn trajectory16(history: &[GenStats]) -> Vec<TrajPoint> {
    history
        .iter()
        .map(|s| TrajPoint {
            gen: s.gen,
            best_chrom: s.best.chrom as u32,
            best_fitness: s.best.fitness,
            fit_sum: s.fit_sum,
        })
        .collect()
}

/// Lift a 32-bit history ([`GenStats32`]) into the same trajectory.
pub fn trajectory32(history: &[GenStats32]) -> Vec<TrajPoint> {
    history
        .iter()
        .map(|s| TrajPoint {
            gen: s.gen,
            best_chrom: s.best.chrom,
            best_fitness: s.best.fitness,
            fit_sum: s.fit_sum,
        })
        .collect()
}

/// Table V convergence of a backend-neutral trajectory.
fn conv_gen(trajectory: &[TrajPoint], pop_size: u8) -> Option<u32> {
    convergence_generation(trajectory.iter().map(|t| (t.gen, t.fit_sum)), pop_size)
}

/// One 16-bit run of `ga_core::GaEngine` under the spec's deadline
/// (checked between generations), shared by the `Behavioral`,
/// `BitSim64` and `Swga` adapters: they differ only in the RNG
/// (`CaRng` or the netlist's [`TableRng`]) and in the [`StepCost`]
/// charged.
fn run16<R: Rng16, C: StepCost>(
    spec: &RunSpec,
    rng: R,
    cost: C,
) -> Result<RunOutcome, EngineError> {
    let params = spec.params;
    let f = spec.workload;
    let deadline = spec.deadline_ms.map(Deadline::after_ms);
    let run = GaEngine::with_cost(params, rng, move |c| f.eval_u16(c), cost)
        .run_with_deadline(deadline.as_ref())
        .ok_or(EngineError::DeadlineExceeded)?;
    let trajectory = trajectory16(&run.history);
    Ok(RunOutcome {
        best_chrom: run.best.chrom as u32,
        best_fitness: run.best.fitness,
        generations: params.n_gens,
        evaluations: run.evaluations,
        conv_gen: conv_gen(&trajectory, params.pop_size),
        cycles: None,
        rng_draws: Some(run.rng_draws),
        trajectory,
    })
}

/// A stepping handle over the behavioral engine with an arbitrary RNG
/// — the island-member factory both 16-bit stepping adapters share.
/// The RNG must be snapshot-capable: stepping handles are the
/// checkpoint/resume surface ([`ga_core::IslandMember::snapshot`]).
fn stepper16<R: SnapshotRng + Send + 'static>(
    spec: &RunSpec,
    rng: R,
) -> Box<dyn ga_core::IslandMember> {
    let f = spec.workload;
    Box::new(GaEngine::new(spec.params, rng, move |c| f.eval_u16(c)))
}

/// The behavioral reference engine (`ga_core::GaEngine` over the CA
/// RNG).
pub struct BehavioralEngine;

impl Engine for BehavioralEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Behavioral
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            widths: &[16],
            pack_width: 1,
            stepping: true,
        }
    }

    fn run(&self, prepared: &Prepared, _limits: &Limits) -> Result<RunOutcome, EngineError> {
        let spec = prepared.spec();
        run16(spec, CaRng::new(spec.params.seed), ())
    }

    fn stepper(&self, prepared: &Prepared) -> Option<Box<dyn ga_core::IslandMember>> {
        let spec = prepared.spec();
        Some(stepper16(spec, CaRng::new(spec.params.seed)))
    }
}

/// The cycle-accurate 16-bit hardware system (`ga_core::GaSystem`):
/// programs the initialization handshake and runs to `GA_done` under
/// both the simulated-cycle watchdog and the spec's deadline.
pub struct RtlInterpEngine;

impl Engine for RtlInterpEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::RtlInterp
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            widths: &[16],
            pack_width: 1,
            stepping: false,
        }
    }

    fn run(&self, prepared: &Prepared, limits: &Limits) -> Result<RunOutcome, EngineError> {
        let spec = prepared.spec();
        let mut sys = GaSystem::new(FemBank::new(vec![FemSlot::Lookup(lookup_fem(
            spec.workload,
        ))]));
        sys.program(&spec.params);
        let mut deadline = spec.deadline_ms.map(Deadline::after_ms);
        let run = sys
            .run_with_deadline(limits.sim_watchdog_cycles, deadline.as_mut())
            .map_err(map_sim_error)?;
        let trajectory = trajectory16(&run.history);
        Ok(RunOutcome {
            best_chrom: run.best.chrom as u32,
            best_fitness: run.best.fitness,
            generations: spec.params.n_gens,
            evaluations: spec.params.evaluations_per_run(),
            conv_gen: conv_gen(&trajectory, spec.params.pop_size),
            cycles: Some(run.cycles),
            rng_draws: Some(run.rng_draws),
            trajectory,
        })
    }
}

/// The compiled-netlist backend: the behavioral run over a
/// [`TableRng`], which draws by walking the synthesized CA-RNG
/// netlist's tabulated consume edge ([`crate::pack::CaRngTable`],
/// built once per process by simulating the compiled netlist). Its
/// `pack_width` of 64 only groups jobs in the serving layer; each runs
/// on its own.
pub struct BitSim64Engine;

impl Engine for BitSim64Engine {
    fn kind(&self) -> BackendKind {
        BackendKind::BitSim64
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            widths: &[16],
            pack_width: 64,
            stepping: true,
        }
    }

    fn run(&self, prepared: &Prepared, _limits: &Limits) -> Result<RunOutcome, EngineError> {
        let spec = prepared.spec();
        run16(spec, TableRng::new(spec.params.seed), ())
    }

    fn stepper(&self, prepared: &Prepared) -> Option<Box<dyn ga_core::IslandMember>> {
        let spec = prepared.spec();
        Some(stepper16(spec, TableRng::new(spec.params.seed)))
    }
}

/// The instrumented software GA — the PowerPC reference implementation
/// of the paper's §IV-C comparison, exposed as a first-class backend. It
/// is the behavioral run (`run16` over the CA RNG) charging
/// `swga::OpCounts`, so its deadline is checked between generations
/// like the behavioral engine's.
pub struct SwgaEngine;

impl Engine for SwgaEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Swga
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            widths: &[16],
            pack_width: 1,
            stepping: false,
        }
    }

    fn run(&self, prepared: &Prepared, _limits: &Limits) -> Result<RunOutcome, EngineError> {
        let spec = prepared.spec();
        run16(spec, CaRng::new(spec.params.seed), OpCounts::default())
    }
}

/// The ganged dual-core 32-bit system (`ga_core::GaSystem32`,
/// Fig. 6 / §III-D): two lockstep 16-bit cores behind the
/// `scalingLogic_parSel` block, evaluating the concatenated candidate
/// with [`TestFunction::eval_u32_split`].
pub struct Rtl32Engine;

impl Engine for Rtl32Engine {
    fn kind(&self) -> BackendKind {
        BackendKind::Rtl32
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            widths: &[32],
            pack_width: 1,
            stepping: false,
        }
    }

    fn run(&self, prepared: &Prepared, limits: &Limits) -> Result<RunOutcome, EngineError> {
        let spec = prepared.spec();
        let f = spec.workload;
        let mut sys = GaSystem32::new(move |c: u32| f.eval_u32_split(c));
        sys.program(&spec.params);
        let start_cycles = sys.cycles();
        let mut deadline = spec.deadline_ms.map(Deadline::after_ms);
        let run = sys
            .run_with_deadline(limits.sim_watchdog_cycles, deadline.as_mut())
            .map_err(map_sim_error)?;
        let trajectory = trajectory32(&run.history);
        Ok(RunOutcome {
            best_chrom: run.best.chrom,
            best_fitness: run.best.fitness,
            generations: spec.params.n_gens,
            evaluations: spec.params.evaluations_per_run(),
            conv_gen: conv_gen(&trajectory, spec.params.pop_size),
            cycles: Some(sys.cycles() - start_cycles),
            rng_draws: None,
            trajectory,
        })
    }
}

/// Map the simulator's error type onto the engine contract.
fn map_sim_error(e: SimError) -> EngineError {
    match e {
        SimError::Timeout { cycles } => EngineError::Watchdog { cycles },
        SimError::DeadlineExceeded { .. } => EngineError::DeadlineExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_core::GaParams;
    use ga_fitness::TestFunction;

    fn spec(width: u8, backendless_params: GaParams) -> RunSpec {
        RunSpec {
            width,
            workload: Workload::Function(TestFunction::Bf6),
            params: backendless_params,
            deadline_ms: None,
        }
    }

    fn run_on(e: &dyn Engine, s: RunSpec) -> Result<RunOutcome, EngineError> {
        let p = e.prepare(s)?;
        e.run(&p, &Limits::default())
    }

    #[test]
    fn behavioral_and_bitsim_agree_exactly() {
        for seed in [0, 1, 0x2961, 0xFFFF] {
            let s = spec(16, GaParams::new(16, 6, 10, 1, seed));
            let a = run_on(&BehavioralEngine, s).expect("behavioral runs");
            let b = run_on(&BitSim64Engine, s).expect("bitsim runs");
            assert_eq!(
                a, b,
                "seed {seed:#06x}: the netlist table must match the reference RNG"
            );
        }
    }

    #[test]
    fn rtl_reports_cycles_and_matching_best() {
        let s = spec(16, GaParams::new(8, 4, 10, 1, 0x061F));
        let r = run_on(&RtlInterpEngine, s).expect("rtl runs");
        let b = run_on(&BehavioralEngine, s).expect("behavioral runs");
        assert!(r.cycles.expect("rtl reports cycles") > 0);
        assert_eq!(
            (r.best_chrom, r.best_fitness),
            (b.best_chrom, b.best_fitness),
            "engines must agree on the answer"
        );
        assert_eq!(r.evaluations, b.evaluations, "evaluation formula");
        assert_eq!(r.trajectory, b.trajectory, "probe matches the model");
    }

    #[test]
    fn rtl32_matches_the_behavioral_dual_core_model() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let mut s = spec(32, params);
        s.workload = Workload::Function(TestFunction::F3);
        let hw = run_on(&Rtl32Engine, s).expect("rtl32 runs");
        let f = TestFunction::F3;
        let sw = ga_core::GaEngine32::new(
            params,
            CaRng::new(params.seed),
            CaRng::new(!params.seed),
            move |c| f.eval_u32_split(c),
        )
        .run();
        assert_eq!(hw.best_chrom, sw.best.chrom);
        assert_eq!(hw.best_fitness, sw.best.fitness);
        assert_eq!(hw.trajectory, trajectory32(&sw.history));
        assert_eq!(hw.evaluations, params.evaluations_per_run());
        assert!(hw.cycles.expect("rtl32 reports cycles") > 0);
    }

    #[test]
    fn healing_workload_agrees_across_16_bit_backends() {
        // The heal workload must be served bit-identically by the
        // closure path (behavioral, bitsim, swga) and the tabulated-ROM
        // path (cycle-accurate RTL).
        let mut s = spec(16, GaParams::new(16, 12, 10, 1, 0xB342));
        s.workload = Workload::VrcHeal {
            target: 0x9B9B,
            fault: ga_ehw::Fault::StuckAt {
                cell: 2,
                value: true,
            },
        };
        let reference = run_on(&BehavioralEngine, s).expect("behavioral heals");
        for e in [&RtlInterpEngine as &dyn Engine, &BitSim64Engine] {
            let r = run_on(e, s).expect("backend heals");
            assert_eq!(
                (r.best_chrom, r.best_fitness, &r.trajectory),
                (
                    reference.best_chrom,
                    reference.best_fitness,
                    &reference.trajectory
                ),
                "{:?} healing run diverged",
                e.kind()
            );
        }
        // A healing chromosome's fitness is the ehw crate's definition.
        assert_eq!(
            s.workload.eval_u16(reference.best_chrom as u16),
            reference.best_fitness
        );
    }

    #[test]
    fn width_checks_are_per_engine() {
        let s16 = spec(16, GaParams::default());
        let s32 = spec(32, GaParams::default());
        assert!(BehavioralEngine.prepare(s16).is_ok());
        assert_eq!(
            BehavioralEngine.prepare(s32).expect_err("width 32 refused"),
            EngineError::UnsupportedWidth { width: 32 }
        );
        assert!(Rtl32Engine.prepare(s32).is_ok());
        assert_eq!(
            Rtl32Engine.prepare(s16).expect_err("width 16 refused"),
            EngineError::UnsupportedWidth { width: 16 }
        );
    }

    #[test]
    fn zero_deadline_cancels_every_width16_engine() {
        for e in [
            &BehavioralEngine as &dyn Engine,
            &RtlInterpEngine,
            &BitSim64Engine,
            &SwgaEngine,
        ] {
            let mut s = spec(16, GaParams::new(8, 4, 10, 1, 0xB342));
            s.deadline_ms = Some(0);
            assert_eq!(
                run_on(e, s),
                Err(EngineError::DeadlineExceeded),
                "{} must honor a 0 ms deadline",
                e.kind().name()
            );
        }
    }

    #[test]
    fn watchdogs_are_typed() {
        let s = spec(16, GaParams::new(8, 4, 10, 1, 0xB342));
        let tight = Limits {
            sim_watchdog_cycles: 10,
        };
        let rtl = RtlInterpEngine
            .run(&RtlInterpEngine.prepare(s).expect("admits"), &tight)
            .expect_err("tight watchdog trips");
        assert_eq!(rtl, EngineError::Watchdog { cycles: 10 });
    }

    #[test]
    fn every_engine_refuses_work_past_the_admission_bound() {
        // 4e9 generations at pop 128: admitted by the parameter ranges,
        // refused by the work bound before any run allocates.
        let params = GaParams::new(128, 4_000_000_000, 10, 1, 7);
        for e in [
            &BehavioralEngine as &dyn Engine,
            &RtlInterpEngine,
            &BitSim64Engine,
            &SwgaEngine,
            &Rtl32Engine,
        ] {
            let width = e.capabilities().widths[0];
            match e.prepare(spec(width, params)) {
                Err(EngineError::InvalidSpec { msg }) => {
                    assert!(msg.contains("admission bound"), "{msg}")
                }
                other => panic!("{} admitted the job: {other:?}", e.kind().name()),
            }
        }
    }

    #[test]
    fn bitsim_pack_lanes_match_solo_runs() {
        let e = BitSim64Engine;
        let params = GaParams::new(8, 3, 10, 1, 0);
        let packed: Vec<Prepared> = [0x1111u16, 0x2222, 0x3333]
            .iter()
            .map(|&seed| {
                e.prepare(spec(16, GaParams { seed, ..params }))
                    .expect("admits")
            })
            .collect();
        let pack = e.run_pack(&packed, &Limits::default());
        for (p, r) in packed.iter().zip(&pack) {
            let solo = e.run(p, &Limits::default()).expect("solo runs");
            assert_eq!(r.as_ref().expect("lane runs"), &solo);
        }
    }

    #[test]
    fn swga_matches_behavioral_outcomes() {
        let s = spec(16, GaParams::new(16, 8, 10, 1, 0xB342));
        let a = run_on(&BehavioralEngine, s).expect("behavioral runs");
        let w = run_on(&SwgaEngine, s).expect("swga runs");
        assert_eq!(
            a, w,
            "same loop, same RNG: charging OpCounts changes nothing"
        );
    }

    #[test]
    fn outcome_convergence_is_the_history_rule() {
        // The trajectory lifts each generation's (gen, fit_sum) intact,
        // so the reported conv_gen is the Table V rule over the run's
        // own history.
        for f in TestFunction::ALL {
            let params = GaParams::new(16, 24, 10, 1, 0x2961 ^ f as u16);
            let mut s = spec(16, params);
            s.workload = Workload::Function(f);
            let outcome = run_on(&BehavioralEngine, s).expect("behavioral runs");
            let run = GaEngine::new(params, CaRng::new(params.seed), |c| f.eval_u16(c)).run();
            assert_eq!(
                outcome.conv_gen,
                convergence_generation(
                    run.history.iter().map(|g| (g.gen, g.fit_sum)),
                    params.pop_size
                ),
                "{}",
                f.name()
            );
        }
    }

    #[test]
    fn steppers_exist_exactly_where_capabilities_say() {
        let s = spec(16, GaParams::new(8, 4, 10, 1, 1));
        for e in [
            &BehavioralEngine as &dyn Engine,
            &RtlInterpEngine,
            &BitSim64Engine,
            &SwgaEngine,
        ] {
            let p = e.prepare(s).expect("admits");
            assert_eq!(
                e.stepper(&p).is_some(),
                e.capabilities().stepping,
                "{}",
                e.kind().name()
            );
        }
    }
}
