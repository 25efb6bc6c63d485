//! The engine-layer vocabulary: what a run request looks like
//! ([`RunSpec`]), what every backend promises ([`Capabilities`]), how a
//! run can fail ([`EngineError`]), and what every backend reports back
//! ([`RunOutcome`]) — plus the [`Engine`] trait tying them together.
//!
//! The shape is deliberately backend-neutral: `best_chrom` is `u32` so
//! the ganged 32-bit core fits the same outcome as the 16-bit engines,
//! and the per-generation [`GenStats`] trajectory carries enough state
//! (best chromosome, its fitness, fitness sum) for both the Table V
//! convergence metric and the fault-campaign golden comparison,
//! regardless of which backend produced it.

use std::fmt;

use ga_core::{GaParams, GenStats};
use ga_ehw::{healing_fitness, Fault, TruthTable};
use ga_fitness::TestFunction;

use crate::islands::MAX_ISLANDS;

/// Which engine executes a run. One variant per registered backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The behavioral reference engine (`ga_core::GaEngine`).
    Behavioral,
    /// The cycle-accurate hardware system (`ga_core::GaSystem`).
    RtlInterp,
    /// The behavioral engine drawing from the compiled CA-RNG netlist:
    /// each draw is one lookup in its tabulated consume edge
    /// ([`crate::TableRng`]).
    BitSim64,
    /// The instrumented software GA — the behavioral engine charging
    /// `swga::OpCounts`, the paper's PowerPC reference implementation.
    Swga,
    /// The ganged dual-core 32-bit system (`ga_core::GaSystem32`,
    /// Fig. 6 / §III-D) for `width: 32` jobs.
    Rtl32,
}

impl BackendKind {
    /// Every backend, in dispatch-priority order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Behavioral,
        BackendKind::RtlInterp,
        BackendKind::BitSim64,
        BackendKind::Swga,
        BackendKind::Rtl32,
    ];

    /// Stable lowercase name used in the JSONL schema and reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Behavioral => "behavioral",
            BackendKind::RtlInterp => "rtl",
            BackendKind::BitSim64 => "bitsim64",
            BackendKind::Swga => "swga",
            BackendKind::Rtl32 => "rtl32",
        }
    }

    /// Parse a backend name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(s))
    }
}

/// What a run optimizes — the backend-neutral fitness selection. Every
/// engine evaluates a `Workload` the same way, so results are
/// bit-identical across backends regardless of the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One of the paper's benchmark fitness functions. 32-bit engines
    /// evaluate the split-average extension
    /// ([`TestFunction::eval_u32_split`]).
    Function(TestFunction),
    /// VRC healing (`ga-ehw`): evolve a 16-bit fabric configuration
    /// whose *faulted* truth table reproduces `target`. Fitness is
    /// [`ga_ehw::healing_fitness`]; the chromosome *is* the
    /// configuration bitstring, so this workload is 16-bit only
    /// (admission enforces it).
    VrcHeal {
        /// The target 4-input truth table.
        target: TruthTable,
        /// The injected fault the configuration must work around.
        fault: Fault,
    },
}

impl Workload {
    /// Evaluate a 16-bit chromosome.
    pub fn eval_u16(self, chrom: u16) -> u16 {
        match self {
            Workload::Function(f) => f.eval_u16(chrom),
            Workload::VrcHeal { target, fault } => healing_fitness(chrom, target, Some(fault)),
        }
    }

    /// Evaluate a 32-bit chromosome via the split-average extension.
    /// Only function workloads reach 32-bit engines (admission rejects
    /// 32-bit healing specs), so healing panics here by design.
    pub fn eval_u32_split(self, chrom: u32) -> u16 {
        match self {
            Workload::Function(f) => f.eval_u32_split(chrom),
            Workload::VrcHeal { .. } => {
                unreachable!("VRC healing is admitted at width 16 only")
            }
        }
    }
}

impl From<TestFunction> for Workload {
    fn from(f: TestFunction) -> Self {
        Workload::Function(f)
    }
}

/// One GA execution request, backend-neutral: everything an engine
/// needs to know to run, nothing about *how* it runs (watchdog budgets
/// live in [`Limits`], chosen by the caller, not the job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Chromosome width in bits. Checked against
    /// [`Capabilities::widths`] at admission.
    pub width: u8,
    /// Fitness selection (benchmark function or VRC healing).
    pub workload: Workload,
    /// The Table III parameter set. Held unvalidated so a bad spec
    /// surfaces as a typed [`EngineError::InvalidSpec`], never a panic.
    pub params: GaParams,
    /// Optional wall-clock budget; expiry cancels the run with
    /// [`EngineError::DeadlineExceeded`]. An in-flight generation (or
    /// simulated cycle) always completes first.
    pub deadline_ms: Option<u64>,
}

/// What one backend supports — the registry's dispatch metadata. All
/// fields are static properties of the engine, not of any one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Chromosome widths this engine implements.
    pub widths: &'static [u8],
    /// How many compatible runs the serving layer groups into one
    /// [`Engine::run_pack`] call (1 = solo only; 64 for `bitsim64`).
    pub pack_width: usize,
    /// Can expose a generation-stepping handle ([`Engine::stepper`])
    /// for island-model composition.
    pub stepping: bool,
}

/// The admission work bound: the most fitness evaluations
/// ([`GaParams::evaluations_per_run`]) one run may consume. 2²¹ is 4×
/// the largest solo shape in the repo, the Table IV Large preset
/// (128 × 4096 = 520 320 evaluations); it caps the per-generation
/// history a run keeps, once, at about two million 16-byte
/// [`GenStats`] (32 MiB at pop 2). An island ring keeps no history and
/// may do `MAX_ISLANDS × MAX_EVALUATIONS` in total
/// ([`Capabilities::admit_ring`]).
pub const MAX_EVALUATIONS: u64 = 1 << 21;

impl Capabilities {
    /// The admission check for one run: width support first (so a
    /// wrong-width spec is reported as [`EngineError::UnsupportedWidth`]
    /// even when its parameters are also bad), then the Table III
    /// parameter ranges, then the [`MAX_EVALUATIONS`] work bound.
    pub fn admit(&self, spec: &RunSpec) -> Result<(), EngineError> {
        self.admit_within(spec, 1, MAX_EVALUATIONS)
    }

    /// The admission check for a ring of `islands` members running
    /// `spec`: as [`Capabilities::admit`], but the members keep no
    /// per-generation history, so the ring may do the work of
    /// [`MAX_ISLANDS`] maximal runs, shared by all its islands.
    pub fn admit_ring(&self, spec: &RunSpec, islands: usize) -> Result<(), EngineError> {
        self.admit_within(spec, islands as u64, MAX_ISLANDS as u64 * MAX_EVALUATIONS)
    }

    /// Admit `runs` runs of `spec` doing at most `bound` evaluations in
    /// total.
    fn admit_within(&self, spec: &RunSpec, runs: u64, bound: u64) -> Result<(), EngineError> {
        if !self.widths.contains(&spec.width) {
            return Err(EngineError::UnsupportedWidth { width: spec.width });
        }
        if matches!(spec.workload, Workload::VrcHeal { .. }) && spec.width != 16 {
            return Err(EngineError::InvalidSpec {
                msg: "VRC healing is a 16-bit workload (the chromosome is the \
                      fabric configuration)"
                    .into(),
            });
        }
        spec.params
            .validate()
            .map_err(|msg| EngineError::InvalidSpec { msg })?;
        let evaluations = spec.params.evaluations_per_run().saturating_mul(runs);
        if evaluations > bound {
            return Err(EngineError::InvalidSpec {
                msg: format!(
                    "{evaluations} fitness evaluations exceed the admission bound of {bound}"
                ),
            });
        }
        Ok(())
    }
}

/// Caller-chosen execution budgets, separate from the job itself so a
/// service can tighten them without rewriting specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Simulated-cycle watchdog for the cycle-accurate backends.
    pub sim_watchdog_cycles: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            sim_watchdog_cycles: 2_000_000_000,
        }
    }
}

/// An admitted run: proof that [`Capabilities::admit`] passed. Engines
/// only accept `Prepared`, so the width/parameter checks cannot be
/// skipped by a confused caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepared {
    spec: RunSpec,
}

impl Prepared {
    /// Wrap an admitted spec. Called by [`Engine::prepare`]; custom
    /// engines with extra admission rules construct it the same way
    /// after their own checks.
    pub fn new(spec: RunSpec) -> Self {
        Prepared { spec }
    }

    /// The admitted spec.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }
}

/// How a run can fail — every variant is a typed, non-panicking result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Parameters outside the hardware ranges of Table III, or past
    /// the [`MAX_EVALUATIONS`] work bound.
    InvalidSpec {
        /// The validation failure.
        msg: String,
    },
    /// Chromosome width not implemented by this engine.
    UnsupportedWidth {
        /// The requested width.
        width: u8,
    },
    /// The spec's wall-clock deadline expired; the run was cancelled.
    DeadlineExceeded,
    /// A simulated-cycle watchdog fired ([`Limits`]).
    Watchdog {
        /// Simulated cycles charged before giving up.
        cycles: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidSpec { msg } => write!(f, "invalid spec: {msg}"),
            EngineError::UnsupportedWidth { width } => {
                write!(f, "chromosome width {width} unsupported by this engine")
            }
            EngineError::DeadlineExceeded => write!(f, "wall-clock deadline expired"),
            EngineError::Watchdog { cycles } => {
                write!(f, "simulation watchdog expired after {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// What a completed run reports back — the one shape every backend
/// produces, so consumers (serve, bench, conformance) never see
/// engine-specific result types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Best chromosome found (16-bit engines zero-extend).
    pub best_chrom: u32,
    /// Its fitness.
    pub best_fitness: u16,
    /// Generations actually run (the full budget on success).
    pub generations: u32,
    /// Fitness evaluations consumed.
    pub evaluations: u64,
    /// Table V style convergence generation, if the run settled.
    pub conv_gen: Option<u32>,
    /// Simulated clock cycles (cycle-accurate backends only).
    pub cycles: Option<u64>,
    /// RNG draws consumed, where the engine counts them.
    pub rng_draws: Option<u64>,
    /// Per-generation history, generation 0 included: the engine's own
    /// record, moved here without a copy.
    pub trajectory: Vec<GenStats>,
}

/// A GA execution backend. Object-safe: the registry stores
/// `Box<dyn Engine>` and every consumer dispatches through it.
pub trait Engine: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Static dispatch metadata.
    fn capabilities(&self) -> Capabilities;

    /// Admit a spec. The default is [`Capabilities::admit`]; engines
    /// with extra admission rules override and still return a
    /// [`Prepared`] token on success.
    fn prepare(&self, spec: RunSpec) -> Result<Prepared, EngineError> {
        self.capabilities().admit(&spec)?;
        Ok(Prepared::new(spec))
    }

    /// Execute one admitted run under the caller's budgets.
    fn run(&self, prepared: &Prepared, limits: &Limits) -> Result<RunOutcome, EngineError>;

    /// Execute a batch of compatible admitted runs. No engine shares
    /// work across a batch, so every one uses this default, which runs
    /// them one by one.
    fn run_pack(
        &self,
        prepared: &[Prepared],
        limits: &Limits,
    ) -> Vec<Result<RunOutcome, EngineError>> {
        prepared.iter().map(|p| self.run(p, limits)).collect()
    }

    /// A generation-stepping handle for island-model composition, if
    /// the engine supports it (`capabilities().stepping`). The member
    /// arrives with its population *uninitialized*; the island driver
    /// owns the init / step / migrate schedule.
    fn stepper(&self, prepared: &Prepared) -> Option<Box<dyn ga_core::IslandMember>> {
        let _ = prepared;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_roundtrip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.name()), Some(b));
            assert_eq!(BackendKind::parse(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(BackendKind::parse("vhdl"), None);
    }

    #[test]
    fn admission_reports_width_before_params() {
        let caps = Capabilities {
            widths: &[16],
            pack_width: 1,
            stepping: true,
        };
        // Both the width and the parameters are bad: width wins, so the
        // caller learns the job can never run here regardless of params.
        let mut spec = RunSpec {
            width: 32,
            workload: Workload::Function(TestFunction::F2),
            params: GaParams {
                pop_size: 1,
                ..GaParams::default()
            },
            deadline_ms: None,
        };
        assert_eq!(
            caps.admit(&spec),
            Err(EngineError::UnsupportedWidth { width: 32 })
        );
        spec.width = 16;
        assert!(matches!(
            caps.admit(&spec),
            Err(EngineError::InvalidSpec { .. })
        ));
        spec.params = GaParams::default();
        assert_eq!(caps.admit(&spec), Ok(()));
    }

    #[test]
    fn healing_workload_is_16_bit_only() {
        let caps = Capabilities {
            widths: &[16, 32],
            pack_width: 1,
            stepping: false,
        };
        let heal = Workload::VrcHeal {
            target: 0x9B9B,
            fault: ga_ehw::Fault::StuckAt {
                cell: 2,
                value: true,
            },
        };
        let mut spec = RunSpec {
            width: 16,
            workload: heal,
            params: GaParams::default(),
            deadline_ms: None,
        };
        assert_eq!(caps.admit(&spec), Ok(()));
        spec.width = 32;
        assert!(matches!(
            caps.admit(&spec),
            Err(EngineError::InvalidSpec { .. })
        ));
        // Healing fitness agrees with the ehw crate's definition.
        assert_eq!(
            heal.eval_u16(0x0706),
            ga_ehw::vrc::PERFECT_FITNESS,
            "known healing configuration scores perfect"
        );
    }

    #[test]
    fn admission_bounds_the_work_of_one_run() {
        let caps = Capabilities {
            widths: &[16],
            pack_width: 1,
            stepping: false,
        };
        let spec = |pop_size, n_gens| RunSpec {
            width: 16,
            workload: Workload::Function(TestFunction::F2),
            params: GaParams {
                pop_size,
                n_gens,
                ..GaParams::default()
            },
            deadline_ms: None,
        };
        // The bound is exact: pop 2 costs 2 + gens evaluations.
        let last = (MAX_EVALUATIONS - 2) as u32;
        assert_eq!(spec(2, last).params.evaluations_per_run(), MAX_EVALUATIONS);
        assert_eq!(caps.admit(&spec(2, last)), Ok(()));
        let err = caps.admit(&spec(2, last + 1)).expect_err("one past");
        assert!(err.to_string().contains("admission bound"), "{err}");
        // The Table IV Large preset fits with 4x headroom.
        let large = GaParams::preset(ga_core::PresetMode::Large).expect("preset");
        assert_eq!(large.evaluations_per_run(), 520_320);
        assert!(4 * large.evaluations_per_run() <= MAX_EVALUATIONS);
        // A 4e9-generation line is refused, not run.
        assert!(matches!(
            caps.admit(&spec(128, 4_000_000_000)),
            Err(EngineError::InvalidSpec { .. })
        ));
        // A ring shares MAX_ISLANDS runs' worth: perfbench's islands-ring
        // job (2 islands of pop 64 × 8e6 generations) fits, the same
        // members solo do not, and the 4e9-generation ring does not.
        let ring = spec(64, 8_000_000);
        assert!(caps.admit(&ring).is_err());
        assert_eq!(caps.admit_ring(&ring, 2), Ok(()));
        assert!(caps.admit_ring(&ring, 5).is_err());
        assert!(caps.admit_ring(&spec(128, 4_000_000_000), 2).is_err());
    }
}
