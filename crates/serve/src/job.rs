//! Job and result types: the service's wire-level vocabulary.
//!
//! The execution vocabulary itself ([`BackendKind`], [`JobOutput`])
//! comes from the engine layer (`ga_engine`); this module adds the
//! service-side wrapping — the JSONL-schema job shape, typed service
//! errors, and the (always empty) per-result degradation slot.

use std::fmt;

use ga_core::islands::IslandConfig;
use ga_core::GaParams;
pub use ga_ehw::PERFECT_FITNESS;
use ga_ehw::{Fault, TruthTable};
use ga_engine::{EngineError, RunSpec};
use ga_fitness::TestFunction;

pub use ga_engine::{BackendKind, Workload};

/// The default chromosome width of the IP core (the 16-bit engines).
pub const CHROM_WIDTH: u8 = 16;

/// The chromosome widths the job *schema* admits: the 16-bit core and
/// the ganged 32-bit composite (`rtl32`). The parser refuses anything
/// outside this list up front with a line-aligned `invalid_job` error;
/// whether a *specific backend* implements the width is the engine
/// registry's admission check ([`GaJob::validate`]).
pub const SUPPORTED_WIDTHS: [u8; 2] = [16, 32];

/// Look up a fitness function by its table name (`BF6`, `F2`, …),
/// case-insensitively.
pub fn function_by_name(s: &str) -> Option<TestFunction> {
    TestFunction::ALL
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(s))
}

/// One GA execution request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaJob {
    /// Chromosome width in bits (checked against the backend's
    /// [`ga_engine::Capabilities::widths`] at validation).
    pub width: u8,
    /// What the job optimizes: a benchmark fitness function (`fn` on
    /// the wire) or a VRC healing search (`heal_target` +
    /// `heal_fault`).
    pub workload: Workload,
    /// Executing engine.
    pub backend: BackendKind,
    /// The Table III parameter set (population, generation budget,
    /// operator thresholds, RNG seed). Held unvalidated so a bad job
    /// surfaces as a typed [`ServeError::InvalidJob`] result instead of
    /// a panic; [`GaJob::validate`] is the gate.
    pub params: GaParams,
    /// Optional wall-clock budget. Expiry cancels the job with
    /// [`ServeError::DeadlineExceeded`]; an in-flight generation (or
    /// simulated cycle) always completes first.
    pub deadline_ms: Option<u64>,
    /// Optional island-model schedule (`islands`/`epoch`/`epochs` on
    /// the wire). When set, the job runs as a ring-migration island
    /// model over the requested backend's stepping handle
    /// ([`ga_engine::IslandsEngine`]) instead of one plain run;
    /// `params.n_gens` must equal `epoch × epochs` and the backend must
    /// advertise [`ga_engine::Capabilities::stepping`]. Island jobs
    /// never join bitsim packs — the ring already owns its lanes.
    pub islands: Option<IslandConfig>,
}

/// Jobs in one group may share a pack: same backend, same
/// [`GaJob::pack_key`].
pub(crate) type PackGroup = (BackendKind, (u8, u32));

impl GaJob {
    /// A 16-bit job with no deadline.
    pub fn new(function: TestFunction, backend: BackendKind, params: GaParams) -> Self {
        GaJob {
            width: CHROM_WIDTH,
            workload: Workload::Function(function),
            backend,
            params,
            deadline_ms: None,
            islands: None,
        }
    }

    /// A 32-bit job for the ganged composite with no deadline.
    pub fn new32(function: TestFunction, params: GaParams) -> Self {
        GaJob {
            width: 32,
            workload: Workload::Function(function),
            backend: BackendKind::Rtl32,
            params,
            deadline_ms: None,
            islands: None,
        }
    }

    /// A VRC healing job (always 16-bit — the chromosome is the fabric
    /// configuration) with no deadline.
    pub fn new_heal(
        target: TruthTable,
        fault: Fault,
        backend: BackendKind,
        params: GaParams,
    ) -> Self {
        GaJob {
            width: CHROM_WIDTH,
            workload: Workload::VrcHeal { target, fault },
            backend,
            params,
            deadline_ms: None,
            islands: None,
        }
    }

    /// Attach a wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Attach an island-model schedule (the job then runs as a
    /// ring-migration island model over the backend's stepping handle).
    pub fn with_islands(mut self, config: IslandConfig) -> Self {
        self.islands = Some(config);
        self
    }

    /// The engine-layer spec this job requests.
    pub fn spec(&self) -> RunSpec {
        RunSpec {
            width: self.width,
            workload: self.workload,
            params: self.params,
            deadline_ms: self.deadline_ms,
        }
    }

    /// The admission check every backend runs before touching an
    /// engine: the registered backend's capability gate (width support
    /// first, then the hardware parameter ranges and the work bound of
    /// one run, or of the whole ring for an island job), plus the island
    /// schedule gate when the job carries one — a stepping backend and
    /// `n_gens == epoch × epochs`, both typed, never panicking.
    pub fn validate(&self) -> Result<(), ServeError> {
        let engine =
            ga_engine::global()
                .get(self.backend)
                .ok_or_else(|| ServeError::InvalidJob {
                    msg: format!("backend {} is not registered", self.backend.name()),
                })?;
        let caps = engine.capabilities();
        match self.islands {
            None => caps.admit(&self.spec()),
            Some(cfg) => caps.admit_ring(&self.spec(), cfg.islands),
        }
        .map_err(ServeError::from)?;
        if let Some(cfg) = self.islands {
            if !caps.stepping {
                return Err(ServeError::InvalidJob {
                    msg: format!(
                        "backend {} has no stepping handle; island jobs need one",
                        self.backend.name()
                    ),
                });
            }
            if cfg.islands == 0 || cfg.epoch == 0 || cfg.epochs == 0 {
                return Err(ServeError::InvalidJob {
                    msg: "island schedule needs islands, epoch and epochs all >= 1".into(),
                });
            }
            match cfg.epoch.checked_mul(cfg.epochs) {
                Some(total) if total == self.params.n_gens => {}
                _ => {
                    return Err(ServeError::InvalidJob {
                        msg: format!(
                            "gens {} disagrees with the island schedule epoch {} × epochs {}",
                            self.params.n_gens, cfg.epoch, cfg.epochs
                        ),
                    })
                }
            }
        }
        Ok(())
    }

    /// Packing compatibility key: two jobs may share a 64-lane bitsim
    /// run iff they consume RNG draws on the same schedule, which is
    /// fully determined by population size and generation count (the
    /// draw count per generation is a function of `pop_size` alone).
    pub fn pack_key(&self) -> (u8, u32) {
        (self.params.pop_size, self.params.n_gens)
    }

    /// The pack this job may join — its `(backend, pack_key)` group and
    /// the backend's pack width — or `None` when it must run solo: its
    /// backend has no lanes, it is invalid (it must surface its own
    /// typed error), or it is an island job (its ring owns its own lane
    /// streams). The one packability rule both planners apply.
    pub(crate) fn pack_group(&self) -> Option<(PackGroup, usize)> {
        let width = ga_engine::global()
            .get(self.backend)?
            .capabilities()
            .pack_width;
        (width > 1 && self.islands.is_none() && self.validate().is_ok())
            .then(|| ((self.backend, self.pack_key()), width))
    }
}

/// What a completed job reports back — the engine layer's
/// backend-neutral outcome, verbatim.
pub type JobOutput = ga_engine::RunOutcome;

/// The typed result layer a healing job adds on top of [`JobOutput`]:
/// the healed configuration is the outcome's `best_chrom`; this struct
/// derives the healing-specific summary from the trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealReport {
    /// The evolved configuration reproduces the target on all 16 rows.
    pub healed: bool,
    /// First generation whose best individual was already perfect
    /// (0 = the initial population). `None` when the run never healed.
    pub generations_to_heal: Option<u32>,
    /// `PERFECT_FITNESS - best_fitness`: 4095 per unmatched truth-table
    /// row, 0 for a full heal.
    pub residual_error: u16,
}

impl HealReport {
    /// Derive the healing summary from a completed run.
    pub fn from_outcome(outcome: &JobOutput) -> Self {
        let generations_to_heal = outcome
            .trajectory
            .iter()
            .find(|p| p.best_fitness == PERFECT_FITNESS)
            .map(|p| p.gen);
        HealReport {
            healed: outcome.best_fitness == PERFECT_FITNESS,
            generations_to_heal,
            residual_error: PERFECT_FITNESS - outcome.best_fitness,
        }
    }
}

/// Degradation note for a result answered by a different backend than
/// the one requested. No backend degrades any more, so the service
/// never attaches one; the type stays because perfbench builds
/// [`JobResult`]s and the result-line writer still renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The backend the job originally asked for.
    pub from: BackendKind,
    /// The typed error that triggered the fallback.
    pub reason: ServeError,
}

/// One job's result, tagged with its index in the submitted batch.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Index of the job in the input batch (results are returned in
    /// input order; this field makes the invariant checkable).
    pub job: usize,
    /// Backend that executed (or rejected) the job.
    pub backend: BackendKind,
    /// The output, or a typed failure.
    pub outcome: Result<JobOutput, ServeError>,
    /// Measured wall-clock latency. Deliberately *excluded* from the
    /// JSONL result lines so golden-file diffs stay deterministic;
    /// latency is aggregated into `BENCH_serve.json` instead.
    pub micros: u64,
    /// Degradation metadata. Always `None`: no backend degrades.
    pub degraded: Option<Degradation>,
    /// Healing summary, present iff the job's workload was
    /// [`Workload::VrcHeal`] and the run completed.
    pub heal: Option<HealReport>,
}

/// Typed service errors — every way a job can fail without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A JSONL request line did not parse.
    Parse {
        /// 0-based input line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// Parameters outside the hardware ranges of Table III.
    InvalidJob {
        /// The validation failure.
        msg: String,
    },
    /// Chromosome width not implemented by the requested backend.
    UnsupportedWidth {
        /// The requested width.
        width: u8,
    },
    /// The job's wall-clock deadline expired; the job was cancelled.
    DeadlineExceeded,
    /// A simulated-work watchdog fired (RTL cycles or bitsim steps).
    Watchdog {
        /// Cycles run before giving up.
        cycles: u64,
    },
    /// `try_push` on a full [`crate::BoundedQueue`].
    QueueFull {
        /// The queue's capacity.
        capacity: usize,
    },
    /// The queue was closed while submitting.
    QueueClosed,
    /// A client exceeded its per-connection job quota; the connection's
    /// remaining lines are rejected with this code.
    QuotaExceeded {
        /// The quota the connection was admitted under.
        limit: u64,
    },
    /// A client exceeded its sustained submission rate; the line is
    /// rejected but the connection stays open (the token bucket
    /// refills).
    RateLimited {
        /// The configured sustained rate, jobs per second.
        per_sec: u32,
    },
    /// The job's worker panicked (caught at the pool boundary) or a
    /// result slot was never filled — a service bug surfaced as a typed
    /// per-job failure instead of a process crash.
    Internal {
        /// The recovered panic message (or invariant description).
        msg: String,
    },
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::InvalidSpec { msg } => ServeError::InvalidJob { msg },
            EngineError::UnsupportedWidth { width } => ServeError::UnsupportedWidth { width },
            EngineError::DeadlineExceeded => ServeError::DeadlineExceeded,
            EngineError::Watchdog { cycles } => ServeError::Watchdog { cycles },
        }
    }
}

impl ServeError {
    /// Stable machine-readable code for the JSONL `error` field.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Parse { .. } => "parse",
            ServeError::InvalidJob { .. } => "invalid_job",
            ServeError::UnsupportedWidth { .. } => "unsupported_width",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::Watchdog { .. } => "watchdog",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::QueueClosed => "queue_closed",
            ServeError::QuotaExceeded { .. } => "quota_exceeded",
            ServeError::RateLimited { .. } => "rate_limited",
            ServeError::Internal { .. } => "internal",
        }
    }

    /// Whether a retry could plausibly succeed: only worker-side
    /// internal failures (panics) qualify — every other error is a
    /// deterministic property of the job or the queue state.
    pub fn is_transient(&self) -> bool {
        matches!(self, ServeError::Internal { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            ServeError::InvalidJob { msg } => write!(f, "invalid job: {msg}"),
            ServeError::UnsupportedWidth { width } => {
                write!(f, "chromosome width {width} unsupported by this backend")
            }
            ServeError::DeadlineExceeded => write!(f, "wall-clock deadline expired"),
            ServeError::Watchdog { cycles } => {
                write!(f, "simulation watchdog expired after {cycles} cycles")
            }
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            ServeError::QueueClosed => write!(f, "queue closed"),
            ServeError::QuotaExceeded { limit } => {
                write!(f, "per-connection job quota exceeded (limit {limit})")
            }
            ServeError::RateLimited { per_sec } => {
                write!(f, "rate limited (sustained {per_sec} jobs/s)")
            }
            ServeError::Internal { msg } => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

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
    fn function_lookup_matches_table_names() {
        for f in TestFunction::ALL {
            assert_eq!(function_by_name(f.name()), Some(f));
            assert_eq!(function_by_name(&f.name().to_lowercase()), Some(f));
        }
        assert_eq!(function_by_name("rosenbrock"), None);
    }

    #[test]
    fn validation_is_typed_not_panicking() {
        let good = GaParams::default();
        let job = GaJob::new(TestFunction::F3, BackendKind::Behavioral, good);
        assert!(job.validate().is_ok());

        let wide = GaJob { width: 32, ..job };
        assert_eq!(
            wide.validate(),
            Err(ServeError::UnsupportedWidth { width: 32 })
        );

        let bad = GaJob {
            params: GaParams {
                pop_size: 1,
                ..good
            },
            ..job
        };
        assert!(matches!(bad.validate(), Err(ServeError::InvalidJob { .. })));
    }

    #[test]
    fn width_admission_is_backend_relative() {
        // 32-bit jobs are first-class on the ganged composite…
        let wide = GaJob::new32(TestFunction::F3, GaParams::default());
        assert_eq!(wide.validate(), Ok(()));
        // …while a 16-bit job aimed at it is refused, symmetrically.
        let narrow = GaJob {
            width: CHROM_WIDTH,
            ..wide
        };
        assert_eq!(
            narrow.validate(),
            Err(ServeError::UnsupportedWidth { width: 16 })
        );
        // Width support is exactly what the registry advertises.
        assert_eq!(
            ga_engine::global().supporting_width(32),
            vec![BackendKind::Rtl32]
        );
    }

    #[test]
    fn island_jobs_validate_schedule_and_stepping() {
        let cfg = IslandConfig {
            islands: 3,
            epoch: 4,
            epochs: 3,
        };
        let good = GaJob::new(
            TestFunction::Bf6,
            BackendKind::Behavioral,
            GaParams::new(16, 12, 10, 1, 0x2961),
        )
        .with_islands(cfg);
        assert_eq!(good.validate(), Ok(()));

        // The schedule must agree with n_gens — typed, never silent.
        let mismatched = GaJob {
            params: GaParams {
                n_gens: 8,
                ..good.params
            },
            ..good
        };
        let Err(ServeError::InvalidJob { msg }) = mismatched.validate() else {
            panic!("mismatched schedule accepted");
        };
        assert!(msg.contains("island schedule"), "msg: {msg}");

        // A non-stepping backend cannot host a ring.
        let swga = GaJob {
            backend: BackendKind::Swga,
            ..good
        };
        let Err(ServeError::InvalidJob { msg }) = swga.validate() else {
            panic!("non-stepping backend accepted");
        };
        assert!(msg.contains("stepping"), "msg: {msg}");

        // Degenerate schedules are refused up front.
        let zero = GaJob {
            islands: Some(IslandConfig { islands: 0, ..cfg }),
            ..good
        };
        assert!(matches!(
            zero.validate(),
            Err(ServeError::InvalidJob { .. })
        ));
    }

    #[test]
    fn pack_key_is_pop_and_gens_only() {
        let a = GaJob::new(
            TestFunction::F2,
            BackendKind::BitSim64,
            GaParams::new(32, 8, 10, 1, 0x1111),
        );
        let b = GaJob::new(
            TestFunction::Bf6,
            BackendKind::BitSim64,
            GaParams::new(32, 8, 14, 3, 0x2222),
        );
        assert_eq!(
            a.pack_key(),
            b.pack_key(),
            "fn/thresholds/seed don't matter"
        );
        let c = GaJob {
            params: GaParams {
                n_gens: 9,
                ..a.params
            },
            ..a
        };
        assert_ne!(a.pack_key(), c.pack_key());
    }

    #[test]
    fn engine_errors_map_onto_serve_errors() {
        assert_eq!(
            ServeError::from(EngineError::Watchdog { cycles: 9 }),
            ServeError::Watchdog { cycles: 9 }
        );
        assert_eq!(
            ServeError::from(EngineError::DeadlineExceeded),
            ServeError::DeadlineExceeded
        );
        assert_eq!(
            ServeError::from(EngineError::UnsupportedWidth { width: 8 }),
            ServeError::UnsupportedWidth { width: 8 }
        );
        assert!(matches!(
            ServeError::from(EngineError::InvalidSpec { msg: "x".into() }),
            ServeError::InvalidJob { .. }
        ));
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(ServeError::DeadlineExceeded.code(), "deadline_exceeded");
        assert_eq!(ServeError::Watchdog { cycles: 1 }.code(), "watchdog");
        assert_eq!(
            ServeError::Parse {
                line: 0,
                msg: String::new()
            }
            .code(),
            "parse"
        );
        assert_eq!(
            ServeError::QuotaExceeded { limit: 8 }.code(),
            "quota_exceeded"
        );
        assert_eq!(
            ServeError::RateLimited { per_sec: 100 }.code(),
            "rate_limited"
        );
    }

    #[test]
    fn admission_rejections_are_not_transient() {
        // A retry can't un-exceed a quota or refill a bucket on the
        // service's side — clients must back off, so the recovery loop
        // must not burn retries on these.
        assert!(!ServeError::QuotaExceeded { limit: 1 }.is_transient());
        assert!(!ServeError::RateLimited { per_sec: 1 }.is_transient());
        assert!(!ServeError::QueueFull { capacity: 1 }.is_transient());
        assert!(ServeError::Internal { msg: String::new() }.is_transient());
    }
}
