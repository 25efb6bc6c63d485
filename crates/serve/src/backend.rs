//! Backend dispatch: every job goes through the engine registry
//! (`ga_engine::global`), so this module contains **no per-engine drive
//! loops** — it admits a job against the registered backend's
//! capabilities (which include the [`ga_engine::MAX_EVALUATIONS`] work
//! bound) and runs it under the service's [`ga_engine::Limits`]. Every
//! failure is the job's own typed error; no job is re-answered by
//! another backend.

use std::time::Instant;

use ga_core::islands::IslandConfig;
use ga_engine::{global, IslandsEngine, Limits, Prepared};

use crate::job::{GaJob, HealReport, JobOutput, JobResult, ServeError, Workload};
use crate::service::ServeConfig;

/// The healing summary for a settled outcome: present iff the job was
/// a heal job and the run completed.
fn heal_report(job: &GaJob, outcome: &Result<JobOutput, ServeError>) -> Option<HealReport> {
    match (job.workload, outcome) {
        (Workload::VrcHeal { .. }, Ok(o)) => Some(HealReport::from_outcome(o)),
        _ => None,
    }
}

/// The engine-layer budgets this service runs under.
fn limits(cfg: &ServeConfig) -> Limits {
    Limits {
        sim_watchdog_cycles: cfg.rtl_watchdog_cycles,
    }
}

/// Run one job on its selected backend. Validation happens here, so an
/// out-of-range or oversized job becomes a typed error result, never a
/// panic or an abort.
pub fn run_single(job: &GaJob, i: usize, cfg: &ServeConfig) -> JobResult {
    let t = Instant::now();
    let engine = global().get(job.backend).expect("all kinds registered");
    let outcome = match job.islands {
        // Island jobs run the ring composite over the backend's
        // stepping handle; a refusal (non-stepping backend, schedule
        // mismatch) is a deterministic typed error.
        Some(cfg_islands) => run_islands(job, cfg_islands),
        None => engine
            .prepare(job.spec())
            .and_then(|p| engine.run(&p, &limits(cfg)))
            .map_err(ServeError::from),
    };
    let heal = heal_report(job, &outcome);
    JobResult {
        job: i,
        backend: job.backend,
        outcome,
        micros: t.elapsed().as_micros() as u64,
        degraded: None,
        heal,
    }
}

/// Execute an island job: the ring-migration composite
/// ([`ga_engine::IslandsEngine`]) over the requested backend, folded
/// into the standard [`JobOutput`] shape — the ring-wide best, the
/// summed evaluations, the full `epoch × epochs` generation budget.
/// Per-generation trajectory and convergence metrics are per-island
/// quantities and are deliberately absent from the aggregate.
fn run_islands(job: &GaJob, config: IslandConfig) -> Result<JobOutput, ServeError> {
    job.validate()?;
    let engine = global().get(job.backend).expect("all kinds registered");
    let ring = IslandsEngine::new(engine, config).map_err(ServeError::from)?;
    let run = ring.run(job.spec()).map_err(ServeError::from)?;
    Ok(JobOutput {
        best_chrom: run.best.chrom as u32,
        best_fitness: run.best.fitness,
        generations: job.params.n_gens,
        evaluations: run.evaluations,
        conv_gen: None,
        cycles: None,
        rng_draws: None,
        trajectory: Vec::new(),
    })
}

/// Run a pack of *validated, compatible* jobs (`idxs` index into `all`;
/// at most the engine's pack width, all sharing one
/// [`GaJob::pack_key`]): one [`ga_engine::Engine::run_pack`] invocation
/// serves every lane. Per-job latency charges each
/// job an even share of the shared pack time plus its own settling
/// time.
pub fn run_pack(all: &[GaJob], idxs: &[usize], cfg: &ServeConfig) -> Vec<JobResult> {
    debug_assert!(!idxs.is_empty());
    let kind = all[idxs[0]].backend;
    debug_assert!(idxs.iter().all(|&i| all[i].backend == kind));
    let engine = global().get(kind).expect("all kinds registered");
    let t = Instant::now();
    let prepared: Vec<Prepared> = idxs
        .iter()
        .map(|&i| {
            engine
                .prepare(all[i].spec())
                .expect("packed jobs pre-validated")
        })
        .collect();
    let outcomes = engine.run_pack(&prepared, &limits(cfg));
    let shared_micros = t.elapsed().as_micros() as u64 / idxs.len() as u64;

    idxs.iter()
        .zip(outcomes)
        .map(|(&i, result)| {
            let t = Instant::now();
            let outcome = result.map_err(ServeError::from);
            let heal = heal_report(&all[i], &outcome);
            JobResult {
                job: i,
                backend: kind,
                outcome,
                micros: shared_micros + t.elapsed().as_micros() as u64,
                degraded: None,
                heal,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::BackendKind;
    use ga_core::GaParams;
    use ga_fitness::TestFunction;

    fn run(job: &GaJob) -> Result<JobOutput, ServeError> {
        run_single(job, 0, &ServeConfig::default()).outcome
    }

    #[test]
    fn behavioral_and_bitsim_agree_exactly() {
        let params = GaParams::new(16, 6, 10, 1, 0x2961);
        let beh = GaJob::new(TestFunction::Bf6, BackendKind::Behavioral, params);
        let bit = GaJob::new(TestFunction::Bf6, BackendKind::BitSim64, params);
        let a = run(&beh).expect("behavioral runs");
        let b = run(&bit).expect("bitsim runs");
        assert_eq!(a, b, "the netlist table must match the reference RNG");
    }

    #[test]
    fn rtl_reports_cycles_and_matching_best() {
        let params = GaParams::new(8, 4, 10, 1, 0x061F);
        let rtl = GaJob::new(TestFunction::F3, BackendKind::RtlInterp, params);
        let beh = GaJob::new(TestFunction::F3, BackendKind::Behavioral, params);
        let r = run(&rtl).expect("rtl runs");
        let b = run(&beh).expect("behavioral runs");
        assert!(r.cycles.expect("rtl reports cycles") > 0);
        assert_eq!(
            (r.best_chrom, r.best_fitness),
            (b.best_chrom, b.best_fitness),
            "engines must agree on the answer"
        );
        assert_eq!(r.evaluations, b.evaluations, "evaluation formula");
    }

    #[test]
    fn rtl32_serves_width32_jobs() {
        let params = GaParams::new(8, 4, 10, 1, 0x2961);
        let job = GaJob::new32(TestFunction::F3, params);
        let r = run_single(&job, 0, &ServeConfig::default());
        assert_eq!(r.backend, BackendKind::Rtl32);
        let o = r.outcome.expect("rtl32 runs");
        assert!(o.cycles.expect("rtl32 reports cycles") > 0);
        assert_eq!(o.evaluations, params.evaluations_per_run());
        assert!(o.best_chrom > u16::MAX as u32, "a real 32-bit answer");
    }

    #[test]
    fn zero_deadline_cancels_each_backend() {
        let params = GaParams::new(8, 4, 10, 1, 0xB342);
        for backend in BackendKind::ALL {
            // Aim each job at a width its backend actually implements,
            // so the deadline — not the width gate — is what fires.
            let width = ga_engine::global()
                .get(backend)
                .expect("registered")
                .capabilities()
                .widths[0];
            let job = GaJob {
                width,
                ..GaJob::new(TestFunction::F2, backend, params).with_deadline_ms(0)
            };
            assert_eq!(
                run(&job),
                Err(ServeError::DeadlineExceeded),
                "{} must honor a 0 ms deadline",
                backend.name()
            );
        }
    }

    #[test]
    fn rtl_watchdog_is_typed() {
        let params = GaParams::new(8, 4, 10, 1, 0xB342);
        let job = GaJob::new(TestFunction::F2, BackendKind::RtlInterp, params);
        let cfg = ServeConfig {
            rtl_watchdog_cycles: 10,
            ..Default::default()
        };
        assert!(matches!(
            run_single(&job, 0, &cfg).outcome,
            Err(ServeError::Watchdog { cycles: 10 })
        ));
    }

    #[test]
    fn island_jobs_run_the_ring_composite_exactly() {
        let params = GaParams::new(16, 12, 10, 1, 0x2961);
        let config = IslandConfig {
            islands: 3,
            epoch: 4,
            epochs: 3,
        };
        let job =
            GaJob::new(TestFunction::Bf6, BackendKind::Behavioral, params).with_islands(config);
        let out = run(&job).expect("island job runs");

        // The serve answer is the engine composite's answer, verbatim.
        let engine = ga_engine::global()
            .get(BackendKind::Behavioral)
            .expect("registered");
        let direct = IslandsEngine::new(engine, config)
            .expect("steps")
            .run(job.spec())
            .expect("runs");
        assert_eq!(out.best_chrom, direct.best.chrom as u32);
        assert_eq!(out.best_fitness, direct.best.fitness);
        assert_eq!(out.evaluations, direct.evaluations);
        assert_eq!(out.generations, 12);

        // And the netlist-table backend answers bit-identically.
        let bit = GaJob {
            backend: BackendKind::BitSim64,
            ..job
        };
        assert_eq!(run(&bit), Ok(out), "bitsim ring must match behavioral");
    }

    #[test]
    fn island_jobs_on_non_stepping_backends_fail_typed() {
        let params = GaParams::new(16, 12, 10, 1, 0x2961);
        let job =
            GaJob::new(TestFunction::Bf6, BackendKind::Swga, params).with_islands(IslandConfig {
                islands: 2,
                epoch: 6,
                epochs: 2,
            });
        let r = run_single(&job, 0, &ServeConfig::default());
        assert!(matches!(r.outcome, Err(ServeError::InvalidJob { .. })));
    }

    #[test]
    fn invalid_params_fail_validation_not_panic() {
        let mut job = GaJob::new(
            TestFunction::F2,
            BackendKind::Behavioral,
            GaParams::default(),
        );
        job.params.n_gens = 0;
        assert!(matches!(run(&job), Err(ServeError::InvalidJob { .. })));
    }
}
