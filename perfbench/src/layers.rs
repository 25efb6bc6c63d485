//! Per-layer probes, run in every traced run on inputs drawn from the
//! workload seed: single-thread engine runs per backend and shape, the
//! bitsim64 pack path, CA lane streams, the behavioral core with a
//! counting RNG and fitness closure, fitness evaluation and ROM builds,
//! the CA RNG, and the cycle-accurate RTL model.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use carng::{CaRng, Rng16};
use ga_core::{GaEngine, GaParams};
use ga_engine::{ca_lane_streams, Limits, RunOutcome};
use ga_fitness::rom::FitnessRom;
use ga_fitness::TestFunction;
use ga_serve::{BackendKind, GaJob};

use crate::gate;
use crate::gen::{SplitMix, HEAVY, RTL, SMALL};
use crate::Report;

const SHAPES: [(&str, (u8, u32)); 3] = [("small", SMALL), ("rtl", RTL), ("heavy", HEAVY)];
/// Every backend a workload names.
const BACKENDS: [BackendKind; 5] = [
    BackendKind::Behavioral,
    BackendKind::Swga,
    BackendKind::BitSim64,
    BackendKind::RtlInterp,
    BackendKind::Rtl32,
];
/// Minimum time per probe before its mean is taken.
const PROBE_S: f64 = 0.05;

/// `n` jobs at `shape` cycling through the fitness functions, seeded
/// from `rng`.
fn jobs(rng: &mut SplitMix, backend: BackendKind, (pop, gens): (u8, u32), n: usize) -> Vec<GaJob> {
    (0..n)
        .map(|i| {
            let f = TestFunction::ALL[i % TestFunction::ALL.len()];
            let p = GaParams {
                pop_size: pop,
                n_gens: gens,
                xover_threshold: 10,
                mut_threshold: 1,
                seed: rng.next_u64() as u16,
            };
            if backend == BackendKind::Rtl32 {
                GaJob::new32(f, p)
            } else {
                GaJob::new(f, backend, p)
            }
        })
        .collect()
}

/// Seconds per call of `f(i)` in the fastest whole round over the `n`
/// inputs, rounds repeated for at least [`PROBE_S`] (and at least
/// three): host noise only ever slows a round down.
fn time_rounds(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    let mut best = f64::INFINITY;
    let mut rounds = 0;
    while rounds < 3 || t.elapsed().as_secs_f64() < PROBE_S {
        let round = Instant::now();
        for i in 0..n {
            f(i);
        }
        best = best.min(round.elapsed().as_secs_f64() / n as f64);
        rounds += 1;
    }
    best
}

/// A CA RNG that counts its draws into a shared cell.
struct CountingRng<'a> {
    inner: CaRng,
    draws: &'a Cell<u64>,
}

impl Rng16 for CountingRng<'_> {
    fn output(&self) -> u16 {
        self.inner.output()
    }
    fn step(&mut self) {
        self.draws.set(self.draws.get() + 1);
        self.inner.step();
    }
    fn reseed(&mut self, seed: u16) {
        self.inner.reseed(seed);
    }
}

pub fn probe(seed: u64, r: &mut Report) -> Result<(), String> {
    let mut rng = SplitMix::new(seed ^ 0x001a_7e45);
    let limits = Limits::default();

    // Engine layer: single-thread runs per backend and shape.
    let mut rtl_runs: Vec<(f64, RunOutcome)> = Vec::new();
    for b in BACKENDS {
        let engine = ga_engine::global().get(b).ok_or("backend not registered")?;
        for (name, shape) in SHAPES {
            let js = jobs(&mut rng, b, shape, TestFunction::ALL.len());
            let prepared: Vec<_> = js
                .iter()
                .map(|j| engine.prepare(j.spec()).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let reference: Vec<RunOutcome> = js
                .iter()
                .map(|j| gate::run_job(j).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let mut wrong = 0;
            let mut per_fn = vec![f64::INFINITY; js.len()];
            let mean = time_rounds(js.len(), |i| {
                let t = Instant::now();
                let o = engine.run(&prepared[i], &limits);
                per_fn[i] = per_fn[i].min(t.elapsed().as_secs_f64());
                wrong += u32::from(o.as_ref() != Ok(&reference[i]));
            });
            if wrong > 0 {
                r.fail(format!(
                    "{} {name}: {wrong} runs differ from the reference",
                    b.name()
                ));
            }
            r.metric(
                format!("engine.{}.run_us.{name}", b.name()),
                mean * 1e6,
                "us",
            );
            if b == BackendKind::RtlInterp && name == "rtl" {
                for (i, o) in reference.into_iter().enumerate() {
                    rtl_runs.push((per_fn[i], o));
                }
            }
        }
    }

    // The bitsim64 pack path: one full 64-lane pack per shape.
    let bitsim = ga_engine::global()
        .get(BackendKind::BitSim64)
        .ok_or("bitsim64 not registered")?;
    for (name, shape) in SHAPES {
        let prepared: Vec<_> = jobs(&mut rng, BackendKind::BitSim64, shape, 64)
            .iter()
            .map(|j| bitsim.prepare(j.spec()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let per_pack = time_rounds(1, |_| {
            black_box(bitsim.run_pack(&prepared, &limits));
        });
        r.metric(
            format!("engine.bitsim64.pack_us_per_lane.{name}"),
            per_pack * 1e6 / 64.0,
            "us",
        );
    }
    let seeds: Vec<u16> = (0..64).map(|_| rng.next_u64() as u16).collect();
    let draws = 4096;
    let per_call = time_rounds(1, |_| {
        black_box(ca_lane_streams(&seeds, draws));
    });
    r.metric(
        "engine.lane_stream_ns_per_draw",
        per_call * 1e9 / (64 * draws) as f64,
        "ns",
    );

    // Fitness layer: per-evaluation cost and ROM builds.
    let mut eval_ns = Vec::new();
    for f in TestFunction::ALL {
        let per = time_rounds(1, |_| {
            let mut acc = 0u32;
            for c in 0..=u16::MAX {
                acc = acc.wrapping_add(u32::from(f.eval_u16(black_box(c))));
            }
            black_box(acc);
        });
        let ns = per * 1e9 / 65_536.0;
        eval_ns.push(ns);
        r.metric(format!("fitness.eval_ns.{}", f.name()), ns, "ns");
    }
    let mut rom_ms = Vec::new();
    for f in TestFunction::ALL {
        let per = time_rounds(1, |_| {
            black_box(FitnessRom::tabulate(f));
        });
        rom_ms.push(per * 1e3);
        r.metric(
            format!("fitness.rom_build_ms.{}", f.name()),
            per * 1e3,
            "ms",
        );
    }

    // CA RNG layer.
    let n_draws = 1 << 20;
    let draw = time_rounds(1, |_| {
        let mut g = CaRng::new(black_box(0xACE1));
        let mut acc = 0u16;
        for _ in 0..n_draws {
            acc ^= g.next_u16();
        }
        black_box(acc);
    });
    let draw_ns = draw * 1e9 / n_draws as f64;
    r.metric("carng.draw_ns", draw_ns, "ns");

    // Behavioral core at the heavy shape, with counting RNG and
    // fitness wrappers; its outcome must equal the registry run.
    let (pop, gens) = HEAVY;
    let core_jobs = jobs(
        &mut rng,
        BackendKind::Behavioral,
        HEAVY,
        TestFunction::ALL.len(),
    );
    let (mut evals, mut draws_total, mut engine_s, mut share_eval) = (0u64, 0u64, 0.0, 0.0);
    for (fi, job) in core_jobs.iter().enumerate() {
        let f = job.workload;
        let reference = gate::run_job(job).map_err(|e| e.to_string())?;
        let mut counted = (0u64, 0u64);
        let per = time_rounds(1, |_| {
            let calls = Cell::new(0u64);
            let draws = Cell::new(0u64);
            let rng = CountingRng {
                inner: CaRng::new(0),
                draws: &draws,
            };
            let engine = GaEngine::new(job.params, rng, |c| {
                calls.set(calls.get() + 1);
                f.eval_u16(c)
            });
            let run = black_box(engine.run());
            counted = (calls.get(), draws.get());
            if run.best.chrom as u32 != reference.best_chrom
                || run.best.fitness != reference.best_fitness
                || run.evaluations != reference.evaluations
                || Some(run.rng_draws) != reference.rng_draws
                || counted != (run.evaluations, run.rng_draws)
            {
                counted = (u64::MAX, 0);
            }
        });
        if counted.0 == u64::MAX {
            r.fail(format!(
                "core probe for fn {fi} differs from the registry run"
            ));
            continue;
        }
        evals += counted.0;
        draws_total += counted.1;
        engine_s += per;
        share_eval += counted.0 as f64 * eval_ns[fi] * 1e-9;
    }
    let n = core_jobs.len() as f64;
    let selections = 2.0 * f64::from(u32::from(pop - 1).div_ceil(2)) * f64::from(gens) * n;
    let draw_s = draws_total as f64 * draw_ns * 1e-9;
    r.metric("core.evals_per_job", evals as f64 / n, "count");
    r.metric("core.rng_draws_per_job", draws_total as f64 / n, "count");
    r.metric(
        "core.select_ns",
        (engine_s - share_eval - draw_s).max(0.0) * 1e9 / selections,
        "ns",
    );
    r.metric("fitness.eval_share", share_eval / engine_s, "ratio");
    r.metric("carng.draw_share", draw_s / engine_s, "ratio");

    // Cycle-accurate RTL at the rtl shape: modelled cycles (exact),
    // host time per simulated cycle, and the per-job ROM build's share.
    let cycles: Vec<u64> = rtl_runs.iter().filter_map(|(_, o)| o.cycles).collect();
    if cycles.len() != rtl_runs.len() {
        r.fail("rtl run reported no cycle count".into());
    }
    let total_cycles: u64 = cycles.iter().sum();
    let rtl_s: f64 = rtl_runs.iter().map(|(s, _)| s).sum();
    let rom_s: f64 = rom_ms.iter().sum::<f64>() / 1e3;
    r.metric(
        "rtl.sim_cycles_per_job",
        total_cycles as f64 / rtl_runs.len().max(1) as f64,
        "count",
    );
    r.metric(
        "rtl.host_ns_per_cycle",
        (rtl_s - rom_s).max(0.0) * 1e9 / total_cycles.max(1) as f64,
        "ns",
    );
    r.metric("rtl.rom_build_share", rom_s / rtl_s, "ratio");
    Ok(())
}
