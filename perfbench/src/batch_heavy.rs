//! `batch-heavy`: batches of large jobs through `ga_serve::serve_batch`
//! on the default pool. One request is one batch: parse its lines,
//! serve the jobs, serialize the result lines — what a batch caller of
//! the service waits for.

use std::time::Instant;

use ga_serve::{jsonl, serve_batch, GaJob, ServeConfig, ServeError, ServeStats};

use crate::gate::{self, Expect};
use crate::gen::{self, Line};
use crate::stats;
use crate::trace::Tracer;
use crate::{service_layers, Report, Traffic};

/// Distinct batches per run; the measurement cycles through them.
pub const BATCHES: usize = 32;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Warm-up batches in each set-up.
pub const WARMUP_BATCHES: usize = 16;
/// Batches the timed window must hold.
pub const MIN_BATCHES: usize = 200;

/// Batches in each traced-run window, so the residual has a p90.
pub const TRACED_BATCHES: usize = 100;

struct Batch {
    lines: Vec<Line>,
    expect: Vec<Expect>,
}

/// What one served batch produced.
struct Served {
    wall_s: f64,
    stats: ServeStats,
    answers: Vec<String>,
    results: Vec<ga_serve::JobResult>,
}

/// Parse, serve and serialize one batch, as a batch caller would. The
/// optional tracer gets a `request` span with the layer calls as
/// children.
fn serve(b: &Batch, cfg: &ServeConfig, mut tracer: Option<(&mut Tracer, u64)>) -> Served {
    let t = Instant::now();
    let req = tracer
        .as_mut()
        .map(|(tr, id)| tr.begin("request", None, *id));
    let mut span = |name, f: &mut dyn FnMut()| match tracer.as_mut() {
        Some((tr, id)) => tr.span(name, req, *id, f),
        None => f(),
    };
    let mut parsed = Vec::with_capacity(b.lines.len());
    span("batch.parse", &mut || {
        parsed = b
            .lines
            .iter()
            .enumerate()
            .map(|(i, l)| jsonl::parse_job(&l.text, i))
            .collect();
    });
    let jobs: Vec<GaJob> = parsed
        .iter()
        .filter_map(|p| p.as_ref().ok().copied())
        .collect();
    let mut out = None;
    span("service.serve_batch", &mut || {
        out = Some(serve_batch(&jobs, cfg))
    });
    let out = out.expect("serve_batch ran");
    let mut answers = Vec::with_capacity(b.lines.len());
    let mut results = out.results.into_iter();
    let mut served = Vec::new();
    span("batch.serialize", &mut || {
        for (i, p) in parsed.iter().enumerate() {
            match p {
                Err(e) => answers.push(jsonl::parse_error_line(i, e)),
                Ok(_) => {
                    let r = results.next().map(|r| ga_serve::JobResult { job: i, ..r });
                    match r {
                        Some(r) => {
                            answers.push(jsonl::result_line(&r));
                            served.push(r);
                        }
                        None => answers.push(String::new()),
                    }
                }
            }
        }
    });
    if let (Some((tr, _)), Some(id)) = (tracer, req) {
        tr.end(id);
    }
    Served {
        wall_s: t.elapsed().as_secs_f64(),
        stats: out.stats,
        answers,
        results: served,
    }
}

/// Check one served batch against its reference; returns wrong answers.
fn check(b: &Batch, s: &Served) -> u64 {
    let mut wrong = 0;
    let mut results = s.results.iter();
    for (i, (l, e)) in b.lines.iter().zip(&b.expect).enumerate() {
        let mut ok = e.matches(l, i, &s.answers[i]);
        if let Expect::Ok { outcome, .. } = e {
            // Beyond the line: cycles, evaluations and RNG draws (the
            // modelled hardware) and the whole trajectory are exact.
            ok &= results.next().and_then(|r| r.outcome.as_ref().ok()) == Some(outcome);
        }
        if !ok {
            if wrong < 3 {
                eprintln!("batch-heavy: wrong answer {i}: {}", s.answers[i]);
            }
            wrong += 1;
        }
    }
    wrong
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let batches: Vec<Batch> = gen::batch_heavy(seed, BATCHES)
        .into_iter()
        .map(|lines| {
            let expect = gate::references(&lines)?;
            Ok(Batch { lines, expect })
        })
        .collect::<Result<_, String>>()?;
    let mut r = Report::default();

    let mut setups = Vec::new();
    let cfg = ServeConfig::default();
    for _ in 0..SETUPS {
        let cpu0 = stats::cpu_s(None).ok_or("no CPU time")?;
        for b in &batches[..WARMUP_BATCHES] {
            let s = serve(b, &cfg, None);
            r.attempted += b.lines.len() as u64;
            r.failed += check(b, &s);
        }
        setups.push(stats::cpu_s(None).ok_or("no CPU time")? - cpu0);
    }
    stats::sort(&mut setups);

    // Serve batches back to back until the window closes and holds at
    // least `min` batches, checking every answer.
    let measure = |r: &mut Report, window: f64, min: usize, mut tracer: Option<&mut Tracer>| {
        let t0 = Instant::now();
        let mut walls = Vec::new();
        let mut jobs = 0usize;
        let mut agg = ServeStats::default();
        // Past the window, keep going until `min` batches are in, for
        // at most twice the window plus ten seconds.
        while (t0.elapsed().as_secs_f64() < window || walls.len() < min)
            && t0.elapsed().as_secs_f64() < window * 2.0 + 10.0
        {
            let i = walls.len();
            let b = &batches[i % BATCHES];
            let s = serve(b, &cfg, tracer.as_deref_mut().map(|t| (t, i as u64)));
            r.attempted += b.lines.len() as u64;
            r.failed += check(b, &s);
            jobs += s.results.len();
            agg.merge(&s.stats);
            agg.threads_used = s.stats.threads_used;
            walls.push(s.wall_s);
        }
        let total: f64 = walls.iter().sum();
        (walls, jobs, jobs as f64 / total, agg)
    };

    if !trace {
        let cpu0 = stats::cpu_s(None);
        let (walls, jobs_total, per_s, agg) = measure(&mut r, seconds * 0.85, MIN_BATCHES, None);
        let cpu_s = stats::cpu_s(None).zip(cpu0).map(|(b, a)| b - a);
        let n = walls.len();
        let walls_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
        r.metric("setup_s", stats::median(&setups), "s");
        r.metric(
            "cpu_us_per_job",
            cpu_s.ok_or("no CPU time")? * 1e6 / jobs_total as f64,
            "us",
        );
        r.note(format!(
            "{jobs_total} jobs at {per_s:.1} jobs/s; batch latency: {}",
            stats::summary(&walls_us)
        ));
        r.note(format!(
            "{n} batches of {} lines; {} packs / {} lanes, {} threads",
            batches[0].lines.len(),
            agg.packs,
            agg.packed_lanes,
            agg.threads_used
        ));
        return Ok(r);
    }

    let (_, _, untraced, _) = measure(&mut r, seconds * 0.15, TRACED_BATCHES, None);
    let base = Instant::now();
    let mut tracer = Tracer::new(base);
    let cache0 = ga_engine::global_cache().counters();
    let (walls, _, traced, agg) =
        measure(&mut r, seconds * 0.15, TRACED_BATCHES, Some(&mut tracer));
    let cache1 = ga_engine::global_cache().counters();

    // Replay every distinct batch once, single thread, the way the
    // scheduler plans it (packable jobs as one pack per backend, the
    // rest solo), to split the engine time out of the batch wall time.
    let mut engine_ns = Vec::with_capacity(BATCHES);
    let mut by_backend = std::collections::BTreeMap::new();
    for (bi, b) in batches.iter().enumerate() {
        let id = bi as u64;
        let replay = tracer.begin("replay", None, id);
        let mut jobs = Vec::new();
        for (i, l) in b.lines.iter().enumerate() {
            match tracer.span("jsonl.parse_job", Some(replay), id, || {
                jsonl::parse_job(&l.text, i)
            }) {
                Ok(job) => jobs.push(job),
                Err(ServeError::Parse { .. }) => {}
                Err(e) => r.fail(format!("line {i} of batch {bi} rejected untyped: {e}")),
            }
        }
        let mut sum = 0u64;
        let mut outcomes = Vec::new();
        for kind in gen::HEAVY_BATCH.iter().map(|h| h.0) {
            let group: Vec<GaJob> = jobs.iter().filter(|j| j.backend == kind).copied().collect();
            let engine = ga_engine::global()
                .get(kind)
                .ok_or("backend not registered")?;
            let prepared = group
                .iter()
                .map(|j| engine.prepare(j.spec()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let limits = ga_engine::Limits::default();
            let t = if engine.capabilities().pack_width > 1 {
                let t = tracer.begin("engine.run_pack", Some(replay), id);
                outcomes.extend(
                    group
                        .iter()
                        .copied()
                        .zip(engine.run_pack(&prepared, &limits)),
                );
                t
            } else {
                let t = tracer.begin("engine.run", Some(replay), id);
                let runs = prepared.iter().map(|p| engine.run(p, &limits));
                outcomes.extend(group.iter().copied().zip(runs));
                t
            };
            tracer.end(t);
            sum += tracer.spans[t].dur_ns();
            *by_backend.entry(kind.name()).or_insert(0) += tracer.spans[t].dur_ns();
        }
        for (i, (job, o)) in outcomes.into_iter().enumerate() {
            let o = o.map_err(|e| e.to_string())?;
            let res = gate::result(i, &job, o);
            tracer.span("jsonl.result_line", Some(replay), id, || {
                jsonl::result_line(&res)
            });
        }
        tracer.end(replay);
        engine_ns.push(sum);
    }
    // The mix is sized so no backend holds more than half of it.
    let total_ns: u64 = by_backend.values().sum();
    for (name, ns) in &by_backend {
        r.note(format!(
            "engine time share {name:10} {:5.1} %",
            *ns as f64 * 100.0 / total_ns as f64
        ));
    }
    let threads = agg.threads_used.max(1) as f64;
    let residual: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(i, w)| (w - engine_ns[i % BATCHES] as f64 / 1e9 / threads) * 1e6)
        .collect();
    let busy: f64 = (0..walls.len())
        .map(|i| engine_ns[i % BATCHES] as f64 / 1e9)
        .sum();
    let wall: f64 = walls.iter().sum();
    let malformed: u64 = (0..walls.len())
        .map(|i| {
            batches[i % BATCHES]
                .lines
                .iter()
                .filter(|l| l.malformed)
                .count() as u64
        })
        .sum();
    r.traffic_layers(
        &tracer,
        Traffic {
            untraced_per_s: untraced,
            traced_per_s: traced,
            latency_us: walls.iter().map(|w| w * 1e6).collect(),
            residual_us: residual,
            lines: walls.len() as u64 * batches[0].lines.len() as u64,
            rejected_parse: malformed,
        },
    )?;
    service_layers(&mut r, &agg, busy, wall, (cache0, cache1));
    r.spans = std::mem::take(&mut tracer.spans);
    Ok(r)
}
