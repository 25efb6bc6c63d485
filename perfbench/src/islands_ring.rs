//! `islands-ring`: one island job driven by `ga_serve::Coordinator`
//! over two island-worker processes, with a durable checkpoint written
//! to a fresh directory at every barrier. One request is one barrier
//! (`Coordinator::step_epoch`, checkpoint flush included).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use ga_core::islands::IslandRun;
use ga_engine::{CheckpointBundle, IslandsDriver, IslandsEngine, RunOutcome};
use ga_serve::{jsonl, write_checkpoint, Coordinator, GaJob, JobResult, ServeStats};

use crate::gen;
use crate::stats;
use crate::trace::Tracer;
use crate::{service_layers, Report, Traffic};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Warm-up barriers in each set-up.
pub const WARMUP_BARRIERS: usize = 1_000;
/// Barriers in each traced-run window, so the residual has a p90.
pub const TRACED_BARRIERS: u64 = 200;

/// One island-worker child process: this binary re-run as
/// `perfbench --island-worker 127.0.0.1:0`, i.e. the same
/// `ga_serve::serve_island_worker` loop `gaserved --island-worker` runs.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn() -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--island-worker", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn island worker: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line.trim().strip_prefix("listening ").map(str::to_string);
        let worker = Worker {
            child,
            addr: addr.unwrap_or_default(),
        };
        match read {
            Some(Ok(_)) if !worker.addr.is_empty() => Ok(worker),
            _ => Err(format!(
                "island worker did not announce its address: {line:?}"
            )),
        }
    }
}

/// A worker is always reaped: killed first unless it already exited
/// (after `finish`), so no error path leaves a process behind.
impl Drop for Worker {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A connected ring: the coordinator, its workers, its checkpoint.
struct Ring {
    coord: Coordinator,
    workers: Vec<Worker>,
    ckpt: PathBuf,
}

impl Ring {
    /// Spawn the workers, connect and initialize every shard.
    fn start(job: &GaJob, dir: &Path) -> Result<Ring, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ckpt = dir.join("ring.ckpt");
        let workers = (0..gen::RING_ISLANDS)
            .map(|_| Worker::spawn())
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
        let coord = Coordinator::connect(job, &addrs, &ckpt, None)
            .map_err(|e| format!("coordinator: {e}"))?;
        Ok(Ring {
            coord,
            workers,
            ckpt,
        })
    }

    /// CPU time used so far by the coordinator and its workers.
    fn cpu_s(&self) -> Option<f64> {
        let workers: Option<f64> = self
            .workers
            .iter()
            .map(|w| stats::cpu_s(Some(w.child.id())))
            .sum();
        Some(stats::cpu_s(None)? + workers?)
    }

    /// Finish every shard and reap the workers; returns the ring result
    /// and the workers' summed peak RSS (read before they exit).
    fn finish(mut self) -> Result<(IslandRun, f64), String> {
        let rss: f64 = self
            .workers
            .iter()
            .filter_map(|w| stats::peak_rss_mb(Some(w.child.id())))
            .sum();
        let done = self.coord.finish();
        for w in &mut self.workers {
            let status = w.child.wait().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("island worker exited with {status}"));
            }
        }
        done.map(|run| (run, rss))
    }
}

/// The in-process reference ring on the same job.
fn driver(job: &GaJob) -> Result<IslandsDriver, String> {
    let engine = ga_engine::global()
        .get(job.backend)
        .ok_or("backend not registered")?;
    let cfg = job.islands.ok_or("not an island job")?;
    IslandsEngine::new(engine, cfg)
        .and_then(|e| e.start(job.spec()))
        .map_err(|e| e.to_string())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let line = gen::island_ring(seed);
    let job = jsonl::parse_job(&line.text, 0).map_err(|e| e.to_string())?;
    let root = PathBuf::from(".perfbench_out").join(format!("islands-{}", std::process::id()));
    let result = measure(seed, &job, &root, seconds, trace);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(
    seed: u64,
    job: &GaJob,
    root: &Path,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut ring = None;
    for i in 0..SETUPS {
        let cpu0 = stats::cpu_s(None).ok_or("no CPU time")?;
        let mut fresh = Ring::start(job, &root.join(format!("setup{i}")))?;
        for _ in 0..WARMUP_BARRIERS {
            fresh.coord.step_epoch()?;
        }
        setups.push(fresh.cpu_s().ok_or("no CPU time")? - cpu0);
        if let Some(old) = ring.replace(fresh) {
            old.finish()?;
        }
    }
    stats::sort(&mut setups);
    let mut ring = ring.ok_or("no set-up")?;

    // Step barriers until the window closes; each bundle must match the
    // in-process driver's, checked after the timed window (untraced)
    // or barrier by barrier (traced).
    let mut last: Option<CheckpointBundle> = None;
    let mut step = |ring: &mut Ring, window: f64, min: usize| -> Result<(Vec<f64>, f64), String> {
        let t0 = Instant::now();
        let mut us = Vec::new();
        while t0.elapsed().as_secs_f64() < window || us.len() < min {
            let t = Instant::now();
            let bundle = ring.coord.step_epoch()?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
            last = Some(bundle);
        }
        let rate = us.len() as f64 / (us.iter().sum::<f64>() / 1e6);
        Ok((us, rate))
    };

    if !trace {
        let cpu0 = ring.cpu_s();
        let (barriers_us, per_s) = step(&mut ring, seconds * 0.85, 1_000)?;
        let cpu_s = ring.cpu_s().zip(cpu0).map(|(b, a)| b - a);
        let epochs = ring.coord.epochs_done();
        let disk = ga_serve::read_checkpoint(&ring.ckpt)?;
        r.extra_rss_mb = ring.finish()?.1;
        r.attempted += epochs as u64;
        let mut reference = driver(job)?;
        let mut want = reference.checkpoint();
        for _ in 0..epochs {
            want = reference.step_epoch();
        }
        let got = last.ok_or("no barrier ran")?;
        if got.encode() != want.encode() {
            r.fail(format!(
                "ring bundle at epoch {epochs} differs from the in-process driver"
            ));
        }
        if disk != got {
            r.fail("checkpoint file does not hold the last barrier".into());
        }
        r.metric("setup_s", stats::median(&setups), "s");
        r.metric(
            "cpu_us_per_job",
            cpu_s.ok_or("no CPU time")? * 1e6 / barriers_us.len() as f64,
            "us",
        );
        r.note(format!(
            "epochs_per_s {per_s:.1}; barrier latency: {}; bundle {} bytes",
            stats::summary(&barriers_us),
            want.encode().len()
        ));
        return Ok(r);
    }

    let (_, untraced) = step(&mut ring, seconds * 0.15, TRACED_BARRIERS as usize)?;
    // Bring the reference driver to the same barrier, untimed.
    let mut reference = driver(job)?;
    for _ in 0..ring.coord.epochs_done() {
        reference.step_epoch();
    }
    let base = Instant::now();
    let mut tracer = Tracer::new(base);
    let scratch = root.join("replay.ckpt");
    let mut residual = Vec::new();
    let mut bytes = 0usize;
    let mut ring_s = 0.0;
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed().as_secs_f64() < seconds * 0.15 || n < TRACED_BARRIERS {
        let req = tracer.begin("request", None, n);
        let got = ring.coord.step_epoch()?;
        tracer.end(req);
        let replay = tracer.begin("replay", None, n);
        let want = tracer.span("islands.driver_epoch", Some(replay), n, || {
            reference.step_epoch()
        });
        let enc = tracer.span("snapshot.encode", Some(replay), n, || want.encode());
        let dec = tracer.span("snapshot.decode", Some(replay), n, || {
            CheckpointBundle::decode(&enc)
        });
        let wrote = tracer.span("islands.checkpoint_write", Some(replay), n, || {
            write_checkpoint(&scratch, &want)
        });
        tracer.end(replay);
        wrote?;
        r.attempted += 1;
        if dec.as_ref() != Ok(&want) || got.encode() != enc {
            r.fail(format!(
                "barrier {} differs from the in-process driver",
                got.epochs_done
            ));
        }
        bytes = enc.len();
        let dur = |id: usize| tracer.spans[id].dur_ns() as f64 / 1e3;
        // The replay's children, in order: driver epoch, encode,
        // decode, checkpoint write.
        let kids = &tracer.spans[replay + 1..];
        let driver_us = kids[0].dur_ns() as f64 / 1e3;
        let write_us = kids[3].dur_ns() as f64 / 1e3;
        ring_s += dur(req) / 1e6;
        residual.push(dur(req) - driver_us - write_us);
        n += 1;
    }
    let (run, _) = ring.finish()?;
    // The JSONL layer on this workload: the job line, and the result
    // line the ring's outcome serializes to.
    let line = gen::island_ring(seed);
    tracer
        .span("jsonl.parse_job", None, n, || {
            jsonl::parse_job(&line.text, 0)
        })
        .map_err(|e| e.to_string())?;
    let result = JobResult {
        job: 0,
        backend: job.backend,
        outcome: Ok(RunOutcome {
            best_chrom: u32::from(run.best.chrom),
            best_fitness: run.best.fitness,
            generations: job.params.n_gens,
            evaluations: run.evaluations,
            conv_gen: None,
            cycles: None,
            rng_draws: None,
            trajectory: Vec::new(),
        }),
        micros: 0,
        degraded: None,
        heal: None,
    };
    tracer.span("jsonl.result_line", None, n, || jsonl::result_line(&result));
    let traced = n as f64 / ring_s;
    let barriers: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    r.traffic_layers(
        &tracer,
        Traffic {
            untraced_per_s: untraced,
            traced_per_s: traced,
            latency_us: barriers,
            residual_us: residual.clone(),
            lines: 1,
            rejected_parse: 0,
        },
    )?;
    let selfs = crate::trace::self_times(&tracer.spans);
    let per_us = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |&(k, ns)| ns as f64 / k.max(1) as f64 / 1e3)
    };
    stats::sort(&mut residual);
    r.metric("snapshot.bundle_bytes", bytes as f64, "bytes");
    r.metric("snapshot.encode_us", per_us("snapshot.encode"), "us");
    r.metric("snapshot.decode_us", per_us("snapshot.decode"), "us");
    r.metric(
        "islands.checkpoint_write_us",
        per_us("islands.checkpoint_write"),
        "us",
    );
    r.metric(
        "islands.driver_epoch_us",
        per_us("islands.driver_epoch"),
        "us",
    );
    r.metric("islands.coord_overhead_us", stats::median(&residual), "us");
    // No scheduler runs here: the two worker processes are the pool,
    // the in-process driver epoch its busy time.
    let mut pool = ServeStats::default();
    pool.threads_used = gen::RING_ISLANDS as u64;
    let busy_s = per_us("islands.driver_epoch") * gen::RING_ISLANDS as f64;
    service_layers(&mut r, &pool, busy_s, per_us("request"), ((0, 0), (0, 0)));
    r.spans = std::mem::take(&mut tracer.spans);
    Ok(r)
}
