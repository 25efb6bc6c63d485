//! `perfbench` — the repository's layered benchmark.
//!
//! ```text
//! perfbench --workload serve-small|batch-heavy|islands-ring|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is generated from `--seed`, measured for about
//! `--seconds`, and checked against a single-threaded reference run of
//! every job outside the timed window. Human-readable detail goes to
//! stdout first; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (and the spans are written under `.perfbench_out/`). The exit code
//! is non-zero on any wrong or missing answer. See `README.md`.

mod batch_heavy;
mod gate;
mod gen;
mod islands_ring;
mod layers;
mod serve_small;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["serve-small", "batch-heavy", "islands-ring"];

/// One run's outcome: answers attempted and failed, the metrics in
/// emission order, and notes for the human-readable part.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub invalid: bool,
    /// Peak RSS of helper processes (island workers), added to ours.
    pub extra_rss_mb: f64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// A wrong, missing or unexpected answer.
    pub fn fail(&mut self, s: String) {
        self.failed += 1;
        self.notes.push(format!("FAIL: {s}"));
    }

    /// The run measured the harness rather than the program.
    pub fn invalid(&mut self, s: String) {
        self.invalid = true;
        self.notes.push(format!("INVALID: {s}"));
    }

    /// End-to-end metrics every workload reports last.
    fn finish_end_to_end(&mut self) {
        let rss = stats::peak_rss_mb(None).unwrap_or(0.0) + self.extra_rss_mb;
        self.metric("peak_rss_mb", rss, "MB");
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.note(format!("failed_ratio {failed_ratio}"));
        self.metric("ok_ratio", 1.0 - failed_ratio, "ratio");
    }

    /// Per-layer metrics derived from the workload's own traced
    /// traffic: tracing overhead, request latency, the part of it the
    /// replayed layers do not explain, and the JSONL layer's self time
    /// per line.
    pub fn traffic_layers(&mut self, tracer: &trace::Tracer, t: Traffic) -> Result<(), String> {
        let Traffic {
            untraced_per_s,
            traced_per_s,
            mut latency_us,
            mut residual_us,
            lines,
            rejected_parse,
        } = t;
        self.metric("trace.jobs_per_s_untraced", untraced_per_s, "1/s");
        self.metric("trace.jobs_per_s_traced", traced_per_s, "1/s");
        self.metric(
            "trace.overhead_frac",
            1.0 - traced_per_s / untraced_per_s,
            "ratio",
        );
        self.metric("trace.spans", tracer.spans.len() as f64, "count");
        stats::sort(&mut latency_us);
        self.metric("request.latency_p50_us", stats::median(&latency_us), "us");
        self.metric(
            "request.latency_p90_us",
            stats::tail(&latency_us, 0.90).ok_or("too few traced requests for p90")?,
            "us",
        );
        stats::sort(&mut residual_us);
        self.metric("request.residual_p50_us", stats::median(&residual_us), "us");
        self.metric(
            "request.residual_p90_us",
            stats::tail(&residual_us, 0.90).ok_or("too few traced requests for p90")?,
            "us",
        );
        let selfs = trace::self_times(&tracer.spans);
        let per = |name: &str| {
            selfs
                .get(name)
                .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64)
        };
        self.metric("jsonl.parse_ns_per_line", per("jsonl.parse_job"), "ns");
        self.metric("jsonl.result_ns_per_line", per("jsonl.result_line"), "ns");
        self.metric("admit.lines", lines as f64, "count");
        self.metric("admit.rejected_parse", rejected_parse as f64, "count");
        for (name, (n, ns)) in &selfs {
            self.note(format!(
                "self time {name:20} {n:8} spans {:12.3} ms",
                *ns as f64 / 1e6
            ));
        }
        Ok(())
    }
}

/// What a workload's traced traffic measured, for [`Report::traffic_layers`].
pub struct Traffic {
    /// Saturation rate without and with request spans.
    pub untraced_per_s: f64,
    pub traced_per_s: f64,
    /// Client-side latency of each traced request.
    pub latency_us: Vec<f64>,
    /// Each request's latency minus its replayed layer time.
    pub residual_us: Vec<f64>,
    /// Input lines admitted, and those rejected as malformed.
    pub lines: u64,
    pub rejected_parse: u64,
}

/// The scheduler layer seen from its counters: packs, pack fill (packed
/// lanes over packs × 64), pool size, the share of pool time no job ran
/// (`busy_s` is the replayed single-thread engine time of the traffic,
/// `wall_s` its wall time) and the compiled-netlist cache delta.
pub fn service_layers(
    r: &mut Report,
    s: &ga_serve::ServeStats,
    busy_s: f64,
    wall_s: f64,
    cache: ((u64, u64), (u64, u64)),
) {
    let fill = if s.packs == 0 {
        0.0
    } else {
        s.packed_lanes as f64 / (s.packs as f64 * 64.0)
    };
    r.metric("service.packs", s.packs as f64, "count");
    r.metric("service.pack_fill", fill, "ratio");
    r.metric("service.threads_used", s.threads_used as f64, "count");
    r.metric(
        "service.sched_idle_frac",
        1.0 - busy_s / (wall_s * s.threads_used.max(1) as f64),
        "ratio",
    );
    let ((h0, m0), (h1, m1)) = cache;
    r.metric("engine.netlist_cache_hits", (h1 - h0) as f64, "count");
    r.metric("engine.netlist_cache_misses", (m1 - m0) as f64, "count");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or \"all\", got {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn run_one(workload: &str, a: &Args) -> Result<Report, String> {
    let mut r = match workload {
        "serve-small" => serve_small::run(a.seed, a.seconds, a.trace)?,
        "batch-heavy" => batch_heavy::run(a.seed, a.seconds, a.trace)?,
        _ => islands_ring::run(a.seed, a.seconds, a.trace)?,
    };
    if a.trace {
        if workload != "islands-ring" {
            // The island layers are measured on every traced run, so
            // every workload reports every per-layer metric.
            let probe = islands_ring::run(a.seed, 4.0, true)?;
            r.attempted += probe.attempted;
            r.failed += probe.failed;
            r.notes.extend(probe.notes);
            r.metrics.extend(
                probe
                    .metrics
                    .into_iter()
                    .filter(|(n, _, _)| n.starts_with("snapshot.") || n.starts_with("islands.")),
            );
        }
        layers::probe(a.seed, &mut r)?;
        let path = PathBuf::from(".perfbench_out").join(format!("{workload}-seed{}.tsv", a.seed));
        trace::write(&path, &r.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        r.note(format!(
            "{} spans written to {}",
            r.spans.len(),
            path.display()
        ));
    }
    Ok(r)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--island-worker" {
        // One shard of the island ring: the op-protocol server that
        // `gaserved --island-worker` runs, in a child process.
        return match ga_serve::serve_island_worker(&args[2]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: island worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let names: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for name in &names {
        let mut r = match run_one(name, &a) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !a.trace {
            r.finish_end_to_end();
        }
        println!(
            "== {name} seed {} seconds {} trace {} cores {cores}: {} attempted, {} failed",
            a.seed, a.seconds, a.trace as u8, r.attempted, r.failed
        );
        for n in &r.notes {
            println!("   {n}");
        }
        for (n, v, u) in &r.metrics {
            println!("   {n:40} {v:>16.4} {u}");
        }
        attempted += r.attempted;
        failed += r.failed;
        correct &= r.failed == 0 && !r.invalid;
        // With several workloads, each metric is keyed by its workload.
        let prefix = if names.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        metrics.extend(r.metrics.iter().map(|(n, v, u)| {
            format!(
                "\"{prefix}{n}\":{{\"value\":{},\"unit\":\"{u}\"}}",
                json_number(*v)
            )
        }));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
