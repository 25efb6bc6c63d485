//! `gaserved` — GA execution over JSONL, batch or persistent socket.
//!
//! ```text
//! gaserved --input jobs.jsonl --out results.jsonl [--threads N] [--queue-cap N]
//! gaserved --listen 127.0.0.1:4567 [--threads N] [--queue-cap N] [--shed]
//!          [--max-jobs-per-conn N] [--rate N] [--burst N] [--drain-grace-ms N]
//! gaserved --island-worker 127.0.0.1:0
//! gaserved --list-backends
//! ```
//!
//! **Batch mode** reads one job per input line, runs the batch through
//! the sharded service, and writes exactly one result line per input
//! line, in input order. Lines that fail to parse become
//! `"backend":"none"` error lines in the same position — the batch
//! never aborts on a bad line.
//!
//! **Listen mode** serves the same wire format over a persistent TCP
//! socket — one connection per client, results line-aligned per
//! connection — and announces the bound address on stdout as
//! `listening <addr>` (so `--listen 127.0.0.1:0` is scriptable). The
//! server runs until **stdin reaches EOF** (the std-only shutdown
//! signal: run it with a held-open pipe and close it to stop), then
//! drains gracefully — stops accepting, finishes every admitted job,
//! flushes per-connection tails.
//!
//! **Island-worker mode** hosts one shard of a sharded island run: it
//! binds, announces `listening <addr>` the same way, accepts a single
//! coordinator connection, and serves the `ga_serve::islands` op
//! protocol (init/epoch/inject/snapshot/finish) until the run finishes
//! or the coordinator disconnects.
//!
//! In both modes a human summary goes to stderr and the
//! machine-readable throughput report — now with per-backend
//! p50/p95/p99/max latency — goes to `BENCH_serve.json` (honoring
//! `GA_BENCH_OUT`).

use std::fs;
use std::io::Read as _;
use std::process::ExitCode;

use ga_serve::{jsonl, serve_batch, GaJob, JobResult, NetConfig, ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut out = None;
    let mut listen = None;
    let mut island_worker = None;
    let mut net = NetConfig::default();
    let mut cfg = ServeConfig::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let r = match arg.as_str() {
            "--input" => value("--input").map(|v| input = Some(v)),
            "--out" => value("--out").map(|v| out = Some(v)),
            "--listen" => value("--listen").map(|v| listen = Some(v)),
            "--island-worker" => value("--island-worker").map(|v| island_worker = Some(v)),
            "--shed" => {
                net.shed = true;
                Ok(())
            }
            "--max-jobs-per-conn" => value("--max-jobs-per-conn").and_then(|v| {
                v.parse()
                    .map(|n: u64| net.max_jobs_per_conn = n)
                    .map_err(|e| format!("--max-jobs-per-conn: {e}"))
            }),
            "--rate" => value("--rate").and_then(|v| {
                v.parse()
                    .map(|n: u32| net.rate_per_sec = n)
                    .map_err(|e| format!("--rate: {e}"))
            }),
            "--burst" => value("--burst").and_then(|v| {
                v.parse()
                    .map(|n: u32| net.rate_burst = n)
                    .map_err(|e| format!("--burst: {e}"))
            }),
            "--drain-grace-ms" => value("--drain-grace-ms").and_then(|v| {
                v.parse()
                    .map(|n: u64| net.drain_grace_ms = n)
                    .map_err(|e| format!("--drain-grace-ms: {e}"))
            }),
            "--threads" => value("--threads").and_then(|v| {
                v.parse()
                    .map(|n: usize| cfg.threads = n.max(1))
                    .map_err(|e| format!("--threads: {e}"))
            }),
            "--queue-cap" => value("--queue-cap").and_then(|v| {
                v.parse()
                    .map(|n: usize| cfg.queue_capacity = n.max(1))
                    .map_err(|e| format!("--queue-cap: {e}"))
            }),
            "--list-backends" => {
                // One line per registered engine, machine-greppable:
                // the CI registry-enumeration check parses this.
                for e in ga_engine::global().engines() {
                    let caps = e.capabilities();
                    let widths: Vec<String> = caps.widths.iter().map(|w| w.to_string()).collect();
                    println!(
                        "{} widths={} pack_width={}",
                        e.kind().name(),
                        widths.join(","),
                        caps.pack_width,
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: gaserved --input jobs.jsonl --out results.jsonl \
                     [--threads N] [--queue-cap N]\n       \
                     gaserved --listen ADDR [--threads N] [--queue-cap N] [--shed] \
                     [--max-jobs-per-conn N] [--rate N] [--burst N] [--drain-grace-ms N]\n       \
                     gaserved --island-worker ADDR\n       \
                     gaserved --list-backends"
                );
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?} (try --help)")),
        };
        if let Err(msg) = r {
            eprintln!("gaserved: {msg}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(addr) = island_worker {
        // One shard of a sharded island run: serve the op protocol on a
        // single coordinator connection, then exit.
        return match ga_serve::serve_island_worker(&addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gaserved: island worker: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(addr) = listen {
        net.serve = cfg;
        return run_listener(&addr, net);
    }

    let (Some(input), Some(out)) = (input, out) else {
        eprintln!("gaserved: --input and --out are required (try --help)");
        return ExitCode::FAILURE;
    };

    let text = match fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gaserved: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Parse every line first. Parse failures keep their line slot so
    // the output stays line-aligned with the input; parseable jobs are
    // submitted as one batch with their line index as the job id.
    let mut parse_errors = Vec::new(); // (line index, error line)
    let mut jobs: Vec<(usize, GaJob)> = Vec::new();
    // Explicit line-ending strip (not `str::lines`): the batch path
    // shares the socket reader's contract, so CRLF files parse — and
    // CRLF "blank" lines skip — identically in both modes.
    for (line_no, raw) in text.split('\n').enumerate() {
        let line = jsonl::strip_line_ending(raw);
        if line.trim().is_empty() {
            continue;
        }
        match jsonl::parse_job(line, line_no) {
            Ok(job) => jobs.push((line_no, job)),
            Err(e) => parse_errors.push((line_no, jsonl::parse_error_line(line_no, &e))),
        }
    }

    let batch: Vec<GaJob> = jobs.iter().map(|&(_, j)| j).collect();
    let outcome = serve_batch(&batch, &cfg);

    // Re-key batch-relative job ids back to input line numbers, merge
    // with the parse-error lines, and emit in line order.
    let mut lines: Vec<(usize, String)> = parse_errors;
    for r in &outcome.results {
        let line_no = jobs[r.job].0;
        let rekeyed = JobResult {
            job: line_no,
            ..r.clone()
        };
        lines.push((line_no, jsonl::result_line(&rekeyed)));
    }
    lines.sort_by_key(|(line_no, _)| *line_no);

    let mut body = String::new();
    for (_, line) in &lines {
        body.push_str(line);
        body.push('\n');
    }
    if let Err(e) = fs::write(&out, body) {
        eprintln!("gaserved: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }

    let stats = &outcome.stats;
    eprintln!(
        "gaserved: {} jobs ({} ok, {} errors, {} parse failures) in {:.3}s \
         [{:.1} jobs/s, {} threads, {} bitsim packs]",
        lines.len(),
        stats.jobs() - stats.errors(),
        stats.errors(),
        lines.len() - outcome.results.len(),
        stats.wall_seconds,
        stats.jobs_per_sec(),
        stats.threads_used,
        stats.packs,
    );
    stats.to_report().emit_or_warn();
    ExitCode::SUCCESS
}

/// Listen mode: bind, announce, serve until stdin EOF, drain, report.
fn run_listener(addr: &str, net: NetConfig) -> ExitCode {
    let server = match Server::bind(addr, net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gaserved: cannot listen on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Announce on stdout so `--listen 127.0.0.1:0` is scriptable: the
    // caller reads this line to learn the ephemeral port.
    println!("listening {}", server.local_addr());
    // std-only shutdown signal: block until our stdin is closed, then
    // drain. CI holds the pipe open for the test window; interactively,
    // Ctrl-D stops the server.
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    let summary = server.drain();
    let stats = &summary.stats;
    let adm = &summary.admission;
    eprintln!(
        "gaserved: drained after {:.3}s — {} conns, {} lines, {} jobs \
         ({} errors, {} degraded), rejected {}p/{}q/{}r, shed {}, closed {}",
        stats.wall_seconds,
        adm.connections,
        adm.lines,
        stats.jobs(),
        stats.errors(),
        stats.degraded,
        adm.rejected_parse,
        adm.rejected_quota,
        adm.rejected_rate,
        adm.shed_queue_full,
        adm.rejected_closed,
    );
    stats.to_report().emit_or_warn();
    ExitCode::SUCCESS
}
