//! `serve-small`: tiny jobs over one TCP connection to an in-process
//! `ga_serve::Server`, first as an open loop at three fixed rates, then
//! as a closed loop with a fixed window of outstanding lines.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ga_serve::{jsonl, DrainSummary, NetConfig, Server};

use crate::gate::{self, Expect};
use crate::gen::{self, Line};
use crate::stats;
use crate::trace::Tracer;
use crate::{service_layers, Report, Traffic};

/// Distinct job lines per run; the wire cycles through them.
pub const POOL: usize = 4096;
/// Open-loop rates (jobs/s): about 1/8, 1/3 and 2/3 of the closed-loop
/// saturation rate of one connection on a 2-core host.
pub const RATES: [(&str, f64); 3] = [("low", 8_000.0), ("mid", 20_000.0), ("high", 40_000.0)];
/// The latency limit `slo_rate_jobs_per_s` is judged against.
pub const P99_LIMIT_US: f64 = 1_000.0;
/// Outstanding lines in the closed loop (and the set-up warm-up).
pub const WINDOW: usize = 64;
/// Lines in the set-up warm-up.
pub const WARMUP_LINES: usize = 16_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

struct Workload {
    lines: Vec<Line>,
    expect: Vec<Expect>,
}

impl Workload {
    fn new(seed: u64) -> Result<Self, String> {
        let lines = gen::serve_small(seed, POOL);
        let expect = gate::references(&lines)?;
        Ok(Workload { lines, expect })
    }

    fn line(&self, id: usize) -> &Line {
        &self.lines[id % POOL]
    }

    fn check(&self, id: usize, got: &str) -> bool {
        self.expect[id % POOL].matches(self.line(id), id, got)
    }
}

/// One client connection. Wire ids count every line sent on it.
struct Client {
    write: TcpStream,
    read: BufReader<TcpStream>,
    sent: usize,
    received: usize,
    failed: u64,
    malformed: u64,
    buf: String,
}

impl Client {
    fn connect(server: &Server) -> Result<Client, String> {
        let s = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let read = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            write: s,
            read,
            sent: 0,
            received: 0,
            failed: 0,
            malformed: 0,
            buf: String::new(),
        })
    }

    fn push(&mut self, w: &Workload, out: &mut Vec<u8>) {
        let line = w.line(self.sent);
        self.malformed += u64::from(line.malformed);
        out.extend_from_slice(line.text.as_bytes());
        out.push(b'\n');
        self.sent += 1;
    }

    /// Read and check the next answer; `false` at EOF.
    fn recv(&mut self, w: &Workload) -> Result<bool, String> {
        self.buf.clear();
        let n = self
            .read
            .read_line(&mut self.buf)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Ok(false);
        }
        let got = jsonl::strip_line_ending(&self.buf);
        if !w.check(self.received, got) {
            if self.failed < 3 {
                eprintln!(
                    "serve-small: wrong answer for wire id {}: {got}",
                    self.received
                );
            }
            self.failed += 1;
        }
        self.received += 1;
        Ok(true)
    }

    /// Closed loop: keep `WINDOW` lines outstanding for `dur`, then let
    /// the window drain. Returns completed lines and the wall time
    /// until the last one. With a tracer, every line gets a `request`
    /// span from its send to its answer.
    fn closed_loop(
        &mut self,
        w: &Workload,
        dur: Duration,
        window: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(usize, f64), String> {
        let first = self.received;
        let t0 = Instant::now();
        let mut sent_ns = vec![0u64; window];
        let mut out = Vec::new();
        loop {
            let open = t0.elapsed() < dur;
            if open {
                out.clear();
                let now = tracer.as_ref().map_or(0, |t| t.now_ns());
                while self.sent - self.received < window {
                    sent_ns[self.sent % window] = now;
                    self.push(w, &mut out);
                }
                self.write
                    .write_all(&out)
                    .map_err(|e| format!("write: {e}"))?;
            } else if self.sent == self.received {
                break;
            }
            // Answer everything already buffered before topping up.
            loop {
                let id = self.received;
                if !self.recv(w)? {
                    return Err("server closed the connection".into());
                }
                if let Some(t) = tracer.as_deref_mut() {
                    let end = t.now_ns();
                    t.record("request", sent_ns[id % window], end, None, id as u64);
                }
                if self.read.buffer().is_empty() || self.sent == self.received {
                    break;
                }
            }
        }
        Ok((self.received - first, t0.elapsed().as_secs_f64()))
    }

    /// Half-close, read the tail to EOF.
    fn finish(mut self, w: &Workload) -> Result<Client, String> {
        self.write
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("shutdown: {e}"))?;
        while self.recv(w)? {}
        Ok(self)
    }
}

/// Bind a server, connect, and warm up; returns the CPU seconds it took.
fn setup(w: &Workload) -> Result<(Server, Client, f64), String> {
    let cpu0 = stats::cpu_s(None).ok_or("no CPU time")?;
    let server =
        Server::bind("127.0.0.1:0", NetConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(&server)?;
    let mut out = Vec::new();
    while client.sent < WARMUP_LINES {
        out.clear();
        while client.sent < WARMUP_LINES && client.sent - client.received < WINDOW {
            client.push(w, &mut out);
        }
        client.write.write_all(&out).map_err(|e| e.to_string())?;
        while client.received < client.sent
            && (client.sent == WARMUP_LINES || client.sent - client.received >= WINDOW / 2)
        {
            client.recv(w)?;
        }
    }
    let cpu = stats::cpu_s(None).ok_or("no CPU time")? - cpu0;
    Ok((server, client, cpu))
}

/// Set up `SETUPS` times (all but the last torn down again) and return
/// the live pair plus the median set-up CPU time.
fn setups(w: &Workload, failed: &mut u64) -> Result<(Server, Client, f64), String> {
    let mut times = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let (server, client, s) = setup(w)?;
        times.push(s);
        if i + 1 < SETUPS {
            *failed += client.finish(w)?.failed;
            server.drain();
        } else {
            live = Some((server, client));
        }
    }
    stats::sort(&mut times);
    let (server, client) = live.ok_or("no set-up")?;
    Ok((server, client, stats::median(&times)))
}

/// One open-loop rate step as the client saw it.
struct Step {
    name: &'static str,
    rate: f64,
    lines: usize,
    due_ns: Vec<u64>,
    recv_ns: Vec<u64>,
    late_us: Vec<f64>,
    backlog_growing: bool,
}

impl Step {
    /// Latencies in send order.
    fn latencies(&self) -> Vec<f64> {
        self.recv_ns
            .iter()
            .zip(&self.due_ns)
            .map(|(r, d)| r.saturating_sub(*d) as f64 / 1e3)
            .collect()
    }
}

/// One open-loop rate step: `lines` lines due at a fixed rate.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    rate: f64,
    lines: usize,
}

impl Schedule {
    fn new(rate: f64, dur: Duration) -> Self {
        Schedule {
            rate,
            lines: (rate * dur.as_secs_f64()) as usize,
        }
    }

    /// Due time of line `j`, in ns on the same clock as `start`.
    fn due(&self, start: u64, j: usize) -> u64 {
        start + (j as f64 * 1e9 / self.rate) as u64
    }
}

/// What the pacer hands back: each step's start (ns since the run's
/// base), each line's lateness per step (us), malformed lines sent.
type Paced = (Vec<u64>, Vec<Vec<f64>>, u64);

/// Open loop over `steps`: a pacer thread sends each line at its due
/// time while this thread reads answers. Each line is timed from its
/// due time, so a stall also charges the lines queued behind it. The
/// pacer waits for a step to be fully answered before the next starts.
fn open_loop(
    client: &mut Client,
    w: &Arc<Workload>,
    steps: &[(&'static str, f64)],
    step_dur: Duration,
    base: Instant,
) -> Result<Vec<Step>, String> {
    let plan: Vec<Schedule> = steps
        .iter()
        .map(|&(_, r)| Schedule::new(r, step_dur))
        .collect();
    let total: usize = plan.iter().map(|p| p.lines).sum();
    let first_id = client.sent;
    let received = Arc::new(AtomicUsize::new(0));
    let mut write = client.write.try_clone().map_err(|e| e.to_string())?;
    let pacer = {
        let (w, received, plan) = (Arc::clone(w), Arc::clone(&received), plan.clone());
        thread::spawn(move || -> Result<Paced, String> {
            let mut starts = Vec::new();
            let mut late = Vec::new();
            let mut id = first_id;
            let mut malformed = 0u64;
            let mut done = 0usize;
            let mut out = Vec::new();
            for sched in &plan {
                let n = sched.lines;
                while received.load(Ordering::Acquire) < done {
                    thread::sleep(Duration::from_micros(200));
                }
                let start = base.elapsed().as_nanos() as u64 + 2_000_000;
                let due = |j: usize| sched.due(start, j);
                let mut step_late = Vec::with_capacity(n);
                let mut j = 0;
                while j < n {
                    let now = base.elapsed().as_nanos() as u64;
                    if now < due(j) {
                        thread::sleep(Duration::from_nanos(due(j) - now));
                        continue;
                    }
                    out.clear();
                    while j < n && due(j) <= now {
                        let line = w.line(id);
                        malformed += u64::from(line.malformed);
                        out.extend_from_slice(line.text.as_bytes());
                        out.push(b'\n');
                        step_late.push((now - due(j)) as f64 / 1e3);
                        id += 1;
                        j += 1;
                    }
                    write.write_all(&out).map_err(|e| format!("write: {e}"))?;
                }
                starts.push(start);
                late.push(step_late);
                done += n;
            }
            Ok((starts, late, malformed))
        })
    };
    let mut recv_ns = Vec::with_capacity(total);
    for _ in 0..total {
        if !client.recv(w)? {
            return Err("server closed the connection".into());
        }
        recv_ns.push(base.elapsed().as_nanos() as u64);
        received.store(recv_ns.len(), Ordering::Release);
    }
    let (starts, late, malformed) = pacer.join().map_err(|_| "pacer panicked".to_string())??;
    client.sent += total;
    client.malformed += malformed;

    let mut out = Vec::new();
    let mut offset = 0;
    for (i, sched) in plan.iter().enumerate() {
        let (start, n) = (starts[i], sched.lines);
        let recv = &recv_ns[offset..offset + n];
        let due_ns: Vec<u64> = (0..n).map(|j| sched.due(start, j)).collect();
        // Backlog (lines due but unanswered) at the end of the first
        // and of the last tenth of the step: a queue that keeps growing
        // means the rate is past what the server sustains.
        let backlog_at = |t: u64| {
            let due_n = due_ns.iter().filter(|&&d| d <= t).count();
            due_n - recv.iter().filter(|&&r| r <= t).count().min(due_n)
        };
        let span = sched.due(0, n);
        let early = backlog_at(start + span / 10);
        let end = backlog_at(start + span);
        out.push(Step {
            name: steps[i].0,
            rate: sched.rate,
            lines: n,
            due_ns,
            recv_ns: recv.to_vec(),
            late_us: late[i].clone(),
            backlog_growing: end > 2 * early + 64,
        });
        offset += n;
    }
    Ok(out)
}

fn check_drain(r: &mut Report, summary: &DrainSummary, sent: usize, malformed: u64) {
    let s = &summary.stats;
    if summary.admission.lines != sent as u64 || summary.admission.rejected_parse != malformed {
        r.fail(format!(
            "admission counted {} lines / {} parse rejections, client sent {sent} / {malformed}",
            summary.admission.lines, summary.admission.rejected_parse
        ));
    }
    if s.errors() != 0 || s.degraded != 0 {
        r.fail(format!(
            "{} errored and {} degraded jobs",
            s.errors(),
            s.degraded
        ));
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let w = Arc::new(Workload::new(seed)?);
    let mut r = Report::default();
    let mut setup_failed = 0;
    let (server, mut client, setup_s) = setups(&w, &mut setup_failed)?;
    r.failed += setup_failed;
    let base = Instant::now();
    let mut tracer = Tracer::new(base);
    let cache0 = ga_engine::global_cache().counters();

    if !trace {
        let steps = open_loop(&mut client, &w, &RATES, secs(seconds * 0.12), base)?;
        // Unloaded round trip (one line outstanding), then saturation
        // (the closed loop, `WINDOW` lines outstanding) with the CPU
        // time it costs.
        // (The round trips are taken in chunks whose spans are dropped
        // as they are read, so memory does not grow with speed.)
        let mut rtt = Tracer::new(Instant::now());
        let mut rtt_us = Vec::new();
        for _ in 0..10 {
            client.closed_loop(&w, secs(seconds * 0.015), 1, Some(&mut rtt))?;
            rtt_us.extend(rtt.spans.drain(..).map(|s| s.dur_ns() as f64 / 1e3));
        }
        let cpu0 = stats::cpu_s(None);
        let (done, wall) = client.closed_loop(&w, secs(seconds * 0.35), WINDOW, None)?;
        let cpu = stats::cpu_s(None).zip(cpu0).map(|(b, a)| b - a);
        let sent = client.sent;
        let client = client.finish(&w)?;
        let summary = server.drain();
        check_drain(&mut r, &summary, sent, client.malformed);
        r.attempted += sent as u64;
        r.failed += client.failed;
        if client.received != client.sent {
            r.fail(format!(
                "{} lines unanswered",
                client.sent - client.received
            ));
        }
        r.metric("setup_s", setup_s, "s");
        r.metric(
            "cpu_us_per_job",
            cpu.ok_or("no CPU time")? * 1e6 / done as f64,
            "us",
        );
        r.note(format!(
            "round trip (window 1): {}",
            stats::summary(&rtt_us)
        ));
        r.note(format!(
            "closed loop (window {WINDOW}): {done} jobs in {wall:.3} s = {:.0} jobs/s; \
             server: {} packs / {} lanes, {} threads",
            done as f64 / wall,
            summary.stats.packs,
            summary.stats.packed_lanes,
            summary.stats.threads_used
        ));

        let mut slo = 0.0;
        for s in &steps {
            let mut lat = s.latencies();
            stats::sort(&mut lat);
            let mut late = s.late_us.clone();
            stats::sort(&mut late);
            let p99 = stats::tail(&lat, 0.99).ok_or("too few open-loop samples for p99")?;
            r.note(format!(
                "open loop {:4} {:6.0} jobs/s: {}, loadgen_late_p99_us {:.1}, backlog {}",
                s.name,
                s.rate,
                stats::summary(&lat),
                stats::tail(&late, 0.99).unwrap_or(f64::NAN),
                if s.backlog_growing {
                    "GROWING"
                } else {
                    "steady"
                },
            ));
            // The pacer fell behind its own schedule by more than a
            // tenth of the step: the step measured the generator, not
            // the server, and the run is invalid.
            let worst = late.last().copied().unwrap_or(0.0);
            if worst > seconds * 0.12 * 1e5 {
                r.invalid(format!(
                    "load generator fell behind at {} (max lateness {worst:.0} us)",
                    s.name
                ));
            }
            if p99 <= P99_LIMIT_US && !s.backlog_growing && client.failed == 0 {
                slo = s.rate;
            }
        }
        r.note(format!(
            "slo_rate_jobs_per_s {slo} (p99 <= {P99_LIMIT_US} us, no failures, no growing backlog)"
        ));
        return Ok(r);
    }

    // Traced run: untraced vs traced closed loop for the overhead, then
    // a traced open loop at the mid rate replayed layer by layer.
    let (n0, wall0) = client.closed_loop(&w, secs(seconds * 0.15), WINDOW, None)?;
    let (n1, wall1) = client.closed_loop(&w, secs(seconds * 0.15), WINDOW, Some(&mut tracer))?;
    let ol_first = client.sent;
    let steps = open_loop(&mut client, &w, &RATES[1..2], secs(seconds * 0.15), base)?;
    let sent = client.sent;
    let client = client.finish(&w)?;
    let summary = server.drain();
    check_drain(&mut r, &summary, sent, client.malformed);
    r.attempted += sent as u64;
    r.failed += client.failed;
    let cache1 = ga_engine::global_cache().counters();

    // Replay every open-loop line in process (parse, engine, serialize)
    // and join it to the line's client-side request span by wire id.
    let step = &steps[0];
    let mut residual = Vec::with_capacity(step.lines);
    let mut engine_ns_total = 0u64;
    for j in 0..step.lines {
        let id = ol_first + j;
        let job_id = id as u64;
        tracer.record("request", step.due_ns[j], step.recv_ns[j], None, job_id);
        let replay = tracer.begin("replay", None, job_id);
        let text = &w.line(id).text;
        let parsed = tracer.span("jsonl.parse_job", Some(replay), job_id, || {
            jsonl::parse_job(text, id)
        });
        if let Ok(job) = parsed {
            let t = tracer.begin("engine.run", Some(replay), job_id);
            let outcome = gate::run_job(&job);
            tracer.end(t);
            engine_ns_total += tracer.spans[t].dur_ns();
            if let Ok(o) = outcome {
                let res = gate::result(id, &job, o);
                tracer.span("jsonl.result_line", Some(replay), job_id, || {
                    jsonl::result_line(&res)
                });
            }
        }
        tracer.end(replay);
        let latency = step.recv_ns[j].saturating_sub(step.due_ns[j]);
        residual.push((latency as f64 - tracer.spans[replay].dur_ns() as f64) / 1e3);
    }
    let engine_ns_per_line = engine_ns_total as f64 / step.lines.max(1) as f64;
    r.traffic_layers(
        &tracer,
        Traffic {
            untraced_per_s: n0 as f64 / wall0,
            traced_per_s: n1 as f64 / wall1,
            latency_us: step.latencies(),
            residual_us: residual,
            lines: summary.admission.lines,
            rejected_parse: summary.admission.rejected_parse,
        },
    )?;
    let busy_s = n1 as f64 * engine_ns_per_line / 1e9;
    service_layers(&mut r, &summary.stats, busy_s, wall1, (cache0, cache1));
    r.spans = std::mem::take(&mut tracer.spans);
    r.note(format!("set-up {setup_s:.4} s (median of {SETUPS})"));
    Ok(r)
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_schedule_emits_the_right_count_per_step() {
        for &(_, rate) in &RATES {
            let dur = Duration::from_millis(500);
            let s = Schedule::new(rate, dur);
            assert_eq!(s.lines as f64, rate * 0.5);
            let start = 1_000_000;
            let dues: Vec<u64> = (0..s.lines).map(|j| s.due(start, j)).collect();
            assert!(dues.windows(2).all(|w| w[0] < w[1]));
            assert!(dues[s.lines - 1] < start + dur.as_nanos() as u64);
            // Every tenth of the step holds a tenth of its lines.
            for k in 0..10u64 {
                let (lo, hi) = (start + k * 50_000_000, start + (k + 1) * 50_000_000);
                let n = dues.iter().filter(|&&d| (lo..hi).contains(&d)).count();
                assert_eq!(n, s.lines / 10, "rate {rate}, tenth {k}");
            }
        }
    }
}
