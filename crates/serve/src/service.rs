//! The scheduler: shard a batch over a worker pool, pack compatible
//! bitsim jobs, and return results in input order.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ga_bench::{default_threads, lane_chunks, run_sweep, BenchReport, Stopwatch};
use ga_engine::{BitSim64Engine, Engine};

use crate::backend;
use crate::job::{BackendKind, GaJob, JobResult, PackGroup, ServeError};

/// Retry policy for *transient* job failures (worker panics caught at
/// the pool boundary). Deterministic errors — validation, watchdogs,
/// deadlines — are never retried: rerunning them buys nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per work unit, including the first (1 = never
    /// retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            backoff_ms: 5,
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (clamped to the number of work units). The pool
    /// size that actually ran is recorded in
    /// [`ServeStats::threads_used`] and is what `BENCH_serve.json`
    /// reports.
    pub threads: usize,
    /// Bounded queue capacity for the streaming submission front-end
    /// ([`crate::BoundedQueue`]). The batch scheduler itself
    /// distributes planned units over the pool with an atomic claim
    /// loop ([`ga_bench::run_sweep`]) and does not consume this knob.
    pub queue_capacity: usize,
    /// Simulated-cycle watchdog for the RTL backend.
    pub rtl_watchdog_cycles: u64,
    /// Retry-with-backoff policy for transient (panic) failures.
    pub retry: RetryPolicy,
    /// Chaos/fault-injection hook, called with `(index, job)` right
    /// before each job executes. A panic here exercises exactly the
    /// worker-crash path a misbehaving backend would: caught at the
    /// pool boundary, retried per [`RetryPolicy`], then failed as a
    /// typed internal error for that unit only. A plain `fn` pointer so
    /// the config stays `Clone + Debug`.
    pub pre_exec: Option<fn(usize, &GaJob)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: default_threads(),
            queue_capacity: 64,
            rtl_watchdog_cycles: 2_000_000_000,
            retry: RetryPolicy::default(),
            pre_exec: None,
        }
    }
}

/// Exact buckets for latencies below 16 µs, then four sub-buckets per
/// power-of-two octave up to 2^40 µs (~12.7 days): a fixed-size
/// log-scale layout whose relative quantization error is bounded at 25%
/// while the whole histogram stays a flat `u64` array that merges
/// across workers with a plain element-wise add.
const HISTO_EXACT: usize = 16;
/// First octave covered by sub-bucketed ranges (2^4 = 16 µs).
const HISTO_FIRST_OCTAVE: u32 = 4;
/// Last octave; anything larger clamps into the final bucket.
const HISTO_LAST_OCTAVE: u32 = 40;
/// Sub-buckets per octave.
const HISTO_SUBS: usize = 4;
/// Total bucket count.
pub const HISTO_BUCKETS: usize =
    HISTO_EXACT + (HISTO_LAST_OCTAVE - HISTO_FIRST_OCTAVE + 1) as usize * HISTO_SUBS;

/// Fixed-bucket log-scale latency histogram (microseconds).
///
/// Replaces the old mean-only accounting: every recorded latency lands
/// in one of [`HISTO_BUCKETS`] buckets (exact below 16 µs, ≤25%
/// relative error above), so [`LatencyHisto::percentile`] can answer
/// p50/p95/p99 without keeping per-job samples, and two histograms —
/// one per worker, say — merge loss-free with [`LatencyHisto::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHisto {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHisto {
    /// Bucket index for a latency of `micros`.
    fn index(micros: u64) -> usize {
        if micros < HISTO_EXACT as u64 {
            return micros as usize;
        }
        let octave = (63 - micros.leading_zeros()).min(HISTO_LAST_OCTAVE);
        let sub = ((micros >> (octave - 2)) & 0x3) as usize;
        HISTO_EXACT + (octave - HISTO_FIRST_OCTAVE) as usize * HISTO_SUBS + sub
    }

    /// Lower bound (µs) of bucket `i` — the value [`Self::percentile`]
    /// reports, so percentiles never overstate a latency.
    fn lower_bound(i: usize) -> u64 {
        if i < HISTO_EXACT {
            return i as u64;
        }
        let rel = i - HISTO_EXACT;
        let octave = HISTO_FIRST_OCTAVE + (rel / HISTO_SUBS) as u32;
        let sub = (rel % HISTO_SUBS) as u64;
        (1u64 << octave) + sub * (1u64 << (octave - 2))
    }

    /// Record one latency.
    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::index(micros)] += 1;
        self.count += 1;
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency (µs) at quantile `q` (`0.0..=1.0`): the lower bound
    /// of the bucket holding the `ceil(q·count)`-th smallest sample.
    /// Zero when nothing was recorded.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_bound(i);
            }
        }
        Self::lower_bound(HISTO_BUCKETS - 1)
    }

    /// Fold another histogram in (per-worker histograms merge into the
    /// batch aggregate with no precision loss — buckets just add).
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// Per-backend throughput/latency counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Jobs that ran (or were rejected) on this backend.
    pub jobs: u64,
    /// Of those, how many ended in a typed error.
    pub errors: u64,
    /// Sum of per-job latencies.
    pub total_micros: u64,
    /// Largest single-job latency.
    pub max_micros: u64,
    /// Log-scale latency distribution (the p50/p95/p99 source).
    pub histo: LatencyHisto,
}

impl BackendCounters {
    pub(crate) fn absorb(&mut self, micros: u64, ok: bool) {
        self.jobs += 1;
        if !ok {
            self.errors += 1;
        }
        self.total_micros += micros;
        self.max_micros = self.max_micros.max(micros);
        self.histo.record(micros);
    }

    /// Fold another backend's counters in (used when per-worker stats
    /// merge into the server-wide aggregate).
    fn merge(&mut self, other: &BackendCounters) {
        self.jobs += other.jobs;
        self.errors += other.errors;
        self.total_micros += other.total_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
        self.histo.merge(&other.histo);
    }

    /// Mean per-job latency in microseconds (0 when idle).
    pub fn avg_micros(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.jobs as f64
        }
    }
}

/// Aggregate statistics for one served batch. Counters are kept per
/// registered [`BackendKind`] (one slot per kind, registry order), so
/// adding a backend to the engine registry automatically adds its
/// throughput row here and in `BENCH_serve.json` — no hardcoded
/// per-backend fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// `(kind, counters)` per registered backend, registry order.
    per_backend: Vec<(BackendKind, BackendCounters)>,
    /// Number of lockstep packs executed.
    pub packs: u64,
    /// Total *active* lanes across all packs — equals the number of
    /// real packed jobs, NOT `packs × 64`: idle tail lanes of a short
    /// pack do not count (the padding-skew fix).
    pub packed_lanes: u64,
    /// Results carrying [`JobResult::degraded`] metadata. No backend
    /// degrades, so this stays 0; it is kept because perfbench and the
    /// `degraded_jobs` report metric read it.
    pub degraded: u64,
    /// Worker threads the batch actually ran on — the *clamped* pool
    /// size, not the configured one. This is the `threads` value
    /// `BENCH_serve.json` reports.
    pub threads_used: u64,
    /// Wall time spent executing pack units, summed across workers —
    /// the denominator of the `bitsim_pack_jobs_per_sec` metric.
    pub pack_micros: u64,
    /// Compiled-netlist cache hits charged to this batch (delta of the
    /// process-wide [`ga_engine::NetlistCache`] counters across it).
    pub cache_hits: u64,
    /// Compiled-netlist cache misses charged to this batch.
    pub cache_misses: u64,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            per_backend: ga_engine::global()
                .kinds()
                .into_iter()
                .map(|k| (k, BackendCounters::default()))
                .collect(),
            packs: 0,
            packed_lanes: 0,
            degraded: 0,
            threads_used: 1,
            pack_micros: 0,
            cache_hits: 0,
            cache_misses: 0,
            wall_seconds: 0.0,
        }
    }
}

impl ServeStats {
    /// Counters for one backend (zeroed when it never ran).
    pub fn counters(&self, b: BackendKind) -> BackendCounters {
        self.per_backend
            .iter()
            .find(|(k, _)| *k == b)
            .map(|(_, c)| c.clone())
            .unwrap_or_default()
    }

    /// Registry rank of a backend kind — the metric-emission order
    /// contract of `BENCH_serve.json`. Unregistered kinds sort last.
    fn registry_rank(b: BackendKind) -> usize {
        ga_engine::global()
            .kinds()
            .iter()
            .position(|k| *k == b)
            .unwrap_or(usize::MAX)
    }

    pub(crate) fn counters_mut(&mut self, b: BackendKind) -> &mut BackendCounters {
        // A kind missing its slot (stats built before the backend was
        // registered, or a late-registry kind touched first) is
        // inserted at its *registry position*, never appended: the
        // documented report order must not depend on which backend
        // happened to run first.
        let at = match self.per_backend.iter().position(|(k, _)| *k == b) {
            Some(at) => at,
            None => {
                let rank = Self::registry_rank(b);
                let at = self
                    .per_backend
                    .iter()
                    .position(|(k, _)| Self::registry_rank(*k) > rank)
                    .unwrap_or(self.per_backend.len());
                self.per_backend.insert(at, (b, BackendCounters::default()));
                at
            }
        };
        &mut self.per_backend[at].1
    }

    /// Fold one result's latency/error/degradation accounting in.
    pub(crate) fn absorb_result(&mut self, r: &JobResult) {
        self.counters_mut(r.backend)
            .absorb(r.micros, r.outcome.is_ok());
        if r.degraded.is_some() {
            self.degraded += 1;
        }
    }

    /// Fold another stats block in: per-backend counters (histograms
    /// included), pack accounting, and cache deltas all add. The
    /// identity fields — `threads_used`, `wall_seconds` — are the
    /// owner's and are deliberately left alone; the socket server
    /// merges each worker's and connection's local stats through this
    /// and then stamps its own pool size and lifetime.
    pub fn merge(&mut self, other: &ServeStats) {
        for (kind, c) in &other.per_backend {
            self.counters_mut(*kind).merge(c);
        }
        self.packs += other.packs;
        self.packed_lanes += other.packed_lanes;
        self.degraded += other.degraded;
        self.pack_micros += other.pack_micros;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Total jobs across backends.
    pub fn jobs(&self) -> u64 {
        self.per_backend.iter().map(|(_, c)| c.jobs).sum()
    }

    /// Total errored jobs across backends.
    pub fn errors(&self) -> u64 {
        self.per_backend.iter().map(|(_, c)| c.errors).sum()
    }

    /// Batch throughput in jobs per second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.jobs() as f64 / self.wall_seconds
        }
    }

    /// Throughput of the packed bitsim path alone, in jobs per second:
    /// active pack lanes over the wall time spent inside pack units.
    /// Zero when no pack ran.
    pub fn pack_jobs_per_sec(&self) -> f64 {
        if self.pack_micros == 0 {
            0.0
        } else {
            self.packed_lanes as f64 / (self.pack_micros as f64 / 1e6)
        }
    }

    /// Render as a `BenchReport` (emitted as `BENCH_serve.json`) with a
    /// `<name>_jobs` / `<name>_avg_us` / `<name>_p50_us` /
    /// `<name>_p95_us` / `<name>_p99_us` / `<name>_max_us` block for
    /// **every** backend in the stats — the per-backend floor
    /// `benchcheck --require-backend-throughput` asserts, in registry
    /// order. The percentiles come from the merged [`LatencyHisto`];
    /// `_max_us` is the exact recorded maximum (the counter that used
    /// to be accumulated but silently dropped from the report). The
    /// report's `threads` field is [`ServeStats::threads_used`] — the
    /// pool size that actually ran, never the configured one. The
    /// `lanes` field reports bitsim64's pack width when any pack ran,
    /// else 1.
    pub fn to_report(&self) -> BenchReport {
        let lanes = if self.packs > 0 {
            BitSim64Engine.capabilities().pack_width as u64
        } else {
            1
        };
        let mut report = BenchReport::new("serve", self.wall_seconds, lanes, self.threads_used)
            .metric("jobs", self.jobs() as f64)
            .metric("errors", self.errors() as f64)
            .metric("jobs_per_sec", self.jobs_per_sec());
        // Defensive re-sort: counters_mut keeps registry order on
        // insert, but the emission contract is pinned here regardless
        // of how the stats were assembled or merged.
        let mut ordered: Vec<&(BackendKind, BackendCounters)> = self.per_backend.iter().collect();
        ordered.sort_by_key(|(k, _)| Self::registry_rank(*k));
        for (kind, c) in ordered {
            report = report
                .metric(format!("{}_jobs", kind.name()), c.jobs as f64)
                .metric(format!("{}_avg_us", kind.name()), c.avg_micros())
                .metric(
                    format!("{}_p50_us", kind.name()),
                    c.histo.percentile(0.50) as f64,
                )
                .metric(
                    format!("{}_p95_us", kind.name()),
                    c.histo.percentile(0.95) as f64,
                )
                .metric(
                    format!("{}_p99_us", kind.name()),
                    c.histo.percentile(0.99) as f64,
                )
                .metric(format!("{}_max_us", kind.name()), c.max_micros as f64);
        }
        report
            .metric("bitsim_packs", self.packs as f64)
            .metric("bitsim_active_lanes", self.packed_lanes as f64)
            .metric("bitsim_pack_jobs_per_sec", self.pack_jobs_per_sec())
            .metric("netlist_cache_hits", self.cache_hits as f64)
            .metric("netlist_cache_misses", self.cache_misses as f64)
            .metric("degraded_jobs", self.degraded as f64)
    }
}

/// A served batch: results in input order plus the aggregate counters.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// `results[i]` belongs to `jobs[i]`, always.
    pub results: Vec<JobResult>,
    /// Aggregate throughput/latency statistics.
    pub stats: ServeStats,
}

/// A schedulable unit: one job, or a pack of compatible packable jobs.
/// `pub(crate)` so the socket front-end (`crate::net`) can route its
/// opportunistically-gathered packs through the same panic-isolating,
/// retrying execution path the batch scheduler uses.
pub(crate) enum Unit {
    Solo(usize),
    Pack(Vec<usize>),
}

/// Shard the batch into units, driven by the registry's capabilities:
/// valid jobs whose backend advertises `pack_width > 1` are grouped by
/// `(backend, pack_key)` in first-appearance order and chunked into
/// packs of at most the backend's pack width (the tail pack simply
/// carries fewer active lanes); everything else — including *invalid*
/// packable jobs, which must surface their own typed error, and island
/// jobs, whose ring steps its own members — runs solo.
fn plan_units(jobs: &[GaJob]) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut groups: Vec<(PackGroup, usize, Vec<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match job.pack_group() {
            Some((key, pack_width)) => match groups.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, _, members)) => members.push(i),
                None => groups.push((key, pack_width, vec![i])),
            },
            None => units.push(Unit::Solo(i)),
        }
    }
    for (_, pack_width, members) in groups {
        for chunk in lane_chunks(members.len(), pack_width) {
            units.push(Unit::Pack(members[chunk].to_vec()));
        }
    }
    units
}

fn exec_unit(jobs: &[GaJob], unit: &Unit, cfg: &ServeConfig) -> Vec<JobResult> {
    match unit {
        Unit::Solo(i) => {
            if let Some(hook) = cfg.pre_exec {
                hook(*i, &jobs[*i]);
            }
            vec![backend::run_single(&jobs[*i], *i, cfg)]
        }
        Unit::Pack(idxs) => {
            if let Some(hook) = cfg.pre_exec {
                for &i in idxs {
                    hook(i, &jobs[i]);
                }
            }
            backend::run_pack(jobs, idxs, cfg)
        }
    }
}

/// Recover a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// True when any member result failed with an error worth retrying
/// ([`ServeError::is_transient`]) — deterministic failures (invalid
/// job, unsupported width, deadline, watchdog) reproduce identically
/// and are never retried.
fn has_transient_failure(results: &[JobResult]) -> bool {
    results
        .iter()
        .any(|r| matches!(&r.outcome, Err(e) if e.is_transient()))
}

/// Run one unit at the pool boundary: a panic anywhere inside the unit
/// is caught, and both panics and typed transient failures are retried
/// per [`RetryPolicy`] (exponential backoff, since a transient fault
/// that just fired tends to need a beat to clear). If every attempt
/// crashes, the panic is converted into one typed
/// [`ServeError::Internal`] result per member job. The worker thread
/// itself never unwinds, so the rest of the batch keeps flowing.
pub(crate) fn exec_unit_with_recovery(
    jobs: &[GaJob],
    unit: &Unit,
    cfg: &ServeConfig,
) -> Vec<JobResult> {
    let max_attempts = cfg.retry.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| exec_unit(jobs, unit, cfg))) {
            Ok(results) => {
                if attempt < max_attempts && has_transient_failure(&results) {
                    let backoff = cfg.retry.backoff_ms << (attempt - 1);
                    if backoff > 0 {
                        thread::sleep(Duration::from_millis(backoff));
                    }
                    attempt += 1;
                    continue;
                }
                return results;
            }
            Err(payload) => {
                let msg = panic_message(payload);
                if attempt < max_attempts {
                    let backoff = cfg.retry.backoff_ms << (attempt - 1);
                    if backoff > 0 {
                        thread::sleep(Duration::from_millis(backoff));
                    }
                    attempt += 1;
                    continue;
                }
                let indices: &[usize] = match unit {
                    Unit::Solo(i) => std::slice::from_ref(i),
                    Unit::Pack(idxs) => idxs,
                };
                return indices
                    .iter()
                    .map(|&i| JobResult {
                        job: i,
                        backend: jobs[i].backend,
                        outcome: Err(ServeError::Internal { msg: msg.clone() }),
                        micros: 0,
                        degraded: None,
                        heal: None,
                    })
                    .collect();
            }
        }
    }
}

/// Execute a batch of jobs and return results **in input order**.
///
/// Planned units — solos and multi-lane packs alike — are distributed
/// over up to `cfg.threads` scoped workers by [`ga_bench::run_sweep`]'s
/// atomic claim loop: each worker pulls the next unclaimed unit index,
/// so independent packs execute concurrently instead of draining
/// serially behind one another. Results then scatter into a
/// slot-per-job table on the caller thread, so the output order is the
/// input order regardless of thread count, completion order, or how
/// jobs were packed. The pool size that actually ran, the wall time
/// spent inside pack units, and the batch's compiled-netlist cache
/// hit/miss deltas are all recorded in the returned [`ServeStats`].
pub fn serve_batch(jobs: &[GaJob], cfg: &ServeConfig) -> ServeOutcome {
    let sw = Stopwatch::start();
    let (cache_hits_before, cache_misses_before) = ga_engine::global_cache().counters();
    let units = plan_units(jobs);
    let mut stats = ServeStats::default();
    for u in &units {
        if let Unit::Pack(idxs) = u {
            stats.packs += 1;
            stats.packed_lanes += idxs.len() as u64;
        }
    }

    let threads = cfg.threads.clamp(1, units.len().max(1));
    stats.threads_used = threads as u64;

    let pack_micros = AtomicU64::new(0);
    let per_unit: Vec<Vec<JobResult>> = run_sweep(&units, threads, |_, unit| {
        let t = Instant::now();
        let produced = exec_unit_with_recovery(jobs, unit, cfg);
        if matches!(unit, Unit::Pack(_)) {
            pack_micros.fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        produced
    });

    let mut slots: Vec<Option<JobResult>> = (0..jobs.len()).map(|_| None).collect();
    for r in per_unit.into_iter().flatten() {
        let idx = r.job;
        debug_assert!(slots[idx].is_none(), "job {idx} produced twice");
        slots[idx] = Some(r);
    }

    // An unfilled slot is a service bug, but it must fail that job with
    // a typed error — not panic the caller after the batch already ran.
    let results: Vec<JobResult> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| JobResult {
                job: i,
                backend: jobs[i].backend,
                outcome: Err(ServeError::Internal {
                    msg: format!("job {i} produced no result"),
                }),
                micros: 0,
                degraded: None,
                heal: None,
            })
        })
        .collect();
    for r in &results {
        stats.absorb_result(r);
    }
    stats.pack_micros = pack_micros.into_inner();
    let (cache_hits_after, cache_misses_after) = ga_engine::global_cache().counters();
    stats.cache_hits = cache_hits_after.saturating_sub(cache_hits_before);
    stats.cache_misses = cache_misses_after.saturating_sub(cache_misses_before);
    stats.wall_seconds = sw.seconds();
    ServeOutcome { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ServeError;
    use ga_core::GaParams;
    use ga_fitness::TestFunction;

    fn quick_job(backend: BackendKind, seed: u16) -> GaJob {
        GaJob::new(TestFunction::F3, backend, GaParams::new(8, 3, 10, 1, seed))
    }

    #[test]
    fn results_are_input_ordered_for_any_thread_count() {
        let jobs: Vec<GaJob> = (0..30)
            .map(|i| {
                let b = match i % 3 {
                    0 => BackendKind::Behavioral,
                    1 => BackendKind::BitSim64,
                    _ => BackendKind::Behavioral,
                };
                quick_job(b, 0x1000 + i as u16)
            })
            .collect();
        let reference = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2, 8] {
            let out = serve_batch(
                &jobs,
                &ServeConfig {
                    threads,
                    ..Default::default()
                },
            );
            for (i, (a, b)) in reference.results.iter().zip(&out.results).enumerate() {
                assert_eq!(a.job, i);
                assert_eq!(b.job, i);
                assert_eq!(a.outcome, b.outcome, "job {i} differs at {threads} threads");
            }
        }
    }

    #[test]
    fn small_queue_capacity_still_completes() {
        // The legacy queue knob must stay accepted (it tunes the
        // streaming front-end, not the claim loop), and a batch with
        // far more units than threads must drain completely.
        let jobs: Vec<GaJob> = (0..25)
            .map(|i| quick_job(BackendKind::Behavioral, 0x2000 + i as u16))
            .collect();
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 3,
                queue_capacity: 2,
                ..Default::default()
            },
        );
        assert_eq!(out.results.len(), 25);
        assert_eq!(out.stats.jobs(), 25);
        assert_eq!(out.stats.errors(), 0);
        assert_eq!(out.stats.threads_used, 3, "pool size is recorded");
    }

    #[test]
    fn reported_threads_are_the_clamped_pool_size() {
        // 2 units, 16 configured threads: only 2 workers can ever hold
        // a unit, and that is what the stats and the report must say.
        let jobs = vec![
            quick_job(BackendKind::Behavioral, 0x2100),
            quick_job(BackendKind::Behavioral, 0x2101),
        ];
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 16,
                ..Default::default()
            },
        );
        assert_eq!(out.stats.threads_used, 2);
        let json = out.stats.to_report().to_json();
        assert!(json.contains("\"threads\": 2"), "honest threads in {json}");
    }

    #[test]
    fn packing_groups_by_key_and_honors_tails() {
        // 70 compatible bitsim jobs + 5 of another shape: 2 packs
        // (64 + 6 active lanes) + 1 pack of 5 → lanes counted as jobs,
        // not as packs × 64.
        let mut jobs: Vec<GaJob> = (0..70u16)
            .map(|i| quick_job(BackendKind::BitSim64, 0x3000 + i))
            .collect();
        for i in 0..5u16 {
            jobs.push(GaJob::new(
                TestFunction::F2,
                BackendKind::BitSim64,
                GaParams::new(16, 2, 10, 1, 0x4000 + i),
            ));
        }
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert_eq!(out.stats.packs, 3);
        assert_eq!(out.stats.packed_lanes, 75);
        assert_eq!(out.stats.counters(BackendKind::BitSim64).jobs, 75);
        assert_eq!(out.stats.errors(), 0);
        // The pack path ran, so its metrics must be live: nonzero pack
        // wall time, a finite throughput, and one compiled-netlist
        // cache lookup per pack (hit or miss — the cache is
        // process-global, so other tests may have warmed it).
        assert!(out.stats.pack_micros > 0);
        assert!(out.stats.pack_jobs_per_sec() > 0.0);
        assert!(out.stats.cache_hits + out.stats.cache_misses >= out.stats.packs);
    }

    #[test]
    fn every_registered_backend_serves_in_one_batch() {
        // One job per registered kind, each at a width its backend
        // implements — the batch must come back fully green with every
        // backend's counter row populated and present in the report.
        let jobs: Vec<GaJob> = ga_engine::global()
            .engines()
            .enumerate()
            .map(|(i, e)| GaJob {
                width: e.capabilities().widths[0],
                ..quick_job(e.kind(), 0x8000 + i as u16)
            })
            .collect();
        assert_eq!(jobs.len(), BackendKind::ALL.len());
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert_eq!(out.stats.errors(), 0);
        let json = out.stats.to_report().to_json();
        for kind in ga_engine::global().kinds() {
            assert_eq!(out.stats.counters(kind).jobs, 1, "{}", kind.name());
            for key in [
                format!("\"{}_jobs\"", kind.name()),
                format!("\"{}_avg_us\"", kind.name()),
            ] {
                assert!(json.contains(&key), "missing {key} in {json}");
            }
        }
    }

    #[test]
    fn island_jobs_run_solo_even_on_packing_backends() {
        // A valid bitsim island job must never join a pack — the ring
        // steps its own members — while the
        // plain bitsim jobs around it still pack as usual.
        let island = GaJob::new(
            TestFunction::Bf6,
            BackendKind::BitSim64,
            GaParams::new(16, 8, 10, 1, 0x2961),
        )
        .with_islands(ga_core::islands::IslandConfig {
            islands: 2,
            epoch: 4,
            epochs: 2,
        });
        let mut jobs = vec![island];
        for i in 0..4u16 {
            jobs.push(quick_job(BackendKind::BitSim64, 0xD000 + i));
        }
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert_eq!(out.stats.errors(), 0);
        assert_eq!(out.stats.packs, 1, "plain jobs still pack");
        assert_eq!(out.stats.packed_lanes, 4, "the island job stayed solo");
        assert!(out.results[0].outcome.is_ok(), "island job ran");
    }

    #[test]
    fn invalid_jobs_error_without_poisoning_the_batch() {
        let mut jobs = vec![
            quick_job(BackendKind::Behavioral, 1),
            quick_job(BackendKind::BitSim64, 2),
        ];
        jobs[1].params.pop_size = 0; // invalid → solo unit, typed error
        let mut wide = quick_job(BackendKind::Behavioral, 3);
        wide.width = 32;
        jobs.push(wide);
        let out = serve_batch(&jobs, &ServeConfig::default());
        assert!(out.results[0].outcome.is_ok());
        assert!(matches!(
            out.results[1].outcome,
            Err(ServeError::InvalidJob { .. })
        ));
        assert_eq!(
            out.results[2].outcome,
            Err(ServeError::UnsupportedWidth { width: 32 })
        );
        assert_eq!(out.stats.errors(), 2);
        assert_eq!(out.stats.packs, 0, "invalid bitsim jobs never pack");
    }

    /// Chaos hook: crash every attempt of the job seeded 0x5005.
    fn crash_seed_5005(i: usize, job: &GaJob) {
        if job.params.seed == 0x5005 {
            panic!("injected chaos for job {i}");
        }
    }

    #[test]
    fn panicking_job_fails_alone_and_batch_stays_input_ordered() {
        let jobs: Vec<GaJob> = (0..8)
            .map(|i| quick_job(BackendKind::Behavioral, 0x5000 + i as u16))
            .collect();
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 4,
                pre_exec: Some(crash_seed_5005),
                retry: RetryPolicy {
                    max_attempts: 2,
                    backoff_ms: 0,
                },
                ..Default::default()
            },
        );
        assert_eq!(out.results.len(), jobs.len());
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.job, i, "input order survives a crashing worker");
            if jobs[i].params.seed == 0x5005 {
                assert!(
                    matches!(&r.outcome,
                        Err(ServeError::Internal { msg }) if msg.contains("injected chaos")),
                    "crashing job carries the recovered panic message"
                );
            } else {
                assert!(r.outcome.is_ok(), "job {i} must be unaffected");
            }
        }
        assert_eq!(out.stats.errors(), 1);
    }

    /// Chaos hook: crash the job seeded 0x6003, but only the first time
    /// it is attempted — a transient fault the retry policy can absorb.
    fn crash_seed_6003_once(_i: usize, job: &GaJob) {
        use std::sync::atomic::{AtomicBool, Ordering};
        static FIRED: AtomicBool = AtomicBool::new(false);
        if job.params.seed == 0x6003 && !FIRED.swap(true, Ordering::SeqCst) {
            panic!("transient fault");
        }
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let jobs: Vec<GaJob> = (0..4)
            .map(|i| quick_job(BackendKind::Behavioral, 0x6000 + i as u16))
            .collect();
        let out = serve_batch(
            &jobs,
            &ServeConfig {
                threads: 2,
                pre_exec: Some(crash_seed_6003_once),
                retry: RetryPolicy {
                    max_attempts: 2,
                    backoff_ms: 1,
                },
                ..Default::default()
            },
        );
        assert_eq!(out.stats.errors(), 0, "one retry absorbs a one-shot fault");
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.job, i);
            assert!(r.outcome.is_ok());
        }
    }

    #[test]
    fn only_transient_errors_qualify_for_retry() {
        let result = |outcome| JobResult {
            job: 0,
            backend: BackendKind::Behavioral,
            outcome,
            micros: 0,
            degraded: None,
            heal: None,
        };
        assert!(has_transient_failure(&[result(Err(
            ServeError::Internal {
                msg: "poisoned".into()
            }
        ))]));
        // Deterministic failures reproduce identically — no retry.
        assert!(!has_transient_failure(&[
            result(Err(ServeError::InvalidJob {
                msg: "pop 0".into()
            })),
            result(Err(ServeError::Watchdog { cycles: 7 })),
            result(Err(ServeError::DeadlineExceeded)),
        ]));
        assert!(!has_transient_failure(&[]));
    }

    #[test]
    fn report_carries_the_serve_schema() {
        let jobs = vec![quick_job(BackendKind::BitSim64, 9)];
        let out = serve_batch(&jobs, &ServeConfig::default());
        let json = out.stats.to_report().to_json();
        for key in [
            "\"name\": \"serve\"",
            "jobs_per_sec",
            "bitsim_packs",
            "bitsim_active_lanes",
            "bitsim_pack_jobs_per_sec",
            "netlist_cache_hits",
            "netlist_cache_misses",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn histo_buckets_are_exact_small_then_bounded_log_error() {
        // Exact below 16 µs.
        for v in 0..16u64 {
            assert_eq!(LatencyHisto::index(v), v as usize);
            assert_eq!(LatencyHisto::lower_bound(v as usize), v);
        }
        // Index is monotone and lower_bound inverts it: every value
        // lands in a bucket whose lower bound is <= it, and the next
        // bucket's lower bound exceeds it by at most 25%.
        for v in [16u64, 17, 63, 64, 100, 1000, 12_345, 1 << 20, u64::MAX] {
            let i = LatencyHisto::index(v);
            let lo = LatencyHisto::lower_bound(i);
            assert!(lo <= v, "bucket {i} lower bound {lo} > value {v}");
            if i + 1 < HISTO_BUCKETS && v < (1u64 << HISTO_LAST_OCTAVE) {
                let next = LatencyHisto::lower_bound(i + 1);
                assert!(next > v, "value {v} not below next bucket {next}");
                assert!(
                    (next - lo) * 4 <= lo.max(1) + 3,
                    "bucket [{lo},{next}) wider than 25% at {v}"
                );
            }
        }
        // Monotone across the whole bucket range.
        for i in 1..HISTO_BUCKETS {
            assert!(LatencyHisto::lower_bound(i) > LatencyHisto::lower_bound(i - 1));
        }
    }

    #[test]
    fn histo_percentiles_are_ordered_and_exact_for_small_samples() {
        let mut h = LatencyHisto::default();
        assert_eq!(h.percentile(0.5), 0, "empty histogram reports 0");
        // 100 samples: 1 µs x90, 10 µs x9, 15 µs x1 — all in the exact
        // range, so every percentile is the precise sample value.
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(10);
        }
        h.record(15);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.50), 1);
        assert_eq!(h.percentile(0.90), 1);
        assert_eq!(h.percentile(0.95), 10);
        assert_eq!(h.percentile(0.99), 10);
        assert_eq!(h.percentile(1.0), 15);
        // Ordering holds with coarse buckets too.
        h.record(1_000_000);
        assert!(h.percentile(0.5) <= h.percentile(0.95));
        assert!(h.percentile(0.95) <= h.percentile(0.99));
        assert!(h.percentile(0.99) <= h.percentile(1.0));
    }

    #[test]
    fn histo_merge_equals_combined_recording() {
        let samples_a = [1u64, 5, 90, 4_000, 65_536];
        let samples_b = [2u64, 90, 123_456, 7];
        let mut a = LatencyHisto::default();
        let mut b = LatencyHisto::default();
        let mut both = LatencyHisto::default();
        for &v in &samples_a {
            a.record(v);
            both.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both, "merge must equal recording into one");
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.percentile(q), both.percentile(q));
        }
    }

    #[test]
    fn report_emits_percentiles_and_max_for_every_backend() {
        // The regression this pins: `max_micros` used to be accumulated
        // but silently dropped from the report; now every backend block
        // carries the full `_jobs/_avg_us/_p50_us/_p95_us/_p99_us/
        // _max_us` sextet.
        let jobs: Vec<GaJob> = (0..6)
            .map(|i| quick_job(BackendKind::Behavioral, 0xA000 + i as u16))
            .collect();
        let out = serve_batch(&jobs, &ServeConfig::default());
        let json = out.stats.to_report().to_json();
        for kind in ga_engine::global().kinds() {
            for suffix in ["jobs", "avg_us", "p50_us", "p95_us", "p99_us", "max_us"] {
                let key = format!("\"{}_{suffix}\"", kind.name());
                assert!(json.contains(&key), "missing {key} in {json}");
            }
        }
        // The behavioral block is live: max is the recorded maximum and
        // bounds the histogram percentiles from above.
        let c = out.stats.counters(BackendKind::Behavioral);
        assert_eq!(c.jobs, 6);
        assert_eq!(c.histo.count(), 6);
        assert!(c.max_micros >= c.histo.percentile(0.99));
        assert!(c.histo.percentile(0.50) <= c.histo.percentile(0.95));
        let max_key = format!("\"behavioral_max_us\": {}", c.max_micros);
        assert!(json.contains(&max_key), "missing {max_key} in {json}");
    }

    #[test]
    fn metric_order_is_registry_order_even_when_late_kinds_run_first() {
        // Late-registry kinds absorb the first results, which exercises
        // counters_mut on kinds out of registry sequence. The emitted
        // metric order must still be the registry order.
        let jobs = vec![
            quick_job(BackendKind::Swga, 0xB002),
            quick_job(BackendKind::BitSim64, 0xB001),
            quick_job(BackendKind::Behavioral, 0xB003),
        ];
        let out = serve_batch(&jobs, &ServeConfig::default());
        let json = out.stats.to_report().to_json();
        let positions: Vec<usize> = ga_engine::global()
            .kinds()
            .iter()
            .map(|k| {
                json.find(&format!("\"{}_jobs\"", k.name()))
                    .unwrap_or_else(|| panic!("{} missing from report", k.name()))
            })
            .collect();
        for w in positions.windows(2) {
            assert!(
                w[0] < w[1],
                "backend metric blocks out of registry order in {json}"
            );
        }
        // Same contract on a *merged* stats block assembled in reverse.
        let mut merged = ServeStats::default();
        merged.per_backend.clear(); // worst case: no pre-populated slots
        merged.merge(&out.stats);
        let kinds_in_order: Vec<BackendKind> = merged.per_backend.iter().map(|(k, _)| *k).collect();
        let mut sorted = kinds_in_order.clone();
        sorted.sort_by_key(|k| ServeStats::registry_rank(*k));
        assert_eq!(kinds_in_order, sorted, "merge must keep registry order");
    }

    #[test]
    fn merge_sums_counters_and_keeps_identity_fields() {
        let jobs_a = vec![quick_job(BackendKind::Behavioral, 0xC001)];
        let jobs_b: Vec<GaJob> = (0..3)
            .map(|i| quick_job(BackendKind::BitSim64, 0xC100 + i as u16))
            .collect();
        let a = serve_batch(&jobs_a, &ServeConfig::default()).stats;
        let b = serve_batch(&jobs_b, &ServeConfig::default()).stats;
        let mut m = a.clone();
        m.threads_used = 7;
        m.wall_seconds = 1.25;
        m.merge(&b);
        assert_eq!(m.jobs(), a.jobs() + b.jobs());
        assert_eq!(
            m.counters(BackendKind::BitSim64).jobs,
            b.counters(BackendKind::BitSim64).jobs
        );
        assert_eq!(m.packs, a.packs + b.packs);
        assert_eq!(m.packed_lanes, a.packed_lanes + b.packed_lanes);
        assert_eq!(m.threads_used, 7, "identity fields are the owner's");
        assert_eq!(m.wall_seconds, 1.25);
        let c = m.counters(BackendKind::Behavioral);
        assert_eq!(
            c.histo.count(),
            a.counters(BackendKind::Behavioral).histo.count()
                + b.counters(BackendKind::Behavioral).histo.count()
        );
    }
}
