//! The persistent TCP front-end: `gaserved --listen`.
//!
//! Each accepted connection speaks exactly the batch-mode JSONL wire
//! format — one job per line in, one result line out per non-empty
//! input line, in input order, with the `job` field echoing the 0-based
//! input line number (blank lines advance the numbering but produce no
//! output, same as the file path). Because the per-line results are
//! deterministic and timing-free, a golden `results.jsonl` produced by
//! the batch binary diffs byte-identical against what a socket client
//! streams back.
//!
//! Layering (mirrors the batch scheduler, shares its execution path):
//!
//! * one **reader thread per connection** parses lines, applies
//!   admission control (per-connection quota, token-bucket rate limit,
//!   then the shared [`BoundedQueue`] — blocking backpressure by
//!   default, `try_push` load-shedding when [`NetConfig::shed`] is on)
//!   and answers every rejected line immediately with a typed
//!   [`ServeError`] line, so nothing ever goes unanswered;
//! * a fixed **worker pool** pops work items, opportunistically gathers
//!   packable same-key jobs from the queue
//!   ([`BoundedQueue::take_matching`]) up to the backend's pack width,
//!   and routes every unit through the batch scheduler's
//!   panic-isolating, retrying executor
//!   (`service::exec_unit_with_recovery`) — the streaming path gets the
//!   same panic-isolation and retry semantics for free;
//! * a per-connection **reorder buffer** puts completed results back on
//!   the wire in input order however the pool interleaves them.
//!
//! [`Server::drain`] is the graceful-shutdown path the CI step and the
//! stdin-EOF trigger in `gaserved --listen` exercise: stop accepting,
//! give connected clients a grace window to finish submitting, force
//! EOF on the laggards' read halves, run the queue dry, and only then
//! join the pool — every job admitted before the drain gets its result
//! line flushed. The merged [`ServeStats`] (per-worker histograms and
//! counters folded together) is returned so the listener can emit the
//! same `BENCH_serve.json` report as the batch binary.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::job::{GaJob, JobResult, ServeError};
use crate::jsonl;
use crate::queue::{relock, BoundedQueue};
use crate::service::{exec_unit_with_recovery, ServeConfig, ServeStats, Unit};

/// Tuning knobs for the socket front-end, wrapping the scheduler's
/// [`ServeConfig`] (worker count, queue capacity, watchdogs, retry).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The execution-layer configuration (threads = worker pool size,
    /// queue_capacity = the shared admission queue's bound).
    pub serve: ServeConfig,
    /// Per-connection job quota; once a connection has submitted this
    /// many jobs, every further line is answered with
    /// [`ServeError::QuotaExceeded`]. `0` = unlimited.
    pub max_jobs_per_conn: u64,
    /// Sustained per-connection submission rate (token bucket refill,
    /// jobs/second). Lines arriving with the bucket empty are answered
    /// with [`ServeError::RateLimited`]. `0` = unlimited.
    pub rate_per_sec: u32,
    /// Token-bucket burst capacity (the bucket's size). Clamped to at
    /// least 1 when rate limiting is on.
    pub rate_burst: u32,
    /// Load-shed instead of blocking: admit via
    /// [`BoundedQueue::try_push`] and answer
    /// [`ServeError::QueueFull`] lines when the queue is at capacity,
    /// rather than parking the reader (backpressure). Off by default —
    /// blocking keeps golden-fixture streams deterministic.
    pub shed: bool,
    /// How long [`Server::drain`] waits for connected clients to hang
    /// up on their own before forcing EOF on their read halves.
    pub drain_grace_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            serve: ServeConfig::default(),
            max_jobs_per_conn: 0,
            rate_per_sec: 0,
            rate_burst: 0,
            shed: false,
            drain_grace_ms: 2_000,
        }
    }
}

/// Admission/rejection counters the reader threads keep, aggregated
/// across the server's lifetime. These count *lines answered without
/// reaching a backend*, so they sit beside — not inside — the
/// per-backend [`ServeStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Connections accepted.
    pub connections: u64,
    /// Non-empty lines read across all connections.
    pub lines: u64,
    /// Lines rejected with a `parse` error.
    pub rejected_parse: u64,
    /// Lines rejected with `quota_exceeded`.
    pub rejected_quota: u64,
    /// Lines rejected with `rate_limited`.
    pub rejected_rate: u64,
    /// Lines shed with `queue_full` (only in [`NetConfig::shed`] mode).
    pub shed_queue_full: u64,
    /// Lines refused with `queue_closed` (raced the drain).
    pub rejected_closed: u64,
}

/// What [`Server::drain`] hands back: the merged execution stats (the
/// `BENCH_serve.json` source) plus the admission-layer counters.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Merged per-backend counters/histograms, pack accounting, cache
    /// deltas, pool size, and server wall time.
    pub stats: ServeStats,
    /// Reader-side admission counters.
    pub admission: AdmissionStats,
}

/// One queued unit of work: a parsed job plus everything needed to put
/// its result line back on the right connection in the right order.
struct WorkItem {
    job: GaJob,
    /// Wire-level job id: the 0-based input line number on its
    /// connection (blank lines advance it).
    line: usize,
    /// Per-connection response slot (dense — one per answered line).
    seq: u64,
    conn: Arc<ConnState>,
}

/// The write half of one connection: results are inserted by seq and
/// flushed to the socket strictly in order.
struct ConnState {
    stream: TcpStream,
    out: Mutex<Reorder>,
}

struct Reorder {
    next: u64,
    pending: BTreeMap<u64, String>,
}

impl ConnState {
    /// Park `line` at slot `seq`; write every now-contiguous line to
    /// the socket. Write errors are swallowed — a client that hung up
    /// mid-stream forfeits its remaining results, but the jobs still
    /// count in the server stats.
    fn emit(&self, seq: u64, line: String) {
        let mut o = relock(self.out.lock());
        o.pending.insert(seq, line);
        loop {
            let next = o.next;
            let Some(text) = o.pending.remove(&next) else {
                break;
            };
            let mut w = &self.stream;
            let _ = w
                .write_all(text.as_bytes())
                .and_then(|()| w.write_all(b"\n"));
            o.next += 1;
        }
    }
}

/// Token bucket for the per-connection rate limit. `per_sec == 0`
/// disables it.
struct TokenBucket {
    per_sec: f64,
    capacity: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(per_sec: u32, burst: u32) -> Self {
        let capacity = burst.max(1) as f64;
        TokenBucket {
            per_sec: per_sec as f64,
            capacity,
            tokens: capacity,
            last: Instant::now(),
        }
    }

    fn admit(&mut self) -> bool {
        if self.per_sec <= 0.0 {
            return true;
        }
        let now = Instant::now();
        self.tokens = (self.tokens + now.duration_since(self.last).as_secs_f64() * self.per_sec)
            .min(self.capacity);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// State shared by the accept loop, the connection readers, and the
/// worker pool.
struct Shared {
    cfg: NetConfig,
    queue: BoundedQueue<WorkItem>,
    shutdown: AtomicBool,
    active_conns: AtomicU64,
    next_conn_id: AtomicU64,
    admission: Mutex<AdmissionStats>,
    /// Read-half clones of *live* connections (pruned when a reader
    /// exits — a lingering clone would hold the socket open and starve
    /// clients waiting for EOF), so drain can force EOF on clients that
    /// outstay the grace window.
    conn_streams: Mutex<Vec<(u64, TcpStream)>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The listening server. Construct with [`Server::bind`], stop with
/// [`Server::drain`] — dropping without draining aborts connections
/// without their tails.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<ServeStats>>,
    started: Instant,
    cache_before: (u64, u64),
    threads: usize,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the accept loop plus the worker pool.
    pub fn bind(addr: &str, cfg: NetConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let threads = cfg.serve.threads.max(1);
        let queue_capacity = cfg.serve.queue_capacity.max(1);
        let shared = Arc::new(Shared {
            cfg,
            queue: BoundedQueue::new(queue_capacity),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
            admission: Mutex::new(AdmissionStats::default()),
            conn_streams: Mutex::new(Vec::new()),
            conn_handles: Mutex::new(Vec::new()),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            workers,
            started: Instant::now(),
            cache_before: ga_engine::global_cache().counters(),
            threads,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, give connected clients
    /// [`NetConfig::drain_grace_ms`] to hang up, force EOF on the rest,
    /// run the queue dry, join the pool, and merge the stats. Every job
    /// admitted before the drain gets its result line written before
    /// this returns.
    pub fn drain(mut self) -> DrainSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is parked in `accept()`; poke it awake with a
        // throwaway connection so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Grace window: let clients that are still submitting finish
        // and close on their own terms…
        let deadline = Instant::now() + Duration::from_millis(self.shared.cfg.drain_grace_ms);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        // …then force EOF on whoever is left. Their already-read lines
        // are in the queue and still get answered; only un-sent input
        // is cut off.
        for (_, s) in relock(self.shared.conn_streams.lock()).iter() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *relock(self.shared.conn_handles.lock()));
        for h in handles {
            let _ = h.join();
        }
        // No reader is alive, so nothing else will enqueue: close the
        // queue, let the workers drain the tail, and fold their stats.
        self.shared.queue.close();
        let mut stats = ServeStats::default();
        for w in self.workers.drain(..) {
            if let Ok(local) = w.join() {
                stats.merge(&local);
            }
        }
        stats.threads_used = self.threads as u64;
        stats.wall_seconds = self.started.elapsed().as_secs_f64();
        let (hits, misses) = ga_engine::global_cache().counters();
        stats.cache_hits = hits.saturating_sub(self.cache_before.0);
        stats.cache_misses = misses.saturating_sub(self.cache_before.1);
        DrainSummary {
            stats,
            admission: *relock(self.shared.admission.lock()),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // the drain poke (or a raced real client) lands here
        }
        let Ok(stream) = stream else { continue };
        relock(shared.admission.lock()).connections += 1;
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        if let Ok(read_half) = stream.try_clone() {
            relock(shared.conn_streams.lock()).push((conn_id, read_half));
        }
        let shared2 = Arc::clone(shared);
        let handle = thread::spawn(move || {
            connection_loop(&shared2, stream);
            // Drop the registered read-half clone: an fd left behind
            // would keep the socket open after the in-flight results
            // flush, and the client would never see EOF.
            relock(shared2.conn_streams.lock()).retain(|(id, _)| *id != conn_id);
            shared2.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
        relock(shared.conn_handles.lock()).push(handle);
    }
}

/// Read one connection to EOF, answering every non-empty line exactly
/// once: a queued [`WorkItem`] on success, an immediate typed error
/// line on parse failure or admission rejection.
fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let conn = Arc::new(ConnState {
        stream: write_half,
        out: Mutex::new(Reorder {
            next: 0,
            pending: BTreeMap::new(),
        }),
    });
    let mut reader = BufReader::new(stream);
    let mut bucket = TokenBucket::new(shared.cfg.rate_per_sec, shared.cfg.rate_burst);
    let mut buf = Vec::new();
    let mut line_no = 0usize; // wire `job` id: counts every input line
    let mut seq = 0u64; // response slot: counts answered lines only
    let mut submitted = 0u64;
    // A transport error ends the connection; EOF ends it cleanly.
    while let Ok(Some(read)) = jsonl::read_wire_line(&mut reader, &mut buf) {
        let line = line_no;
        line_no += 1;
        if matches!(read, Ok(text) if text.trim().is_empty()) {
            continue;
        }
        relock(shared.admission.lock()).lines += 1;
        let this_seq = seq;
        seq += 1;
        let reject = |err: ServeError, field: fn(&mut AdmissionStats) -> &mut u64| {
            *field(&mut relock(shared.admission.lock())) += 1;
            conn.emit(this_seq, jsonl::parse_error_line(line, &err));
        };
        let parsed = read.map_err(|msg| ServeError::Parse { line, msg });
        let job = match parsed.and_then(|text| jsonl::parse_job(text, line)) {
            Ok(job) => job,
            Err(e) => {
                reject(e, |a| &mut a.rejected_parse);
                continue;
            }
        };
        let quota = shared.cfg.max_jobs_per_conn;
        if quota > 0 && submitted >= quota {
            reject(ServeError::QuotaExceeded { limit: quota }, |a| {
                &mut a.rejected_quota
            });
            continue;
        }
        if !bucket.admit() {
            reject(
                ServeError::RateLimited {
                    per_sec: shared.cfg.rate_per_sec,
                },
                |a| &mut a.rejected_rate,
            );
            continue;
        }
        let item = WorkItem {
            job,
            line,
            seq: this_seq,
            conn: Arc::clone(&conn),
        };
        submitted += 1;
        if shared.cfg.shed {
            if let Err((_, e)) = shared.queue.try_push(item) {
                fn shed_slot(a: &mut AdmissionStats) -> &mut u64 {
                    &mut a.shed_queue_full
                }
                fn closed_slot(a: &mut AdmissionStats) -> &mut u64 {
                    &mut a.rejected_closed
                }
                let field = if matches!(e, ServeError::QueueFull { .. }) {
                    shed_slot as fn(&mut AdmissionStats) -> &mut u64
                } else {
                    closed_slot
                };
                reject(e, field);
            }
        } else if let Err(e) = shared.queue.push(item) {
            // Only QueueClosed reaches here: the line raced the drain.
            reject(e, |a| &mut a.rejected_closed);
        }
    }
    // The reader is done; in-flight results still flush through the
    // `Arc<ConnState>` clones held by queued items. The socket closes
    // when the last of those drops.
}

/// Pop work until the queue closes and drains. Each popped job is
/// opportunistically widened into a pack with same-key jobs already
/// queued (never blocking to wait for more), then routed through the
/// batch executor for panic isolation and retry.
fn worker_loop(shared: &Arc<Shared>) -> ServeStats {
    let mut stats = ServeStats::default();
    while let Some(first) = shared.queue.pop() {
        let mut items = vec![first];
        if let Some((key, pack_width)) = items[0].job.pack_group() {
            items.extend(shared.queue.take_matching(
                // The backend test is a cheap pre-filter: the scan
                // holds the queue lock.
                |it| it.job.backend == key.0 && it.job.pack_group().is_some_and(|(k, _)| k == key),
                pack_width - 1,
            ));
        }
        let jobs: Vec<GaJob> = items.iter().map(|it| it.job).collect();
        let unit = if items.len() > 1 {
            Unit::Pack((0..items.len()).collect())
        } else {
            Unit::Solo(0)
        };
        let t = Instant::now();
        let results = exec_unit_with_recovery(&jobs, &unit, &shared.cfg.serve);
        if items.len() > 1 {
            stats.packs += 1;
            stats.packed_lanes += items.len() as u64;
            stats.pack_micros += t.elapsed().as_micros() as u64;
        }
        for r in results {
            // `r.job` indexes the unit-local `jobs` slice; rekey it to
            // the wire-level line number before serializing.
            let item = &items[r.job];
            let rekeyed = JobResult {
                job: item.line,
                ..r
            };
            stats.absorb_result(&rekeyed);
            item.conn.emit(item.seq, jsonl::result_line(&rekeyed));
        }
    }
    stats
}
