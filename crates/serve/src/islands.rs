//! Sharded multi-process islands: one `gaserved --island-worker`
//! process per island, a [`Coordinator`] doing ring routing, and a
//! drain-safe checkpoint file — the serve-layer realization of the
//! multi-FPGA island deployments of §II-B, where each board evolves its
//! own population and migrants travel over a physical link.
//!
//! The worker speaks a line-oriented flat-JSON op protocol over one
//! accepted TCP connection (the same hand-rolled [`crate::jsonl`]
//! parser as the job schema — no external deps):
//!
//! ```text
//! → {"op":"init","fn":"BF6","backend":"behavioral","width":16,"pop":16,
//!    "gens":12,"xover":10,"mut":1,"seed":10593,"islands":3,"epoch":4,
//!    "epochs":3,"shard":1}
//! ← {"ok":true}
//! → {"op":"epoch","gens":4}            evolve 4 generations
//! ← {"ok":true,"chrom":513,"fitness":2800}
//! → {"op":"inject","chrom":777,"fitness":3000}
//! ← {"ok":true}
//! → {"op":"snapshot"}
//! ← {"ok":true,"snapshot":"4753…"}     EngineSnapshot hex
//! → {"op":"finish"}
//! ← {"ok":true,"chrom":513,"fitness":3000,"evaluations":96}
//! ```
//!
//! `init` carries the island job's own request line
//! ([`crate::jsonl::job_line`]) plus the worker's `shard`; the worker
//! parses and validates it exactly as the JSONL wire does, so it refuses
//! the same jobs. `init` may also carry `"snapshot":"<hex>"` to restore
//! the member at a checkpointed barrier instead of generating an
//! initial population — that is the resume path, and because an
//! [`EngineSnapshot`] is backend-neutral, a run checkpointed on
//! `behavioral` workers resumes on `bitsim64` workers bit-identically
//! (and vice versa).
//!
//! The [`Coordinator`] runs the one island epoch loop,
//! [`ga_core::islands::IslandRing`], over one connection per shard: each
//! ring phase is one pipelined round (every request sent, then every
//! reply read), so shards evolve concurrently and a multi-process
//! [`CheckpointBundle`] is byte-identical to the in-process
//! [`ga_engine::IslandsDriver`] one at the same barrier. Every
//! barrier's bundle is flushed to the checkpoint file via write-to-temp
//! and rename, so a coordinator killed mid-write leaves the previous
//! complete checkpoint intact.

use std::fs;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use ga_core::islands::{IslandMember, IslandRing, IslandRun, RingMember};
use ga_core::snapshot::EngineSnapshot;
use ga_core::Individual;
use ga_engine::{island_member, CheckpointBundle};

use crate::job::GaJob;
use crate::jsonl::{
    as_int, as_str, escape_string, job_from_pairs, job_line, parse_object, read_wire_line,
    JsonValue,
};

/// Bind `addr`, announce `listening <addr>` on stdout (so `:0` is
/// scriptable, mirroring `gaserved --listen`), accept **one**
/// connection and serve the island-worker op protocol on it until
/// `finish` or EOF.
pub fn serve_island_worker(addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;
    println!("listening {local}");
    let (stream, _) = listener
        .accept()
        .map_err(|e| format!("accept failed: {e}"))?;
    serve_island_connection(stream)
}

/// Serve the worker op protocol on an already-accepted connection.
/// Op-level failures (bad line, op before `init`, snapshot that does
/// not restore) are `{"ok":false,"error":…}` replies — the connection
/// survives them; only transport errors and `finish` end the loop.
pub fn serve_island_connection(stream: TcpStream) -> Result<(), String> {
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut member: Option<Box<dyn IslandMember>> = None;
    let mut buf = Vec::new();
    let mut line = 0usize;
    loop {
        let Some(read) =
            read_wire_line(&mut reader, &mut buf).map_err(|e| format!("read failed: {e}"))?
        else {
            return Ok(()); // coordinator went away; nothing to flush
        };
        line += 1;
        if matches!(read, Ok(text) if text.trim().is_empty()) {
            continue;
        }
        let (reply, done) = match read.and_then(|text| worker_op(text, line - 1, &mut member)) {
            Ok((reply, done)) => (reply, done),
            Err(msg) => (
                format!("{{\"ok\":false,\"error\":\"{}\"}}", escape_string(&msg)),
                false,
            ),
        };
        writer
            .write_all(format!("{reply}\n").as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        if done {
            return Ok(());
        }
    }
}

/// Remove the first `key` pair from an op line and return its value.
fn take(pairs: &mut Vec<(String, JsonValue)>, key: &str) -> Option<JsonValue> {
    let i = pairs.iter().position(|(k, _)| k == key)?;
    Some(pairs.remove(i).1)
}

/// Execute op line `line` (0-based wire position) against the worker's
/// member slot. Returns the reply line and whether the connection is
/// finished.
fn worker_op(
    text: &str,
    line: usize,
    member: &mut Option<Box<dyn IslandMember>>,
) -> Result<(String, bool), String> {
    let mut pairs = parse_object(text)?;
    let op = as_str("op", &take(&mut pairs, "op").ok_or("missing key \"op\"")?)?;
    let no_member = "no member: send \"init\" first";
    match op.as_str() {
        "init" => {
            *member = Some(init_member(pairs, line)?);
            Ok(("{\"ok\":true}".into(), false))
        }
        "epoch" => {
            let gens = int_field(&pairs, "gens", u32::MAX as u64)?;
            let m = member.as_mut().ok_or(no_member)?;
            for _ in 0..gens {
                m.step_generation();
            }
            let b = m.best();
            Ok((
                format!(
                    "{{\"ok\":true,\"chrom\":{},\"fitness\":{}}}",
                    b.chrom, b.fitness
                ),
                false,
            ))
        }
        "inject" => {
            let migrant = best_field(&pairs)?;
            member.as_mut().ok_or(no_member)?.inject(migrant);
            Ok(("{\"ok\":true}".into(), false))
        }
        "snapshot" => {
            let m = member.as_ref().ok_or(no_member)?;
            Ok((
                format!("{{\"ok\":true,\"snapshot\":\"{}\"}}", m.snapshot().to_hex()),
                false,
            ))
        }
        "finish" => {
            let m = member.as_ref().ok_or(no_member)?;
            let b = m.best();
            Ok((
                format!(
                    "{{\"ok\":true,\"chrom\":{},\"fitness\":{},\"evaluations\":{}}}",
                    b.chrom,
                    b.fitness,
                    m.evaluations()
                ),
                true,
            ))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// The `init` op: the island job's request-line keys (parsed and
/// validated as on the JSONL wire), the worker's `shard`, and an
/// optional `snapshot` to restore instead of drawing an initial
/// population.
fn init_member(
    mut pairs: Vec<(String, JsonValue)>,
    line: usize,
) -> Result<Box<dyn IslandMember>, String> {
    let shard = take(&mut pairs, "shard").ok_or("missing key \"shard\"")?;
    let snapshot = take(&mut pairs, "snapshot");
    let job = job_from_pairs(pairs, line).map_err(|e| e.to_string())?;
    job.validate().map_err(|e| e.to_string())?;
    let config = job.islands.ok_or("init needs an island job")?;
    let shard = as_int("shard", &shard, 0, config.islands as u64 - 1)? as usize;
    let engine = ga_engine::global()
        .get(job.backend)
        .ok_or_else(|| format!("backend {} is not registered", job.backend.name()))?;
    let mut m =
        island_member(engine, &job.spec(), shard, config.islands).map_err(|e| e.to_string())?;
    match snapshot {
        Some(v) => {
            let snap = EngineSnapshot::from_hex(&as_str("snapshot", &v)?)
                .map_err(|e| format!("snapshot: {e}"))?;
            m.restore(&snap).map_err(|e| format!("restore: {e}"))?;
        }
        None => m.init_population(),
    }
    Ok(m)
}

/// One coordinator↔worker connection: a remote ring member.
struct ShardConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ShardConn {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(ShardConn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Read one reply line; an `"ok":false` reply surfaces the worker's
    /// error string, a closed connection surfaces as a transport error
    /// (the campaign's kill-detection signal).
    fn recv(&mut self) -> Result<Vec<(String, JsonValue)>, String> {
        let mut buf = Vec::new();
        let text = read_wire_line(&mut self.reader, &mut buf)
            .map_err(|e| format!("read failed: {e}"))?
            .ok_or("connection closed")?
            .map_err(|msg| format!("reply rejected: {msg}"))?;
        let pairs = parse_object(text)?;
        if matches!(field(&pairs, "ok"), Ok(JsonValue::Bool(true))) {
            return Ok(pairs);
        }
        let msg = field(&pairs, "error").and_then(|v| as_str("error", v));
        Err(format!(
            "worker error: {}",
            msg.as_deref().unwrap_or("worker refused the op")
        ))
    }
}

/// One pipelined round over the ring: send `line(k)` to every shard,
/// then read and decode every reply in ring order. Errors name the
/// shard they came from.
fn round<T>(
    shards: &mut [ShardConn],
    line: impl Fn(usize) -> String,
    reply: impl Fn(&[(String, JsonValue)]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    for (k, s) in shards.iter_mut().enumerate() {
        s.send(&line(k)).map_err(|e| format!("shard {k}: {e}"))?;
    }
    shards
        .iter_mut()
        .enumerate()
        .map(|(k, s)| {
            s.recv()
                .and_then(|pairs| reply(&pairs))
                .map_err(|e| format!("shard {k}: {e}"))
        })
        .collect()
}

/// The value of `key` in a flat op or reply object.
fn field<'p>(pairs: &'p [(String, JsonValue)], key: &str) -> Result<&'p JsonValue, String> {
    let pair = pairs.iter().find(|(k, _)| k == key);
    pair.map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn int_field(pairs: &[(String, JsonValue)], key: &str, max: u64) -> Result<u64, String> {
    as_int(key, field(pairs, key)?, 0, max)
}

/// The `chrom`/`fitness` pair of an `inject` op or an `epoch`/`finish`
/// reply.
fn best_field(pairs: &[(String, JsonValue)]) -> Result<Individual, String> {
    Ok(Individual {
        chrom: int_field(pairs, "chrom", u16::MAX as u64)? as u16,
        fitness: int_field(pairs, "fitness", u16::MAX as u64)? as u16,
    })
}

impl RingMember for ShardConn {
    type Error = String;

    fn evolve_all(shards: &mut [Self], gens: u32) -> Result<Vec<Individual>, String> {
        round(
            shards,
            |_| format!("{{\"op\":\"epoch\",\"gens\":{gens}}}"),
            best_field,
        )
    }

    fn inject_all(shards: &mut [Self], migrants: &[Individual]) -> Result<(), String> {
        let line = |k: usize| {
            let m = migrants[k];
            format!(
                "{{\"op\":\"inject\",\"chrom\":{},\"fitness\":{}}}",
                m.chrom, m.fitness
            )
        };
        round(shards, line, |_| Ok(())).map(drop)
    }

    fn snapshot_all(shards: &mut [Self]) -> Result<Vec<EngineSnapshot>, String> {
        round(
            shards,
            |_| "{\"op\":\"snapshot\"}".into(),
            |pairs| {
                let hex = as_str("snapshot", field(pairs, "snapshot")?)?;
                EngineSnapshot::from_hex(&hex).map_err(|e| format!("snapshot: {e}"))
            },
        )
    }

    fn finish_all(shards: &mut [Self]) -> Result<Vec<(Individual, u64)>, String> {
        round(
            shards,
            |_| "{\"op\":\"finish\"}".into(),
            |pairs| {
                Ok((
                    best_field(pairs)?,
                    int_field(pairs, "evaluations", u64::MAX)?,
                ))
            },
        )
    }
}

/// The ring coordinator: the island epoch loop ([`IslandRing`]) over
/// one [`ShardConn`] per island worker, flushing every barrier's
/// [`CheckpointBundle`] to `checkpoint_path` (write-temp-then-rename,
/// so a mid-write crash never corrupts the last good checkpoint).
pub struct Coordinator {
    ring: IslandRing<ShardConn>,
    checkpoint_path: PathBuf,
    /// The barrier the ring was connected at (non-zero on resume).
    connected_at: u32,
}

impl Coordinator {
    /// Connect to one worker per island and initialize every shard —
    /// fresh populations, or restored members when `resume` carries the
    /// checkpoint to continue from. The job must be an island job
    /// (`job.islands` set, function workload) and `addrs.len()` must
    /// equal the ring size.
    pub fn connect(
        job: &GaJob,
        addrs: &[String],
        checkpoint_path: &Path,
        resume: Option<&CheckpointBundle>,
    ) -> Result<Self, String> {
        let config = job.islands.ok_or("job carries no island schedule")?;
        job.validate().map_err(|e| e.to_string())?;
        if addrs.len() != config.islands {
            return Err(format!(
                "{} worker addrs for {} islands",
                addrs.len(),
                config.islands
            ));
        }
        if let Some(bundle) = resume {
            bundle.check(config).map_err(|e| e.to_string())?;
        }
        let mut shards = addrs
            .iter()
            .enumerate()
            .map(|(k, addr)| ShardConn::connect(addr).map_err(|e| format!("shard {k}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let job_keys = job_line(job);
        let job_keys = &job_keys[1..job_keys.len() - 1];
        let init = |k: usize| {
            let snapshot = resume.map_or(String::new(), |b| {
                format!(",\"snapshot\":\"{}\"", b.members[k].to_hex())
            });
            format!("{{\"op\":\"init\",{job_keys},\"shard\":{k}{snapshot}}}")
        };
        round(&mut shards, init, |_| Ok(()))?;
        let connected_at = resume.map_or(0, |b| b.epochs_done);
        Ok(Coordinator {
            ring: IslandRing::new(config, shards, connected_at),
            checkpoint_path: checkpoint_path.to_path_buf(),
            connected_at,
        })
    }

    /// One epoch barrier: the ring step (evolve, migrate), then the
    /// barrier's bundle, flushed to the checkpoint file. Errors name
    /// the epoch and the shard.
    pub fn step_epoch(&mut self) -> Result<CheckpointBundle, String> {
        let epoch = self.ring.epochs_done() + 1;
        let at = |e: String| format!("epoch {epoch}: {e}");
        self.ring.step_epoch().map_err(at)?;
        let bundle = CheckpointBundle::capture(&mut self.ring).map_err(at)?;
        write_checkpoint(&self.checkpoint_path, &bundle)?;
        Ok(bundle)
    }

    /// Epoch barriers crossed so far (counting the resumed-from ones).
    pub fn epochs_done(&self) -> u32 {
        self.ring.epochs_done()
    }

    /// True once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.ring.done()
    }

    /// Migrant transfers since connect: one per island per barrier on
    /// rings larger than one.
    pub fn migrations(&self) -> u64 {
        let islands = self.ring.config().islands as u64;
        if islands > 1 {
            u64::from(self.ring.epochs_done() - self.connected_at) * islands
        } else {
            0
        }
    }

    /// Finish every shard and fold the ring result.
    pub fn finish(self) -> Result<IslandRun, String> {
        self.ring.finish()
    }
}

/// Flush a checkpoint durably: write the hex form to `<path>.tmp`,
/// sync, then rename over `path` — a crash mid-flush leaves the
/// previous complete checkpoint readable.
pub fn write_checkpoint(path: &Path, bundle: &CheckpointBundle) -> Result<(), String> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name()
            .and_then(|n| n.to_str())
            .ok_or("checkpoint path has no file name")?
    ));
    let mut f = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(bundle.to_hex().as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .and_then(|_| f.sync_all())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// Read a checkpoint file written by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<CheckpointBundle, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    CheckpointBundle::from_hex(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::job::BackendKind;
    use ga_core::islands::IslandConfig;
    use ga_core::GaParams;
    use ga_fitness::TestFunction;
    use std::io::BufRead;
    use std::thread::JoinHandle;

    fn spawn_worker() -> (String, JoinHandle<Result<(), String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            serve_island_connection(stream)
        });
        (addr, handle)
    }

    fn spawn_ring(n: usize) -> (Vec<String>, Vec<JoinHandle<Result<(), String>>>) {
        (0..n).map(|_| spawn_worker()).unzip()
    }

    fn island_job(backend: BackendKind) -> GaJob {
        ring_job(backend, 3)
    }

    fn ring_job(backend: BackendKind, islands: usize) -> GaJob {
        GaJob::new(
            TestFunction::Bf6,
            backend,
            GaParams::new(16, 12, 10, 1, 0x2961),
        )
        .with_islands(IslandConfig {
            islands,
            epoch: 4,
            epochs: 3,
        })
    }

    fn ckpt_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ga_islands_{tag}_{}.ckpt", std::process::id()))
    }

    #[test]
    fn multi_process_ring_matches_the_in_process_driver_barrier_for_barrier() {
        // Ring size 1 exercises the no-migration branch on remote
        // members; 2 and 3 the ring rotation.
        for islands in 1..=3 {
            let job = ring_job(BackendKind::Behavioral, islands);
            let config = job.islands.unwrap();
            let engine = ga_engine::global().get(job.backend).unwrap();
            let composite = ga_engine::IslandsEngine::new(engine, config).expect("steps");
            let mut reference = composite.start(job.spec()).expect("starts");

            let path = ckpt_path(&format!("match{islands}"));
            let (addrs, workers) = spawn_ring(config.islands);
            let mut coord = Coordinator::connect(&job, &addrs, &path, None).expect("connects");
            while !coord.done() {
                let ours = coord.step_epoch().expect("epoch");
                let theirs = reference.step_epoch();
                assert_eq!(
                    ours, theirs,
                    "{islands}-ring barrier {} bundle diverged from the in-process driver",
                    ours.epochs_done
                );
                // The durable file holds exactly the latest barrier.
                assert_eq!(read_checkpoint(&path).expect("readable"), ours);
            }
            let expected = if islands > 1 { 3 * islands as u64 } else { 0 };
            assert_eq!(coord.migrations(), expected, "{islands}-ring migrations");
            let run = coord.finish().expect("finishes");
            assert_eq!(run, reference.finish());
            for w in workers {
                w.join().expect("worker thread").expect("worker ok");
            }
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn kill_resume_from_the_checkpoint_file_is_bit_identical_across_backends() {
        let job = island_job(BackendKind::Behavioral);
        let config = job.islands.unwrap();
        let engine = ga_engine::global().get(job.backend).unwrap();
        let reference = ga_engine::IslandsEngine::new(engine, config)
            .expect("steps")
            .run(job.spec())
            .expect("runs");

        // Run one epoch, then "crash": drop the coordinator so every
        // worker sees EOF and exits. The checkpoint file survives.
        let path = ckpt_path("resume");
        let (addrs, workers) = spawn_ring(config.islands);
        let mut coord = Coordinator::connect(&job, &addrs, &path, None).expect("connects");
        coord.step_epoch().expect("epoch");
        drop(coord);
        for w in workers {
            w.join().expect("worker thread").expect("EOF is clean");
        }

        // Resume on *bitsim64* workers: snapshots are backend-neutral,
        // so the healed ring must still match the behavioral reference.
        let bundle = read_checkpoint(&path).expect("checkpoint survives the crash");
        assert_eq!(bundle.epochs_done, 1);
        let resumed_job = GaJob {
            backend: BackendKind::BitSim64,
            ..job
        };
        let (addrs, workers) = spawn_ring(config.islands);
        let mut coord =
            Coordinator::connect(&resumed_job, &addrs, &path, Some(&bundle)).expect("reconnects");
        assert_eq!(coord.epochs_done(), 1);
        assert_eq!(coord.migrations(), 0, "migrations count from connect");
        while !coord.done() {
            coord.step_epoch().expect("epoch");
        }
        assert_eq!(coord.migrations(), 2 * 3);
        assert_eq!(coord.finish().expect("finishes"), reference);
        for w in workers {
            w.join().expect("worker thread").expect("worker ok");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn worker_replies_typed_errors_and_survives_them() {
        let (addr, worker) = spawn_worker();
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut call = |line: &str| -> String {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };
        // Ops before init, unknown ops, and garbage are all ok:false
        // replies — the connection stays up.
        assert!(call("{\"op\":\"epoch\",\"gens\":1}").contains("\"ok\":false"));
        assert!(call("{\"op\":\"warp\"}").contains("unknown op"));
        assert!(call("not json").contains("\"ok\":false"));
        for retired in ["bitsim128", "bitsim256"] {
            let init = format!(
                "{{\"op\":\"init\",\"fn\":\"BF6\",\"backend\":\"{retired}\",\"pop\":16,\
                 \"gens\":4,\"xover\":10,\"mut\":1,\"seed\":1,\"islands\":1,\"epoch\":4,\"epochs\":1,\
                 \"shard\":0}}"
            );
            let reply = call(&init);
            assert!(
                reply.contains(&format!("unknown backend \\\"{retired}\\\"")),
                "{reply}"
            );
        }
        // The job keys are the JSONL wire's: a schedule that disagrees
        // with gens is refused exactly as gaserved refuses it.
        let mismatch = "{\"op\":\"init\",\"fn\":\"BF6\",\"backend\":\"behavioral\",\"pop\":16,\
                        \"gens\":5,\"xover\":10,\"mut\":1,\"seed\":10593,\"islands\":1,\
                        \"epoch\":4,\"epochs\":1,\"shard\":0}";
        let reply = call(mismatch);
        assert!(
            reply.starts_with("{\"ok\":false,")
                && reply.contains("invalid job: gens 5 disagrees with the island schedule"),
            "{reply}"
        );
        assert!(call("{\"op\":\"epoch\",\"gens\":1}").contains("send \\\"init\\\" first"));
        let init = "{\"op\":\"init\",\"fn\":\"BF6\",\"backend\":\"behavioral\",\"pop\":16,\
                    \"gens\":4,\"xover\":10,\"mut\":1,\"seed\":10593,\"islands\":1,\
                    \"epoch\":4,\"epochs\":1,\"shard\":0}";
        assert_eq!(call(init), "{\"ok\":true}");
        assert!(call("{\"op\":\"epoch\",\"gens\":4}").contains("\"fitness\""));
        // A snapshot that does not decode is typed, not fatal.
        assert!(call(
            "{\"op\":\"init\",\"fn\":\"BF6\",\"backend\":\"behavioral\",\"pop\":16,\
                      \"gens\":4,\"xover\":10,\"mut\":1,\"seed\":1,\"islands\":1,\
                      \"epoch\":4,\"epochs\":1,\"shard\":0,\"snapshot\":\"zz\"}"
        )
        .contains("snapshot"));
        assert!(call("{\"op\":\"finish\"}").contains("\"evaluations\""));
        worker.join().expect("thread").expect("clean exit");
    }

    #[test]
    fn worker_answers_oversized_and_non_utf8_lines_and_stays_up() {
        let (addr, worker) = spawn_worker();
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut call = |bytes: &[u8]| -> String {
            writer.write_all(bytes).unwrap();
            writer.flush().unwrap();
            let mut reply = Vec::new();
            read_wire_line(&mut reader, &mut reply)
                .unwrap()
                .unwrap()
                .unwrap()
                .to_string()
        };
        let mut huge = vec![b' '; 1 << 20];
        huge.push(b'\n');
        assert!(call(&huge).contains("exceeds the 65536-byte limit"));
        assert!(call(b"{\"op\":\"\xff\"}\n").contains("not valid UTF-8"));
        let init = b"{\"op\":\"init\",\"fn\":\"BF6\",\"backend\":\"behavioral\",\"pop\":16,\
                     \"gens\":4,\"xover\":10,\"mut\":1,\"seed\":1,\"islands\":1,\
                     \"epoch\":4,\"epochs\":1,\"shard\":0}\n";
        assert!(call(init).contains("\"ok\":true"));
        assert!(call(b"{\"op\":\"finish\"}\n").contains("\"evaluations\""));
        worker.join().expect("thread").expect("clean exit");
    }

    #[test]
    fn checkpoint_files_survive_a_torn_write() {
        let path = ckpt_path("torn");
        let bundle = {
            let job = island_job(BackendKind::Behavioral);
            let engine = ga_engine::global().get(job.backend).unwrap();
            let composite =
                ga_engine::IslandsEngine::new(engine, job.islands.unwrap()).expect("steps");
            let mut d = composite.start(job.spec()).expect("starts");
            d.step_epoch()
        };
        write_checkpoint(&path, &bundle).expect("flushes");
        // A later, torn flush (the crash window: tmp written, rename
        // never happened) leaves the previous checkpoint intact.
        fs::write(path.with_file_name("garbage.tmp"), "deadbeef").unwrap();
        assert_eq!(read_checkpoint(&path).expect("still readable"), bundle);
        let _ = fs::remove_file(&path);
    }
}
