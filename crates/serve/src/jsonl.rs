//! The JSONL request/response schema of `gaserved`.
//!
//! One job per input line:
//!
//! ```json
//! {"fn":"F3","backend":"bitsim64","width":16,"pop":32,"gens":32,"xover":10,"mut":1,"seed":1567,"deadline_ms":1000}
//! ```
//!
//! `fn`, `pop`, `gens`, `xover`, `mut`, and `seed` are required;
//! `backend` defaults to `behavioral`, `width` to 16, `deadline_ms` to
//! none. Unknown keys are rejected — a typo'd field must not silently
//! change the experiment.
//!
//! An **island job** adds the triple `islands`/`epoch`/`epochs` (all
//! three or none — a partial set is a typed parse error): the job then
//! runs as a ring-migration island model over the backend's stepping
//! handle, with `gens` required to equal `epoch × epochs` (the
//! registry's typed `invalid_job` admission otherwise). Island jobs
//! evolve a fitness function; combining the triple with the heal keys
//! is a parse error. The result line keeps the standard shape — the
//! reported best/evaluations are the ring-wide aggregates.
//!
//! A VRC healing job replaces `fn` with the pair `heal_target` (the
//! 4-input truth table to restore, 0–65535) and `heal_fault` (the
//! injected fault in [`ga_ehw::Fault::wire_name`] encoding, e.g.
//! `"stuck1@2"` or `"nand@5"`); `fn` and the heal keys are mutually
//! exclusive. A healed result line appends the typed healing summary —
//! `"healed":true,"heal_gens":3,"residual":0` — after the standard
//! fields (the healed configuration itself is `best_chrom`).
//!
//! One result per output line, **in input order**:
//!
//! ```json
//! {"job":0,"backend":"rtl","ok":true,"best_chrom":34106,"best_fitness":3060,"generations":32,"evaluations":1024,"conv_gen":7,"cycles":335872}
//! {"job":1,"backend":"behavioral","ok":false,"error":"deadline_exceeded","detail":"wall-clock deadline expired"}
//! ```
//!
//! Result lines carry **no timing fields** — that keeps a golden
//! `results.jsonl` byte-stable across machines; latency aggregates go
//! to `BENCH_serve.json` instead. The parser is a hand-rolled
//! flat-object reader, matching the workspace's no-external-deps rule
//! (the same reason `ga-bench` hand-rolls its report JSON).

use std::fmt::Write as _;
use std::io::{self, BufRead, Read};

use ga_core::islands::IslandConfig;
use ga_core::GaParams;

use crate::job::{
    function_by_name, BackendKind, GaJob, JobResult, ServeError, Workload, CHROM_WIDTH,
    SUPPORTED_WIDTHS,
};

/// A flat JSON value (all the schema needs).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string literal.
    Str(String),
    /// Any number (integers included).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parse one flat JSON object into `(key, value)` pairs, preserving
/// order. Nested objects/arrays are rejected — the job schema is flat
/// by design.
pub fn parse_object(s: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.at += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            out.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {:?}", byte_name(other))),
            }
        }
    }
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err("trailing characters after the object".into());
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected '{}', got {:?}",
                want as char,
                byte_name(other)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Accumulate raw bytes and validate once at the closing quote:
        // pushing `b as char` would latin-1-mangle multi-byte UTF-8.
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.next() {
                Some(b'"') => {
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into())
                }
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // `char::from_u32` rejects the surrogate range:
                        // the schema has no use for surrogate pairs.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| format!("\\u{cp:04x} is not a scalar value"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unsupported escape {:?}", byte_name(other))),
                },
                Some(b) => out.push(b),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.next().ok_or("unterminated \\u escape")?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit {:?} in \\u escape", b as char))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{' | b'[') => Err("nested objects/arrays are not part of the schema".into()),
            Some(_) => {
                let start = self.at;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| "non-UTF8 number")?;
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("bad number {text:?}"))
            }
            None => Err("unexpected end of line".into()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal (expected {word})"))
        }
    }
}

/// Escape `s` as the body of a JSON string literal — the writer dual of
/// the parser's string reader, so serialize→parse round-trips exactly.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn byte_name(b: Option<u8>) -> String {
    match b {
        Some(b) => (b as char).to_string(),
        None => "end of line".into(),
    }
}

/// Strip one trailing line ending (`\n`, `\r\n`, or a bare `\r`) from a
/// raw input line. Both reader paths — the batch file loop and the
/// socket loop ([`read_wire_line`]) — must run every line through this before
/// [`parse_job`], so CRLF-sending network clients (and CRLF-checked-out
/// fixture files) get the same parses and the same *empty-line* skips
/// as LF input; a stray `"\r"` line must count as blank, not as a
/// `parse` error that shifts result alignment.
pub fn strip_line_ending(line: &str) -> &str {
    let line = line.strip_suffix('\n').unwrap_or(line);
    line.strip_suffix('\r').unwrap_or(line)
}

/// The longest line a socket peer may send, line ending included. A job
/// line is a few hundred bytes and an island snapshot reply a few KiB,
/// so the cap only ever stops a runaway or hostile peer.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Read one `\n`-terminated line from a socket peer, holding at most
/// [`MAX_LINE_BYTES`] + 1 bytes in `buf` however long the line is.
///
/// Returns `Ok(None)` at EOF and `Ok(Some(Ok(text)))` for a line, its
/// ending stripped by [`strip_line_ending`]. An over-long line is
/// discarded through its newline, and it and a non-UTF-8 line come back
/// as `Ok(Some(Err(msg)))`: the caller answers them in wire position and
/// keeps reading, so line numbering stays intact. Only transport errors
/// are `Err`.
pub fn read_wire_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let cap = MAX_LINE_BYTES as u64;
    if reader.by_ref().take(cap + 1).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.len() as u64 > cap {
        if buf.last() != Some(&b'\n') {
            reader.skip_until(b'\n')?;
        }
        return Ok(Some(Err(format!(
            "line exceeds the {MAX_LINE_BYTES}-byte limit"
        ))));
    }
    Ok(Some(match std::str::from_utf8(buf) {
        Ok(text) => Ok(strip_line_ending(text)),
        Err(_) => Err("line is not valid UTF-8".into()),
    }))
}

/// Parse one request line into a [`GaJob`]. `line` is the 0-based input
/// line number, echoed in [`ServeError::Parse`] diagnostics.
pub fn parse_job(text: &str, line: usize) -> Result<GaJob, ServeError> {
    let pairs = parse_object(text).map_err(|msg| ServeError::Parse { line, msg })?;
    job_from_pairs(pairs, line)
}

/// The pair-level half of [`parse_job`]: build a [`GaJob`] from an
/// already-parsed flat object. Island workers call it on their `init`
/// op once the op's own keys are taken out, so a worker accepts exactly
/// the job fields the JSONL wire accepts.
pub(crate) fn job_from_pairs(
    pairs: Vec<(String, JsonValue)>,
    line: usize,
) -> Result<GaJob, ServeError> {
    let perr = |msg: String| ServeError::Parse { line, msg };

    // A duplicated key means one of the two values silently loses;
    // reject the line instead of guessing which one was meant.
    for i in 1..pairs.len() {
        if pairs[..i].iter().any(|(k, _)| *k == pairs[i].0) {
            return Err(perr(format!("duplicate key {:?}", pairs[i].0)));
        }
    }

    let mut function = None;
    let mut heal_target = None;
    let mut heal_fault = None;
    let mut backend = BackendKind::Behavioral;
    let mut width = CHROM_WIDTH;
    let mut pop = None;
    let mut gens = None;
    let mut xover = None;
    let mut mutation = None;
    let mut seed = None;
    let mut deadline_ms = None;
    let mut islands = None;
    let mut epoch = None;
    let mut epochs = None;

    for (key, value) in pairs {
        match key.as_str() {
            "fn" => {
                let name = as_str(&key, &value).map_err(perr)?;
                function = Some(
                    function_by_name(&name)
                        .ok_or_else(|| perr(format!("unknown fitness function {name:?}")))?,
                );
            }
            "heal_target" => {
                heal_target = Some(as_int(&key, &value, 0, u16::MAX as u64).map_err(perr)? as u16);
            }
            "heal_fault" => {
                let name = as_str(&key, &value).map_err(perr)?;
                heal_fault = Some(
                    ga_ehw::Fault::parse_wire(&name)
                        .ok_or_else(|| perr(format!("unknown heal fault {name:?}")))?,
                );
            }
            "backend" => {
                let name = as_str(&key, &value).map_err(perr)?;
                backend = BackendKind::parse(&name)
                    .ok_or_else(|| perr(format!("unknown backend {name:?}")))?;
            }
            "width" => {
                let w = as_int(&key, &value, 0, u8::MAX as u64).map_err(perr)? as u8;
                if !SUPPORTED_WIDTHS.contains(&w) {
                    return Err(ServeError::InvalidJob {
                        msg: format!("width {w} is not a supported chromosome width (16 or 32)"),
                    });
                }
                width = w;
            }
            "pop" => pop = Some(as_int(&key, &value, 0, u8::MAX as u64).map_err(perr)? as u8),
            "gens" => gens = Some(as_int(&key, &value, 0, u32::MAX as u64).map_err(perr)? as u32),
            "xover" => xover = Some(as_int(&key, &value, 0, 255).map_err(perr)? as u8),
            "mut" => mutation = Some(as_int(&key, &value, 0, 255).map_err(perr)? as u8),
            "seed" => seed = Some(as_int(&key, &value, 0, u16::MAX as u64).map_err(perr)? as u16),
            "deadline_ms" => match value {
                JsonValue::Null => deadline_ms = None,
                v => deadline_ms = Some(as_int(&key, &v, 0, u64::MAX).map_err(perr)?),
            },
            "islands" => {
                let max = ga_engine::MAX_ISLANDS as u64;
                islands = Some(as_int(&key, &value, 1, max).map_err(perr)? as usize);
            }
            "epoch" => epoch = Some(as_int(&key, &value, 1, u32::MAX as u64).map_err(perr)? as u32),
            "epochs" => {
                epochs = Some(as_int(&key, &value, 1, u32::MAX as u64).map_err(perr)? as u32);
            }
            other => return Err(perr(format!("unknown key {other:?}"))),
        }
    }

    let req = |name: &str| perr(format!("missing required key \"{name}\""));
    let workload = match (function, heal_target, heal_fault) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
            return Err(perr(
                "\"fn\" and \"heal_target\"/\"heal_fault\" are mutually exclusive".into(),
            ))
        }
        (Some(f), None, None) => Workload::Function(f),
        (None, Some(target), Some(fault)) => Workload::VrcHeal { target, fault },
        (None, Some(_), None) => return Err(req("heal_fault")),
        (None, None, Some(_)) => return Err(req("heal_target")),
        (None, None, None) => return Err(req("fn")),
    };
    // The island triple is all-or-none; a partial set means the caller
    // half-specified a schedule, which must not silently run solo.
    let island_config = match (islands, epoch, epochs) {
        (None, None, None) => None,
        (Some(n), Some(e), Some(k)) => {
            if matches!(workload, Workload::VrcHeal { .. }) {
                return Err(perr(
                    "\"islands\" and \"heal_target\"/\"heal_fault\" are mutually exclusive".into(),
                ));
            }
            Some(IslandConfig {
                islands: n,
                epoch: e,
                epochs: k,
            })
        }
        _ => {
            return Err(perr(
                "island jobs need all three of \"islands\", \"epoch\", \"epochs\"".into(),
            ))
        }
    };
    Ok(GaJob {
        width,
        workload,
        backend,
        params: GaParams {
            pop_size: pop.ok_or_else(|| req("pop"))?,
            n_gens: gens.ok_or_else(|| req("gens"))?,
            xover_threshold: xover.ok_or_else(|| req("xover"))?,
            mut_threshold: mutation.ok_or_else(|| req("mut"))?,
            seed: seed.ok_or_else(|| req("seed"))?,
        },
        deadline_ms,
        islands: island_config,
    })
}

pub(crate) fn as_str(key: &str, v: &JsonValue) -> Result<String, String> {
    match v {
        JsonValue::Str(s) => Ok(s.clone()),
        other => Err(format!("key {key:?} must be a string, got {other:?}")),
    }
}

pub(crate) fn as_int(key: &str, v: &JsonValue, min: u64, max: u64) -> Result<u64, String> {
    let JsonValue::Num(n) = v else {
        return Err(format!("key {key:?} must be a number, got {v:?}"));
    };
    if n.fract() != 0.0 || *n < min as f64 || *n > max as f64 {
        return Err(format!(
            "key {key:?} = {n} outside the integer range {min}..={max}"
        ));
    }
    Ok(*n as u64)
}

/// Serialize a [`GaJob`] as one request line (fixture generation,
/// round-trip tests, and the job keys of an island worker's `init` op).
pub fn job_line(job: &GaJob) -> String {
    let mut out = String::from("{");
    match job.workload {
        Workload::Function(f) => {
            let _ = write!(out, "\"fn\":\"{}\"", f.name());
        }
        Workload::VrcHeal { target, fault } => {
            let _ = write!(
                out,
                "\"heal_target\":{target},\"heal_fault\":\"{}\"",
                fault.wire_name()
            );
        }
    }
    let _ = write!(
        out,
        ",\"backend\":\"{}\",\"width\":{},\"pop\":{},\"gens\":{},\"xover\":{},\"mut\":{},\"seed\":{}",
        job.backend.name(),
        job.width,
        job.params.pop_size,
        job.params.n_gens,
        job.params.xover_threshold,
        job.params.mut_threshold,
        job.params.seed
    );
    if let Some(ms) = job.deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
    if let Some(cfg) = job.islands {
        let _ = write!(
            out,
            ",\"islands\":{},\"epoch\":{},\"epochs\":{}",
            cfg.islands, cfg.epoch, cfg.epochs
        );
    }
    out.push('}');
    out
}

/// Serialize one result line. Fully deterministic: no timing fields.
/// A degraded result additionally carries the requested backend and the
/// typed reason (`degraded_from` / `degraded_error`), so a caller can
/// tell a fallback answer from a native one straight off the wire.
pub fn result_line(r: &JobResult) -> String {
    let mut out = match &r.outcome {
        Ok(o) => {
            let mut out = format!(
                "{{\"job\":{},\"backend\":\"{}\",\"ok\":true,\"best_chrom\":{},\"best_fitness\":{},\"generations\":{},\"evaluations\":{}",
                r.job,
                r.backend.name(),
                o.best_chrom,
                o.best_fitness,
                o.generations,
                o.evaluations
            );
            match o.conv_gen {
                Some(g) => {
                    let _ = write!(out, ",\"conv_gen\":{g}");
                }
                None => out.push_str(",\"conv_gen\":null"),
            }
            if let Some(c) = o.cycles {
                let _ = write!(out, ",\"cycles\":{c}");
            }
            if let Some(h) = &r.heal {
                let _ = write!(out, ",\"healed\":{}", h.healed);
                match h.generations_to_heal {
                    Some(g) => {
                        let _ = write!(out, ",\"heal_gens\":{g}");
                    }
                    None => out.push_str(",\"heal_gens\":null"),
                }
                let _ = write!(out, ",\"residual\":{}", h.residual_error);
            }
            out
        }
        Err(e) => format!(
            "{{\"job\":{},\"backend\":\"{}\",\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"",
            r.job,
            r.backend.name(),
            e.code(),
            escape_string(&e.to_string())
        ),
    };
    if let Some(d) = &r.degraded {
        let _ = write!(
            out,
            ",\"degraded_from\":\"{}\",\"degraded_error\":\"{}\"",
            d.from.name(),
            d.reason.code()
        );
    }
    out.push('}');
    out
}

/// Serialize the result line for an input line that failed to parse
/// (there is no backend to attribute it to).
pub fn parse_error_line(job: usize, err: &ServeError) -> String {
    format!(
        "{{\"job\":{job},\"backend\":\"none\",\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        err.code(),
        escape_string(&err.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use ga_fitness::TestFunction;

    #[test]
    fn job_lines_roundtrip() {
        let jobs = [
            GaJob::new(
                TestFunction::Mbf6_2,
                BackendKind::BitSim64,
                GaParams::new(32, 32, 10, 1, 1567),
            ),
            GaJob::new(
                TestFunction::F2,
                BackendKind::RtlInterp,
                GaParams::new(8, 4, 12, 2, 0xB342),
            )
            .with_deadline_ms(250),
        ];
        for job in jobs {
            let line = job_line(&job);
            assert_eq!(parse_job(&line, 0), Ok(job), "line: {line}");
        }
    }

    #[test]
    fn heal_job_lines_roundtrip() {
        let job = GaJob::new_heal(
            0x9B9B,
            ga_ehw::Fault::StuckAt {
                cell: 2,
                value: true,
            },
            BackendKind::BitSim64,
            GaParams::new(16, 12, 10, 1, 0x2961),
        );
        let line = job_line(&job);
        assert_eq!(
            line,
            "{\"heal_target\":39835,\"heal_fault\":\"stuck1@2\",\"backend\":\"bitsim64\",\
             \"width\":16,\"pop\":16,\"gens\":12,\"xover\":10,\"mut\":1,\"seed\":10593}"
        );
        assert_eq!(parse_job(&line, 0), Ok(job), "line: {line}");
    }

    #[test]
    fn island_job_lines_roundtrip() {
        let job = GaJob::new(
            TestFunction::Bf6,
            BackendKind::Behavioral,
            GaParams::new(16, 12, 10, 1, 0x2961),
        )
        .with_islands(IslandConfig {
            islands: 3,
            epoch: 4,
            epochs: 3,
        });
        let line = job_line(&job);
        assert_eq!(
            line,
            "{\"fn\":\"BF6\",\"backend\":\"behavioral\",\"width\":16,\"pop\":16,\"gens\":12,\
             \"xover\":10,\"mut\":1,\"seed\":10593,\"islands\":3,\"epoch\":4,\"epochs\":3}"
        );
        assert_eq!(parse_job(&line, 0), Ok(job), "line: {line}");
    }

    #[test]
    fn island_keys_are_all_or_none_and_exclusive_with_heal() {
        let tail = r#""pop":16,"gens":12,"xover":10,"mut":1,"seed":7"#;
        for (bad, expect) in [
            (
                format!(r#"{{"fn":"F3",{tail},"islands":2,"epoch":6}}"#),
                "all three",
            ),
            (format!(r#"{{"fn":"F3",{tail},"epochs":2}}"#), "all three"),
            (
                format!(r#"{{"fn":"F3",{tail},"islands":2,"epochs":3}}"#),
                "all three",
            ),
            (
                format!(
                    r#"{{"heal_target":1,"heal_fault":"stuck0@0",{tail},"islands":2,"epoch":6,"epochs":2}}"#
                ),
                "mutually exclusive",
            ),
            (
                format!(r#"{{"fn":"F3",{tail},"islands":0,"epoch":6,"epochs":2}}"#),
                "outside the integer range",
            ),
            (
                format!(r#"{{"fn":"F3",{tail},"islands":2,"epoch":0,"epochs":2}}"#),
                "outside the integer range",
            ),
        ] {
            let Err(ServeError::Parse { msg, .. }) = parse_job(&bad, 0) else {
                panic!("accepted: {bad}");
            };
            assert!(msg.contains(expect), "line {bad}: msg {msg:?}");
        }
        // A schedule that disagrees with gens still *parses* — that
        // mismatch is the registry's typed invalid_job admission error,
        // surfaced per job, not a parse failure.
        let mismatch = format!(r#"{{"fn":"F3",{tail},"islands":2,"epoch":5,"epochs":5}}"#);
        let job = parse_job(&mismatch, 0).expect("schedule mismatch parses");
        assert!(matches!(job.validate(), Err(ServeError::InvalidJob { .. })));
    }

    #[test]
    fn heal_keys_are_paired_and_exclusive_with_fn() {
        let tail = r#""pop":16,"gens":4,"xover":10,"mut":1,"seed":7}"#;
        for (bad, expect) in [
            (
                format!(r#"{{"fn":"F3","heal_target":1,"heal_fault":"stuck0@0",{tail}"#),
                "mutually exclusive",
            ),
            (
                format!(r#"{{"fn":"F3","heal_target":1,{tail}"#),
                "mutually exclusive",
            ),
            (
                format!(r#"{{"fn":"F3","heal_fault":"stuck0@0",{tail}"#),
                "mutually exclusive",
            ),
            (
                format!(r#"{{"heal_target":1,{tail}"#),
                "missing required key \"heal_fault\"",
            ),
            (
                format!(r#"{{"heal_fault":"stuck0@0",{tail}"#),
                "missing required key \"heal_target\"",
            ),
            (format!("{{{tail}"), "missing required key \"fn\""),
            (
                format!(r#"{{"heal_target":1,"heal_fault":"stuck2@9",{tail}"#),
                "unknown heal fault",
            ),
            (
                format!(r#"{{"heal_target":65536,"heal_fault":"stuck0@0",{tail}"#),
                "outside the integer range",
            ),
        ] {
            let Err(ServeError::Parse { msg, .. }) = parse_job(&bad, 0) else {
                panic!("accepted: {bad}");
            };
            assert!(msg.contains(expect), "line {bad}: msg {msg:?}");
        }
    }

    #[test]
    fn defaults_and_required_keys() {
        let job = parse_job(
            r#"{"fn":"f3","pop":32,"gens":8,"xover":10,"mut":1,"seed":7}"#,
            0,
        )
        .expect("minimal line parses");
        assert_eq!(job.backend, BackendKind::Behavioral);
        assert_eq!(job.width, CHROM_WIDTH);
        assert_eq!(job.deadline_ms, None);

        let missing = parse_job(r#"{"fn":"F3","pop":32}"#, 3);
        let Err(ServeError::Parse { line, msg }) = missing else {
            panic!("missing keys must be a parse error, got {missing:?}");
        };
        assert_eq!(line, 3);
        assert!(msg.contains("gens"), "msg: {msg}");
    }

    #[test]
    fn unknown_keys_and_bad_values_rejected() {
        for bad in [
            r#"{"fn":"F3","pop":32,"gens":8,"xover":10,"mut":1,"seed":7,"popsize":1}"#,
            r#"{"fn":"F9","pop":32,"gens":8,"xover":10,"mut":1,"seed":7}"#,
            r#"{"fn":"F3","pop":300,"gens":8,"xover":10,"mut":1,"seed":7}"#,
            r#"{"fn":"F3","pop":32,"gens":8,"xover":10,"mut":1,"seed":1.5}"#,
            r#"{"fn":"F3","pop":32,"gens":8,"xover":10,"mut":1,"seed":7} extra"#,
            r#"not json at all"#,
            r#"{"fn":"F3","nested":{"a":1}}"#,
        ] {
            assert!(
                matches!(parse_job(bad, 0), Err(ServeError::Parse { .. })),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn unsupported_widths_rejected_at_parse_time() {
        // Supported widths parse (16 runs on the narrow engines, 32 on
        // the ganged `rtl32` composite; aiming a width at a backend
        // that lacks it is the registry's typed admission error).
        for w in SUPPORTED_WIDTHS {
            let line =
                format!("{{\"fn\":\"F3\",\"width\":{w},\"pop\":32,\"gens\":8,\"xover\":10,\"mut\":1,\"seed\":7}}");
            assert_eq!(parse_job(&line, 0).expect("supported width").width, w);
        }
        // Everything else is an invalid_job error at parse time — the
        // old parser accepted the full 0..=255 range here.
        for w in [0u8, 1, 8, 15, 17, 24, 31, 33, 64, 255] {
            let line =
                format!("{{\"fn\":\"F3\",\"width\":{w},\"pop\":32,\"gens\":8,\"xover\":10,\"mut\":1,\"seed\":7}}");
            let err = parse_job(&line, 5).expect_err("unsupported width");
            assert_eq!(err.code(), "invalid_job", "width {w}: {err}");
            assert!(err.to_string().contains(&format!("width {w}")), "{err}");
        }
        // Out-of-u8 widths are still plain parse errors.
        let huge = r#"{"fn":"F3","width":4096,"pop":32,"gens":8,"xover":10,"mut":1,"seed":7}"#;
        assert!(matches!(parse_job(huge, 0), Err(ServeError::Parse { .. })));
    }

    #[test]
    fn duplicate_keys_are_parse_errors() {
        let dup = r#"{"fn":"F3","pop":32,"gens":8,"xover":10,"mut":1,"seed":7,"seed":9}"#;
        let Err(ServeError::Parse { line, msg }) = parse_job(dup, 11) else {
            panic!("duplicate key must be a parse error");
        };
        assert_eq!(line, 11, "diagnostic stays line-aligned");
        assert!(msg.contains("duplicate key \"seed\""), "msg: {msg}");
    }

    #[test]
    fn strings_keep_multibyte_utf8_and_unicode_escapes() {
        let got = parse_object("{\"k\":\"héllo — ✓\"}").expect("utf-8 string");
        assert_eq!(got[0].1, JsonValue::Str("héllo — ✓".into()));
        let got = parse_object(r#"{"k":"A\u00e9\u2713"}"#).expect("\\u escapes");
        assert_eq!(got[0].1, JsonValue::Str("Aé✓".into()));
        // Surrogate code units are not scalar values.
        assert!(parse_object(r#"{"k":"\ud800"}"#).is_err());
        assert!(parse_object(r#"{"k":"\uZZZZ"}"#).is_err());
    }

    #[test]
    fn escape_string_is_the_parsers_dual() {
        let s = "a\"b\\c\nd\té — ✓\u{1}";
        let line = format!("{{\"k\":\"{}\"}}", escape_string(s));
        let got = parse_object(&line).expect("escaped string parses");
        assert_eq!(got, vec![("k".into(), JsonValue::Str(s.into()))]);
    }

    #[test]
    fn result_lines_are_deterministic_and_timing_free() {
        let ok = JobResult {
            job: 4,
            backend: BackendKind::RtlInterp,
            outcome: Ok(JobOutput {
                best_chrom: 0x1234,
                best_fitness: 3060,
                generations: 32,
                evaluations: 1024,
                conv_gen: Some(7),
                cycles: Some(335_872),
                rng_draws: None,
                trajectory: Vec::new(),
            }),
            micros: 123_456, // must NOT appear in the line
            degraded: None,
            heal: None,
        };
        let line = result_line(&ok);
        assert_eq!(
            line,
            "{\"job\":4,\"backend\":\"rtl\",\"ok\":true,\"best_chrom\":4660,\"best_fitness\":3060,\"generations\":32,\"evaluations\":1024,\"conv_gen\":7,\"cycles\":335872}"
        );
        assert!(!line.contains("123456"));

        let err = JobResult {
            job: 5,
            backend: BackendKind::Behavioral,
            outcome: Err(ServeError::DeadlineExceeded),
            micros: 1,
            degraded: None,
            heal: None,
        };
        assert_eq!(
            result_line(&err),
            "{\"job\":5,\"backend\":\"behavioral\",\"ok\":false,\"error\":\"deadline_exceeded\",\"detail\":\"wall-clock deadline expired\"}"
        );

        // A degraded result surfaces the requested backend + reason.
        let degraded = JobResult {
            degraded: Some(crate::job::Degradation {
                from: BackendKind::BitSim64,
                reason: ServeError::Watchdog { cycles: 4 },
            }),
            ..ok.clone()
        };
        assert_eq!(
            result_line(&degraded),
            "{\"job\":4,\"backend\":\"rtl\",\"ok\":true,\"best_chrom\":4660,\"best_fitness\":3060,\"generations\":32,\"evaluations\":1024,\"conv_gen\":7,\"cycles\":335872,\"degraded_from\":\"bitsim64\",\"degraded_error\":\"watchdog\"}"
        );

        let parse = ServeError::Parse {
            line: 9,
            msg: "missing required key \"fn\"".into(),
        };
        let line = parse_error_line(9, &parse);
        assert!(line.contains("\"backend\":\"none\""));
        assert!(line.contains("\\\"fn\\\""), "quotes escaped: {line}");
    }

    #[test]
    fn heal_result_lines_append_the_typed_summary() {
        let healed = JobResult {
            job: 26,
            backend: BackendKind::BitSim64,
            outcome: Ok(JobOutput {
                best_chrom: 0x0706,
                best_fitness: crate::job::PERFECT_FITNESS,
                generations: 12,
                evaluations: 208,
                conv_gen: Some(3),
                cycles: None,
                rng_draws: None,
                trajectory: Vec::new(),
            }),
            micros: 99,
            degraded: None,
            heal: Some(crate::job::HealReport {
                healed: true,
                generations_to_heal: Some(3),
                residual_error: 0,
            }),
        };
        assert_eq!(
            result_line(&healed),
            "{\"job\":26,\"backend\":\"bitsim64\",\"ok\":true,\"best_chrom\":1798,\
             \"best_fitness\":65520,\"generations\":12,\"evaluations\":208,\"conv_gen\":3,\
             \"healed\":true,\"heal_gens\":3,\"residual\":0}"
        );

        // An unhealed run reports `heal_gens: null` plus the residual.
        let unhealed = JobResult {
            heal: Some(crate::job::HealReport {
                healed: false,
                generations_to_heal: None,
                residual_error: 4095,
            }),
            ..healed.clone()
        };
        let line = result_line(&unhealed);
        assert!(
            line.ends_with(",\"healed\":false,\"heal_gens\":null,\"residual\":4095}"),
            "line: {line}"
        );
    }

    #[test]
    fn line_endings_are_stripped_not_parsed() {
        // The reader contract: exactly one terminator comes off, any
        // flavor, and payload bytes (including interior \r) survive.
        assert_eq!(strip_line_ending("{\"a\":1}\r\n"), "{\"a\":1}");
        assert_eq!(strip_line_ending("{\"a\":1}\n"), "{\"a\":1}");
        assert_eq!(strip_line_ending("{\"a\":1}\r"), "{\"a\":1}");
        assert_eq!(strip_line_ending("{\"a\":1}"), "{\"a\":1}");
        assert_eq!(strip_line_ending("\r\n"), "", "CRLF blank line is blank");
        assert_eq!(strip_line_ending("\n"), "");
        assert_eq!(strip_line_ending(""), "");
        assert_eq!(strip_line_ending("a\rb\n"), "a\rb", "interior \\r kept");
        assert_eq!(strip_line_ending("x\n\n"), "x\n", "one terminator only");
    }

    #[test]
    fn crlf_job_lines_parse_like_lf_ones() {
        let lf = r#"{"fn":"f3","pop":32,"gens":8,"xover":10,"mut":1,"seed":7}"#;
        let crlf = format!("{lf}\r\n");
        assert_eq!(
            parse_job(strip_line_ending(&crlf), 0),
            parse_job(lf, 0),
            "a CRLF client must get the same job as an LF one"
        );
        // And a CRLF "blank" line must strip to empty (skipped by the
        // readers), not reach the parser at all.
        assert!(strip_line_ending("\r\n").is_empty());
    }

    #[test]
    fn parse_object_handles_whitespace_and_empty() {
        assert_eq!(parse_object("{}"), Ok(vec![]));
        let got = parse_object(" { \"a\" : 1 , \"b\" : \"x\" } ").expect("spaced object");
        assert_eq!(
            got,
            vec![
                ("a".into(), JsonValue::Num(1.0)),
                ("b".into(), JsonValue::Str("x".into()))
            ]
        );
        assert!(parse_object("{\"a\":1,}").is_err(), "trailing comma");
    }

    #[test]
    fn wire_lines_are_bounded_and_keep_their_positions() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&vec![b'a'; MAX_LINE_BYTES - 1]);
        wire.push(b'\n'); // exactly at the cap: accepted
        wire.extend_from_slice(&vec![b'b'; MAX_LINE_BYTES]);
        wire.push(b'\n'); // one byte over: discarded through the newline
        wire.extend_from_slice(b"\xff\r\n");
        wire.extend_from_slice(b"tail"); // unterminated last line
        let mut reader = std::io::BufReader::with_capacity(1000, &wire[..]);
        let mut buf = Vec::new();
        let mut next = || {
            read_wire_line(&mut reader, &mut buf)
                .expect("in-memory reads cannot fail")
                .map(|r| r.map(str::len))
        };
        assert_eq!(next(), Some(Ok(MAX_LINE_BYTES - 1)));
        assert_eq!(
            next(),
            Some(Err(format!("line exceeds the {MAX_LINE_BYTES}-byte limit")))
        );
        assert_eq!(next(), Some(Err("line is not valid UTF-8".into())));
        assert_eq!(next(), Some(Ok(4)));
        assert_eq!(next(), None);
        assert!(buf.capacity() <= 2 * (MAX_LINE_BYTES + 1), "bounded buffer");
    }
}
