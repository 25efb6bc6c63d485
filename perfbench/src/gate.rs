//! The correctness gate: every job is run once, one at a time, through
//! `ga_engine::global()` as the reference, outside any timed window.
//! Served answers must reproduce the reference byte for byte.

use ga_engine::{Limits, RunOutcome};
use ga_serve::{jsonl, GaJob, JobResult, ServeError};

use crate::gen::Line;

/// Run one job through the registry (prepare + run), single thread.
pub fn run_job(job: &GaJob) -> Result<RunOutcome, ga_engine::EngineError> {
    let engine =
        ga_engine::global()
            .get(job.backend)
            .ok_or(ga_engine::EngineError::InvalidSpec {
                msg: format!("backend {} not registered", job.backend.name()),
            })?;
    let prepared = engine.prepare(job.spec())?;
    engine.run(&prepared, &Limits::default())
}

/// The result a correct server returns for `outcome` at wire id `job`.
pub fn result(job: usize, req: &GaJob, outcome: RunOutcome) -> JobResult {
    JobResult {
        job,
        backend: req.backend,
        outcome: Ok(outcome),
        micros: 0,
        degraded: None,
        heal: None,
    }
}

/// What one generated line must come back as.
pub enum Expect {
    /// A green result: the reference outcome, plus its result line with
    /// the leading `{"job":<id>` cut off (the id depends on where the
    /// line sits on the wire).
    Ok { outcome: RunOutcome, suffix: String },
    /// A typed `parse` error (computed per wire id: the message names
    /// the line).
    Parse,
}

const JOB_PREFIX: &str = "{\"job\":";

impl Expect {
    /// Build the reference for one line. A valid line the engine
    /// refuses is a benchmark bug, not a program answer: it is an
    /// error here.
    pub fn of(line: &Line) -> Result<Expect, String> {
        match jsonl::parse_job(&line.text, 0) {
            Err(ServeError::Parse { .. }) if line.malformed => Ok(Expect::Parse),
            Err(e) => Err(format!("generated line rejected ({e}): {}", line.text)),
            Ok(_) if line.malformed => Err(format!("malformed line parsed: {}", line.text)),
            Ok(job) => {
                let outcome = run_job(&job).map_err(|e| format!("reference run failed: {e}"))?;
                let full = jsonl::result_line(&result(0, &job, outcome.clone()));
                let suffix = full[JOB_PREFIX.len() + 1..].to_string();
                Ok(Expect::Ok { outcome, suffix })
            }
        }
    }

    /// Is `got` exactly the line a correct server sends for this input
    /// at wire id `id`?
    pub fn matches(&self, line: &Line, id: usize, got: &str) -> bool {
        match self {
            Expect::Ok { suffix, .. } => {
                let Some(rest) = got.strip_prefix(JOB_PREFIX) else {
                    return false;
                };
                let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
                rest[..digits].parse() == Ok(id) && &rest[digits..] == suffix
            }
            Expect::Parse => match jsonl::parse_job(&line.text, id) {
                Err(e) => got == jsonl::parse_error_line(id, &e),
                Ok(_) => false,
            },
        }
    }
}

pub fn references(lines: &[Line]) -> Result<Vec<Expect>, String> {
    lines.iter().map(Expect::of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_lines_are_matched_byte_for_byte() {
        let lines = crate::gen::serve_small(1, 400);
        let refs = references(&lines).expect("references");
        for (i, (l, e)) in lines.iter().zip(&refs).enumerate() {
            let id = 1000 + i;
            let want = match e {
                Expect::Ok { outcome, .. } => {
                    let job = jsonl::parse_job(&l.text, id).expect("valid line");
                    jsonl::result_line(&result(id, &job, outcome.clone()))
                }
                Expect::Parse => {
                    let err = jsonl::parse_job(&l.text, id).expect_err("malformed");
                    jsonl::parse_error_line(id, &err)
                }
            };
            assert!(e.matches(l, id, &want), "{want}");
            assert!(!e.matches(l, id + 1, &want), "wrong id accepted");
            assert!(
                !e.matches(l, id, &format!("{want} ")),
                "trailing byte accepted"
            );
            assert!(
                !e.matches(l, id, &want[..want.len() - 1]),
                "truncation accepted"
            );
        }
    }
}
