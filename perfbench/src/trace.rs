//! In-memory spans around the benchmark's calls into each layer.
//!
//! The program under test carries no tracing; every span here wraps a
//! call the benchmark itself makes (a request on the wire, a replayed
//! `parse_job`, an engine run, …). Spans are kept in memory and written
//! out once, after the traced run, together with each layer's self
//! time: its span durations minus the part covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(base: Instant) -> Self {
        Tracer {
            base,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Record a span whose bounds the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let t = self.now_ns();
        self.record(name, t, t, parent, job)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, job);
        let out = f();
        self.end(id);
        out
    }
}

/// Per-name `(span count, total self time in ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let k = &spans[c];
                (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        // Union of the clipped child intervals: overlapping children
        // (parallel work) are not subtracted twice.
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() - covered;
    }
    out
}

/// Write every span, then the per-layer self-time table, as TSV.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "#span\tid\tname\tstart_ns\tend_ns\tparent\tjob")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "span\t{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.job
        )?;
    }
    writeln!(w, "#self\tname\tspans\tself_ns")?;
    for (name, (n, ns)) in self_times(spans) {
        writeln!(w, "self\t{name}\t{n}\t{ns}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("engine", 30, 70, Some(0)),
            span("fitness", 40, 50, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 50));
        assert_eq!(t["parse"], (1, 10));
        assert_eq!(t["engine"], (1, 30));
        assert_eq!(t["fitness"], (1, 10));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("ring", 100, 200, None),
            // Two islands in parallel: 120..180 covered once.
            span("island", 120, 170, Some(0)),
            span("island", 130, 180, Some(0)),
            // Runs past its parent: only 190..200 is inside it.
            span("flush", 190, 230, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["ring"], (1, 100 - 60 - 10));
        assert_eq!(t["island"], (2, 100));
        assert_eq!(t["flush"], (1, 40));
    }

    #[test]
    fn self_times_sum_by_name() {
        let spans = [
            span("request", 0, 10, None),
            span("request", 20, 25, None),
            span("parse", 2, 4, Some(0)),
        ];
        assert_eq!(self_times(&spans)["request"], (2, 8 + 5));
    }
}
