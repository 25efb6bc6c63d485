//! Seeded job-line generators for the three workloads.
//!
//! Every workload is a pure function of `--seed`: the same seed gives
//! byte-identical job lines, and the program under test only ever sees
//! those lines (or, for the island ring, the job parsed from its line).

use ga_core::islands::IslandConfig;
use ga_core::GaParams;
use ga_fitness::TestFunction;
use ga_serve::{jsonl, BackendKind, GaJob};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

/// One generated request line. `malformed` lines must come back as a
/// typed `parse` error; every other line must come back `ok`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    pub text: String,
    pub malformed: bool,
}

/// Population/generation shapes named in the benchmark's metrics.
pub const SMALL: (u8, u32) = (8, 2);
pub const HEAVY: (u8, u32) = (128, 64);
pub const RTL: (u8, u32) = (32, 16);

/// Share of generated lines that are deliberately malformed (per mille).
pub const MALFORMED_PER_MILLE: u64 = 10;

fn job(rng: &mut SplitMix, backend: BackendKind, (pop, gens): (u8, u32)) -> GaJob {
    let function = TestFunction::ALL[rng.below(6) as usize];
    let params = GaParams {
        pop_size: pop,
        n_gens: gens,
        xover_threshold: rng.range(8, 14) as u8,
        mut_threshold: rng.range(1, 3) as u8,
        seed: rng.next_u64() as u16,
    };
    if backend == BackendKind::Rtl32 {
        GaJob::new32(function, params)
    } else {
        GaJob::new(function, backend, params)
    }
}

/// A line the JSONL parser must reject with a typed `parse` error:
/// truncation, an unknown function, an out-of-range field, an unknown
/// key, or a duplicated key.
fn malformed(rng: &mut SplitMix, valid: &str) -> String {
    match rng.below(5) {
        0 => {
            let cut = rng.range(1, valid.len() as u64 - 2) as usize;
            valid[..cut].to_string()
        }
        1 => valid.replacen("\"fn\":\"", "\"fn\":\"Rosenbrock", 1),
        2 => valid.replacen("\"pop\":", "\"pop\":1000", 1),
        3 => valid.replacen('}', ",\"priority\":1}", 1),
        _ => valid.replacen('}', ",\"seed\":7}", 1),
    }
}

fn emit(rng: &mut SplitMix, job: &GaJob) -> Line {
    let text = jsonl::job_line(job);
    if rng.chance(MALFORMED_PER_MILLE) {
        Line {
            text: malformed(rng, &text),
            malformed: true,
        }
    } else {
        Line {
            text,
            malformed: false,
        }
    }
}

/// `serve-small`: tiny jobs (pop 8, gens 2, all six functions) mixed
/// 4:2:2 over `behavioral`, `bitsim64` and `swga`, ~1 % malformed.
pub fn serve_small(seed: u64, n: usize) -> Vec<Line> {
    const MIX: [BackendKind; 8] = [
        BackendKind::Behavioral,
        BackendKind::Behavioral,
        BackendKind::Behavioral,
        BackendKind::Behavioral,
        BackendKind::BitSim64,
        BackendKind::BitSim64,
        BackendKind::Swga,
        BackendKind::Swga,
    ];
    let mut rng = SplitMix::new(seed ^ 0x5e7e_5a11);
    (0..n)
        .map(|_| {
            let backend = MIX[rng.below(MIX.len() as u64) as usize];
            let j = job(&mut rng, backend, SMALL);
            emit(&mut rng, &j)
        })
        .collect()
}

/// Jobs per `batch-heavy` batch, by backend and shape. Sized so no
/// backend takes more than half of the single-thread engine time.
pub const HEAVY_BATCH: [(BackendKind, (u8, u32), usize); 5] = [
    (BackendKind::Behavioral, HEAVY, 3),
    (BackendKind::Swga, HEAVY, 3),
    (BackendKind::BitSim64, HEAVY, 3),
    (BackendKind::RtlInterp, RTL, 1),
    (BackendKind::Rtl32, RTL, 1),
];

/// `batch-heavy`: `batches` batches of the [`HEAVY_BATCH`] composition
/// in a seeded order, each line ~1 % malformed.
pub fn batch_heavy(seed: u64, batches: usize) -> Vec<Vec<Line>> {
    let mut rng = SplitMix::new(seed ^ 0xba7c_4ea7);
    (0..batches)
        .map(|_| {
            let mut lines: Vec<Line> = HEAVY_BATCH
                .iter()
                .flat_map(|&(b, shape, n)| std::iter::repeat_n((b, shape), n))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|(b, shape)| {
                    let j = job(&mut rng, b, shape);
                    emit(&mut rng, &j)
                })
                .collect();
            // Fisher–Yates: the batch order is part of the input.
            for i in (1..lines.len()).rev() {
                lines.swap(i, rng.below(i as u64 + 1) as usize);
            }
            lines
        })
        .collect()
}

/// Island ring shape: 2 islands, pop 64, 8 generations per epoch.
pub const RING_ISLANDS: usize = 2;
pub const RING_POP: u8 = 64;
pub const RING_EPOCH: u32 = 8;
/// Enough epochs that no run reaches the end of the schedule.
pub const RING_EPOCHS: u32 = 1_000_000;

/// The ring's fitness function, fixed so that the seed moves the
/// population and operator draws but not the cost of a barrier.
pub const RING_FN: TestFunction = TestFunction::Bf6;

/// `islands-ring`: the island job line (behavioral members).
pub fn island_ring(seed: u64) -> Line {
    let mut rng = SplitMix::new(seed ^ 0x151a_4d00);
    let params = GaParams {
        pop_size: RING_POP,
        n_gens: RING_EPOCH * RING_EPOCHS,
        xover_threshold: rng.range(8, 14) as u8,
        mut_threshold: rng.range(1, 3) as u8,
        seed: rng.next_u64() as u16,
    };
    let j = GaJob::new(RING_FN, BackendKind::Behavioral, params).with_islands(IslandConfig {
        islands: RING_ISLANDS,
        epoch: RING_EPOCH,
        epochs: RING_EPOCHS,
    });
    Line {
        text: jsonl::job_line(&j),
        malformed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_serve::ServeError;

    #[test]
    fn same_seed_same_lines() {
        assert_eq!(serve_small(7, 500), serve_small(7, 500));
        assert_eq!(batch_heavy(7, 8), batch_heavy(7, 8));
        assert_eq!(island_ring(7), island_ring(7));
        assert_ne!(serve_small(7, 500), serve_small(8, 500));
        assert_ne!(batch_heavy(7, 8), batch_heavy(8, 8));
    }

    #[test]
    fn malformed_lines_are_typed_parse_errors_and_the_rest_parse() {
        let lines = serve_small(3, 20_000);
        let bad = lines.iter().filter(|l| l.malformed).count();
        assert!((100..=300).contains(&bad), "~1 % malformed, got {bad}");
        for (i, l) in lines.iter().enumerate() {
            match jsonl::parse_job(&l.text, i) {
                Ok(job) => {
                    assert!(!l.malformed, "{}", l.text);
                    assert!(job.validate().is_ok(), "{}", l.text);
                }
                Err(ServeError::Parse { .. }) => assert!(l.malformed, "{}", l.text),
                Err(e) => panic!("untyped rejection {e} for {}", l.text),
            }
        }
    }

    #[test]
    fn heavy_batches_follow_the_composition() {
        for batch in batch_heavy(11, 16) {
            assert_eq!(batch.len(), 11);
            for kind in [BackendKind::RtlInterp, BackendKind::Rtl32] {
                let n = batch
                    .iter()
                    .filter(|l| l.text.contains(&format!("\"backend\":\"{}\"", kind.name())))
                    .count();
                assert!(n <= 1);
            }
        }
    }

    #[test]
    fn island_line_parses_to_the_ring_schedule() {
        let job = jsonl::parse_job(&island_ring(5).text, 0).expect("island line parses");
        let cfg = job.islands.expect("island schedule");
        assert_eq!((cfg.islands, cfg.epoch), (RING_ISLANDS, RING_EPOCH));
        assert_eq!(job.params.n_gens, cfg.epoch * cfg.epochs);
    }
}
