//! Job packing for the 64-lane `bitsim64` backend, and the tabulated
//! CA-RNG netlist its lane streams come from.
//!
//! The *GA* around the RNG is data-dependent (selection scans, fitness
//! lookups), so the whole GA cannot be bit-sliced; what the served
//! backend takes from the synthesized design is the RNG stream. Two
//! jobs with the same population size and generation count consume RNG
//! draws on an identical, data-independent schedule ([`draws_per_run`]),
//! so up to 64 such jobs form one pack: one seed per lane, and each
//! lane's extracted stream then drives an ordinary behavioral engine
//! via [`StreamRng`].
//!
//! The stream itself comes from the compiled CA-RNG netlist, but not by
//! stepping its gates per pack. The netlist's only state is its 16
//! registers and `rn` is their Q bus, and under `ctl` = consume the D
//! logic ignores the seed bus, so the consume edge is a pure function
//! `Q' = next[Q]` over 65 536 states — the same offline tabulation the
//! paper applies to its fitness ROMs (Table VI). [`CaRngTable`]
//! simulates that edge for every state once, with the compiled netlist
//! itself, and a lane stream is the (zero-guarded) seed followed by
//! table lookups. Because the netlist is gate-level equivalent to
//! `carng::CaRng` (proven by `crates/synth/tests/rng_equivalence.rs`
//! and the golden vectors), a packed lane's result is bit-identical to
//! a solo run. Active lanes are exactly `seeds.len()`: no stream is
//! produced for an unused lane.
//!
//! The table comes from the process-wide
//! [`crate::cache::NetlistCache`], so only the first pack in a process
//! elaborates, compiles and tabulates the netlist.

use std::sync::Arc;

use carng::{Rng16, SnapshotRng};
use ga_core::GaParams;
use ga_synth::bitsim::{BitSim, CompiledNetlist};
use ga_synth::gadesign::elaborate_ca_rng;

use crate::cache::global_cache;

/// Exact number of 16-bit RNG draws one GA run consumes — the packing
/// schedule. Per run: `pop` draws seed the initial population; each
/// generation breeds `pop − 1` offspring in pairs, costing two
/// selection draws plus one crossover-field draw per pair and one
/// mutation-field draw per offspring. Asserted against the engine's
/// own `rng_draws()` instrumentation in the service tests.
pub fn draws_per_run(p: &GaParams) -> u64 {
    let pop = p.pop_size as u64;
    let pairs = (pop - 1).div_ceil(2);
    pop + p.n_gens as u64 * (3 * pairs + (pop - 1))
}

/// `SPREAD[x]` puts bit *i* of `x` into the low bit of byte *i* — the
/// byte-wise transpose that turns 8 lane-packed net bytes into 8 lane
/// bytes without gathering one bit per lane.
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut x = 0;
    while x < 256 {
        let mut i = 0;
        while i < 8 {
            t[x] |= (((x >> i) & 1) as u64) << (8 * i);
            i += 1;
        }
        x += 1;
    }
    t
};

/// Words per net in the tabulating simulation: 256 lanes per pass.
const TAB_WORDS: usize = 4;

/// The compiled CA-RNG netlist with its consume edge tabulated:
/// `next[s]` is the register state one consume edge after state `s`,
/// for all 65 536 states, as simulated by the netlist (never filled
/// from `carng`).
#[derive(Debug)]
pub struct CaRngTable {
    netlist: CompiledNetlist,
    next: Box<[u16]>,
}

impl CaRngTable {
    /// Tabulate `netlist` (the CA-RNG: `seed`/`ctl` in, `rn` out) in
    /// 256 passes of 256 lanes. Each pass drives the seed bus with 256
    /// consecutive states, applies a load edge and checks that `rn`
    /// reads every seed back (so the load path is verified for all
    /// 65 536 seeds), then applies one consume edge and transposes `rn`
    /// into the table.
    ///
    /// # Panics
    /// If the netlist lacks the CA-RNG buses or its load edge does not
    /// latch the seed — a broken design, not a runtime condition.
    pub fn tabulate(netlist: CompiledNetlist) -> Self {
        let seed_bus = netlist.input_bus("seed").expect("seed bus").to_vec();
        let ctl_bus = netlist.input_bus("ctl").expect("ctl bus").to_vec();
        let rn_bus = netlist.output_bus("rn").expect("rn bus").to_vec();
        assert!(
            seed_bus.len() == 16 && rn_bus.len() == 16,
            "the CA-RNG has 16-bit seed and rn buses"
        );
        // Seed bit i of lane k = 64·w + j: bits 0–5 are bit i of j (a
        // fixed pattern per word), bits 6–7 are bit i − 6 of the word
        // index w, bits 8–15 come from the pass.
        let lane_bit = |i: usize| {
            (0..64)
                .filter(|j| (j >> i) & 1 == 1)
                .map(|j| 1u64 << j)
                .sum()
        };
        let ones = |on: bool| if on { u64::MAX } else { 0 };
        let mut seed_words = [[0u64; TAB_WORDS]; 16];
        for (i, words) in seed_words.iter_mut().enumerate().take(8) {
            *words = std::array::from_fn(|w| match i {
                0..=5 => lane_bit(i),
                _ => ones((w >> (i - 6)) & 1 == 1),
            });
        }
        let mut next = vec![0u16; 1 << 16].into_boxed_slice();
        let mut sim = netlist.sim_wide::<TAB_WORDS>();
        for (pass, out) in next.chunks_exact_mut(64 * TAB_WORDS).enumerate() {
            for (i, words) in seed_words.iter_mut().enumerate().skip(8) {
                *words = [ones((pass >> (i - 8)) & 1 == 1); TAB_WORDS];
            }
            for (&net, &words) in seed_bus.iter().zip(&seed_words) {
                sim.set_net_words(net, words);
            }
            sim.set_bus_all(&ctl_bus, 0b01); // ctl[0] = seed_load
            sim.step();
            assert!(
                rn_bus
                    .iter()
                    .zip(&seed_words)
                    .all(|(&n, &w)| sim.net_words(n) == w),
                "the CA-RNG load edge does not latch the seed (pass {pass})"
            );
            sim.set_bus_all(&ctl_bus, 0b10); // ctl[1] = consume
            sim.step();
            let rn: [[u64; TAB_WORDS]; 16] = std::array::from_fn(|i| sim.net_words(rn_bus[i]));
            for (k, lanes) in out.chunks_exact_mut(8).enumerate() {
                let (w, shift) = (k / 8, 8 * (k % 8));
                let spread = |bits: &[[u64; TAB_WORDS]]| -> u64 {
                    bits.iter()
                        .enumerate()
                        .map(|(i, words)| SPREAD[((words[w] >> shift) & 0xFF) as usize] << i)
                        .fold(0, |acc, b| acc | b)
                };
                let (lo, hi) = (spread(&rn[..8]), spread(&rn[8..]));
                for (b, v) in lanes.iter_mut().enumerate() {
                    *v = u16::from_le_bytes([(lo >> (8 * b)) as u8, (hi >> (8 * b)) as u8]);
                }
            }
        }
        CaRngTable { netlist, next }
    }

    /// The compiled netlist the table was simulated from.
    pub fn netlist(&self) -> &CompiledNetlist {
        &self.netlist
    }

    /// The register state one consume edge after state `s`.
    #[inline]
    pub fn next(&self, s: u16) -> u16 {
        self.next[s as usize]
    }
}

/// The tabulated CA-RNG netlist from the process-wide
/// [`NetlistCache`](crate::cache::NetlistCache): elaborated, compiled
/// and tabulated once, a cache hit on every later pack.
fn tabulated_ca() -> Arc<CaRngTable> {
    global_cache().get_or_build(|| {
        CaRngTable::tabulate(
            CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG netlist compiles"),
        )
    })
}

/// Extract `draws` outputs of the CA-RNG netlist per seed —
/// `seeds.len()` complete RNG streams, each walking the tabulated
/// consume edge from its seed. Zero seeds get the RNG module's guard
/// remap (0 → 1), matching `carng::CaRng`.
pub fn ca_lane_streams(seeds: &[u16], draws: usize) -> Vec<Vec<u16>> {
    try_ca_lane_streams(seeds, draws, u64::MAX).expect("unbounded extraction cannot trip")
}

/// [`ca_lane_streams`] under a simulated-step watchdog: `draws` draws
/// are `draws + 1` netlist steps (one load edge plus one per draw); if
/// that exceeds `max_steps` the extraction is refused up front with
/// `Err(max_steps)` — the step count the watchdog charged — so the
/// service can degrade the pack to the behavioral backend instead of
/// allocating an unbounded stream.
pub fn try_ca_lane_streams(
    seeds: &[u16],
    draws: usize,
    max_steps: u64,
) -> Result<Vec<Vec<u16>>, u64> {
    assert!(
        seeds.len() <= BitSim::LANES,
        "{} seeds exceed the {} lanes of one pack",
        seeds.len(),
        BitSim::LANES
    );
    if (draws as u64).saturating_add(1) > max_steps {
        return Err(max_steps);
    }
    let table = tabulated_ca();
    // The rn bus IS the register bank, so after the load edge it reads
    // the seed; sample-then-advance from there matches
    // `Rng16::next_u16` (the first draw after a reseed is the seed).
    Ok(seeds
        .iter()
        .map(|&seed| {
            let mut s = if seed == 0 { 1 } else { seed }; // the RNG module's zero-seed guard
            let mut stream = Vec::with_capacity(draws);
            for _ in 0..draws {
                stream.push(s);
                s = table.next(s);
            }
            stream
        })
        .collect())
}

/// An [`Rng16`] replaying a pre-extracted draw stream — the glue
/// between a bitsim lane and the behavioral engine. The stream must
/// hold exactly the draws the consumer will ask for
/// ([`draws_per_run`]); running past the end is an internal invariant
/// violation and panics.
#[derive(Debug, Clone)]
pub struct StreamRng {
    stream: Vec<u16>,
    pos: usize,
}

impl StreamRng {
    /// Wrap an extracted lane stream.
    pub fn new(stream: Vec<u16>) -> Self {
        assert!(!stream.is_empty(), "an RNG stream cannot be empty");
        StreamRng { stream, pos: 0 }
    }

    /// Draws consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl Rng16 for StreamRng {
    fn output(&self) -> u16 {
        self.stream[self.pos]
    }

    fn step(&mut self) {
        self.pos += 1;
    }

    fn fill_u16s(&mut self, out: &mut [u16]) {
        // Batch replay is a slice copy — the stream already holds the
        // consecutive draws. Panics past the end like `next_u16` would.
        out.copy_from_slice(&self.stream[self.pos..self.pos + out.len()]);
        self.pos += out.len();
    }

    fn reseed(&mut self, seed: u16) {
        // The engine reseeds with the job's seed on construction; the
        // stream's first draw must BE that seed (post zero-guard).
        let expect = if seed == 0 { 1 } else { seed };
        debug_assert_eq!(
            self.stream.first().copied(),
            Some(expect),
            "stream does not start at the reseed value"
        );
        self.pos = 0;
    }
}

impl SnapshotRng for StreamRng {
    fn load(&mut self, consumed: u64, next: u16) -> Result<(), &'static str> {
        // `consumed` is the stream cursor directly; `next` cross-checks
        // the snapshot against the extracted stream, so restoring a
        // behavioral snapshot into the wrong lane (or a corrupted one)
        // is caught instead of silently diverging.
        let pos = usize::try_from(consumed)
            .map_err(|_| "stream snapshot position does not fit in memory")?;
        if pos >= self.stream.len() {
            return Err("stream snapshot position is past the extracted stream");
        }
        if self.stream[pos] != next {
            return Err("snapshot RNG value disagrees with the extracted stream");
        }
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carng::CaRng;

    #[test]
    fn table_is_one_carng_step_for_every_state() {
        let table = tabulated_ca();
        assert_eq!(
            table.next(0),
            0,
            "the all-zero state is the CA's fixed point"
        );
        for s in 1..=u16::MAX {
            let mut reference = CaRng::new(s);
            reference.step();
            assert_eq!(table.next(s), reference.output(), "state {s:#06x}");
        }
    }

    #[test]
    fn table_is_one_maximal_cycle() {
        // Rule 0x055F is maximal-period at gate level: walking the
        // table from 1 visits every nonzero state once before returning.
        let table = tabulated_ca();
        let mut seen = vec![false; 1 << 16];
        let mut s = 1u16;
        for step in 0..u16::MAX {
            assert!(
                s != 0 && !seen[s as usize],
                "state {s:#06x} repeats at step {step}"
            );
            seen[s as usize] = true;
            s = table.next(s);
        }
        assert_eq!(s, 1, "the cycle closes after 65 535 steps");
    }

    #[test]
    fn lane_streams_match_the_reference_rng_at_heavy_length() {
        // A pop-128 / 64-generation job: the stream a stepper extracts.
        let draws = draws_per_run(&GaParams::new(128, 64, 10, 1, 1)) as usize + 1;
        assert_eq!(draws, 20_545);
        let mut packs = vec![vec![0u16, 1, 0xFFFF]];
        packs.push((0..64).map(|k| 0x9E37u16.wrapping_mul(k + 1)).collect());
        for seeds in packs {
            let streams = ca_lane_streams(&seeds, draws);
            assert_eq!(streams.len(), seeds.len());
            for (lane, (&seed, stream)) in seeds.iter().zip(&streams).enumerate() {
                assert_eq!(stream.len(), draws);
                let mut reference = CaRng::new(seed);
                for (k, &v) in stream.iter().enumerate() {
                    assert_eq!(
                        v,
                        reference.next_u16(),
                        "lane {lane} seed {seed:#06x} diverged at draw {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_seed_gets_the_guard_remap() {
        let streams = ca_lane_streams(&[0], 8);
        let mut reference = CaRng::new(0); // remaps to 1 internally
        for &v in &streams[0] {
            assert_eq!(v, reference.next_u16());
        }
        assert_eq!(streams[0][0], 1);
    }

    #[test]
    fn full_64_lane_pack_is_supported() {
        let seeds: Vec<u16> = (1..=64).collect();
        let streams = ca_lane_streams(&seeds, 4);
        assert_eq!(streams.len(), 64);
        for (s, st) in seeds.iter().zip(&streams) {
            assert_eq!(st[0], *s, "first draw is the seed");
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn more_than_64_seeds_rejected() {
        let seeds: Vec<u16> = (0..65).collect();
        let _ = ca_lane_streams(&seeds, 1);
    }

    #[test]
    fn step_watchdog_refuses_oversized_extractions() {
        assert_eq!(try_ca_lane_streams(&[1], 100, 10), Err(10));
        let ok = try_ca_lane_streams(&[1], 9, 10).expect("9 draws + 1 load step fit in 10");
        assert_eq!(ok[0].len(), 9);
    }

    #[test]
    fn stream_rng_replays_and_reseeds() {
        let mut r = StreamRng::new(vec![7, 8, 9]);
        assert_eq!(r.next_u16(), 7);
        assert_eq!(r.next_u16(), 8);
        assert_eq!(r.consumed(), 2);
        r.reseed(7);
        assert_eq!(r.next_u16(), 7);
    }

    #[test]
    fn stream_rng_snapshot_load_is_checked() {
        let mut r = StreamRng::new(vec![7, 8, 9]);
        r.next_u16();
        assert_eq!(r.save(), 8);
        // Reposition by (consumed, next) — the cross-backend contract.
        let mut other = StreamRng::new(vec![7, 8, 9]);
        other.load(1, 8).expect("valid position");
        assert_eq!(other.next_u16(), 8);
        assert!(other.load(1, 9).is_err(), "value mismatch is typed");
        assert!(other.load(3, 7).is_err(), "past-the-end is typed");
        assert_eq!(other.consumed(), 2, "failed loads leave the cursor");
    }

    #[test]
    fn draw_formula_even_and_odd_pops() {
        // pop 8: init 8, per gen 3·ceil(7/2) + 7 = 19.
        assert_eq!(draws_per_run(&GaParams::new(8, 2, 10, 1, 1)), 8 + 2 * 19);
        // pop 15 (odd): per gen 3·7 + 14 = 35.
        assert_eq!(draws_per_run(&GaParams::new(15, 3, 10, 1, 1)), 15 + 3 * 35);
    }
}
