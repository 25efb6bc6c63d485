//! The `bitsim64` backend's RNG: the tabulated CA-RNG netlist and the
//! [`TableRng`] that walks it.
//!
//! The *GA* around the RNG is data-dependent (selection scans, fitness
//! lookups), so the whole GA cannot be bit-sliced; what the backend
//! takes from the synthesized design is the RNG, which the paper keeps
//! behind the core as its own module (Fig. 4).
//!
//! The RNG comes from the compiled CA-RNG netlist, but not by stepping
//! its gates per job. The netlist's only state is its 16 registers and
//! `rn` is their Q bus, and under `ctl` = consume the D logic ignores
//! the seed bus, so the consume edge is a pure function `Q' = next[Q]`
//! over 65 536 states — the same offline tabulation the paper applies
//! to its fitness ROMs (Table VI). [`CaRngTable`] simulates that edge
//! for every state once, with the compiled netlist itself, and a
//! [`TableRng`] is the (zero-guarded) seed followed by one table lookup
//! per draw, taken as the engine asks for it. Because the netlist is
//! gate-level equivalent to `carng::CaRng` (proven by
//! `crates/synth/tests/rng_equivalence.rs` and the golden vectors), a
//! `bitsim64` run is bit-identical to a behavioral one.
//!
//! The table comes from the process-wide
//! [`crate::cache::NetlistCache`], so only the first run in a process
//! elaborates, compiles and tabulates the netlist.

use std::sync::Arc;

use carng::{Rng16, SnapshotRng};
use ga_synth::bitsim::{BitSim, CompiledNetlist};
use ga_synth::gadesign::elaborate_ca_rng;

use crate::cache::global_cache;

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
/// and tabulated once, a cache hit on every later run.
fn tabulated_ca() -> Arc<CaRngTable> {
    global_cache().get_or_build(|| {
        CaRngTable::tabulate(
            CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG netlist compiles"),
        )
    })
}

/// The CA-RNG's period: every nonzero state lies on one cycle.
const PERIOD: u64 = u16::MAX as u64;

/// An [`Rng16`] that walks the tabulated CA-RNG netlist: the output is
/// the register state, a step is one [`CaRngTable::next`] lookup. It
/// holds no stream, so a run of any length costs three words of RNG
/// state.
#[derive(Clone)]
pub struct TableRng {
    table: Arc<CaRngTable>,
    seed: u16,
    state: u16,
}

impl TableRng {
    /// A generator over the process-wide table, seeded with `seed`.
    pub fn new(seed: u16) -> Self {
        Self::on(tabulated_ca(), seed)
    }

    fn on(table: Arc<CaRngTable>, seed: u16) -> Self {
        let mut rng = TableRng {
            table,
            seed: 0,
            state: 0,
        };
        rng.reseed(seed);
        rng
    }
}

impl Rng16 for TableRng {
    // The rn bus IS the register bank, so after the load edge it reads
    // the seed; sample-then-advance from there matches `CaRng` (the
    // first draw after a reseed is the seed).
    fn output(&self) -> u16 {
        self.state
    }

    fn step(&mut self) {
        self.state = self.table.next(self.state);
    }

    fn reseed(&mut self, seed: u16) {
        let seed = if seed == 0 { 1 } else { seed }; // the RNG module's zero-seed guard
        self.seed = seed;
        self.state = seed;
    }
}

impl SnapshotRng for TableRng {
    fn load(&mut self, consumed: u64, next: u16) -> Result<(), &'static str> {
        // `next` must be the state `consumed` table steps after the
        // seed, so restoring a snapshot into the wrong island (or a
        // corrupted one) is caught instead of silently diverging. The
        // walk wraps at the period: at most 65 534 lookups.
        let mut s = self.seed;
        for _ in 0..consumed % PERIOD {
            s = self.table.next(s);
        }
        if s != next {
            return Err("snapshot RNG value disagrees with the seed's CA-RNG stream");
        }
        self.state = s;
        Ok(())
    }
}

/// Draw `draws` outputs of the CA-RNG netlist per seed — `seeds.len()`
/// [`TableRng`] streams over one table (at most one pack of 64).
pub fn ca_lane_streams(seeds: &[u16], draws: usize) -> Vec<Vec<u16>> {
    assert!(
        seeds.len() <= BitSim::LANES,
        "{} seeds exceed the {} lanes of one pack",
        seeds.len(),
        BitSim::LANES
    );
    let table = tabulated_ca();
    seeds
        .iter()
        .map(|&seed| {
            let mut rng = TableRng::on(Arc::clone(&table), seed);
            (0..draws).map(|_| rng.next_u16()).collect()
        })
        .collect()
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
        for step in 0..PERIOD {
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
        // The draws of a pop-128 / 64-generation run, plus one.
        let draws = 20_545;
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
    fn table_rng_reseeds_with_the_zero_guard() {
        let mut r = TableRng::new(7);
        assert_eq!(r.next_u16(), 7);
        r.reseed(0);
        let mut reference = CaRng::new(0);
        for _ in 0..4 {
            assert_eq!(r.next_u16(), reference.next_u16());
        }
    }

    #[test]
    fn table_rng_load_checks_the_seed_stream() {
        let mut reference = CaRng::new(0x2961);
        let stream: Vec<u16> = (0..8).map(|_| reference.next_u16()).collect();
        let mut r = TableRng::new(0x2961);
        r.next_u16();
        assert_eq!(r.save(), stream[1]);
        // Reposition by (consumed, next) — the cross-backend contract.
        let mut other = TableRng::new(0x2961);
        other.load(5, stream[5]).expect("on the seed's stream");
        assert_eq!(other.next_u16(), stream[5]);
        assert_eq!(
            other.load(5, stream[6]),
            Err("snapshot RNG value disagrees with the seed's CA-RNG stream"),
            "a pair off the stream is typed"
        );
        assert_eq!(other.save(), stream[6], "a failed load leaves the state");
        let mut lane = TableRng::new(0x2962);
        assert!(lane.load(5, stream[5]).is_err(), "another seed's stream");
        // The stream is one 65 535-state cycle, so positions wrap.
        other.load(PERIOD + 3, stream[3]).expect("one period later");
        assert_eq!(other.next_u16(), stream[3]);
    }
}
