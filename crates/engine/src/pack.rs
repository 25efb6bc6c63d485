//! Job packing for the 64-lane `bitsim64` backend.
//!
//! The compiled netlist engine (`ga_synth::bitsim`) advances 64
//! independent CA-RNG simulations per pass — but the *GA* around the
//! RNG is data-dependent (selection scans, fitness lookups), so the
//! whole GA cannot be bit-sliced. What CAN be shared is the expensive
//! part the netlist actually models: the RNG stream. Two jobs with the
//! same population size and generation count consume RNG draws on an
//! identical, data-independent schedule ([`draws_per_run`]), so up to
//! 64 such jobs are packed into **one** lockstep run of the compiled
//! CA-RNG netlist — one seed per lane — and each lane's extracted
//! stream then drives an ordinary behavioral engine via [`StreamRng`].
//! Because the netlist is gate-level equivalent to `carng::CaRng`
//! (proven by `crates/synth/tests/rng_equivalence.rs` and the golden
//! vectors), a packed lane's result is bit-identical to a solo run.
//!
//! Packs smaller than the lane count leave the tail lanes *unseeded*:
//! they hold the CA's all-zero fixed point, never produce a stream,
//! and never touch results or metrics — the padding-skew fix. Active
//! lanes are exactly `seeds.len()`.
//!
//! The compiled netlist itself comes from the process-wide
//! [`crate::cache::NetlistCache`], so repeat packs skip validation,
//! topological sorting, and flattening entirely.

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

/// The compiled CA-RNG netlist from the process-wide
/// [`NetlistCache`](crate::cache::NetlistCache): compiled once, a cache
/// hit on every later pack.
fn compiled_ca() -> Arc<CompiledNetlist> {
    global_cache().get_or_compile(|| {
        CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG netlist compiles")
    })
}

/// Run the compiled CA-RNG netlist with one seed per lane and extract
/// `draws` outputs per seeded lane — `seeds.len()` complete RNG streams
/// from one bit-sliced simulation. Zero seeds get the RNG module's
/// guard remap (0 → 1), matching `carng::CaRng`; *unseeded* tail lanes
/// stay at the CA's all-zero fixed point and are never read.
pub fn ca_lane_streams(seeds: &[u16], draws: usize) -> Vec<Vec<u16>> {
    try_ca_lane_streams(seeds, draws, u64::MAX).expect("unbounded extraction cannot trip")
}

/// [`ca_lane_streams`] under a simulated-step watchdog: extracting
/// `draws` draws costs `draws + 1` netlist steps (one load edge plus
/// one per draw); if the run would exceed `max_steps` the extraction is
/// refused up front with `Err(max_steps)` — the step count the watchdog
/// charged — so the service can degrade the pack to the behavioral
/// backend instead of burning an unbounded amount of host time.
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
    let cn = compiled_ca();
    let seed_bus = cn.input_bus("seed").expect("seed bus").to_vec();
    let ctl_bus = cn.input_bus("ctl").expect("ctl bus").to_vec();
    let rn_bus = cn.output_bus("rn").expect("rn bus").to_vec();

    let mut sim = cn.sim();
    for (lane, &s) in seeds.iter().enumerate() {
        let s = if s == 0 { 1 } else { s }; // the RNG module's zero-seed guard
        sim.set_bus_lane(&seed_bus, lane, s as u64);
    }
    sim.set_bus_all(&ctl_bus, 0b01); // ctl[0] = seed_load
    sim.step();
    sim.set_bus_all(&ctl_bus, 0b10); // ctl[1] = consume

    // The rn output bus IS the register bank, so after the load edge it
    // already reads the seed; sample-then-advance from here on matches
    // `Rng16::next_u16` (first draw after reseed is the seed itself).
    // Per step, the 16 lane-packed bus words are read once and every
    // active lane's draw is assembled from them — 16 net reads per step
    // instead of 16 per lane per step.
    let mut streams: Vec<Vec<u16>> = (0..seeds.len())
        .map(|_| Vec::with_capacity(draws))
        .collect();
    let mut words = [0u64; 16];
    for _ in 0..draws {
        for (w, &n) in words.iter_mut().zip(&rn_bus) {
            *w = sim.net(n);
        }
        for (lane, stream) in streams.iter_mut().enumerate() {
            let mut v = 0u16;
            for (bit, w) in words.iter().enumerate() {
                v |= (((w >> lane) & 1) as u16) << bit;
            }
            stream.push(v);
        }
        sim.step();
    }
    Ok(streams)
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
    fn lane_streams_match_the_reference_rng() {
        let seeds = [0xB342u16, 0x2961, 0x061F, 1, 0xFFFF];
        let streams = ca_lane_streams(&seeds, 200);
        assert_eq!(streams.len(), seeds.len());
        for (lane, (&seed, stream)) in seeds.iter().zip(&streams).enumerate() {
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
