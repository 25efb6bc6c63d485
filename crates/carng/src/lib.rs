//! # carng — hardware-style pseudo-random number generators
//!
//! The paper's GA IP core consumes random numbers from a 16-bit
//! **cellular-automaton (CA) PRNG**, "similar to the implementation in
//! \[Scott et al. 1995\]" — a one-dimensional hybrid rule-90/150 CA with
//! null boundaries, the construction introduced by Hortensius et al. for
//! built-in self-test hardware. Table I of the paper classifies prior
//! work by RNG ("CA/fixed", "LSHR/fixed"); the proposed core is the only
//! one with a *programmable* seed (plus three built-in presets).
//!
//! This crate provides:
//!
//! * [`CaRng`] — the 16-cell hybrid rule-90/150 CA with a rule vector
//!   found by exhaustive search to have the maximal period of
//!   2^16 − 1 (every nonzero state lies on one cycle);
//! * [`Lfsr16`] — a Galois LFSR, the "LSHR" alternative used by
//!   Tommiska & Vuori, for the RNG-quality comparisons of §II-C;
//! * [`seeds`] — the paper's experimental seeds (Tables V and VII–IX)
//!   and the core's three built-in preset seeds;
//! * [`stats`] — period measurement, chi-square uniformity, serial
//!   correlation and bit-balance statistics, used to reproduce the
//!   §II-C discussion about RNG quality and GA performance.
//!
//! The generators are deliberately dependency-free with no allocation in
//! the hot path, because they are *inside* the hardware model: each
//! `next_u16` corresponds to reading the RNG module's output register
//! and pulsing its consume/enable input.

#![forbid(unsafe_code)]

pub mod ca;
pub mod lfsr;
pub mod seeds;
pub mod stats;
pub mod wide;

pub use ca::CaRng;
pub use lfsr::Lfsr16;
pub use wide::CaRngW;

/// A 16-bit hardware-style PRNG: an output register plus an advance
/// (consume) operation.
///
/// `next_u16` returns the **current** output register and then steps the
/// generator — exactly what the GA core does in hardware: it samples the
/// `rn` input port and pulses the RNG's enable line. Consequently the
/// first value drawn after seeding is the seed itself; this is
/// observable in the generated initial population and is asserted by
/// tests so the behavioral and cycle-accurate models can never drift.
pub trait Rng16 {
    /// Current output register (does not advance).
    fn output(&self) -> u16;

    /// Advance one step (the enable pulse).
    fn step(&mut self);

    /// Reload the seed register.
    fn reseed(&mut self, seed: u16);

    /// Sample-then-advance.
    fn next_u16(&mut self) -> u16 {
        let v = self.output();
        self.step();
        v
    }

    /// Batch draw: fill `out` with consecutive samples, exactly as if
    /// by repeated [`Rng16::next_u16`] calls. The default is the naive
    /// loop; concrete generators override it with a register-resident
    /// loop (no per-draw `self` round trip), which is what the 64-lane
    /// netlist-simulation stimulus builder and the sweep harness call.
    fn fill_u16s(&mut self, out: &mut [u16]) {
        for slot in out {
            *slot = self.next_u16();
        }
    }

    /// Draw a 4-bit field from the "predefined position" the paper's
    /// core uses for threshold comparisons (crossover/mutation
    /// decisions): the low nibble of a fresh 16-bit draw.
    fn next_nibble(&mut self) -> u8 {
        (self.next_u16() & 0xF) as u8
    }
}

/// A [`Rng16`] whose stream position can be captured and restored — the
/// contract the engine checkpoint/resume machinery builds on.
///
/// A snapshot is the pair *(consumed, next)*: how many draws the engine
/// has taken so far and the value the **next** `next_u16` call will
/// return. That pair is backend-neutral: for register generators
/// ([`CaRng`], [`Lfsr16`]) the next output *is* the state, so `load`
/// simply reinstalls it (ignoring `consumed`); the engine crate's
/// `TableRng` walks `consumed` steps from its seed and checks that it
/// lands on `next`. Restoring a behavioral snapshot into a table-backed
/// stepper (or vice versa) therefore works, which is what makes
/// cross-backend resume possible.
pub trait SnapshotRng: Rng16 {
    /// The value the next `next_u16` call will return.
    fn save(&self) -> u16 {
        self.output()
    }

    /// Reposition the generator so the next draw returns `next` after
    /// `consumed` draws have already been taken. Returns a typed error
    /// (never panics) when the pair is not a reachable position for
    /// this generator.
    fn load(&mut self, consumed: u64, next: u16) -> Result<(), &'static str>;
}
