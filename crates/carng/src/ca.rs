//! The hybrid rule-90/150 cellular-automaton PRNG.
//!
//! One-dimensional binary CA over 16 cells with **null boundary**
//! conditions (virtual zero cells beyond each end). Each cell applies
//! either elementary rule 90 (`next = left XOR right`) or rule 150
//! (`next = left XOR self XOR right`), chosen per-cell by a fixed rule
//! vector. Hortensius et al. showed that suitable hybrid vectors give a
//! state-transition graph that is a single cycle through all 2^n − 1
//! nonzero states — the same guarantee as a maximal LFSR but with far
//! less cross-correlation between neighboring bit streams, which is why
//! CA PRNGs are popular in hardware GAs (Scott et al., Shackleford et
//! al., and the paper all use one).
//!
//! Because the update of every cell depends only on the 3-neighborhood,
//! the whole step is three shifts and two XORs on a `u16` — precisely
//! the one-LUT-per-cell structure the FPGA implementation has.

use crate::{Rng16, SnapshotRng};

/// Rule vector found by exhaustive search over all 2^16 hybrid vectors:
/// bit *i* = 1 means cell *i* applies rule 150, otherwise rule 90. This
/// vector has eight rule-150 cells and gives the maximal period
/// 2^16 − 1 = 65535 (asserted by `tests::maximal_period`).
pub const MAXIMAL_RULE_VECTOR: u16 = 0x055F;

/// The 16-cell hybrid rule-90/150 CA PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaRng {
    state: u16,
    rules: u16,
}

impl CaRng {
    /// Construct with the maximal-length rule vector. A zero seed is the
    /// CA's only fixed point and would jam the generator, so it is
    /// remapped to `0x0001` — the same guard the paper's RNG module
    /// needs, since the seed register is user-programmable.
    pub fn new(seed: u16) -> Self {
        Self::with_rules(seed, MAXIMAL_RULE_VECTOR)
    }

    /// Construct with an explicit rule vector (for RNG-quality
    /// experiments with deliberately poor generators, cf. §II-C).
    pub fn with_rules(seed: u16, rules: u16) -> Self {
        CaRng {
            state: if seed == 0 { 1 } else { seed },
            rules,
        }
    }

    /// One synchronous CA step.
    #[inline(always)]
    pub fn step_state(state: u16, rules: u16) -> u16 {
        // cell i: left neighbor = bit i+1, right neighbor = bit i-1,
        // null boundary = zeros shifted in at both ends.
        ((state >> 1) ^ (state << 1)) ^ (state & rules)
    }

    /// The rule vector in use.
    pub fn rules(&self) -> u16 {
        self.rules
    }

    /// Jump the stream forward by `steps` steps in O(log steps), without
    /// generating the values in between. The hybrid rule-90/150 update
    /// is linear over GF(2), so `steps` steps are the one-step matrix
    /// raised to `steps`: the state is multiplied by its squarings
    /// `M^(2^i)` for every set bit `i` of `steps`.
    pub fn jump(&mut self, mut steps: u64) {
        // Row `i` masks the state bits whose parity is next-state bit
        // `i`; column `j` is one step from the unit state `1 << j`.
        let mut m: [u16; 16] = std::array::from_fn(|i| {
            (0..16).fold(0, |row, j| {
                row | ((Self::step_state(1 << j, self.rules) >> i) & 1) << j
            })
        });
        while steps > 0 {
            if steps & 1 == 1 {
                let v = self.state;
                self.state = (0..16).fold(0, |out, i| {
                    out | (((m[i] & v).count_ones() & 1) as u16) << i
                });
            }
            // M² row i: the XOR of M's rows selected by M's row i.
            m = std::array::from_fn(|i| {
                (0..16)
                    .filter(|&k| (m[i] >> k) & 1 == 1)
                    .fold(0, |acc, k| acc ^ m[k])
            });
            steps >>= 1;
        }
    }
}

impl Rng16 for CaRng {
    #[inline(always)]
    fn output(&self) -> u16 {
        self.state
    }

    #[inline(always)]
    fn step(&mut self) {
        self.state = Self::step_state(self.state, self.rules);
    }

    fn reseed(&mut self, seed: u16) {
        self.state = if seed == 0 { 1 } else { seed };
    }

    fn fill_u16s(&mut self, out: &mut [u16]) {
        // Keep the state in a register for the whole batch instead of
        // loading/storing `self.state` once per draw.
        let mut s = self.state;
        let rules = self.rules;
        for slot in out {
            *slot = s;
            s = Self::step_state(s, rules);
        }
        self.state = s;
    }
}

impl SnapshotRng for CaRng {
    fn load(&mut self, _consumed: u64, next: u16) -> Result<(), &'static str> {
        // The state register IS the next output; the draw count is not
        // needed to reposition a free-running CA. Zero is the CA's fixed
        // point and can never appear in a maximal-cycle stream, so a
        // zero `next` marks a corrupted snapshot rather than a position.
        if next == 0 {
            return Err("CA snapshot has the unreachable all-zero state");
        }
        self.state = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_draw_is_the_seed() {
        let mut rng = CaRng::new(0xB342);
        assert_eq!(rng.next_u16(), 0xB342);
        assert_ne!(rng.next_u16(), 0xB342);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = CaRng::new(0);
        assert_eq!(rng.next_u16(), 1);
        assert_ne!(
            rng.output(),
            0,
            "CA must never enter the all-zero fixed point"
        );
        rng.reseed(0);
        assert_eq!(rng.output(), 1);
    }

    #[test]
    fn jump_equals_stepping() {
        // Past one period too, and on a non-maximal rule vector.
        for rules in [MAXIMAL_RULE_VECTOR, 0x1234] {
            for steps in [0u64, 1, 2, 63, 1000, 65_535, 123_456] {
                let mut jumper = CaRng::with_rules(0xB342, rules);
                let mut stepper = jumper.clone();
                jumper.jump(steps);
                for _ in 0..steps {
                    stepper.step();
                }
                assert_eq!(jumper, stepper, "rules {rules:#06x}, steps {steps}");
            }
        }
    }

    #[test]
    fn maximal_period() {
        // The chosen rule vector must cycle through all 65535 nonzero
        // states before returning to the seed.
        let seed = 1u16;
        let mut s = CaRng::step_state(seed, MAXIMAL_RULE_VECTOR);
        let mut n: u32 = 1;
        while s != seed {
            s = CaRng::step_state(s, MAXIMAL_RULE_VECTOR);
            n += 1;
            assert!(n <= 65535, "period exceeds the state space — impossible");
        }
        assert_eq!(n, 65535);
    }

    #[test]
    fn visits_every_nonzero_state() {
        let mut seen = vec![false; 1 << 16];
        let mut rng = CaRng::new(0x2961);
        for _ in 0..65535 {
            let v = rng.next_u16();
            assert!(!seen[v as usize], "state {v:#06x} repeated early");
            seen[v as usize] = true;
        }
        assert!(!seen[0], "all-zero state must be unreachable");
        assert_eq!(seen.iter().filter(|&&b| b).count(), 65535);
    }

    #[test]
    fn zero_state_is_fixed_point() {
        assert_eq!(CaRng::step_state(0, MAXIMAL_RULE_VECTOR), 0);
    }

    #[test]
    fn step_is_linear_over_gf2() {
        // next(a ^ b) == next(a) ^ next(b) — the CA update is linear,
        // which is what makes the maximal-period argument an LFSR-style
        // primitive-polynomial property.
        let r = MAXIMAL_RULE_VECTOR;
        for a in [0x0001u16, 0x8000, 0x1234, 0xFFFF, 0x0F0F] {
            for b in [0x0002u16, 0x4000, 0xABCD, 0x00FF] {
                assert_eq!(
                    CaRng::step_state(a ^ b, r),
                    CaRng::step_state(a, r) ^ CaRng::step_state(b, r)
                );
            }
        }
    }

    #[test]
    fn rule_90_only_vector_behaves_as_documented() {
        // With rules == 0 every cell is rule 90: next = left ^ right.
        let s = 0b0000_0000_0001_0000u16;
        let next = CaRng::step_state(s, 0);
        assert_eq!(next, 0b0000_0000_0010_1000);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = CaRng::new(0x2961);
        let mut b = CaRng::new(0x061F);
        let stream_a: Vec<u16> = (0..32).map(|_| a.next_u16()).collect();
        let stream_b: Vec<u16> = (0..32).map(|_| b.next_u16()).collect();
        assert_ne!(stream_a, stream_b);
    }

    #[test]
    fn fill_u16s_matches_repeated_next() {
        let mut batched = CaRng::new(0x2961);
        let mut stepped = CaRng::new(0x2961);
        let mut buf = [0u16; 97]; // non-power-of-two to catch edge bugs
        batched.fill_u16s(&mut buf);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, stepped.next_u16(), "diverged at draw {i}");
        }
        // The batch must leave the generator where the loop left it.
        assert_eq!(batched.next_u16(), stepped.next_u16());
        // Empty batch is a no-op.
        batched.fill_u16s(&mut []);
        assert_eq!(batched.output(), stepped.output());
    }

    #[test]
    fn reseed_restarts_the_stream() {
        let mut rng = CaRng::new(0xAAAA);
        let first: Vec<u16> = (0..8).map(|_| rng.next_u16()).collect();
        rng.reseed(0xAAAA);
        let second: Vec<u16> = (0..8).map(|_| rng.next_u16()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn snapshot_save_load_resumes_the_stream() {
        let mut rng = CaRng::new(0x2961);
        for _ in 0..7 {
            rng.next_u16();
        }
        let next = rng.save();
        let tail: Vec<u16> = (0..8).map(|_| rng.next_u16()).collect();
        // Restore into a generator seeded with something unrelated.
        let mut fresh = CaRng::new(0xFFFF);
        fresh.load(7, next).unwrap();
        let resumed: Vec<u16> = (0..8).map(|_| fresh.next_u16()).collect();
        assert_eq!(tail, resumed);
    }

    #[test]
    fn zero_snapshot_is_rejected() {
        let mut rng = CaRng::new(1);
        assert!(rng.load(0, 0).is_err());
        assert_eq!(rng.output(), 1, "failed load must not disturb state");
    }
}
