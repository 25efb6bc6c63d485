//! Population analytics: the quantitative form of the paper's
//! convergence plots.
//!
//! Figs. 8–12 visualize convergence as the *set of distinct fitness
//! values* per generation shrinking ("as the population converges to
//! the best few candidates in the latter generations, the number of
//! points will be decreased"). This module turns that visual into
//! numbers: distinct-candidate counts, mean pairwise Hamming distance,
//! fitness entropy, and takeover time — computed per generation from a
//! population snapshot — plus Table V's convergence generation, the one
//! implementation of that rule every engine reports.

use crate::behavioral::Individual;

/// Diversity metrics of one population snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diversity {
    /// Number of distinct chromosomes.
    pub distinct_chromosomes: usize,
    /// Number of distinct fitness values (what Figs. 8–12 plot).
    pub distinct_fitness: usize,
    /// Mean pairwise Hamming distance between chromosomes (0..=16).
    pub mean_hamming: f64,
    /// Shannon entropy of the fitness distribution, in bits.
    pub fitness_entropy: f64,
    /// Fraction of the population equal to the best individual's
    /// chromosome (1.0 = fully taken over).
    pub takeover_fraction: f64,
}

/// Compute diversity metrics for a population.
pub fn diversity(pop: &[Individual]) -> Diversity {
    assert!(!pop.is_empty(), "population must be non-empty");
    let n = pop.len();

    let mut chroms: Vec<u16> = pop.iter().map(|i| i.chrom).collect();
    chroms.sort_unstable();
    let mut distinct_chromosomes = 1;
    for w in chroms.windows(2) {
        if w[0] != w[1] {
            distinct_chromosomes += 1;
        }
    }

    let mut fits: Vec<u16> = pop.iter().map(|i| i.fitness).collect();
    fits.sort_unstable();
    let mut distinct_fitness = 1;
    for w in fits.windows(2) {
        if w[0] != w[1] {
            distinct_fitness += 1;
        }
    }

    // Mean pairwise Hamming distance, computed per bit position in
    // O(16·n): for bit b with k ones, the number of differing pairs is
    // k·(n−k).
    let mut differing_pairs = 0u64;
    for b in 0..16 {
        let k = pop.iter().filter(|i| (i.chrom >> b) & 1 == 1).count() as u64;
        differing_pairs += k * (n as u64 - k);
    }
    let total_pairs = (n as u64) * (n as u64 - 1) / 2;
    let mean_hamming = if total_pairs == 0 {
        0.0
    } else {
        differing_pairs as f64 / total_pairs as f64
    };

    // Fitness entropy.
    let mut entropy = 0.0;
    let mut i = 0;
    while i < fits.len() {
        let mut j = i;
        while j < fits.len() && fits[j] == fits[i] {
            j += 1;
        }
        let p = (j - i) as f64 / n as f64;
        entropy -= p * p.log2();
        i = j;
    }

    // Takeover fraction of the best chromosome.
    let best = pop.iter().max_by_key(|i| i.fitness).expect("non-empty");
    let takeover = pop.iter().filter(|i| i.chrom == best.chrom).count() as f64 / n as f64;

    Diversity {
        distinct_chromosomes,
        distinct_fitness,
        mean_hamming,
        fitness_entropy: entropy,
        takeover_fraction: takeover,
    }
}

/// Takeover time: the first generation (index into `snapshots`) where
/// the best chromosome occupies at least `fraction` of the population.
/// `None` if it never does.
pub fn takeover_time(snapshots: &[Vec<Individual>], fraction: f64) -> Option<usize> {
    snapshots
        .iter()
        .position(|pop| diversity(pop).takeover_fraction >= fraction)
}

/// Table V's "convergence" column: "the generation number when the
/// difference in average fitness between the current generation and
/// next generation is less than 5%". Interpreted as *settled
/// permanently*: the first generation after which every subsequent
/// generation-to-generation change of the population average stays
/// below 5% (a single quiet window early in a still-improving run is
/// not convergence). `points` are a run's `(gen, fit_sum)` pairs in
/// order, generation 0 first; the average is `fit_sum / pop_size`.
/// Returns `None` if the run never settled.
///
/// One pass, O(1) state: the answer only depends on the last window
/// that still moved, so a run can feed its points as it goes.
pub fn convergence_generation(
    points: impl IntoIterator<Item = (u32, u32)>,
    pop_size: u8,
) -> Option<u32> {
    let avg = |fit_sum: u32| fit_sum as f64 / pop_size as f64;
    let mut points = points.into_iter();
    let mut prev = avg(points.next()?.1);
    // Generation the run has been settled from since the last window
    // that moved (generation 1 at the earliest), and whether the final
    // window seen so far moved — a run still moving at its end never
    // settled.
    let mut settled_from = None;
    let mut last_moved = true;
    for (gen, fit_sum) in points {
        let next = avg(fit_sum);
        last_moved = prev <= 0.0 || ((next - prev).abs() / prev) >= 0.05;
        if last_moved || settled_from.is_none() {
            settled_from = Some(gen);
        }
        prev = next;
    }
    settled_from.filter(|_| !last_moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::GaEngine;
    use crate::params::GaParams;
    use carng::{CaRng, Rng16};
    use ga_fitness::TestFunction;

    fn ind(chrom: u16, fitness: u16) -> Individual {
        Individual { chrom, fitness }
    }

    #[test]
    fn uniform_population_has_zero_diversity() {
        let pop = vec![ind(0x1234, 100); 8];
        let d = diversity(&pop);
        assert_eq!(d.distinct_chromosomes, 1);
        assert_eq!(d.distinct_fitness, 1);
        assert_eq!(d.mean_hamming, 0.0);
        assert_eq!(d.fitness_entropy, 0.0);
        assert_eq!(d.takeover_fraction, 1.0);
    }

    #[test]
    fn complementary_pair_has_max_hamming() {
        let pop = vec![ind(0x0000, 1), ind(0xFFFF, 2)];
        let d = diversity(&pop);
        assert_eq!(d.mean_hamming, 16.0);
        assert_eq!(d.distinct_chromosomes, 2);
        assert!(
            (d.fitness_entropy - 1.0).abs() < 1e-12,
            "two equiprobable values = 1 bit"
        );
        assert_eq!(d.takeover_fraction, 0.5);
    }

    #[test]
    fn entropy_of_uniform_four_values_is_two_bits() {
        let pop = vec![ind(1, 10), ind(2, 20), ind(3, 30), ind(4, 40)];
        let d = diversity(&pop);
        assert!((d.fitness_entropy - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ga_run_diversity_collapses_over_generations() {
        // The Figs. 8–12 phenomenon, quantified: diversity at the end of
        // a converged run is well below the random initial population's.
        let params = GaParams::new(32, 32, 10, 1, 10593);
        let mut engine = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        });
        engine.init_population();
        let d0 = diversity(engine.population());
        for _ in 0..32 {
            engine.step_generation();
        }
        let d_end = diversity(engine.population());
        assert!(
            d_end.distinct_fitness < d0.distinct_fitness / 2,
            "distinct fitness {} → {}",
            d0.distinct_fitness,
            d_end.distinct_fitness
        );
        assert!(d_end.mean_hamming < d0.mean_hamming / 2.0);
        assert!(d_end.takeover_fraction > d0.takeover_fraction);
    }

    #[test]
    fn takeover_time_detects_convergence_point() {
        let params = GaParams::new(16, 40, 10, 1, 0x2961);
        let mut engine = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::F3.eval_u16(c)
        });
        engine.init_population();
        let mut snaps = vec![engine.population().to_vec()];
        for _ in 0..40 {
            engine.step_generation();
            snaps.push(engine.population().to_vec());
        }
        let t = takeover_time(&snaps, 0.5);
        assert!(t.is_some(), "no 50% takeover in 40 generations");
        assert!(t.unwrap() > 0, "random init can't be taken over already");
    }

    #[test]
    #[should_panic]
    fn empty_population_rejected() {
        let _ = diversity(&[]);
    }

    #[test]
    fn convergence_generation_detects_settling() {
        let params = GaParams::new(32, 32, 10, 1, 10593);
        let run = GaEngine::new(params, CaRng::new(params.seed), |c| {
            TestFunction::Bf6.eval_u16(c)
        })
        .run();
        let conv = convergence_generation(
            run.history.iter().map(|s| (s.gen, s.fit_sum)),
            params.pop_size,
        );
        assert!(conv.is_some(), "a 32-generation run settles (Table V)");
        assert!(conv.unwrap() <= 32);
    }

    #[test]
    fn short_histories_never_converge() {
        assert_eq!(convergence_generation([], 8), None);
        assert_eq!(convergence_generation([(0, 8)], 8), None);
    }

    #[test]
    fn convergence_is_the_generation_after_the_last_moving_window() {
        // Averages (pop 1): 100, 200, 205, 300, 301, 302 — the last
        // ≥5% move is 205 → 300, so the run settled from generation 3.
        let sums = [100, 200, 205, 300, 301, 302];
        let points = || sums.iter().enumerate().map(|(g, &s)| (g as u32, s));
        assert_eq!(convergence_generation(points(), 1), Some(3));
        // Quiet from the start: settled from generation 1, not 0.
        assert_eq!(convergence_generation([(0, 100), (1, 101)], 1), Some(1));
        // Still moving at the end: never settled.
        assert_eq!(convergence_generation(points().take(4), 1), None);
        // A zero average counts as moving.
        assert_eq!(convergence_generation([(0, 0), (1, 0)], 1), None);
        assert_eq!(
            convergence_generation([(0, 0), (1, 0), (2, 0)], 1),
            None,
            "an all-zero run never settles"
        );
    }

    #[test]
    fn convergence_matches_the_windowed_definition() {
        // The rule as Table V states it, over the whole history at once:
        // find the last window that moved ≥ 5%, settle from the
        // generation after it (1 at the earliest), and never settle if
        // that window is the final one.
        fn windowed(points: &[(u32, u32)], pop: u8) -> Option<u32> {
            let avg = |s: u32| s as f64 / pop as f64;
            let last_moved = points.windows(2).rposition(|w| {
                let (a, b) = (avg(w[0].1), avg(w[1].1));
                a <= 0.0 || ((b - a).abs() / a) >= 0.05
            });
            let from = last_moved.map_or(0, |i| i + 1);
            (from + 1 < points.len()).then(|| points[from.max(1)].0)
        }
        let mut rng = CaRng::new(0x2961);
        for case in 0..2000u32 {
            let len = (case % 12) as usize;
            let mut sum = 1000u32;
            let points: Vec<(u32, u32)> = (0..len)
                .map(|g| {
                    // Mostly small steps, some ≥ 5% jumps, some zeros.
                    let r = rng.next_u16();
                    sum = match r % 8 {
                        0 => 0,
                        1 => sum + 200,
                        _ => sum + (r as u32 >> 12),
                    };
                    (g as u32, sum)
                })
                .collect();
            assert_eq!(
                convergence_generation(points.iter().copied(), 1),
                windowed(&points, 1),
                "{points:?}"
            );
        }
    }
}
