//! Island-model parallel GA — the "advanced hardware acceleration"
//! axis of the paper's related work (§II-B: Multi-GAP, Jelodar et al.'s
//! SOPC parallel GA, Nedjah & Mourelle's massively parallel
//! architecture), built from multiple unmodified engines.
//!
//! Each island runs the paper's exact GA with its **own CA RNG at a
//! jump-ahead offset** on a shared stream (so streams are provably
//! disjoint, `CaRng::jump`), evolving independently for a migration
//! epoch and then passing its best individual to the next island on a
//! ring, where it replaces the worst member. Islands execute on
//! std scoped threads — the software realization of the
//! multi-FPGA layout those papers prototype, and a faithful model
//! because inter-island traffic happens only at epoch barriers.

use std::convert::Infallible;

use carng::{CaRng, Rng16, SnapshotRng};

use crate::behavioral::{GaEngine, Individual};
use crate::params::GaParams;
use crate::snapshot::{EngineSnapshot, SnapshotError};

/// One island's engine, as the migration loop sees it: anything that
/// can initialize a population, evolve it one generation at a time,
/// report its elite, and accept a migrant. [`GaEngine`] implements it
/// for every RNG source, which is what lets the engine-layer composite
/// (`ga-engine`'s `IslandsEngine`) run islands over *any* stepping
/// backend — behavioral CA, LFSR, or the bitsim64 netlist table.
pub trait IslandMember: Send {
    /// Generate and evaluate the random initial population.
    fn init_population(&mut self);
    /// Breed one full generation.
    fn step_generation(&mut self);
    /// Best individual so far.
    fn best(&self) -> Individual;
    /// Replace the worst member with `migrant` (ring migration).
    fn inject(&mut self, migrant: Individual);
    /// Fitness evaluations consumed so far.
    fn evaluations(&self) -> u64;
    /// Capture the member's full state ([`GaEngine::snapshot`]).
    fn snapshot(&self) -> EngineSnapshot;
    /// Install a snapshot ([`GaEngine::restore`]); the member continues
    /// bit-identically from the captured position.
    fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError>;
}

impl<R: SnapshotRng + Send, F: FnMut(u16) -> u16 + Send> IslandMember for GaEngine<R, F> {
    fn init_population(&mut self) {
        GaEngine::init_population(self);
    }

    fn step_generation(&mut self) {
        GaEngine::step_generation(self);
    }

    fn best(&self) -> Individual {
        GaEngine::best(self)
    }

    fn inject(&mut self, migrant: Individual) {
        GaEngine::inject(self, migrant);
    }

    fn evaluations(&self) -> u64 {
        GaEngine::evaluations(self)
    }

    fn snapshot(&self) -> EngineSnapshot {
        GaEngine::snapshot(self)
    }

    fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        GaEngine::restore(self, snap)
    }
}

/// Island-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IslandConfig {
    /// Number of islands (ring size).
    pub islands: usize,
    /// Generations between migrations.
    pub epoch: u32,
    /// Number of epochs (total generations = epoch × epochs).
    pub epochs: u32,
}

/// Result of an island run.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandRun {
    /// Best individual across all islands.
    pub best: Individual,
    /// Per-island best at the end.
    pub island_best: Vec<Individual>,
    /// Total fitness evaluations across islands.
    pub evaluations: u64,
}

/// Seed for island `k`: the shared CA stream jumped ahead by
/// `k · 2^16 / islands` states, so island streams never overlap within
/// an epoch's draw budget.
pub fn island_seed(base_seed: u16, k: usize, islands: usize) -> u16 {
    let mut rng = CaRng::new(base_seed);
    rng.jump((k as u64 * 65_535) / islands as u64);
    rng.output()
}

/// Run the island model. `fitness` is shared by all islands (`Fn + Sync`
/// — e.g. a tabulated ROM lookup).
pub fn run_islands<F>(params: GaParams, config: IslandConfig, fitness: F) -> IslandRun
where
    F: Fn(u16) -> u16 + Sync,
{
    let fit = &fitness;
    let members: Vec<Box<dyn IslandMember + '_>> = (0..config.islands)
        .map(|k| {
            let seed = island_seed(params.seed, k, config.islands);
            let p = GaParams { seed, ..params };
            let mut m = Box::new(GaEngine::new(p, CaRng::new(seed), fit));
            m.init_population();
            m as Box<dyn IslandMember + '_>
        })
        .collect();
    let Ok(run) = IslandRing::new(config, members, 0).run();
    run
}

/// The island ring's members, one phase at a time. Each call covers the
/// whole ring (`members[k]` is island *k*), so an implementation may
/// overlap the members' work — scoped threads in process, pipelined
/// requests across worker processes — while [`IslandRing`] alone owns
/// the order of the phases.
pub trait RingMember: Sized {
    /// Why a phase failed (`Infallible` in process).
    type Error;
    /// Evolve every member `gens` generations; return each member's best.
    fn evolve_all(members: &mut [Self], gens: u32) -> Result<Vec<Individual>, Self::Error>;
    /// Hand `migrants[k]` to member *k* (it replaces the worst).
    fn inject_all(members: &mut [Self], migrants: &[Individual]) -> Result<(), Self::Error>;
    /// Capture every member's state.
    fn snapshot_all(members: &mut [Self]) -> Result<Vec<EngineSnapshot>, Self::Error>;
    /// Every member's final best and evaluation count.
    fn finish_all(members: &mut [Self]) -> Result<Vec<(Individual, u64)>, Self::Error>;
}

/// In-process members: one scoped thread per island for the evolve
/// phase, every other phase inline.
impl RingMember for Box<dyn IslandMember + '_> {
    type Error = Infallible;

    fn evolve_all(members: &mut [Self], gens: u32) -> Result<Vec<Individual>, Infallible> {
        std::thread::scope(|s| {
            for m in members.iter_mut() {
                s.spawn(move || {
                    for _ in 0..gens {
                        m.step_generation();
                    }
                });
            }
        });
        Ok(members.iter().map(|m| m.best()).collect())
    }

    fn inject_all(members: &mut [Self], migrants: &[Individual]) -> Result<(), Infallible> {
        for (m, &migrant) in members.iter_mut().zip(migrants) {
            m.inject(migrant);
        }
        Ok(())
    }

    fn snapshot_all(members: &mut [Self]) -> Result<Vec<EngineSnapshot>, Infallible> {
        Ok(members.iter().map(|m| m.snapshot()).collect())
    }

    fn finish_all(members: &mut [Self]) -> Result<Vec<(Individual, u64)>, Infallible> {
        Ok(members
            .iter()
            .map(|m| (m.best(), m.evaluations()))
            .collect())
    }
}

/// The epoch-granular island driver: members between epochs, ring
/// migration at every barrier. Splitting the loop open is what lets the
/// engine layer checkpoint every member after each epoch and resume a
/// killed run from the snapshots — the trajectory is bit-identical
/// either way because all cross-island traffic happens at the barrier.
/// The same loop drives in-process members and remote worker shards.
pub struct IslandRing<M> {
    config: IslandConfig,
    members: Vec<M>,
    epochs_done: u32,
}

impl<M: RingMember> IslandRing<M> {
    /// A ring over members already positioned at the `epochs_done`
    /// barrier: fresh members (initial population generated, barrier 0)
    /// or members restored from a checkpoint. `members[k]` is island
    /// *k*; callers seed the members with disjoint streams
    /// ([`island_seed`]).
    pub fn new(config: IslandConfig, members: Vec<M>, epochs_done: u32) -> Self {
        assert!(config.islands >= 1);
        assert_eq!(members.len(), config.islands, "one member per island");
        assert!(config.epoch >= 1 && config.epochs >= 1);
        assert!(epochs_done <= config.epochs, "resuming past the end");
        IslandRing {
            config,
            members,
            epochs_done,
        }
    }

    /// Evolve every island for `epoch` generations, collect **all**
    /// bests, then migrate: island *k*'s best replaces the worst member
    /// of island *(k+1) mod n* on the ring.
    pub fn step_epoch(&mut self) -> Result<(), M::Error> {
        let mut bests = M::evolve_all(&mut self.members, self.config.epoch)?;
        if self.config.islands > 1 {
            bests.rotate_right(1);
            M::inject_all(&mut self.members, &bests)?;
        }
        self.epochs_done += 1;
        Ok(())
    }

    /// The configuration in force.
    pub fn config(&self) -> IslandConfig {
        self.config
    }

    /// Epoch barriers crossed so far.
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// True once every configured epoch has run.
    pub fn done(&self) -> bool {
        self.epochs_done >= self.config.epochs
    }

    /// Snapshot every member at the current barrier, in ring order.
    pub fn snapshots(&mut self) -> Result<Vec<EngineSnapshot>, M::Error> {
        M::snapshot_all(&mut self.members)
    }

    /// Finish: fold the members into the run result (later islands win
    /// fitness ties).
    pub fn finish(mut self) -> Result<IslandRun, M::Error> {
        let finals = M::finish_all(&mut self.members)?;
        let island_best: Vec<Individual> = finals.iter().map(|&(b, _)| b).collect();
        let best = island_best
            .iter()
            .copied()
            .max_by_key(|i| i.fitness)
            .expect("at least one island");
        Ok(IslandRun {
            best,
            island_best,
            evaluations: finals.iter().map(|&(_, e)| e).sum(),
        })
    }

    /// Step every remaining epoch, then finish.
    pub fn run(mut self) -> Result<IslandRun, M::Error> {
        while !self.done() {
            self.step_epoch()?;
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_fitness::TestFunction;

    fn cfg(islands: usize) -> IslandConfig {
        IslandConfig {
            islands,
            epoch: 8,
            epochs: 4,
        }
    }

    #[test]
    fn island_seeds_are_distinct() {
        let seeds: Vec<u16> = (0..8).map(|k| island_seed(0x2961, k, 8)).collect();
        let distinct: std::collections::HashSet<u16> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "{seeds:?}");
    }

    #[test]
    fn island_seeds_are_the_stepped_shared_stream() {
        // Island k of n starts k·65535/n steps down the base seed's CA
        // stream: the jump must land where plain stepping does.
        let mut cases: Vec<(usize, usize)> = [1, 2, 3, 8]
            .iter()
            .flat_map(|&n| (0..n).map(move |k| (k, n)))
            .collect();
        cases.extend([0, 1, 511, 1023].map(|k| (k, 1024)));
        for base in [0u16, 1, 0x2961, 0xFFFF] {
            for &(k, n) in &cases {
                let mut rng = CaRng::new(base);
                for _ in 0..(k as u64 * 65_535) / n as u64 {
                    rng.step();
                }
                assert_eq!(
                    island_seed(base, k, n),
                    rng.output(),
                    "base {base:#06x}, island {k} of {n}"
                );
            }
        }
    }

    #[test]
    fn runs_are_deterministic_despite_threads() {
        let rom = TestFunction::Bf6.rom();
        let params = GaParams::new(32, 32, 10, 1, 0x2961);
        let a = run_islands(params, cfg(4), |c| rom.lookup(c));
        let b = run_islands(params, cfg(4), |c| rom.lookup(c));
        assert_eq!(a, b, "epoch-barrier migration must be deterministic");
    }

    #[test]
    fn four_islands_beat_or_match_one_island_budget_for_budget() {
        // Same total evaluation budget: 1 island × 32 gens of pop 32 vs
        // 4 islands × 32 gens of pop 8... population size floor makes
        // the honest comparison 4×(pop 32, 8 epochs of 4) vs 1×(pop 32,
        // 32 gens): same generations per island member.
        let rom = TestFunction::Bf6.rom();
        let params = GaParams::new(32, 32, 10, 1, 0xB342);
        let single = run_islands(
            params,
            IslandConfig {
                islands: 1,
                epoch: 32,
                epochs: 1,
            },
            |c| rom.lookup(c),
        );
        let multi = run_islands(params, cfg(4), |c| rom.lookup(c));
        assert_eq!(multi.evaluations, 4 * single.evaluations);
        assert!(
            multi.best.fitness >= single.best.fitness,
            "4 islands {} vs 1 island {}",
            multi.best.fitness,
            single.best.fitness
        );
    }

    #[test]
    fn migration_spreads_the_best_individual() {
        let rom = TestFunction::F3.rom();
        let params = GaParams::new(16, 16, 10, 1, 0x061F);
        let run = run_islands(
            params,
            IslandConfig {
                islands: 4,
                epoch: 4,
                epochs: 8,
            },
            |c| rom.lookup(c),
        );
        // After 8 migration rounds on a 4-ring, every island has seen
        // good genes: all island bests within 5% of the global best.
        for (k, b) in run.island_best.iter().enumerate() {
            assert!(
                b.fitness as f64 >= run.best.fitness as f64 * 0.95,
                "island {k} lagging: {} vs {}",
                b.fitness,
                run.best.fitness
            );
        }
    }

    #[test]
    fn ring_checkpoint_resume_is_bit_identical() {
        // Kill-and-resume at a barrier: snapshot after two epochs,
        // rebuild fresh members from the snapshots, finish — the result
        // must equal the uninterrupted run exactly.
        let rom = TestFunction::Bf6.rom();
        let params = GaParams::new(16, 32, 10, 1, 0x2961);
        let config = cfg(4);
        let members = || -> Vec<Box<dyn IslandMember + '_>> {
            (0..config.islands)
                .map(|k| {
                    let seed = island_seed(params.seed, k, config.islands);
                    let p = GaParams { seed, ..params };
                    Box::new(GaEngine::new(p, CaRng::new(seed), |c| rom.lookup(c)))
                        as Box<dyn IslandMember + '_>
                })
                .collect()
        };
        let fresh = || {
            let mut ms = members();
            ms.iter_mut().for_each(|m| m.init_population());
            ms
        };
        let Ok(reference) = IslandRing::new(config, fresh(), 0).run();

        let mut ring = IslandRing::new(config, fresh(), 0);
        let Ok(()) = ring.step_epoch();
        let Ok(()) = ring.step_epoch();
        let Ok(snaps) = ring.snapshots();
        drop(ring); // the "crash"

        // Restored members draw no initial population: the ring picks
        // up at barrier 2 exactly where the snapshots left off.
        let mut restored = members();
        for (m, s) in restored.iter_mut().zip(&snaps) {
            m.restore(s).expect("snapshot restores");
        }
        let resumed = IslandRing::new(config, restored, 2);
        assert_eq!(resumed.epochs_done(), 2);
        let Ok(run) = resumed.run();
        assert_eq!(run, reference);
    }

    #[test]
    fn single_island_matches_plain_engine() {
        // One island, one epoch = the plain engine exactly (plus the
        // jump-ahead seed derivation with k = 0, which is the identity).
        let rom = TestFunction::Mbf6_2.rom();
        let params = GaParams::new(32, 16, 10, 1, 0xAAAA);
        let island = run_islands(
            params,
            IslandConfig {
                islands: 1,
                epoch: 16,
                epochs: 1,
            },
            |c| rom.lookup(c),
        );
        let seed0 = island_seed(params.seed, 0, 1);
        let p = GaParams {
            seed: seed0,
            ..params
        };
        let plain = GaEngine::new(p, carng::CaRng::new(seed0), |c| rom.lookup(c)).run();
        assert_eq!(island.best, plain.best);
    }
}
