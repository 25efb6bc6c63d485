//! The compiled-netlist cache: elaborate, compile and tabulate the
//! CA-RNG netlist once and share the result across every run.
//!
//! Every `bitsim64` run and stepping handle draws from the same
//! synthesized design — the CA-RNG netlist. Rebuilding it per run
//! would pay validate + Kahn-sort + flatten, and then the
//! 65 536-state consume-edge simulation, on work that never changes, so
//! the engine layer keeps one process-wide artifact instead: a
//! [`CaRngTable`] holding the compiled netlist and its tabulated
//! consume edge. The first request builds it while every later request
//! is a lock-free hit.
//!
//! Hit/miss counters are exposed so the serving layer can report cache
//! effectiveness per batch (`netlist_cache_hits` / `_misses` in
//! `BENCH_serve.json`) — a cold-start regression shows up as more than
//! one lifetime miss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::pack::CaRngTable;

/// A process-wide tabulated CA-RNG netlist with hit/miss accounting.
/// The first request builds it; requests racing it wait for that one
/// build and count as hits, so the lifetime miss count is at most one.
pub struct NetlistCache {
    table: OnceLock<Arc<CaRngTable>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl NetlistCache {
    /// An empty cache (tests build private ones; production code uses
    /// [`global_cache`]).
    pub fn new() -> Self {
        NetlistCache {
            table: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached table, building it with `build` on the first request.
    pub fn get_or_build(&self, build: impl FnOnce() -> CaRngTable) -> Arc<CaRngTable> {
        let mut built = false;
        let table = self.table.get_or_init(|| {
            built = true;
            Arc::new(build())
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(table)
    }

    /// Lifetime `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

impl Default for NetlistCache {
    fn default() -> Self {
        NetlistCache::new()
    }
}

/// The process-wide tabulated CA-RNG cache the `bitsim64` backend
/// shares.
pub fn global_cache() -> &'static NetlistCache {
    static CACHE: OnceLock<NetlistCache> = OnceLock::new();
    CACHE.get_or_init(NetlistCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_synth::gadesign::elaborate_ca_rng;
    use ga_synth::CompiledNetlist;

    fn tabulate_ca() -> CaRngTable {
        CaRngTable::tabulate(
            CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG compiles"),
        )
    }

    #[test]
    fn first_request_misses_then_hits() {
        let cache = NetlistCache::new();
        let a = cache.get_or_build(tabulate_ca);
        assert_eq!(cache.counters(), (0, 1));
        let b = cache.get_or_build(tabulate_ca);
        assert_eq!(cache.counters(), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "a hit returns the cached artifact");
    }

    #[test]
    fn cache_hits_are_byte_identical_to_cold_compiles() {
        // The artifact a hit returns must be indistinguishable from a
        // build done from scratch: same instruction stream, same
        // registers, same bus maps, same table. Debug formatting covers
        // every field.
        let cache = NetlistCache::new();
        cache.get_or_build(tabulate_ca);
        let hit = cache.get_or_build(tabulate_ca);
        let cold = tabulate_ca();
        assert_eq!(format!("{hit:?}"), format!("{cold:?}"));
    }

    #[test]
    fn build_runs_once() {
        let cache = NetlistCache::new();
        let mut builds = 0;
        for _ in 0..5 {
            cache.get_or_build(|| {
                builds += 1;
                tabulate_ca()
            });
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.counters(), (4, 1));
    }

    #[test]
    fn racing_first_lookups_build_once() {
        let cache = NetlistCache::new();
        let builds = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        let tables: Vec<Arc<CaRngTable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.get_or_build(|| {
                            builds.fetch_add(1, Ordering::Relaxed);
                            tabulate_ca()
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lookup thread"))
                .collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(cache.counters(), (3, 1));
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
    }
}
