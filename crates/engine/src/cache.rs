//! The compiled-netlist cache: validate + topo-sort + compile the
//! CA-RNG netlist once and share the result across every pack.
//!
//! The serve hot path runs the same synthesized design — the CA-RNG
//! netlist — for every `bitsim64` pack. Re-elaborating and
//! re-compiling it per pack would pay the full validate + Kahn-sort +
//! flatten cost on work that never changes, so the engine layer keeps
//! one process-wide compiled artifact instead: the first request
//! compiles while every later request is a lock-free hit.
//!
//! Hit/miss counters are exposed so the serving layer can report cache
//! effectiveness per batch (`netlist_cache_hits` / `_misses` in
//! `BENCH_serve.json`) — a cold-start regression shows up as more than
//! one lifetime miss.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ga_synth::CompiledNetlist;

/// A process-wide compiled netlist with hit/miss accounting. The first
/// request compiles; requests racing it wait for that one compile and
/// count as hits, so the lifetime miss count is at most one.
pub struct NetlistCache {
    compiled: OnceLock<Arc<CompiledNetlist>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl NetlistCache {
    /// An empty cache (tests build private ones; production code uses
    /// [`global_cache`]).
    pub fn new() -> Self {
        NetlistCache {
            compiled: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached netlist, compiling it with `build` on the first
    /// request.
    pub fn get_or_compile(&self, build: impl FnOnce() -> CompiledNetlist) -> Arc<CompiledNetlist> {
        let mut built = false;
        let compiled = self.compiled.get_or_init(|| {
            built = true;
            Arc::new(build())
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(compiled)
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

/// The process-wide compiled-netlist cache the `bitsim64` backend
/// shares.
pub fn global_cache() -> &'static NetlistCache {
    static CACHE: OnceLock<NetlistCache> = OnceLock::new();
    CACHE.get_or_init(NetlistCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_synth::gadesign::elaborate_ca_rng;

    fn compile_ca() -> CompiledNetlist {
        CompiledNetlist::compile(&elaborate_ca_rng()).expect("CA-RNG compiles")
    }

    #[test]
    fn first_request_misses_then_hits() {
        let cache = NetlistCache::new();
        let a = cache.get_or_compile(compile_ca);
        assert_eq!(cache.counters(), (0, 1));
        let b = cache.get_or_compile(compile_ca);
        assert_eq!(cache.counters(), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "a hit returns the cached artifact");
    }

    #[test]
    fn cache_hits_are_byte_identical_to_cold_compiles() {
        // The artifact a hit returns must be indistinguishable from a
        // compile done from scratch: same instruction stream, same
        // registers, same bus maps. Debug formatting covers every field.
        let cache = NetlistCache::new();
        cache.get_or_compile(compile_ca);
        let hit = cache.get_or_compile(compile_ca);
        let cold = compile_ca();
        assert_eq!(format!("{hit:?}"), format!("{cold:?}"));
    }

    #[test]
    fn build_runs_once() {
        let cache = NetlistCache::new();
        let mut builds = 0;
        for _ in 0..5 {
            cache.get_or_compile(|| {
                builds += 1;
                compile_ca()
            });
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.counters(), (4, 1));
    }
}
