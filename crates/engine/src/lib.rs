//! # ga-engine — the unified engine layer
//!
//! One vocabulary over every GA execution backend in the repo. A
//! backend is an [`Engine`]: it advertises [`Capabilities`] (supported
//! chromosome widths, pack width, stepping support), admits jobs
//! through [`Engine::prepare`] (widths, the Table III ranges and the
//! [`MAX_EVALUATIONS`] work bound), and executes them into the
//! backend-neutral [`RunOutcome`] shape, whose `trajectory` is the
//! backend's own per-generation `ga_core::GenStats` history, moved in
//! without a copy. The [`EngineRegistry`] enumerates the backends;
//! serve dispatch, bench sweeps, the fault campaign's golden runs, and
//! the conformance suite all go through it rather than naming engines.
//!
//! Five backends are registered by default ([`registry::global`]):
//!
//! | kind | engine | widths |
//! |---|---|---|
//! | `behavioral` | `ga_core::GaEngine` over the CA RNG | 16 |
//! | `rtl` | `ga_core::GaSystem` (cycle-accurate) | 16 |
//! | `bitsim64` | `ga_core::GaEngine` over the compiled CA-RNG netlist ([`TableRng`]) | 16 |
//! | `swga` | `ga_core::GaEngine` charging `swga::OpCounts` (PowerPC reference) | 16 |
//! | `rtl32` | `ga_core::GaSystem32` (ganged dual core, Fig. 6) | 32 |
//!
//! `bitsim64` compiles the CA-RNG netlist and tabulates its consume
//! edge once into the process-wide [`NetlistCache`]
//! ([`CaRngTable`]); every [`TableRng`] draw is one lookup in that
//! table, so no job simulates the netlist again.
//!
//! [`IslandsEngine`] composes the ring-migration island model over any
//! backend with a stepping handle. See DESIGN.md for the layer diagram
//! and the add-a-backend recipe.

#![forbid(unsafe_code)]

pub mod adapters;
pub mod cache;
pub mod islands;
pub mod pack;
pub mod registry;
pub mod spec;

pub use adapters::{BehavioralEngine, BitSim64Engine, Rtl32Engine, RtlInterpEngine, SwgaEngine};
pub use cache::{global_cache, NetlistCache};
pub use islands::{
    island_member, CheckpointBundle, IslandsDriver, IslandsEngine, CHECKPOINT_VERSION, MAX_ISLANDS,
};
pub use pack::{ca_lane_streams, CaRngTable, TableRng};
pub use registry::{global, EngineRegistry};
pub use spec::{
    BackendKind, Capabilities, Engine, EngineError, Limits, Prepared, RunOutcome, RunSpec,
    Workload, MAX_EVALUATIONS,
};
