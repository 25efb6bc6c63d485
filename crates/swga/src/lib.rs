//! # swga — the software GA and the §IV-C runtime comparison
//!
//! The paper compares its hardware GA against "a software implementation
//! of a GA optimizer, similar to the GA optimization algorithm in the IP
//! core, developed in the C programming language", running on the
//! Virtex-II Pro's embedded PowerPC processor with the *same* block-RAM
//! lookup fitness module on the FPGA fabric — so the software pays a
//! processor-bus round trip per fitness evaluation. Measured result:
//! 37.615 ms for pop 32 / 32 generations on mBF6_2, a **5.16×** slowdown
//! versus the 50 MHz hardware core.
//!
//! We cannot run a PowerPC 405, so the reproduction works in modeled
//! cycles (the paper itself computes hardware time as counter × clock
//! period):
//!
//! * [`counting::CountingGa`] — the software GA. It is no second copy
//!   of Fig. 2: it is `ga_core::GaEngine` (the repo's one 16-bit
//!   generational loop, so draw-identical to the IP core) charging every
//!   step to an [`OpCounts`] operation counter whose categories map onto
//!   PPC405 instruction classes;
//! * [`cost::PpcCostModel`] — per-class cycle costs (documented against
//!   the PPC405 pipeline and PLB bus latency) that convert counts into
//!   seconds;
//! * [`speedup`] — the end-to-end experiment: hardware cycles from the
//!   cycle-accurate `GaSystem` versus modeled software cycles, averaged
//!   over multiple seeds like the paper's six runs.

#![forbid(unsafe_code)]

pub mod cost;
pub mod counting;
pub mod speedup;

pub use cost::{OpCounts, PpcCostModel};
pub use counting::CountingGa;
pub use speedup::{speedup_experiment, SpeedupReport};
