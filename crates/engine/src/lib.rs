//! whart-engine: a parallel, memoizing batch-evaluation engine for
//! fleets of WirelessHART scenarios.
//!
//! The analytical model solves one DTMC per path per operating point.
//! Parameter studies (Figs. 8-19, Tables I-II of Remke & Wu, DSN 2013)
//! evaluate whole fleets of scenarios that overlap heavily: the same
//! link operating points, and often the very same path DTMCs, recur
//! across scenarios. This crate turns those studies into batch jobs:
//!
//! * [`Scenario`] — a network or a set of path problems (overrides and
//!   failure injections already applied) plus requested measures;
//! * [`Engine::submit`] / [`Engine::drain`] — plan every pending
//!   scenario into a deduplicated set of path solves, execute them on a
//!   worker pool, and assemble results in submission order;
//! * one memoization layer — a path-evaluation cache keyed by the
//!   canonical [`whart_model::signature::PathSignature`] of a compiled
//!   problem under its measure plan, persistent across drains and
//!   optionally bounded ([`Engine::set_path_cache_capacity`], FIFO
//!   eviction). Entries sit in a FIFO ring beside a compact hash index,
//!   with the key words copied into a FIFO word arena, so an eviction
//!   frees no key and never re-hashes one: about 250 requested bytes
//!   per typical-network path at steady state, most of it the key's
//!   words and the `Arc`'d evaluation. Link models are not cached:
//!   callers build them with the `whart_channel::LinkModel`
//!   constructors, whose closed-form derivation (Eqs. 1-2, 4) costs
//!   less than a cache probe;
//! * [`EngineStats`] — jobs, path-cache hits/misses/evictions,
//!   per-stage wall time and worker counts;
//! * [`available_cores`] — the machine's core count, resolved once per
//!   process for engines and the CLI's `--threads` default.
//!
//! Results are bit-identical to the serial evaluator: the cache keys on
//! the complete, bit-exact input of each solve, and cached values are
//! returned unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod pool;
mod scenario;

pub use engine::{Engine, EngineStats};
pub use pool::available_cores;
pub use scenario::{MeasureSet, Outcome, PathMeasures, Scenario, ScenarioResult, Workload};
