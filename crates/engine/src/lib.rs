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
//! * two memoization layers — a link-model cache keyed by the canonical
//!   quality tuple `(kind, value, L, p_rc)` and a path-evaluation cache
//!   keyed by the canonical [`whart_model::signature::PathSignature`],
//!   both persistent across drains;
//! * [`EngineStats`] — jobs, per-layer cache hits/misses, per-stage
//!   wall time and worker counts.
//!
//! Results are bit-identical to the serial evaluator: the caches key on
//! the complete, bit-exact input of each solve, and cached values are
//! returned unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod pool;
mod scenario;
pub mod sweeps;

pub use cache::LinkKey;
pub use engine::{Engine, EngineStats};
pub use scenario::{
    LinkQualitySpec, MeasureSet, Outcome, PathMeasures, Scenario, ScenarioResult, Workload,
};
