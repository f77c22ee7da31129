//! whart-opt: random mesh topology generation and Eq. 12-powered
//! what-if route/schedule optimization.
//!
//! The paper evaluates *given* networks; this crate turns the model into
//! a design tool. It has three parts:
//!
//! * [`generate`] — a seeded random-topology generator generalizing the
//!   Fig. 12 typical network (node count, degree/depth caps, link
//!   quality distribution), emitting networks that the rest of the
//!   workspace — and the `whart analyze` / `whart batch` spec JSON —
//!   can consume;
//! * [`greedy_tree`] / [`optimize`] — a search layer over uplink
//!   routing trees and sequential slot schedules: greedy Eq. 12
//!   construction followed by hill climbing with reparent
//!   (subtree-reroute / swap-parent) and slot-reassignment moves,
//!   under the super-frame's uplink slot budget, for a pluggable
//!   [`Objective`] (max composed reachability or min expected delay);
//! * engine-backed candidate pricing — every candidate fleet goes
//!   through one shared [`whart_engine::Engine`], and because routes
//!   are priced at canonical slots `0..h-1` the path-cache signature
//!   depends only on the link chain: local moves re-solve only the
//!   routes they touch, everything else is a cache hit. The search
//!   records `opt.*` metrics and per-round trace spans through the
//!   engine's observability handles.
//!
//! ```
//! use whart_engine::Engine;
//! use whart_opt::{generate, optimize, GeneratorConfig, SearchConfig};
//!
//! # fn main() -> Result<(), whart_opt::OptError> {
//! let net = generate(&GeneratorConfig { seed: 7, nodes: 12, ..GeneratorConfig::default() })?;
//! let mut engine = Engine::new(2);
//! let result = optimize(&mut engine, &net, &SearchConfig::default())?;
//! assert!(result.improved_or_tied());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod generate;
mod search;

pub use error::{OptError, Result};
pub use generate::{generate, GeneratedNetwork, GeneratorConfig};
pub use search::{
    greedy_tree, optimize, Objective, Optimized, PathOutcome, RoundRecord, RoutingTree,
    SearchConfig,
};
