//! Slot-level Monte-Carlo simulator of WirelessHART networks.
//!
//! The paper validates its DTMC against field measurements; this crate
//! plays that role from first principles. [`Simulator`] executes the TDMA
//! MAC slot by slot: per-link channel processes advance every 10 ms slot,
//! scheduled transmissions fire in their uplink slots, messages hop towards
//! the gateway and are discarded on TTL expiry. Two PHY fidelities are
//! available ([`PhyMode`]): the paper's two-state Gilbert chains, or full
//! 16-channel pseudo-random hopping with per-channel bit error rates.
//!
//! Unlike the analytical per-path decomposition, the simulator shares one
//! channel process among all paths crossing a physical link, so comparing
//! the two also quantifies the correlation the model ignores.
//!
//! # Example
//!
//! ```
//! use whart_channel::LinkModel;
//! use whart_net::typical::TypicalNetwork;
//! use whart_net::ReportingInterval;
//! use whart_sim::{PhyMode, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = TypicalNetwork::new(LinkModel::from_availability(0.83, 0.9)?);
//! let sim = Simulator::from_typical(
//!     &net,
//!     net.schedule_eta_a(),
//!     ReportingInterval::REGULAR,
//!     PhyMode::Gilbert,
//! )?;
//! let report = sim.run(42, 2_000);
//! assert!(report.paths[0].reachability() > 0.99); // 1-hop path
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod engine;
mod interference;
mod samplers;
mod solver;
mod stats;

pub use engine::{PhyMode, Simulator};
pub use interference::{InterferedHoppingSampler, InterferenceWindow};
pub use samplers::{GilbertSampler, HoppingSampler, LinkSampler};
pub use solver::MonteCarloSolver;
pub use stats::{wilson_interval, PathStats, SimReport};
