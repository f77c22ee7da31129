//! WirelessHART network substrate.
//!
//! Implements Section II of Remke & Wu (DSN 2013): the protocol facts the
//! performance model is built on.
//!
//! * [`NodeId`] / [`Hop`] — nodes and directed hops in the paper's notation;
//! * [`Topology`] — the connectivity graph with per-link [`whart_channel::LinkModel`]s;
//! * [`Path`] / [`shortest_path`] / [`uplink_paths`] — routing, with the
//!   4-hop guideline;
//! * [`Superframe`] / [`ReportingInterval`] — 10 ms TDMA slots, uplink and
//!   downlink halves, delay conversion;
//! * [`Schedule`] — the communication schedule `eta` with validation and
//!   the sequential builder behind `eta_a`/`eta_b`;
//! * [`typical`] — the paper's evaluation scenarios (Section V example,
//!   Fig. 12 network, hop-count chains) ready-made.
//!
//! # Example
//!
//! ```
//! use whart_channel::LinkModel;
//! use whart_net::typical::TypicalNetwork;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let link = LinkModel::from_availability(0.83, 0.9)?;
//! let net = TypicalNetwork::new(link);
//! let eta_a = net.schedule_eta_a();
//! eta_a.validate(&net.topology, &net.paths)?;
//! assert_eq!(net.paths.len(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod geometry;
mod ids;
mod route;
mod schedule;
mod superframe;
mod topology;

pub mod typical;

pub use error::{NetError, Result};
pub use geometry::{Deployment, Position};
pub use ids::{Hop, NodeId};
pub use route::{shortest_path, uplink_paths, Path, MAX_HOPS_GUIDELINE};
pub use schedule::{Schedule, ScheduleEntry, SchedulePriority};
pub use superframe::{ReportingInterval, Superframe, SLOT_MS};
pub use topology::Topology;
