//! # wirelesshart
//!
//! A from-scratch Rust reproduction of **Remke & Wu, "WirelessHART
//! Modeling and Performance Evaluation" (DSN 2013)**: a hierarchical
//! discrete-time Markov chain model of message delivery in WirelessHART
//! process-control networks, with every substrate it depends on.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`dtmc`] — Markov-chain substrate (absorbing-chain analysis,
//!   discrete distributions, DOT export);
//! * [`channel`] — physical layer (OQPSK BER over AWGN, binary symmetric
//!   channel, two-state link model, 16-channel hopping, blacklisting);
//! * [`net`] — protocol substrate (topology, routing, TDMA super-frames,
//!   communication schedules, the paper's scenarios);
//! * [`model`] — **the paper's contribution**: the hierarchical path DTMC,
//!   all quality-of-service measures, network evaluation, composition,
//!   failure studies and prediction;
//! * [`sim`] — a slot-level Monte-Carlo simulator used as ground truth;
//! * [`control`] — a networked PID control loop (the paper's future work).
//!
//! # Quickstart
//!
//! The paper's Section V example path:
//!
//! ```
//! use wirelesshart::channel::LinkModel;
//! use wirelesshart::model::{DelayConvention, LinkDynamics, PathProblem};
//! use wirelesshart::net::{ReportingInterval, Superframe};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let link = LinkModel::from_availability(0.75, 0.9)?;
//! let mut builder = PathProblem::builder();
//! builder
//!     .add_hop(LinkDynamics::steady(link), 2)
//!     .add_hop(LinkDynamics::steady(link), 5)
//!     .add_hop(LinkDynamics::steady(link), 6)
//!     .superframe(Superframe::symmetric(7)?)
//!     .interval(ReportingInterval::new(4)?);
//! let evaluation = builder.build()?.evaluate();
//! assert!((evaluation.reachability() - 0.9624).abs() < 1e-4);
//! assert!(
//!     (evaluation.expected_delay_ms(DelayConvention::Absolute).unwrap() - 190.8).abs() < 0.05
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use whart_channel as channel;
pub use whart_control as control;
pub use whart_dtmc as dtmc;
pub use whart_model as model;
pub use whart_net as net;
pub use whart_sim as sim;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use whart_channel::{EbN0, LinkModel, Modulation, WIRELESSHART_MESSAGE_BITS};
    pub use whart_dtmc::{Pmf, ValueDistribution};
    pub use whart_model::{
        DelayConvention, LinkDynamics, NetworkModel, PathEvaluation, PathProblem,
        UtilizationConvention,
    };
    pub use whart_net::{NodeId, Path, ReportingInterval, Schedule, Superframe, Topology};
    pub use whart_sim::{PhyMode, Simulator};
}
