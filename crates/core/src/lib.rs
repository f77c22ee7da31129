//! The hierarchical DTMC performance model of WirelessHART networks —
//! a from-scratch reproduction of Remke & Wu, *"WirelessHART Modeling and
//! Performance Evaluation"* (DSN 2013).
//!
//! The model is hierarchical: two-state link DTMCs (from
//! [`whart_channel`]) feed their transient UP probabilities into an
//! absorbing path DTMC driven by the TDMA communication schedule (from
//! [`whart_net`]). From the path chain's absorption probabilities every
//! quality-of-service measure of the paper follows.
//!
//! * [`PathProblem`] — the hierarchical path model (Section IV), built
//!   hop by hop through [`PathProblem::builder`] or compiled from a
//!   network, with the fast transient evaluator (Eq. 5);
//! * [`ir`] — the problem IR ([`PathProblem`] / [`NetworkProblem`]) and
//!   the pluggable [`Solver`] backends ([`FastSolver`], [`ExplicitSolver`],
//!   and `whart-sim`'s Monte-Carlo adapter);
//! * [`explicit`] — Algorithm 1's explicit unrolled DTMC (Figs. 4-5),
//!   equivalent to the fast evaluator and exportable to Graphviz;
//! * [`PathEvaluation`] — reachability (Eq. 6), delay distribution and
//!   expectation (Eqs. 7-9), utilization (Eq. 10), time-to-first-loss;
//! * [`NetworkModel`] — per-path evaluation of a whole network plus the
//!   aggregates of Section VI (overall delay `Gamma`, network utilization);
//! * [`compose`] — path compositionality (Eq. 12) and the performance
//!   prediction / routing advice of Section VI-E;
//! * [`failure`] — the robustness studies of Section VI-C;
//! * [`sensitivity`] — link-repair priority ranking (quantifying the
//!   paper's "improve the bottleneck" advice);
//! * [`sweeps`] — the parameter sweeps behind Figs. 8-10, 18 and Table I;
//! * [`LinkDynamics`] — steady, transient or outage-afflicted link
//!   behaviour feeding the evaluator.
//!
//! # Example
//!
//! The paper's Section V example path, end to end:
//!
//! ```
//! use whart_model::{DelayConvention, LinkDynamics, PathProblem};
//! use whart_channel::LinkModel;
//! use whart_net::{ReportingInterval, Superframe};
//!
//! # fn main() -> Result<(), whart_model::ModelError> {
//! let link = LinkModel::from_availability(0.75, 0.9)?;
//! let mut builder = PathProblem::builder();
//! builder
//!     .add_hop(LinkDynamics::steady(link), 2) // <n1,n2> in slot 3
//!     .add_hop(LinkDynamics::steady(link), 5) // <n2,n3> in slot 6
//!     .add_hop(LinkDynamics::steady(link), 6) // <n3,G>  in slot 7
//!     .superframe(Superframe::symmetric(7)?)
//!     .interval(ReportingInterval::new(4)?);
//! let evaluation = builder.build()?.evaluate();
//!
//! assert!((evaluation.reachability() - 0.9624).abs() < 1e-4);
//! let delay = evaluation.expected_delay_ms(DelayConvention::Absolute).unwrap();
//! assert!((delay - 190.8).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dynamics;
mod error;
mod measures;
mod network;
mod path;

pub mod compose;
pub mod explain;
pub mod explicit;
pub mod failure;
pub mod ir;
pub mod sensitivity;
pub mod signature;
pub mod sweeps;

pub use dynamics::{LinkDynamics, Outage};
pub use error::{ModelError, Result};
pub use explain::{explain_path, DelayComponent, HopBreakdown, PathExplanation};
pub use ir::{
    ExplicitSolver, FastSolver, MeasurePlan, NetworkProblem, PathProblem, ProblemHop, Solver,
};
pub use measures::{DelayConvention, UtilizationConvention};
pub use network::{NetworkEvaluation, NetworkModel, PathReport};
pub use path::{PathEvaluation, PathProblemBuilder};
