//! Discrete-time Markov chain substrate for the WirelessHART performance
//! model.
//!
//! This crate provides the generic machinery the hierarchical model of
//! Remke & Wu (DSN 2013) is built on:
//!
//! * [`Dtmc`] — labelled chains over validated sparse row-stochastic
//!   matrices, with absorbing-state analysis (the goal and discard
//!   probabilities of the paper's path model, Eqs. 6-9) and transient
//!   trajectories;
//! * [`Pmf`] / [`ValueDistribution`] — finite discrete distributions with
//!   the convolution used for path composition (Eq. 12 of the paper);
//! * [`dot`] — Graphviz export in the style of the paper's Figs. 4-5.
//!
//! # Example
//!
//! A message that must cross two hops, each delivered with probability
//! 0.9 and otherwise discarded, reaches its goal with probability 0.81:
//!
//! ```
//! use whart_dtmc::Dtmc;
//!
//! # fn main() -> Result<(), whart_dtmc::DtmcError> {
//! let mut b = Dtmc::builder();
//! let hop1 = b.add_state("hop 1");
//! let hop2 = b.add_state("hop 2");
//! let goal = b.add_state("goal");
//! let discard = b.add_state("discard");
//! b.add_transition(hop1, hop2, 0.9)?;
//! b.add_transition(hop1, discard, 0.1)?;
//! b.add_transition(hop2, goal, 0.9)?;
//! b.add_transition(hop2, discard, 0.1)?;
//! b.make_absorbing(goal)?;
//! b.make_absorbing(discard)?;
//! let path = b.build()?;
//!
//! let absorption = path.absorption()?;
//! assert!((absorption.probability(hop1, goal) - 0.81).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod chain;
mod dist;
mod error;
mod linalg;
mod matrix;

pub mod dot;

pub use chain::{Absorption, Dtmc, DtmcBuilder, StateId};
pub use dist::{Pmf, ValueDistribution};
pub use error::{DtmcError, Result};
