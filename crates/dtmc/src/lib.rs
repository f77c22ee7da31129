//! Discrete distributions for the WirelessHART performance model.
//!
//! The hierarchical model of Remke & Wu (DSN 2013) reports its path
//! results as distributions, and this crate provides them:
//!
//! * [`Pmf`] — the cycle probability function `g(x)` of a path (index `i`
//!   is delivery in reporting cycle `i + 1`; the missing mass is the loss
//!   probability), with the convolution used for path composition
//!   (Eq. 12 of the paper);
//! * [`ValueDistribution`] — a distribution over real values, such as
//!   end-to-end delays in milliseconds, with expectation, variance and
//!   quantiles.
//!
//! The path chains themselves (Algorithm 1, Figs. 4-5) live in
//! `whart_model::explicit`.
//!
//! # Example
//!
//! Two path segments, each delivering in its first cycle with probability
//! 0.9 and otherwise in the next, compose into a path that delivers in
//! cycle 1 with probability 0.81:
//!
//! ```
//! use whart_dtmc::{Pmf, ValueDistribution};
//!
//! # fn main() -> Result<(), whart_dtmc::DtmcError> {
//! let segment = Pmf::geometric(0.9, 2)?;
//! let path = segment.convolve(&segment);
//! assert!((path.get(0) - 0.81).abs() < 1e-12);
//! assert!((path.total_mass() - 0.99 * 0.99).abs() < 1e-12);
//!
//! // One cycle lasts 1 s: the delay of a delivered message.
//! let delay = ValueDistribution::new(
//!     path.as_slice()
//!         .iter()
//!         .enumerate()
//!         .map(|(i, &p)| (1000.0 * (i + 1) as f64, p))
//!         .collect(),
//! )?;
//! assert_eq!(delay.quantile(0.5), Some(1000.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dist;
mod error;

pub use dist::{Pmf, ValueDistribution};
pub use error::{DtmcError, Result};
