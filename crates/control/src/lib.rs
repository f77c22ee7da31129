//! Networked control loop on top of the WirelessHART model — the paper's
//! stated future work ("include the computed reachability probabilities
//! directly into the control loop, in order to analyze the stability of a
//! control loop"), built as an extension.
//!
//! * [`Pid`] — the gateway's discrete PID controller;
//! * [`FirstOrderPlant`] — a classic process-industry plant behind the
//!   [`Plant`] trait;
//! * [`run_loop`] — the closed loop with sensor reports crossing the
//!   network per a [`DeliveryProcess`] (sampled from an analytical
//!   [`whart_model::PathEvaluation`] via [`ModelDelivery`], or ideal via
//!   [`PerfectDelivery`]);
//! * [`metrics`] — ISE/IAE and settling time.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use whart_control::{
//!     run_loop, FirstOrderPlant, LoopConfig, PerfectDelivery, Pid, PidConfig,
//! };
//!
//! let mut plant = FirstOrderPlant::new(1.0, 2.0, 0.0);
//! let mut pid = Pid::new(PidConfig { kp: 2.0, ki: 1.0, ..PidConfig::default() });
//! let config = LoopConfig {
//!     setpoint: 1.0,
//!     duration_ms: 30_000,
//!     reporting_interval_ms: 560,
//!     symmetric_downlink: true,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let trace = run_loop(&mut plant, &mut pid, &PerfectDelivery { delay_ms: 70 }, config, &mut rng);
//! assert!((trace.points.last().unwrap().output - 1.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod loop_sim;
mod pid;
mod plant;

pub mod metrics;

pub use loop_sim::{
    run_loop, DeliveryProcess, LoopConfig, LoopTrace, ModelDelivery, PerfectDelivery, TracePoint,
};
pub use pid::{Pid, PidConfig};
pub use plant::{FirstOrderPlant, Plant};
