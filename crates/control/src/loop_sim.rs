//! The networked control loop.
//!
//! Closes the loop the paper describes (Section II): sensors sample once
//! per reporting interval, the measurement crosses the WirelessHART uplink
//! with the delay/loss behaviour of a [`PathEvaluation`], the gateway PID
//! computes a command, and the command returns over the symmetric downlink
//! before the actuator applies it (zero-order hold in between). Lost
//! reports mean the actuator keeps running on a stale command — exactly
//! the destabilizing effect the paper's reachability measure guards
//! against ("if a message fails to reach the gateway, the input signal I
//! is lost, possibly causing instability to the control loop").

use crate::pid::Pid;
use crate::plant::Plant;
use rand::Rng;
use whart_model::{DelayConvention, PathEvaluation};

/// Samples, per reporting interval, whether the sensor report is delivered
/// and with what one-way delay.
pub trait DeliveryProcess {
    /// Returns `Some(one_way_delay_ms)` if the report is delivered, `None`
    /// if it is lost.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u32>;
}

/// An ideal network: always delivered at a fixed delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfectDelivery {
    /// The constant one-way delay in milliseconds.
    pub delay_ms: u32,
}

impl DeliveryProcess for PerfectDelivery {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Option<u32> {
        Some(self.delay_ms)
    }
}

/// Delivery sampled from an analytical path evaluation: the report arrives
/// in cycle `i` with the evaluation's cycle probabilities (its delay is the
/// corresponding paper delay) and is lost with `1 - R`.
#[derive(Debug, Clone)]
pub struct ModelDelivery {
    evaluation: PathEvaluation,
}

impl ModelDelivery {
    /// Wraps an evaluation.
    pub fn new(evaluation: PathEvaluation) -> Self {
        ModelDelivery { evaluation }
    }
}

impl DeliveryProcess for ModelDelivery {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u32> {
        let mut roll = rng.gen::<f64>();
        for cycle in 1..=self.evaluation.interval().cycles() {
            let p = self
                .evaluation
                .cycle_probabilities()
                .get(cycle as usize - 1);
            if roll < p {
                return Some(self.evaluation.delay_ms(cycle, DelayConvention::Absolute) as u32);
            }
            roll -= p;
        }
        None
    }
}

/// Loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopConfig {
    /// Desired plant output.
    pub setpoint: f64,
    /// Total simulated time in milliseconds.
    pub duration_ms: u32,
    /// Sensor reporting interval in milliseconds (`Is * F_s * 10`).
    pub reporting_interval_ms: u32,
    /// Whether the command's downlink delay mirrors the uplink delay (the
    /// paper's symmetric assumption); otherwise the command applies
    /// immediately on computation.
    pub symmetric_downlink: bool,
}

/// One sample of the loop trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Time in milliseconds.
    pub t_ms: u32,
    /// Plant output.
    pub output: f64,
    /// Actuator command in effect.
    pub command: f64,
}

/// The simulated trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopTrace {
    /// Samples at every 10 ms slot.
    pub points: Vec<TracePoint>,
    /// Sensor reports lost in transit.
    pub reports_lost: u32,
    /// Sensor reports delivered.
    pub reports_delivered: u32,
}

/// Runs the networked loop: plant integrated at the 10 ms slot rate,
/// sensor sampled once per reporting interval, PID updated on delivery,
/// command applied after the (optional) downlink delay.
pub fn run_loop<P, D, R>(
    plant: &mut P,
    pid: &mut Pid,
    delivery: &D,
    config: LoopConfig,
    rng: &mut R,
) -> LoopTrace
where
    P: Plant,
    D: DeliveryProcess,
    R: Rng + ?Sized,
{
    const SLOT_MS: u32 = 10;
    let dt = f64::from(config.reporting_interval_ms) / 1000.0;
    let mut trace = LoopTrace::default();
    let mut command = 0.0f64;
    // Commands scheduled to take effect at a future time.
    let mut pending: Vec<(u32, f64)> = Vec::new();
    let mut t = 0u32;
    while t < config.duration_ms {
        if t % config.reporting_interval_ms == 0 {
            let measurement = plant.output();
            match delivery.sample(rng) {
                Some(delay) => {
                    trace.reports_delivered += 1;
                    let output = pid.update(config.setpoint, measurement, dt);
                    let apply_at = if config.symmetric_downlink {
                        t + 2 * delay
                    } else {
                        t + delay
                    };
                    pending.push((apply_at, output));
                }
                None => trace.reports_lost += 1,
            }
        }
        pending.retain(|&(apply_at, value)| {
            if apply_at <= t {
                command = value;
                false
            } else {
                true
            }
        });
        plant.step(command, f64::from(SLOT_MS) / 1000.0);
        trace.points.push(TracePoint {
            t_ms: t,
            output: plant.output(),
            command,
        });
        t += SLOT_MS;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::{Pid, PidConfig};
    use crate::plant::FirstOrderPlant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use whart_channel::LinkModel;
    use whart_model::{LinkDynamics, PathProblem};
    use whart_net::{ReportingInterval, Superframe};

    fn pid() -> Pid {
        Pid::new(PidConfig {
            kp: 2.0,
            ki: 1.0,
            kd: 0.0,
            output_min: -10.0,
            output_max: 10.0,
        })
    }

    fn config() -> LoopConfig {
        LoopConfig {
            setpoint: 1.0,
            duration_ms: 60_000,
            reporting_interval_ms: 560, // Is=4 * Fs=14 slots * 10 ms
            symmetric_downlink: true,
        }
    }

    fn example_eval(pi: f64) -> PathEvaluation {
        let link = LinkModel::from_availability(pi, 0.9).unwrap();
        let mut b = PathProblem::builder();
        b.add_hop(LinkDynamics::steady(link), 2)
            .add_hop(LinkDynamics::steady(link), 5)
            .add_hop(LinkDynamics::steady(link), 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(4).unwrap());
        b.build().unwrap().evaluate()
    }

    #[test]
    fn perfect_network_settles_to_setpoint() {
        let mut plant = FirstOrderPlant::new(1.0, 2.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = run_loop(
            &mut plant,
            &mut pid(),
            &PerfectDelivery { delay_ms: 70 },
            config(),
            &mut rng,
        );
        assert_eq!(trace.reports_lost, 0);
        let tail = &trace.points[trace.points.len() - 50..];
        for p in tail {
            assert!((p.output - 1.0).abs() < 0.05, "t={} y={}", p.t_ms, p.output);
        }
    }

    #[test]
    fn model_delivery_samples_paper_distribution() {
        let delivery = ModelDelivery::new(example_eval(0.75));
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 50_000;
        let mut lost = 0u32;
        let mut first_cycle = 0u32;
        for _ in 0..trials {
            match delivery.sample(&mut rng) {
                None => lost += 1,
                Some(70) => first_cycle += 1,
                Some(d) => assert!([210, 350, 490].contains(&d), "{d}"),
            }
        }
        let loss_rate = f64::from(lost) / f64::from(trials);
        let first_rate = f64::from(first_cycle) / f64::from(trials);
        assert!((loss_rate - 0.0376).abs() < 0.005, "{loss_rate}");
        assert!((first_rate - 0.4219).abs() < 0.01, "{first_rate}");
    }

    #[test]
    fn lossy_network_degrades_control() {
        let mut rng = StdRng::seed_from_u64(5);
        let run = |pi: f64, rng: &mut StdRng| {
            let mut plant = FirstOrderPlant::new(1.0, 2.0, 0.0);
            let trace = run_loop(
                &mut plant,
                &mut pid(),
                &ModelDelivery::new(example_eval(pi)),
                config(),
                rng,
            );
            crate::metrics::integral_squared_error(&trace, 1.0)
        };
        // Average several runs to keep the comparison stable.
        let mut good = 0.0;
        let mut bad = 0.0;
        for _ in 0..10 {
            good += run(0.948, &mut rng);
            bad += run(0.693, &mut rng);
        }
        assert!(bad > good, "bad {bad} vs good {good}");
    }

    #[test]
    fn loss_counter_matches_reachability() {
        let mut plant = FirstOrderPlant::new(1.0, 2.0, 0.0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut cfg = config();
        cfg.duration_ms = 560 * 5_000;
        let trace = run_loop(
            &mut plant,
            &mut pid(),
            &ModelDelivery::new(example_eval(0.75)),
            cfg,
            &mut rng,
        );
        let total = trace.reports_delivered + trace.reports_lost;
        let loss_rate = f64::from(trace.reports_lost) / f64::from(total);
        assert!((loss_rate - 0.0376).abs() < 0.01, "{loss_rate}");
    }

    #[test]
    fn asymmetric_downlink_applies_sooner() {
        let mut rng = StdRng::seed_from_u64(2);
        let run = |symmetric: bool, rng: &mut StdRng| {
            let mut plant = FirstOrderPlant::new(1.0, 2.0, 0.0);
            let cfg = LoopConfig {
                symmetric_downlink: symmetric,
                ..config()
            };
            let trace = run_loop(
                &mut plant,
                &mut pid(),
                &PerfectDelivery { delay_ms: 210 },
                cfg,
                rng,
            );
            // Time of first non-zero command.
            trace
                .points
                .iter()
                .find(|p| p.command != 0.0)
                .map(|p| p.t_ms)
                .unwrap()
        };
        let sym = run(true, &mut rng);
        let asym = run(false, &mut rng);
        assert!(sym > asym, "{sym} vs {asym}");
    }
}
