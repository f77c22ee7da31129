//! Closed-loop control over WirelessHART (the paper's future work): a PID
//! temperature loop whose sensor reports cross the Section V example path.
//! Compare control quality across link availabilities and reporting
//! intervals.
//!
//! ```sh
//! cargo run --example control_loop
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wirelesshart::channel::LinkModel;
use wirelesshart::control::{
    metrics, run_loop, FirstOrderPlant, LoopConfig, ModelDelivery, Pid, PidConfig,
};
use wirelesshart::model::{LinkDynamics, PathProblem};
use wirelesshart::net::{ReportingInterval, Superframe};

fn evaluate_path(
    availability: f64,
    interval: ReportingInterval,
) -> Result<wirelesshart::model::PathEvaluation, Box<dyn std::error::Error>> {
    let link = LinkModel::from_availability(availability, 0.9)?;
    let mut b = PathProblem::builder();
    b.add_hop(LinkDynamics::steady(link), 2)
        .add_hop(LinkDynamics::steady(link), 5)
        .add_hop(LinkDynamics::steady(link), 6)
        .superframe(Superframe::symmetric(7)?)
        .interval(interval);
    Ok(b.build()?.evaluate())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("first-order plant (K = 1, T = 2 s), PID kp = 2, ki = 1, setpoint 1.0");
    println!("sensor path: the 3-hop Section V example; symmetric downlink\n");
    println!("pi(up)   Is   report every   ISE      IAE      settle   losses");
    for &availability in &[0.948, 0.903, 0.83, 0.774, 0.693] {
        for &is in &[2u32, 4] {
            let interval = ReportingInterval::new(is)?;
            let evaluation = evaluate_path(availability, interval)?;
            let report_ms = 140 * is; // F_s = 14 slots of 10 ms, Is cycles
            let config = LoopConfig {
                setpoint: 1.0,
                duration_ms: 120_000,
                reporting_interval_ms: report_ms,
                symmetric_downlink: true,
            };
            let mut rng = StdRng::seed_from_u64(7);
            let mut plant = FirstOrderPlant::new(1.0, 2.0, 0.0);
            let mut pid = Pid::new(PidConfig {
                kp: 2.0,
                ki: 1.0,
                kd: 0.0,
                output_min: -10.0,
                output_max: 10.0,
            });
            let trace = run_loop(
                &mut plant,
                &mut pid,
                &ModelDelivery::new(evaluation),
                config,
                &mut rng,
            );
            let settle = metrics::settling_time_ms(&trace, 1.0, 0.05)
                .map_or("never".to_string(), |t| {
                    format!("{:.1} s", f64::from(t) / 1000.0)
                });
            println!(
                "{availability:.3}   {is:>2}   {report_ms:>9} ms   {:>6.3}   {:>6.3}   {settle:>7}  {:>4}",
                metrics::integral_squared_error(&trace, 1.0),
                metrics::integral_absolute_error(&trace, 1.0),
                trace.reports_lost
            );
        }
    }
    println!("\nfaster reporting (Is = 2) tightens control but loses more messages —");
    println!("the balance Section VI-D of the paper discusses.");
    Ok(())
}
