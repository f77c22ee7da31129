//! Beyond-the-paper experiments: Monte-Carlo validation of the analytical
//! model and the closed-loop control study the paper lists as future work.

use crate::report::{Check, ExperimentReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use whart_channel::{LinkModel, WIRELESSHART_MESSAGE_BITS};
use whart_control::{
    metrics, run_loop, FirstOrderPlant, LoopConfig, ModelDelivery, Pid, PidConfig,
};
use whart_model::{
    DelayConvention, LinkDynamics, NetworkModel, PathProblem, UtilizationConvention,
};
use whart_net::typical::TypicalNetwork;
use whart_net::{ReportingInterval, Superframe};
use whart_sim::{wilson_interval, PhyMode, Simulator};

/// Simulation cross-check: the slot-level Monte-Carlo simulator must agree
/// with the analytical DTMC on the typical network.
pub fn sim_validation(intervals: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "sim-validation",
        "Monte-Carlo simulator vs analytical model (typical network, pi = 0.83)",
    );
    let link = LinkModel::from_ber(2e-4, WIRELESSHART_MESSAGE_BITS, 0.9).expect("valid");
    let net = TypicalNetwork::new(link);
    let model = NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
        .expect("valid");
    let analytic = model.evaluate().expect("valid");
    let sim = Simulator::from_typical(
        &net,
        net.schedule_eta_a(),
        ReportingInterval::REGULAR,
        PhyMode::Gilbert,
    )
    .expect("valid");
    let observed = sim.run_parallel(20260706, intervals, whart_engine::available_cores());
    report.line(format!("{intervals} reporting intervals simulated"));
    report.line("path  analytic R  simulated R  within 99.9% CI");
    let mut misses = 0u32;
    for (i, r) in analytic.reports().iter().enumerate() {
        let stats = &observed.paths[i];
        let delivered = stats.messages() - stats.lost;
        let (lo, hi) = wilson_interval(delivered, stats.messages(), 3.29);
        let a = r.evaluation.reachability();
        let inside = (lo..=hi).contains(&a);
        misses += u32::from(!inside);
        report.line(format!(
            "{:>4}  {:>10.6}  {:>11.6}  {}",
            i + 1,
            a,
            stats.reachability(),
            if inside { "yes" } else { "NO" }
        ));
    }
    // Ten simultaneous interval checks need wide intervals plus one
    // allowed marginal miss to be a sound (non-flaky) assertion; the
    // headline aggregates are compared tightly instead.
    report.check(Check::new(
        "simulated mean delay vs E[Gamma]",
        analytic
            .mean_delay_ms(DelayConvention::Absolute)
            .expect("reachable"),
        observed.mean_delay_ms().expect("messages delivered"),
        3.0,
    ));
    report.check(Check::new(
        "simulated utilization vs U",
        analytic.utilization(UtilizationConvention::AsEvaluated),
        observed.network_utilization(),
        0.003,
    ));
    report.check(Check::new(
        "paths outside their 99.9% CI (at most 1)",
        0.0,
        f64::from(misses),
        1.0,
    ));
    report
}

/// Closed-loop control study (the paper's future work): the same PID/plant
/// pair under networks of decreasing availability.
pub fn control_loop() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "control-loop",
        "closed-loop PID performance vs link availability (extension)",
    );
    let evaluate = |pi: f64| {
        let link = LinkModel::from_availability(pi, 0.9).expect("valid");
        let mut b = PathProblem::builder();
        b.add_hop(LinkDynamics::steady(link), 2)
            .add_hop(LinkDynamics::steady(link), 5)
            .add_hop(LinkDynamics::steady(link), 6);
        b.superframe(Superframe::symmetric(7).expect("valid"))
            .interval(ReportingInterval::REGULAR);
        b.build().expect("valid").evaluate()
    };
    let config = LoopConfig {
        setpoint: 1.0,
        duration_ms: 120_000,
        reporting_interval_ms: 560,
        symmetric_downlink: true,
    };
    let mut ises = Vec::new();
    for pi in [0.948, 0.83, 0.693] {
        let mut ise_total = 0.0;
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
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
                &ModelDelivery::new(evaluate(pi)),
                config,
                &mut rng,
            );
            ise_total += metrics::integral_squared_error(&trace, 1.0);
        }
        let ise = ise_total / 20.0;
        report.line(format!("pi = {pi:.3}: mean ISE over 20 runs = {ise:.3}"));
        ises.push(ise);
    }
    report.check(Check::new(
        "control error grows as availability drops",
        1.0,
        f64::from(u8::from(ises.windows(2).all(|w| w[1] >= w[0]))),
        0.0,
    ));
    report
}
