//! Section VI-A/B experiments: the typical network
//! (Figs. 13-16, Table II).

use crate::engine_support::with_engine;
use crate::report::{series, Check, ExperimentReport};
use whart_channel::{LinkModel, WIRELESSHART_MESSAGE_BITS};
use whart_engine::{Outcome, Scenario};
use whart_model::sweeps::PAPER_BERS;
use whart_model::{DelayConvention, NetworkEvaluation, NetworkModel, UtilizationConvention};
use whart_net::typical::TypicalNetwork;
use whart_net::ReportingInterval;

/// Builds and evaluates the typical network at a BER operating point under
/// `eta_a` (or `eta_b`), through the shared batch engine: repeated
/// operating points (fig13 vs table2 vs fig19's baseline) answer from the
/// path cache instead of re-solving ten DTMCs.
pub fn evaluate_typical(ber: f64, eta_b: bool, interval: ReportingInterval) -> NetworkEvaluation {
    with_engine(|engine| {
        let link = LinkModel::from_ber(ber, WIRELESSHART_MESSAGE_BITS, LinkModel::DEFAULT_RECOVERY)
            .expect("paper operating points are valid");
        let net = TypicalNetwork::new(link);
        let schedule = if eta_b {
            net.schedule_eta_b()
        } else {
            net.schedule_eta_a()
        };
        let model = NetworkModel::from_typical(&net, schedule, interval)
            .expect("the typical network is statically valid");
        let label = format!("typical ber={ber} eta_b={eta_b} Is={}", interval.cycles());
        engine.submit(Scenario::network(label, model));
        let mut results = engine
            .drain()
            .expect("evaluation of a valid network succeeds");
        match results.pop().expect("one scenario drained").outcome {
            Outcome::Network(evaluation) => evaluation,
            Outcome::Paths(_) => unreachable!("network workload"),
        }
    })
}

/// Fig. 13: reachability of all ten paths at four availabilities.
pub fn fig13() -> ExperimentReport {
    let mut report = ExperimentReport::new("fig13", "per-path reachability in the typical network");
    // BERs for pi in {0.903, 0.83, 0.774, 0.693}.
    let points = [(1e-4, 0.903), (2e-4, 0.83), (3e-4, 0.774), (5e-4, 0.693)];
    let mut all = Vec::new();
    for (ber, pi) in points {
        let eval = evaluate_typical(ber, false, ReportingInterval::REGULAR);
        let r = eval.reachabilities();
        report.line(series(&format!("pi = {pi:.3}"), r.iter().copied()));
        all.push((pi, r));
    }
    // Shape checks from the paper's prose: high availability keeps even
    // 3-hop paths near 1; at 0.693 the 3-hop paths drop to ~0.93 ("a
    // message loss of one out of 13 messages").
    let r903 = &all[0].1;
    report.check(Check::new(
        "3-hop path R at pi = 0.903",
        0.9989,
        r903[9],
        5e-4,
    ));
    let r693 = &all[3].1;
    report.check(Check::new(
        "3-hop path R at pi = 0.693",
        0.9238,
        r693[9],
        2e-3,
    ));
    report.check(Check::new(
        "loss ~ 1/13 at pi = 0.693 (3-hop)",
        13.0,
        1.0 / (1.0 - r693[9]),
        0.6,
    ));
    // Reachability decreases with hop count at every availability.
    for (pi, r) in &all {
        let ordered = r[0] >= r[3] && r[3] >= r[8];
        report.check(Check::new(
            format!("1-hop >= 2-hop >= 3-hop at pi = {pi}"),
            1.0,
            f64::from(u8::from(ordered)),
            0.0,
        ));
    }
    report
}

/// Fig. 14: the overall delay distribution of the typical network at
/// `pi = 0.83`.
pub fn fig14() -> ExperimentReport {
    let mut report =
        ExperimentReport::new("fig14", "overall delay distribution (eta_a, pi = 0.83)");
    let eval = evaluate_typical(2e-4, false, ReportingInterval::REGULAR);
    let gamma = eval.overall_delay_distribution(DelayConvention::Absolute);
    for (delay, p) in gamma.iter() {
        if p > 1e-6 {
            report.line(format!("  {delay:>5} ms : {p:.4}"));
        }
    }
    let mean_r = eval.reachabilities().iter().sum::<f64>() / 10.0;
    // The paper's fractions count all generated messages (not only
    // delivered ones), hence the scaling by the mean reachability.
    let first = gamma.cdf(200.0) * mean_r;
    let second = (gamma.cdf(600.0) - gamma.cdf(200.0)) * mean_r;
    let by_600 = gamma.cdf(600.0) * mean_r;
    let by_1000 = gamma.cdf(1000.0) * mean_r;
    report.check(Check::new("first-cycle fraction", 0.708, first, 2e-3));
    report.check(Check::new("second-cycle fraction", 0.217, second, 3e-3));
    report.check(Check::new("delivered by 600 ms", 0.926, by_600, 3e-3));
    report.check(Check::new("delivered by 1000 ms", 0.983, by_1000, 3e-3));
    let max_delay = gamma.iter().last().expect("non-empty").0;
    report.check(
        Check::new("longest delay (ms)", 1400.0, max_delay, 15.0).with_note(
            "paper reads 1400 off the axis; the exact arrival is (3*40+19)*10 = 1390 ms",
        ),
    );
    report
}

/// Fig. 15: per-path expected delays under `eta_a` and the overall mean.
pub fn fig15() -> ExperimentReport {
    let mut report = ExperimentReport::new("fig15", "expected delays per path (eta_a)");
    let eval = evaluate_typical(2e-4, false, ReportingInterval::REGULAR);
    let delays = eval.expected_delays_ms(DelayConvention::Absolute);
    for (i, d) in delays.iter().enumerate() {
        report.line(format!(
            "  path {:>2}: {:>6.1} ms",
            i + 1,
            d.expect("reachable")
        ));
    }
    report.check(Check::new(
        "bottleneck path 10 E[tau]",
        421.409,
        delays[9].expect("reachable"),
        1.0,
    ));
    report.check(Check::new(
        "overall mean E[Gamma]",
        235.0,
        eval.mean_delay_ms(DelayConvention::Absolute)
            .expect("reachable"),
        1.0,
    ));
    report.check(Check::new(
        "bottleneck index",
        10.0,
        (eval
            .delay_bottleneck(DelayConvention::Absolute)
            .expect("paths exist")
            + 1) as f64,
        0.0,
    ));
    report
}

/// Fig. 16: `eta_a` vs `eta_b` expected delays.
pub fn fig16() -> ExperimentReport {
    let mut report = ExperimentReport::new("fig16", "expected delays under eta_a vs eta_b");
    let a = evaluate_typical(2e-4, false, ReportingInterval::REGULAR);
    let b = evaluate_typical(2e-4, true, ReportingInterval::REGULAR);
    let da = a.expected_delays_ms(DelayConvention::Absolute);
    let db = b.expected_delays_ms(DelayConvention::Absolute);
    report.line("path   eta_a (ms)   eta_b (ms)");
    for i in 0..10 {
        report.line(format!(
            "{:>4}   {:>9.1}   {:>9.1}",
            i + 1,
            da[i].expect("reachable"),
            db[i].expect("reachable")
        ));
    }
    report.check(Check::new(
        "eta_b path 10",
        291.0,
        db[9].expect("reachable"),
        1.5,
    ));
    report.check(Check::new(
        "eta_b new bottleneck path 7",
        317.9528,
        db[6].expect("reachable"),
        1.0,
    ));
    report.check(Check::new(
        "eta_b bottleneck index",
        7.0,
        (b.delay_bottleneck(DelayConvention::Absolute)
            .expect("paths exist")
            + 1) as f64,
        0.0,
    ));
    report.check(Check::new(
        "eta_b overall mean E[Gamma]",
        272.0,
        b.mean_delay_ms(DelayConvention::Absolute)
            .expect("reachable"),
        1.0,
    ));
    // eta_b balances: its delay spread is smaller than eta_a's.
    let spread = |d: &[Option<f64>]| {
        let v: Vec<f64> = d.iter().map(|x| x.expect("reachable")).collect();
        v.iter().copied().fold(f64::MIN, f64::max) - v.iter().copied().fold(f64::MAX, f64::min)
    };
    report.check(Check::new(
        "eta_b spread < eta_a spread",
        1.0,
        f64::from(u8::from(spread(&db) < spread(&da))),
        0.0,
    ));
    report
}

/// Table II: network utilization vs availability.
pub fn table2() -> ExperimentReport {
    let mut report = ExperimentReport::new("table2", "utilization of the typical network");
    let bers_with_989: [f64; 6] = {
        let mut all = [0.0; 6];
        all[..5].copy_from_slice(&PAPER_BERS);
        all[5] = 1e-5; // pi = 0.989
        all
    };
    let want = [0.313, 0.297, 0.283, 0.263, 0.25, 0.24];
    report.line("pi(up)   U");
    for (&ber, &want_u) in bers_with_989.iter().zip(&want) {
        let link = LinkModel::from_ber(ber, WIRELESSHART_MESSAGE_BITS, 0.9).expect("valid");
        let eval = evaluate_typical(ber, false, ReportingInterval::REGULAR);
        let u = eval.utilization(UtilizationConvention::AsEvaluated);
        report.line(format!("{:.3}    {:.4}", link.availability(), u));
        report.check(Check::new(
            format!("U at pi = {:.3}", link.availability()),
            want_u,
            u,
            3e-3,
        ));
    }
    report.line(
        "(convention: n + i - 1 slots per delivered message, losses not counted — see DESIGN.md)",
    );
    report
}
