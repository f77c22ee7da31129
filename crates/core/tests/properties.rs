//! Property-based tests for the hierarchical model: the fast evaluator, the
//! explicit Algorithm-1 chain, composition and the measures must agree with
//! each other and with closed forms on randomized configurations.

use proptest::prelude::*;
use whart_channel::{LinkModel, LinkState};
use whart_dtmc::Pmf;
use whart_model::{
    compose,
    explicit::{explicit_chain, ExplicitChain},
    DelayConvention, LinkDynamics, Outage, PathProblem, UtilizationConvention,
};
use whart_net::{ReportingInterval, Superframe};

/// A random path problem: `hops` homogeneous steady links at `pi`, hop `k` in
/// frame slot `slots[k]` (strictly increasing), interval `is`.
fn build_model(pis: &[f64], slots: &[usize], f_up: u32, is: u32, ttl: Option<u32>) -> PathProblem {
    let mut b = PathProblem::builder();
    for (k, (&pi, &slot)) in pis.iter().zip(slots).enumerate() {
        let _ = k;
        b.add_hop(
            LinkDynamics::steady(LinkModel::from_availability(pi, 0.9).unwrap()),
            slot,
        );
    }
    b.superframe(Superframe::symmetric(f_up).unwrap())
        .interval(ReportingInterval::new(is).unwrap());
    if let Some(t) = ttl {
        b.ttl(t);
    }
    b.build().unwrap()
}

/// Strategy: 1..=4 availabilities in the representable range plus strictly
/// increasing slots inside an f_up-slot frame.
fn model_params() -> impl Strategy<Value = (Vec<f64>, Vec<usize>, u32, u32)> {
    (1usize..=4, 2u32..=10, 1u32..=5).prop_flat_map(|(hops, extra, is)| {
        let f_up = hops as u32 + extra;
        (
            proptest::collection::vec(0.5f64..0.99, hops),
            proptest::sample::subsequence((0..f_up as usize).collect::<Vec<_>>(), hops),
            Just(f_up),
            Just(is),
        )
    })
}

/// The dense absorbing-chain reference for [`ExplicitChain::solve`]:
/// Gauss-Jordan elimination with partial pivoting of `(I - Q) X = R`,
/// where `Q` is the transient-to-transient block and `R` the
/// transient-to-absorbing block, both read from the chain's own rows.
/// Returns the initial state's goal probabilities (cycle order) and its
/// discard mass.
fn dense_absorption(chain: &ExplicitChain) -> (Vec<f64>, f64) {
    let n = chain.state_count();
    let targets: Vec<usize> = chain
        .goals()
        .iter()
        .copied()
        .chain(chain.state_by_label("Discard"))
        .collect();
    let transient: Vec<usize> = (0..n).filter(|s| !targets.contains(s)).collect();
    let (t, m) = (transient.len(), targets.len());
    let mut row_of = vec![usize::MAX; n];
    for (i, &s) in transient.iter().enumerate() {
        row_of[s] = i;
    }
    // Augmented rows `[I - Q | R]`.
    let mut a = vec![vec![0.0; t + m]; t];
    for (i, &s) in transient.iter().enumerate() {
        a[i][i] = 1.0;
        for (to, p) in chain.successors(s) {
            match targets.iter().position(|&g| g == to) {
                Some(j) => a[i][t + j] += p,
                None => a[i][row_of[to]] -= p,
            }
        }
    }
    for col in 0..t {
        let pivot = (col..t)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        let pivot_row = a[col].clone();
        for (_, r) in a.iter_mut().enumerate().filter(|&(row, _)| row != col) {
            let factor = r[col] / pivot_row[col];
            for (x, p) in r[col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= factor * p;
            }
        }
    }
    let initial = row_of[0];
    let x: Vec<f64> = (0..m)
        .map(|j| a[initial][t + j] / a[initial][initial])
        .collect();
    (x[..m - 1].to_vec(), x[m - 1])
}

/// The oracle for the derived [`whart_model::PathEvaluation::trajectory`]:
/// the goal vector recorded slot by slot. Every uplink slot applies its
/// scheduled transmission, if any, with the evaluator's arithmetic
/// (`moved = mass * pi_up(k)`, added to the next hop or to the cycle's
/// goal) and appends the goals, until the TTL expires; later rows repeat
/// the last one.
fn recorded_trajectory(problem: &PathProblem) -> Vec<Vec<f64>> {
    let n = problem.hop_count();
    let f_up = problem.superframe().uplink_slots() as usize;
    let cycles = problem.interval().cycles() as usize;
    let total = f_up * cycles;
    let cycle_slots = u64::from(problem.superframe().cycle_slots());
    let mut by_slot = vec![None; f_up];
    for (hop, h) in problem.hops().iter().enumerate() {
        by_slot[h.frame_slot()] = Some(hop);
    }
    let mut position = vec![0.0f64; n];
    position[0] = 1.0;
    let mut goals = vec![0.0f64; cycles];
    let mut rows = vec![goals.clone()];
    for step in 1..=total {
        let frame_slot = (step - 1) % f_up;
        let cycle = (step - 1) / f_up;
        if let Some(hop) = by_slot[frame_slot] {
            let mass = position[hop];
            if mass > 0.0 {
                let abs_slot = cycle as u64 * cycle_slots + frame_slot as u64;
                let moved = mass * problem.hops()[hop].dynamics().up_probability(abs_slot);
                position[hop] = mass - moved;
                if hop + 1 == n {
                    goals[cycle] += moved;
                } else {
                    position[hop + 1] += moved;
                }
            }
        }
        rows.push(goals.clone());
        if step as u32 >= problem.ttl() {
            break;
        }
    }
    let last = rows.last().cloned().expect("row 0 is always recorded");
    rows.resize(total + 1, last);
    rows
}

/// A block's configuration: `PROPTEST_CASES` cases when that variable is
/// set (the deep release sweep), `default` otherwise.
fn config(default: u32) -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(default)
    }
}

proptest! {
    #![proptest_config(config(64))]

    #[test]
    fn derived_trajectory_matches_the_recorded_one_bit_for_bit(
        (pis, slots, f_up, is) in model_params(),
        hop_dynamics in proptest::collection::vec((0u8..3, 0u64..60, 0u64..12), 4),
        ttl_pick in any::<u32>(),
    ) {
        // Hop k starts steady, down or up and carries an outage window
        // when `len > 0`; the TTL is anywhere in `1..=Is * F_up`.
        let mut b = PathProblem::builder();
        for (k, &pi) in pis.iter().enumerate() {
            let link = LinkModel::from_availability(pi, 0.9).unwrap();
            let (start_kind, start, len) = hop_dynamics[k];
            let mut dynamics = match start_kind {
                0 => LinkDynamics::steady(link),
                1 => LinkDynamics::starting_in(link, LinkState::Down),
                _ => LinkDynamics::starting_in(link, LinkState::Up),
            };
            if len > 0 {
                dynamics = dynamics.with_outage(Outage::new(start, start + len));
            }
            b.add_hop(dynamics, slots[k]);
        }
        b.superframe(Superframe::symmetric(f_up).unwrap())
            .interval(ReportingInterval::new(is).unwrap())
            .ttl(1 + ttl_pick % (is * f_up));
        let problem = b.build().unwrap();
        let derived = problem.evaluate().trajectory();
        let recorded = recorded_trajectory(&problem);
        prop_assert_eq!(derived.len(), recorded.len());
        for (t, (d, r)) in derived.iter().zip(&recorded).enumerate() {
            let bits = |row: &[f64]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(d), bits(r), "row {}", t);
        }
    }

    #[test]
    fn explicit_sweep_matches_fast_evaluator_and_dense_elimination(
        (pis, slots, f_up, is) in model_params(),
        hop_dynamics in proptest::collection::vec((0u8..3, 0u64..60, 0u64..12), 4),
        ttl in 0u32..40,
    ) {
        // Hop k starts steady, down or up and carries an outage window
        // when `len > 0`.
        let mut b = PathProblem::builder();
        for (k, &pi) in pis.iter().enumerate() {
            let link = LinkModel::from_availability(pi, 0.9).unwrap();
            let (start_kind, start, len) = hop_dynamics[k];
            let mut dynamics = match start_kind {
                0 => LinkDynamics::steady(link),
                1 => LinkDynamics::starting_in(link, LinkState::Down),
                _ => LinkDynamics::starting_in(link, LinkState::Up),
            };
            if len > 0 {
                dynamics = dynamics.with_outage(Outage::new(start, start + len));
            }
            b.add_hop(dynamics, slots[k]);
        }
        b.superframe(Superframe::symmetric(f_up).unwrap())
            .interval(ReportingInterval::new(is).unwrap());
        if ttl > 0 {
            b.ttl(ttl);
        }
        let problem = b.build().unwrap();
        let fast = problem.evaluate();
        let chain = explicit_chain(&problem);
        let (sweep, discard) = chain.solve();
        let (dense, dense_discard) = dense_absorption(&chain);
        prop_assert_eq!(sweep.len(), is as usize);
        prop_assert_eq!(dense.len(), is as usize);
        for (i, &dense_i) in dense.iter().enumerate() {
            let (sweep_i, fast_i) = (sweep.get(i), fast.cycle_probabilities().get(i));
            prop_assert!((sweep_i - fast_i).abs() < 1e-12, "cycle {i}: sweep {sweep_i} vs fast {fast_i}");
            prop_assert!((sweep_i - dense_i).abs() < 1e-12, "cycle {i}: sweep {sweep_i} vs dense {dense_i}");
        }
        prop_assert!((discard - fast.discard_probability()).abs() < 1e-12, "discard: sweep {discard} vs fast {}", fast.discard_probability());
        prop_assert!((discard - dense_discard).abs() < 1e-12, "discard: sweep {discard} vs dense {dense_discard}");
        prop_assert!((sweep.total_mass() + discard - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_mass_is_conserved((pis, slots, f_up, is) in model_params()) {
        let eval = build_model(&pis, &slots, f_up, is, None).evaluate();
        let total = eval.reachability() + eval.discard_probability();
        prop_assert!((total - 1.0).abs() < 1e-12);
        prop_assert!(eval.cycle_probabilities().as_slice().iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn homogeneous_in_order_paths_are_negative_binomial(
        pi in 0.5f64..0.99,
        hops in 1u32..=4,
        is in 1u32..=5,
    ) {
        let slots: Vec<usize> = (0..hops as usize).collect();
        let pis = vec![pi; hops as usize];
        let eval = build_model(&pis, &slots, hops, is, None).evaluate();
        let nb = Pmf::negative_binomial(pi, hops, is as usize).unwrap();
        for i in 0..is as usize {
            prop_assert!((eval.cycle_probabilities().get(i) - nb.get(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn reachability_is_monotone_in_availability(
        lo in 0.5f64..0.9,
        delta in 0.001f64..0.09,
        hops in 1u32..=4,
    ) {
        let slots: Vec<usize> = (0..hops as usize).collect();
        let worse = build_model(&vec![lo; hops as usize], &slots, hops, 4, None).evaluate();
        let better =
            build_model(&vec![lo + delta; hops as usize], &slots, hops, 4, None).evaluate();
        prop_assert!(better.reachability() >= worse.reachability());
        // Better links also deliver earlier in expectation.
        let (db, dw) = (
            better.expected_delay_ms(DelayConvention::Absolute).unwrap(),
            worse.expected_delay_ms(DelayConvention::Absolute).unwrap(),
        );
        prop_assert!(db <= dw + 1e-9);
    }

    #[test]
    fn reachability_is_monotone_in_interval((pis, slots, f_up, _is) in model_params()) {
        let mut last = 0.0;
        for is in 1..=6 {
            let r = build_model(&pis, &slots, f_up, is, None).evaluate().reachability();
            prop_assert!(r + 1e-12 >= last, "Is={is}: {r} < {last}");
            last = r;
        }
    }

    #[test]
    fn ttl_only_reduces_reachability((pis, slots, f_up, is) in model_params(), ttl in 1u32..40) {
        let full = build_model(&pis, &slots, f_up, is, None).evaluate();
        let limited = build_model(&pis, &slots, f_up, is, Some(ttl)).evaluate();
        prop_assert!(limited.reachability() <= full.reachability() + 1e-12);
        // Per-cycle probabilities never increase under a TTL.
        for i in 0..is as usize {
            prop_assert!(
                limited.cycle_probabilities().get(i)
                    <= full.cycle_probabilities().get(i) + 1e-12
            );
        }
    }

    #[test]
    fn composition_matches_monolithic_evaluation(
        pi_a in 0.5f64..0.99,
        pi_b in 0.5f64..0.99,
        split in 1usize..=3,
        is in 1u32..=5,
    ) {
        // A 4-hop path split at `split`: composing the two segment
        // evaluations must equal evaluating the whole path (hops in order,
        // slots 0..4 in a frame of 4).
        let hops = 4usize;
        let pis: Vec<f64> =
            (0..hops).map(|k| if k < split { pi_a } else { pi_b }).collect();
        let slots: Vec<usize> = (0..hops).collect();
        let full = build_model(&pis, &slots, hops as u32, is, None).evaluate();

        let seg1 = build_model(&pis[..split], &slots[..split], hops as u32, is, None).evaluate();
        let seg2_slots: Vec<usize> = (0..hops - split).collect();
        let seg2 =
            build_model(&pis[split..], &seg2_slots, (hops - split) as u32, is, None).evaluate();
        let composed = compose::compose_cycle_probabilities(
            seg1.cycle_probabilities(),
            seg2.cycle_probabilities(),
            ReportingInterval::new(is).unwrap(),
        );
        for i in 0..is as usize {
            prop_assert!(
                (composed.get(i) - full.cycle_probabilities().get(i)).abs() < 1e-12,
                "cycle {i}"
            );
        }
    }

    #[test]
    fn utilization_is_bounded((pis, slots, f_up, is) in model_params()) {
        let eval = build_model(&pis, &slots, f_up, is, None).evaluate();
        for convention in [
            UtilizationConvention::AsEvaluated,
            UtilizationConvention::LostCharged,
            UtilizationConvention::Eq10AsPrinted,
        ] {
            let u = eval.utilization(convention);
            prop_assert!((0.0..=1.0).contains(&u), "{convention:?}: {u}");
        }
    }

    #[test]
    fn exact_utilization_is_bracketed_by_conventions((pis, slots, f_up, is) in model_params()) {
        // AsEvaluated charges lost messages nothing; LostCharged charges
        // their worst case; the exact expected-transmission count sits in
        // between. Delivered-message counts coincide across all three.
        let eval = build_model(&pis, &slots, f_up, is, None).evaluate();
        let lo = eval.utilization(UtilizationConvention::AsEvaluated);
        let hi = eval.utilization(UtilizationConvention::LostCharged);
        let exact = eval.exact_utilization();
        prop_assert!(lo <= exact + 1e-12, "{lo} vs {exact}");
        prop_assert!(exact <= hi + 1e-12, "{exact} vs {hi}");
    }

    #[test]
    fn delay_distribution_is_normalized_and_ordered((pis, slots, f_up, is) in model_params()) {
        let eval = build_model(&pis, &slots, f_up, is, None).evaluate();
        let d = eval.delay_distribution(DelayConvention::Absolute);
        prop_assert!((d.total_mass() - 1.0).abs() < 1e-9);
        // Support delays are strictly increasing across cycles.
        let delays: Vec<f64> = d.iter().map(|(v, _)| v).collect();
        for w in delays.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn expected_delay_is_the_delay_distributions_expectation(
        (pis, slots, f_up, is) in model_params(),
        ttl in 0u32..40,
        dead_first_hop in any::<bool>(),
    ) {
        // Bit for bit, under both conventions, and `None` exactly when the
        // distribution is empty (an unreachable path).
        let mut b = PathProblem::builder();
        for (k, (&pi, &slot)) in pis.iter().zip(&slots).enumerate() {
            let mut dynamics = LinkDynamics::steady(LinkModel::from_availability(pi, 0.9).unwrap());
            if k == 0 && dead_first_hop {
                dynamics = dynamics.with_outage(Outage::new(0, 10_000));
            }
            b.add_hop(dynamics, slot);
        }
        b.superframe(Superframe::symmetric(f_up).unwrap())
            .interval(ReportingInterval::new(is).unwrap());
        if ttl > 0 {
            b.ttl(ttl);
        }
        let eval = b.build().unwrap().evaluate();
        for convention in [DelayConvention::Absolute, DelayConvention::Eq7AsPrinted] {
            let d = eval.delay_distribution(convention);
            let want = (!d.is_empty()).then(|| d.expectation().to_bits());
            prop_assert_eq!(eval.expected_delay_ms(convention).map(f64::to_bits), want);
        }
    }

    #[test]
    fn outage_never_improves_reachability(
        (_pis, slots, f_up, is) in model_params(),
        pi in 0.9f64..0.99,
        start in 0u64..30,
        len in 1u64..20,
    ) {
        // Monotonicity only holds when the link chain's second eigenvalue
        // `1 - p_fl - p_rc` is non-negative (pi >= p_rc); otherwise the
        // post-outage recovery overshoots the steady state (channel hopping
        // makes a just-failed link *more* likely up next slot) and a
        // well-timed outage can help — a real property of the paper's model.
        let pis = vec![pi; slots.len()];
        let baseline = build_model(&pis, &slots, f_up, is, None);
        let mut b = PathProblem::builder();
        for (k, (&pi, &slot)) in pis.iter().zip(&slots).enumerate() {
            let link = LinkModel::from_availability(pi, 0.9).unwrap();
            let dynamics = if k == 0 {
                LinkDynamics::steady(link).with_outage(Outage::new(start, start + len))
            } else {
                LinkDynamics::steady(link)
            };
            b.add_hop(dynamics, slot);
        }
        b.superframe(Superframe::symmetric(f_up).unwrap())
            .interval(ReportingInterval::new(is).unwrap());
        let degraded = b.build().unwrap();
        prop_assert!(
            degraded.evaluate().reachability() <= baseline.evaluate().reachability() + 1e-12
        );
    }

    #[test]
    fn starting_down_hurts_starting_up_helps(
        // Restricted to the monotone regime (see the outage property above).
        pi in 0.9f64..0.99,
        slot in 0usize..5,
    ) {
        let link = LinkModel::from_availability(pi, 0.9).unwrap();
        let build = |initial: LinkDynamics| {
            let mut b = PathProblem::builder();
            b.add_hop(initial, slot);
            b.superframe(Superframe::symmetric(5).unwrap())
                .interval(ReportingInterval::new(2).unwrap());
            b.build().unwrap().evaluate().reachability()
        };
        let steady = build(LinkDynamics::steady(link));
        let down = build(LinkDynamics::starting_in(link, LinkState::Down));
        let up = build(LinkDynamics::starting_in(link, LinkState::Up));
        prop_assert!(down <= steady + 1e-12);
        prop_assert!(up + 1e-12 >= steady);
    }
}
