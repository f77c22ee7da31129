//! The explicit path DTMC of Algorithm 1 (Section IV, Figs. 4-5).
//!
//! [`explicit_chain`] unrolls a [`PathProblem`] into the absorbing DTMC the
//! paper draws: transient states are labelled by the age tuple
//! `(age_1, ..., age_n)` (the age of the message copy held at each node on
//! the path, `-` where no copy exists), goal states by `R<age>` and the
//! drop state by `Discard`.
//!
//! One representational note: the chain here starts from the true initial
//! state `(0,-,...)` — zero slots processed — so that a transmission
//! scheduled in frame slot 1 can serve the message born in the same cycle
//! (the paper's network evaluation needs this: path 1 under `eta_a`
//! transmits in slot 1 and still reaches the gateway in cycle 1). The
//! paper's Fig. 4 begins drawing at `(1,-,-)` because its example schedule
//! idles in slot 1, which makes the two states interchangeable.
//!
//! The chain is equivalent to the fast evaluator by construction; the test
//! suite checks the absorption probabilities agree to within solver
//! round-off on every model.

use crate::ir::PathProblem;
use whart_dtmc::{Dtmc, Pmf, Result as DtmcResult, StateId};

/// The unrolled chain with its distinguished states.
#[derive(Debug, Clone)]
pub struct ExplicitChain {
    /// The underlying labelled DTMC.
    pub dtmc: Dtmc,
    initial: StateId,
    goals: Vec<StateId>,
    discard: StateId,
}

impl ExplicitChain {
    /// The goal states, one per reporting cycle, in cycle order.
    pub fn goals(&self) -> &[StateId] {
        &self.goals
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.dtmc.len()
    }

    /// Number of transitions (absorbing self-loops included).
    pub fn transition_count(&self) -> usize {
        self.dtmc.transition_count()
    }

    /// Solves the chain once for both absorption targets: the cycle
    /// probability function and the discard probability — the slow, exact
    /// cross-check of [`PathProblem::evaluate`] and the
    /// [`crate::ir::ExplicitSolver`] backend's workhorse.
    ///
    /// # Errors
    ///
    /// Propagates solver failures (cannot happen for chains produced by
    /// [`explicit_chain`], which always reach an absorbing state).
    pub fn solve(&self) -> DtmcResult<(Pmf, f64)> {
        let absorption = self.dtmc.absorption()?;
        let cycle_probabilities = self
            .goals
            .iter()
            .map(|&g| absorption.probability(self.initial, g))
            .collect();
        let discard = absorption.probability(self.initial, self.discard);
        Ok((cycle_probabilities, discard))
    }

    /// Graphviz rendering in the style of the paper's Figs. 4-5.
    pub fn to_dot(&self, name: &str) -> String {
        let options = whart_dtmc::dot::DotOptions {
            graph_name: name.to_string(),
            ..whart_dtmc::dot::DotOptions::default()
        };
        whart_dtmc::dot::to_dot(&self.dtmc, &options)
    }
}

/// Builds the explicit absorbing DTMC of a path problem (Algorithm 1).
///
/// States are generated breadth-first along the time axis, so the resulting
/// indices read left-to-right like the paper's figures.
pub fn explicit_chain(problem: &PathProblem) -> ExplicitChain {
    let n = problem.hop_count();
    let f_up = problem.superframe().uplink_slots() as usize;
    let cycles = problem.interval().cycles() as usize;
    let total = f_up * cycles;
    let ttl = problem.ttl() as usize;
    let cycle_slots = u64::from(problem.superframe().cycle_slots());

    let mut by_slot: Vec<Option<usize>> = vec![None; f_up];
    for (hop, h) in problem.hops().iter().enumerate() {
        by_slot[h.frame_slot()] = Some(hop);
    }

    let mut builder = Dtmc::builder();
    let initial = builder.add_state(age_label(0, 0, n));
    let mut goal_by_cycle: Vec<Option<StateId>> = vec![None; cycles];
    let discard = builder.add_state("Discard");

    // Frontier of transient states at the current age. The chain keeps the
    // final-age states explicit (Fig. 4's `(7,-,-)`, `(7,7,-)`, `(7,7,7)`)
    // and routes them to `Discard` with probability one. Each frontier is
    // kept in position order, so state ids are a function of the problem.
    let horizon = ttl.min(total);
    let mut frontier: Vec<(usize, StateId)> = vec![(0, initial)];
    for age in 0..horizon {
        if frontier.is_empty() {
            break;
        }
        let slot_in_frame = age % f_up;
        let cycle = age / f_up;
        let mut next_states: Vec<Option<StateId>> = vec![None; n];
        for (position, state) in frontier {
            let transmitting_hop = by_slot[slot_in_frame].filter(|&h| h == position);
            match transmitting_hop {
                Some(hop) => {
                    let abs_slot = cycle as u64 * cycle_slots + slot_in_frame as u64;
                    let ps = problem.hops()[hop].dynamics().up_probability(abs_slot);
                    // Success branch.
                    if hop + 1 == n {
                        let goal = *goal_by_cycle[cycle]
                            .get_or_insert_with(|| builder.add_state(format!("R{}", age + 1)));
                        builder
                            .add_transition(state, goal, ps)
                            .expect("valid probability");
                    } else {
                        let target =
                            next_transient(&mut builder, &mut next_states, age + 1, hop + 1, n);
                        builder
                            .add_transition(state, target, ps)
                            .expect("valid probability");
                    }
                    // Failure branch.
                    let target =
                        next_transient(&mut builder, &mut next_states, age + 1, position, n);
                    builder
                        .add_transition(state, target, 1.0 - ps)
                        .expect("valid probability");
                }
                None => {
                    let target =
                        next_transient(&mut builder, &mut next_states, age + 1, position, n);
                    builder
                        .add_transition(state, target, 1.0)
                        .expect("valid probability");
                }
            }
        }
        frontier = next_states
            .into_iter()
            .enumerate()
            .filter_map(|(position, state)| Some((position, state?)))
            .collect();
    }
    // The TTL has expired (or the interval ended): remaining states drop
    // their message.
    for (_, state) in frontier {
        builder
            .add_transition(state, discard, 1.0)
            .expect("valid probability");
    }

    // Collect goals in cycle order; cycles that cannot be reached (e.g. when
    // the TTL expires early) still get a placeholder absorbing state so the
    // cycle-probability pmf has the right length. Labels use the arrival
    // slot a0 of that cycle, matching the reachable goals.
    let a0 = problem.arrival_slot_number() as usize;
    let goals: Vec<StateId> = goal_by_cycle
        .into_iter()
        .enumerate()
        .map(|(cycle, goal)| {
            goal.unwrap_or_else(|| builder.add_state(format!("R{}", cycle * f_up + a0)))
        })
        .collect();
    for &goal in &goals {
        builder.make_absorbing(goal).expect("goal exists");
    }
    builder.make_absorbing(discard).expect("discard exists");

    let dtmc = builder
        .build()
        .expect("rows are stochastic by construction");
    ExplicitChain {
        dtmc,
        initial,
        goals,
        discard,
    }
}

/// Fetches or creates the transient successor `(age, position)`.
fn next_transient(
    builder: &mut whart_dtmc::DtmcBuilder,
    next_states: &mut [Option<StateId>],
    age: usize,
    position: usize,
    n: usize,
) -> StateId {
    *next_states[position].get_or_insert_with(|| builder.add_state(age_label(age, position, n)))
}

/// The paper's age-tuple label: positions `0..=position` hold a copy of age
/// `age`, the rest are `-`.
fn age_label(age: usize, position: usize, n: usize) -> String {
    let mut parts = Vec::with_capacity(n);
    for i in 0..n {
        if i <= position {
            parts.push(age.to_string());
        } else {
            parts.push("-".to_string());
        }
    }
    format!("({})", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::LinkDynamics;
    use whart_channel::LinkModel;
    use whart_net::{ReportingInterval, Superframe};

    fn example_model(pi: f64, is: u32) -> PathProblem {
        let steady = |pi| LinkDynamics::steady(LinkModel::from_availability(pi, 0.9).unwrap());
        let mut b = PathProblem::builder();
        b.add_hop(steady(pi), 2)
            .add_hop(steady(pi), 5)
            .add_hop(steady(pi), 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(is).unwrap());
        b.build().unwrap()
    }

    #[test]
    fn fig4_structure() {
        // Is = 1: the paper's Fig. 4 shows ages 1..7 at position 0 (7 states),
        // 3..7 at position 1 (5), 6..7 at position 2 (2), plus R7 and
        // Discard: 16 states. Our chain adds the pre-slot-1 state (0,-,-).
        let chain = explicit_chain(&example_model(0.75, 1));
        assert_eq!(chain.state_count(), 17);
        assert!(chain.dtmc.state_by_label("(0,-,-)").is_some());
        assert!(chain.dtmc.state_by_label("(3,3,-)").is_some());
        assert!(chain.dtmc.state_by_label("(6,6,6)").is_some());
        assert!(chain.dtmc.state_by_label("R7").is_some());
        assert!(chain.dtmc.state_by_label("Discard").is_some());
        // No copy ever reaches position 1 before the slot-3 transmission.
        assert!(chain.dtmc.state_by_label("(2,2,-)").is_none());
        assert_eq!(chain.goals().len(), 1);
    }

    #[test]
    fn fig5_structure() {
        // Is = 2 doubles the time axis and adds R14.
        let chain = explicit_chain(&example_model(0.75, 2));
        assert!(chain.dtmc.state_by_label("R7").is_some());
        assert!(chain.dtmc.state_by_label("R14").is_some());
        assert!(chain.dtmc.state_by_label("(8,-,-)").is_some());
        assert!(chain.dtmc.state_by_label("(13,13,-)").is_some());
        assert_eq!(chain.goals().len(), 2);
    }

    #[test]
    fn absorption_matches_fast_evaluator() {
        for &pi in &[0.693, 0.83, 0.948] {
            for is in 1..=4 {
                let model = example_model(pi, is);
                let fast = model.evaluate();
                let (slow, discard) = explicit_chain(&model).solve().unwrap();
                assert!((fast.discard_probability() - discard).abs() < 1e-12);
                for i in 0..is as usize {
                    assert!(
                        (fast.cycle_probabilities().get(i) - slow.get(i)).abs() < 1e-12,
                        "pi={pi} is={is} cycle={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn discard_probability_matches() {
        let model = example_model(0.75, 4);
        let chain = explicit_chain(&model);
        let (_, p_discard) = chain.solve().unwrap();
        assert!((p_discard - model.evaluate().discard_probability()).abs() < 1e-12);
    }

    #[test]
    fn size_is_linear_in_interval() {
        // O(Is * F_up * n): the state count is exactly affine in Is, since
        // each extra cycle adds the same band of (age, position) states.
        let s1 = explicit_chain(&example_model(0.75, 1)).state_count();
        let s2 = explicit_chain(&example_model(0.75, 2)).state_count();
        let s4 = explicit_chain(&example_model(0.75, 4)).state_count();
        assert!(s2 > s1 && s4 > s2);
        assert_eq!(s4 - s2, 2 * (s2 - s1));
    }

    #[test]
    fn dot_export_mentions_key_states() {
        let chain = explicit_chain(&example_model(0.75, 1));
        let dot = chain.to_dot("fig4");
        assert!(dot.contains("digraph fig4"));
        assert!(dot.contains("R7"));
        assert!(dot.contains("Discard"));
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn fig4_state_numbering_is_fixed() {
        // States are numbered age by age, each age's frontier in position
        // order, so the DOT dump is the same bytes on every run.
        let dot = explicit_chain(&example_model(0.75, 1)).to_dot("fig4");
        let nodes: Vec<&str> = dot
            .lines()
            .filter(|line| line.contains("[label=") && !line.contains("->"))
            .map(|line| line.split('"').nth(1).unwrap())
            .collect();
        assert_eq!(
            nodes,
            [
                "(0,-,-)", "Discard", "(1,-,-)", "(2,-,-)", "(3,3,-)", "(3,-,-)", "(4,-,-)",
                "(4,4,-)", "(5,-,-)", "(5,5,-)", "(6,-,-)", "(6,6,6)", "(6,6,-)", "(7,-,-)",
                "(7,7,-)", "R7", "(7,7,7)",
            ]
        );
        assert!(dot.contains("  s3 -> s4 [label=\"0.7500\"];\n  s3 -> s5 [label=\"0.2500\"];"));
    }

    #[test]
    fn ttl_shortens_the_chain() {
        let steady = LinkDynamics::steady(LinkModel::from_availability(0.75, 0.9).unwrap());
        let mut b = PathProblem::builder();
        b.add_hop(steady.clone(), 2)
            .add_hop(steady.clone(), 5)
            .add_hop(steady, 6);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(4).unwrap())
            .ttl(7);
        let model = b.build().unwrap();
        let (slow, _) = explicit_chain(&model).solve().unwrap();
        let fast = model.evaluate();
        for i in 0..4 {
            assert!((slow.get(i) - fast.cycle_probabilities().get(i)).abs() < 1e-12);
        }
        // Goals for unreachable cycles exist but carry zero probability.
        assert_eq!(slow.get(1), 0.0);
    }
}
