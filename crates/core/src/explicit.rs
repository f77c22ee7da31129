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
//! The chain is acyclic: states are numbered age by age, so every
//! successor of a transient state is absorbing or has a higher id.
//! [`ExplicitChain::solve`] pushes the initial mass through the rows once,
//! in id order, in time linear in the transitions. That sweep shares no
//! code with the fast evaluator's transient iteration; the test suite
//! checks both against a dense absorbing-chain elimination on random
//! problems.

use crate::ir::PathProblem;
use std::fmt::Write as _;
use whart_dtmc::Pmf;

/// Id of the initial state `(0,-,...)`.
const INITIAL: usize = 0;
/// Id of the `Discard` state.
const DISCARD: usize = 1;
/// The unused second edge of a one-successor row.
const ABSENT: (usize, f64) = (usize::MAX, 0.0);

/// What one state of the chain stands for; its label derives from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Copies of age `age` at path positions `0..=position`.
    Transient { age: u32, position: u32 },
    /// The goal of one reporting cycle, reached in absolute slot `slot`
    /// (label `R<slot>`).
    Goal { slot: u32 },
    /// The message is dropped.
    Discard,
}

/// The unrolled chain with its distinguished states.
///
/// States are ids `0..state_count()`; state 0 is the initial state
/// `(0,-,...)`. Each state has at most two successors.
#[derive(Debug, Clone)]
pub struct ExplicitChain {
    hops: usize,
    states: Vec<State>,
    /// Out-edges `(target, probability)` per state, sorted by target; an
    /// edge of probability zero is absent. Absorbing states hold their
    /// self-loop.
    rows: Vec<[(usize, f64); 2]>,
    goals: Vec<usize>,
}

impl ExplicitChain {
    /// The goal states, one per reporting cycle, in cycle order.
    pub fn goals(&self) -> &[usize] {
        &self.goals
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions (absorbing self-loops included).
    pub fn transition_count(&self) -> usize {
        (0..self.states.len())
            .map(|state| self.successors(state).count())
            .sum()
    }

    /// The successors of `state` with their probabilities, in target
    /// order. An absorbing state's only successor is itself.
    ///
    /// # Panics
    ///
    /// Panics if `state >= self.state_count()`.
    pub fn successors(&self, state: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows[state].iter().copied().filter(|&(_, p)| p > 0.0)
    }

    /// The paper's label of `state`: `(3,3,-)`, `R7` or `Discard`.
    ///
    /// # Panics
    ///
    /// Panics if `state >= self.state_count()`.
    pub fn label(&self, state: usize) -> String {
        match self.states[state] {
            State::Transient { age, position } => {
                let parts: Vec<String> = (0..self.hops)
                    .map(|i| {
                        if i <= position as usize {
                            age.to_string()
                        } else {
                            "-".to_string()
                        }
                    })
                    .collect();
                format!("({})", parts.join(","))
            }
            State::Goal { slot } => format!("R{slot}"),
            State::Discard => "Discard".to_string(),
        }
    }

    /// The first state labelled `label`, if any.
    pub fn state_by_label(&self, label: &str) -> Option<usize> {
        (0..self.states.len()).find(|&state| self.label(state) == label)
    }

    /// Solves the chain once for both absorption targets: the cycle
    /// probability function and the discard probability — the exact
    /// cross-check of [`PathProblem::evaluate`] and the
    /// [`crate::ir::ExplicitSolver`] backend's workhorse.
    ///
    /// One forward sweep: each transient state, in id order, passes its
    /// accumulated mass on to its successors. Every predecessor of a
    /// state has a lower id, so its mass is complete when it is read.
    pub fn solve(&self) -> (Pmf, f64) {
        let mut mass = vec![0.0; self.states.len()];
        mass[INITIAL] = 1.0;
        for (state, kind) in self.states.iter().enumerate() {
            if let State::Transient { .. } = kind {
                let m = mass[state];
                for (to, p) in self.successors(state) {
                    mass[to] += m * p;
                }
            }
        }
        let cycle_probabilities = self.goals.iter().map(|&g| mass[g]).collect();
        (cycle_probabilities, mass[DISCARD])
    }

    /// Graphviz rendering in the style of the paper's Figs. 4-5: time
    /// runs left to right, absorbing states are double circles (their
    /// self-loops are omitted) and edges carry their probability.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = format!(
            "digraph {} {{\n  rankdir=LR;\n  node [shape=circle];\n",
            graph_name(name)
        );
        for (state, kind) in self.states.iter().enumerate() {
            let shape = match kind {
                State::Transient { .. } => "",
                State::Goal { .. } | State::Discard => " shape=doublecircle",
            };
            let _ = writeln!(out, "  s{state} [label=\"{}\"{shape}];", self.label(state));
        }
        for (state, kind) in self.states.iter().enumerate() {
            if let State::Transient { .. } = kind {
                for (to, p) in self.successors(state) {
                    let _ = writeln!(out, "  s{state} -> s{to} [label=\"{p:.4}\"];");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Adds a state; absorbing states get their self-loop, transient
    /// states an empty row filled in by [`ExplicitChain::set_row`].
    fn add(&mut self, state: State) -> usize {
        let id = self.states.len();
        self.states.push(state);
        self.rows.push(match state {
            State::Transient { .. } => [ABSENT; 2],
            State::Goal { .. } | State::Discard => [(id, 1.0), ABSENT],
        });
        id
    }

    /// Sets a transient state's out-edges, in target order.
    fn set_row(&mut self, state: usize, mut row: [(usize, f64); 2]) {
        if row[1].0 < row[0].0 {
            row.swap(0, 1);
        }
        self.rows[state] = row;
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

    let mut chain = ExplicitChain {
        hops: n,
        states: Vec::new(),
        rows: Vec::new(),
        goals: Vec::new(),
    };
    chain.add(State::Transient {
        age: 0,
        position: 0,
    });
    chain.add(State::Discard);
    let mut goal_by_cycle: Vec<Option<usize>> = vec![None; cycles];

    // Frontier of transient states at the current age. The chain keeps the
    // final-age states explicit (Fig. 4's `(7,-,-)`, `(7,7,-)`, `(7,7,7)`)
    // and routes them to `Discard` with probability one. Each frontier is
    // kept in position order, so state ids are a function of the problem.
    let horizon = ttl.min(total);
    let mut frontier: Vec<(usize, usize)> = vec![(0, INITIAL)];
    for age in 0..horizon {
        if frontier.is_empty() {
            break;
        }
        let slot_in_frame = age % f_up;
        let cycle = age / f_up;
        let mut next_states: Vec<Option<usize>> = vec![None; n];
        for (position, state) in frontier {
            let transmitting_hop = by_slot[slot_in_frame].filter(|&h| h == position);
            let row = match transmitting_hop {
                Some(hop) => {
                    let abs_slot = cycle as u64 * cycle_slots + slot_in_frame as u64;
                    let ps = problem.hops()[hop].dynamics().up_probability(abs_slot);
                    let success = if hop + 1 == n {
                        *goal_by_cycle[cycle].get_or_insert_with(|| {
                            chain.add(State::Goal {
                                slot: (age + 1) as u32,
                            })
                        })
                    } else {
                        next_transient(&mut chain, &mut next_states, age + 1, hop + 1)
                    };
                    let failure = next_transient(&mut chain, &mut next_states, age + 1, position);
                    [(success, ps), (failure, 1.0 - ps)]
                }
                None => {
                    let stay = next_transient(&mut chain, &mut next_states, age + 1, position);
                    [(stay, 1.0), ABSENT]
                }
            };
            chain.set_row(state, row);
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
        chain.set_row(state, [(DISCARD, 1.0), ABSENT]);
    }

    // Collect goals in cycle order; cycles that cannot be reached (e.g. when
    // the TTL expires early) still get a placeholder absorbing state so the
    // cycle-probability pmf has the right length. Labels use the arrival
    // slot a0 of that cycle, matching the reachable goals.
    let a0 = problem.arrival_slot_number() as usize;
    for (cycle, goal) in goal_by_cycle.into_iter().enumerate() {
        let goal = goal.unwrap_or_else(|| {
            chain.add(State::Goal {
                slot: (cycle * f_up + a0) as u32,
            })
        });
        chain.goals.push(goal);
    }

    debug_assert!(
        chain.states.iter().enumerate().all(|(state, kind)| {
            let sum: f64 = chain.successors(state).map(|(_, p)| p).sum();
            let forward = match kind {
                State::Transient { .. } => chain
                    .successors(state)
                    .all(|(to, _)| to > state || to == DISCARD),
                State::Goal { .. } | State::Discard => true,
            };
            (sum - 1.0).abs() <= 1e-9 && forward
        }),
        "rows are stochastic and transient states lead to higher ids or Discard"
    );
    chain
}

/// Fetches or creates the transient successor `(age, position)`.
fn next_transient(
    chain: &mut ExplicitChain,
    next_states: &mut [Option<usize>],
    age: usize,
    position: usize,
) -> usize {
    *next_states[position].get_or_insert_with(|| {
        chain.add(State::Transient {
            age: age as u32,
            position: position as u32,
        })
    })
}

/// The DOT graph name: `name` with every character that is not
/// alphanumeric or `_` replaced by `_`, prefixed `g_` if it would be
/// empty or start with a digit.
fn graph_name(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() || cleaned.starts_with(|c: char| c.is_ascii_digit()) {
        format!("g_{cleaned}")
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{LinkDynamics, Outage};
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
        assert_eq!(chain.state_by_label("(0,-,-)"), Some(0));
        assert!(chain.state_by_label("(3,3,-)").is_some());
        assert!(chain.state_by_label("(6,6,6)").is_some());
        assert!(chain.state_by_label("R7").is_some());
        assert!(chain.state_by_label("Discard").is_some());
        // No copy ever reaches position 1 before the slot-3 transmission.
        assert!(chain.state_by_label("(2,2,-)").is_none());
        assert_eq!(chain.goals().len(), 1);
    }

    #[test]
    fn fig5_structure() {
        // Is = 2 doubles the time axis and adds R14.
        let chain = explicit_chain(&example_model(0.75, 2));
        assert!(chain.state_by_label("R7").is_some());
        assert!(chain.state_by_label("R14").is_some());
        assert!(chain.state_by_label("(8,-,-)").is_some());
        assert!(chain.state_by_label("(13,13,-)").is_some());
        assert_eq!(chain.goals().len(), 2);
    }

    #[test]
    fn absorption_matches_fast_evaluator() {
        for &pi in &[0.693, 0.83, 0.948] {
            for is in 1..=4 {
                let model = example_model(pi, is);
                let fast = model.evaluate();
                let (slow, discard) = explicit_chain(&model).solve();
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
        let (_, p_discard) = chain.solve();
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
        // Absorbing self-loops are not drawn.
        let discard = chain.state_by_label("Discard").unwrap();
        assert!(!dot.contains(&format!("s{discard} -> s{discard}")));
    }

    #[test]
    fn graph_names_are_sanitized() {
        let chain = explicit_chain(&example_model(0.75, 1));
        assert!(chain
            .to_dot("3-hop path!")
            .starts_with("digraph g_3_hop_path_ {"));
        assert!(chain.to_dot("path_2").starts_with("digraph path_2 {"));
    }

    #[test]
    fn zero_probability_edges_are_dropped() {
        // A hop that is down for the whole horizon never delivers: its
        // success edges have probability zero and are not transitions
        // (their target states still exist, unreached).
        let link = LinkModel::from_availability(0.75, 0.9).unwrap();
        let mut b = PathProblem::builder();
        b.add_hop(
            LinkDynamics::steady(link).with_outage(Outage::new(0, 1000)),
            2,
        )
        .add_hop(LinkDynamics::steady(link), 5);
        b.superframe(Superframe::symmetric(7).unwrap())
            .interval(ReportingInterval::new(2).unwrap());
        let chain = explicit_chain(&b.build().unwrap());
        for state in 0..chain.state_count() {
            assert!(chain.successors(state).all(|(_, p)| p > 0.0));
        }
        let edges = chain.to_dot("outage").matches(" -> ").count();
        let absorbing = chain.goals().len() + 1;
        assert_eq!(chain.transition_count(), edges + absorbing);
        let (goals, discard) = chain.solve();
        assert_eq!(goals.total_mass(), 0.0);
        assert_eq!(discard, 1.0);
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
        let (slow, _) = explicit_chain(&model).solve();
        let fast = model.evaluate();
        for i in 0..4 {
            assert!((slow.get(i) - fast.cycle_probabilities().get(i)).abs() < 1e-12);
        }
        // Goals for unreachable cycles exist but carry zero probability.
        assert_eq!(slow.get(1), 0.0);
    }
}
