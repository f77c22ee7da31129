//! What-if search over uplink routing trees and slot schedules.
//!
//! The optimizer builds an initial routing tree greedily — each device
//! attaches through the neighbor whose Eq. 12 composed cycle function
//! promises the best reachability (the paper's Section VI-E attachment
//! rule, applied network-wide) — and then hill-climbs with local moves:
//! reparenting a device (and with it its whole subtree) onto another
//! neighbor, and swapping adjacent positions of the sequential schedule
//! order. Candidates are priced through the shared [`Engine`]: every
//! route is evaluated at canonical slots `0..h-1`, which makes the
//! path-cache signature depend only on the link chain, so candidates
//! that share unchanged routes are answered from cache. The real
//! sequential-schedule arrival slot is re-attached afterwards with
//! [`whart_model::compose::evaluation_at_slot`] — valid because for
//! steady links served in increasing slot order the cycle function is
//! independent of slot placement.

use crate::error::{OptError, Result};
use crate::generate::GeneratedNetwork;
use std::collections::BTreeMap;
use whart_dtmc::Pmf;
use whart_engine::{Engine, EngineStats, Scenario};
use whart_json::Json;
use whart_model::compose::{
    compose_cycle_probabilities, evaluation_at_slot, peer_cycle_probabilities,
};
use whart_model::{DelayConvention, LinkDynamics, PathEvaluation, PathProblem};
use whart_net::{NodeId, ReportingInterval, Superframe};

/// Two objectives strictly better when larger (reachability) or smaller
/// (delay); internally the search maximizes a signed score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximize the mean composed reachability over all uplink paths.
    MaxReachability,
    /// Minimize the mean expected end-to-end delay (Eqs. 7-9) under the
    /// sequential schedule order.
    MinDelay,
}

impl Objective {
    /// Parses `"reachability"` or `"delay"`.
    pub fn parse(text: &str) -> Option<Objective> {
        match text {
            "reachability" => Some(Objective::MaxReachability),
            "delay" => Some(Objective::MinDelay),
            _ => None,
        }
    }

    /// The flag/report name of the objective.
    pub fn name(self) -> &'static str {
        match self {
            Objective::MaxReachability => "reachability",
            Objective::MinDelay => "delay",
        }
    }

    /// Whether a larger objective value is better.
    pub fn higher_is_better(self) -> bool {
        matches!(self, Objective::MaxReachability)
    }
}

/// Search parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// What to optimize.
    pub objective: Objective,
    /// Upper bound on hill-climbing rounds (one accepted move per round).
    pub max_rounds: usize,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            objective: Objective::MaxReachability,
            max_rounds: 12,
        }
    }
}

/// An uplink routing tree: every field device's parent towards the
/// gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTree {
    parent: BTreeMap<NodeId, NodeId>,
}

impl RoutingTree {
    /// The parent of a device, if the device is in the tree.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent.get(&node).copied()
    }

    /// The route from `node` to the gateway (inclusive on both ends).
    pub fn route(&self, node: NodeId) -> Vec<NodeId> {
        let mut route = vec![node];
        let mut at = node;
        while let Some(&next) = self.parent.get(&at) {
            route.push(next);
            at = next;
        }
        route
    }

    /// All routes in ascending device-id order.
    pub fn routes(&self) -> Vec<Vec<NodeId>> {
        self.parent.keys().map(|&n| self.route(n)).collect()
    }

    /// Total hop count over all routes — the slot budget consumption of
    /// the sequential schedule.
    pub fn total_hops(&self) -> usize {
        self.parent.keys().map(|&n| self.route(n).len() - 1).sum()
    }

    /// Whether `node` lies on the subtree rooted at `root` (i.e. routes
    /// through it, or is it).
    fn in_subtree(&self, root: NodeId, node: NodeId) -> bool {
        self.route(node).contains(&root)
    }

    /// A copy with `node` reparented onto `new_parent`.
    fn reparented(&self, node: NodeId, new_parent: NodeId) -> RoutingTree {
        let mut parent = self.parent.clone();
        parent.insert(node, new_parent);
        RoutingTree { parent }
    }

    pub(crate) fn from_parents(parent: BTreeMap<NodeId, NodeId>) -> RoutingTree {
        RoutingTree { parent }
    }
}

const REACHABILITY_TIE: f64 = 1e-12;

/// Builds the initial routing tree greedily: starting from the gateway,
/// repeatedly attach the (device, neighbor) pair whose Eq. 12 composed
/// cycle function has the highest reachability, breaking ties towards
/// fewer hops and then smaller ids.
///
/// # Errors
///
/// Returns [`OptError::Infeasible`] if the topology is disconnected.
pub fn greedy_tree(net: &GeneratedNetwork) -> Result<RoutingTree> {
    Ok(RoutingTree {
        parent: greedy_parent_map(&net.topology, net.interval)?,
    })
}

pub(crate) fn greedy_parent_map(
    topology: &whart_net::Topology,
    interval: ReportingInterval,
) -> Result<BTreeMap<NodeId, NodeId>> {
    // Attached devices with their composed cycle function and hop count.
    let mut attached: BTreeMap<NodeId, (Pmf, usize)> = BTreeMap::new();
    let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let devices: Vec<NodeId> = topology.field_devices().collect();

    while parent.len() < devices.len() {
        let mut best: Option<(f64, usize, NodeId, NodeId, Pmf)> = None;
        for &v in &devices {
            if parent.contains_key(&v) {
                continue;
            }
            for u in topology.neighbors(v) {
                let candidate = if u.is_gateway() {
                    let link = topology.link(v, u).expect("neighbor has a link");
                    Some((peer_cycle_probabilities(link, interval), 1))
                } else {
                    attached.get(&u).map(|(pmf, hops)| {
                        let link = topology.link(v, u).expect("neighbor has a link");
                        let peer = peer_cycle_probabilities(link, interval);
                        (compose_cycle_probabilities(&peer, pmf, interval), hops + 1)
                    })
                };
                let Some((pmf, hops)) = candidate else {
                    continue;
                };
                let reach = pmf.total_mass();
                let better = match &best {
                    None => true,
                    Some((br, bh, ..)) => {
                        reach > br + REACHABILITY_TIE
                            || ((reach - br).abs() <= REACHABILITY_TIE && hops < *bh)
                    }
                };
                if better {
                    best = Some((reach, hops, v, u, pmf));
                }
            }
        }
        let Some((_, hops, v, u, pmf)) = best else {
            return Err(OptError::Infeasible {
                reason: "topology is disconnected: some device cannot reach the gateway".into(),
            });
        };
        parent.insert(v, u);
        attached.insert(v, (pmf, hops));
    }
    Ok(parent)
}

/// One local-search move.
#[derive(Debug, Clone, PartialEq)]
enum Move {
    /// Reparent `node` (and its subtree) onto `parent`.
    Reparent { node: NodeId, parent: NodeId },
    /// Swap schedule-order positions `position` and `position + 1`.
    SwapOrder { position: usize },
}

/// A candidate state: routing tree plus sequential schedule order.
#[derive(Debug, Clone, PartialEq)]
struct State {
    tree: RoutingTree,
    order: Vec<usize>,
}

/// Canonical-slot path problems for every route of a tree. Slot placement
/// `0..h-1` keeps the engine's path-cache signature a function of the
/// link chain alone, so unchanged routes are cache hits across the whole
/// search.
fn route_problems(net: &GeneratedNetwork, tree: &RoutingTree) -> Result<Vec<PathProblem>> {
    tree.routes()
        .iter()
        .map(|route| {
            let mut builder = PathProblem::builder();
            for (slot, pair) in route.windows(2).enumerate() {
                let link =
                    net.topology
                        .link(pair[0], pair[1])
                        .ok_or_else(|| OptError::Infeasible {
                            reason: format!("route uses a missing link {} -- {}", pair[0], pair[1]),
                        })?;
                builder.add_hop(LinkDynamics::steady(link), slot);
            }
            builder.superframe(net.superframe).interval(net.interval);
            builder.build().map_err(OptError::from)
        })
        .collect()
}

/// Scores a candidate's canonical-slot evaluations under an objective;
/// returns `(signed score, natural objective value, per-path expected
/// delays at the real schedule slots)`. Unreachable paths (zero mass)
/// are charged the full reporting-interval duration.
fn score(
    objective: Objective,
    evals: &[PathEvaluation],
    order: &[usize],
    superframe: Superframe,
    interval: ReportingInterval,
) -> Result<(f64, f64, Vec<Option<f64>>)> {
    let n = evals.len().max(1) as f64;
    let mut delays: Vec<Option<f64>> = vec![None; evals.len()];
    let mut cumulative = 0u32;
    for &index in order {
        let eval = &evals[index];
        let hops = u32::try_from(eval.hop_count()).expect("hop counts are small");
        let arrival = cumulative + hops;
        cumulative += hops;
        let at_slot = evaluation_at_slot(
            eval.cycle_probabilities().clone(),
            arrival,
            eval.hop_count(),
            superframe,
            interval,
        )?;
        delays[index] = at_slot.expected_delay_ms(DelayConvention::Absolute);
    }
    match objective {
        Objective::MaxReachability => {
            let mean = evals.iter().map(PathEvaluation::reachability).sum::<f64>() / n;
            Ok((mean, mean, delays))
        }
        Objective::MinDelay => {
            let worst = f64::from(interval.duration_ms(superframe));
            let mean = delays.iter().map(|d| d.unwrap_or(worst)).sum::<f64>() / n;
            Ok((-mean, mean, delays))
        }
    }
}

/// Enumerates every feasible move from a state, in a deterministic
/// order. Schedule swaps only matter for the delay objective (for steady
/// links the composed reachability is slot-independent), so they are
/// only generated there.
fn enumerate_moves(
    net: &GeneratedNetwork,
    state: &State,
    objective: Objective,
) -> Vec<(Move, State)> {
    let budget = net.superframe.uplink_slots() as usize;
    let mut moves = Vec::new();
    let devices: Vec<NodeId> = net.topology.field_devices().collect();
    for &v in &devices {
        let current = state.tree.parent(v).expect("every device is routed");
        for u in net.topology.neighbors(v) {
            if u == current || (!u.is_gateway() && state.tree.in_subtree(v, u)) {
                continue;
            }
            let tree = state.tree.reparented(v, u);
            if tree.total_hops() > budget {
                continue;
            }
            moves.push((
                Move::Reparent { node: v, parent: u },
                State {
                    tree,
                    order: state.order.clone(),
                },
            ));
        }
    }
    if objective == Objective::MinDelay {
        for position in 0..state.order.len().saturating_sub(1) {
            let mut order = state.order.clone();
            order.swap(position, position + 1);
            moves.push((
                Move::SwapOrder { position },
                State {
                    tree: state.tree.clone(),
                    order,
                },
            ));
        }
    }
    moves
}

/// One hill-climbing round in the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round number (round 0 is the greedy baseline).
    pub round: usize,
    /// Candidates evaluated this round.
    pub candidates: usize,
    /// Whether a move was accepted.
    pub accepted: bool,
    /// Best objective value after the round, in natural units
    /// (reachability, or mean delay in milliseconds).
    pub objective_value: f64,
    /// Path-cache hit ratio accumulated over the search so far (`None`
    /// until the first lookup).
    pub cache_hit_ratio: Option<f64>,
}

/// Final per-path outcome at the optimized routes and schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOutcome {
    /// Source device number.
    pub device: u32,
    /// Route as numeric node ids ending at the gateway (`0`).
    pub route: Vec<u32>,
    /// Hop count.
    pub hop_count: usize,
    /// Composed reachability.
    pub reachability: f64,
    /// Expected end-to-end delay at the real schedule slot, if reachable.
    pub expected_delay_ms: Option<f64>,
}

/// The result of a what-if search.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimized {
    /// The objective that was optimized.
    pub objective: Objective,
    /// Objective value of the greedy initial tree.
    pub initial_objective: f64,
    /// Objective value of the final state.
    pub final_objective: f64,
    /// Total candidate states priced through the engine (baseline
    /// included).
    pub candidates_evaluated: u64,
    /// Accepted hill-climbing moves.
    pub accepted_moves: u64,
    /// Per-round trajectory.
    pub rounds: Vec<RoundRecord>,
    /// Path-cache hit ratio over the whole search (`None` if the search
    /// performed no path lookups).
    pub cache_hit_ratio: Option<f64>,
    /// Final routes as numeric node ids ending at the gateway.
    pub routes: Vec<Vec<u32>>,
    /// Final sequential schedule order (indices into `routes`).
    pub order: Vec<usize>,
    /// Final per-path outcomes.
    pub paths: Vec<PathOutcome>,
    /// The slot budget the search ran under.
    pub uplink_slots: u32,
    /// Slots the final schedule consumes.
    pub total_hops: usize,
}

fn numeric(node: NodeId) -> u32 {
    match node {
        NodeId::Gateway => 0,
        NodeId::Field(n) => n,
    }
}

impl Optimized {
    /// Whether the final objective is at least as good as the greedy
    /// initial tree's (the hill climber only accepts strict
    /// improvements, so this always holds; CI asserts it end to end).
    pub fn improved_or_tied(&self) -> bool {
        if self.objective.higher_is_better() {
            self.final_objective >= self.initial_objective - 1e-12
        } else {
            self.final_objective <= self.initial_objective + 1e-12
        }
    }

    /// Encodes the search result as JSON. Ratios that never had a lookup
    /// are `null`, never `NaN`.
    pub fn to_json(&self) -> Json {
        let ratio = |r: Option<f64>| r.map_or(Json::Null, Json::from);
        Json::object([
            ("objective", Json::from(self.objective.name())),
            ("initial_objective", Json::from(self.initial_objective)),
            ("final_objective", Json::from(self.final_objective)),
            (
                "candidates_evaluated",
                Json::from(self.candidates_evaluated),
            ),
            ("accepted_moves", Json::from(self.accepted_moves)),
            ("cache_hit_ratio", ratio(self.cache_hit_ratio)),
            ("uplink_slots", Json::from(self.uplink_slots)),
            ("total_hops", Json::from(self.total_hops)),
            (
                "rounds",
                Json::Array(
                    self.rounds
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("round", Json::from(r.round)),
                                ("candidates", Json::from(r.candidates)),
                                ("accepted", Json::from(r.accepted)),
                                ("objective_value", Json::from(r.objective_value)),
                                ("cache_hit_ratio", ratio(r.cache_hit_ratio)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "order",
                Json::array(self.order.iter().map(|&i| Json::from(i))),
            ),
            (
                "paths",
                Json::Array(
                    self.paths
                        .iter()
                        .map(|p| {
                            Json::object([
                                ("device", Json::from(p.device)),
                                ("route", Json::array(p.route.iter().map(|&n| Json::from(n)))),
                                ("hop_count", Json::from(p.hop_count)),
                                ("reachability", Json::from(p.reachability)),
                                (
                                    "expected_delay_ms",
                                    p.expected_delay_ms.map_or(Json::Null, Json::from),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Emits the optimized network as a spec JSON value in the exact
    /// shape `whart analyze` / `whart batch` consume: inline-quality
    /// links, numeric routes and a sequential schedule order.
    pub fn spec_json(&self, net: &GeneratedNetwork) -> Json {
        let links = net
            .topology
            .links()
            .map(|((a, b), link)| {
                Json::object([
                    ("a", Json::from(numeric(a))),
                    ("b", Json::from(numeric(b))),
                    ("availability", Json::from(link.availability())),
                    ("p_rc", Json::from(link.p_rc())),
                ])
            })
            .collect();
        Json::object([
            ("uplink_slots", Json::from(net.superframe.uplink_slots())),
            (
                "downlink_slots",
                Json::from(net.superframe.downlink_slots()),
            ),
            ("reporting_interval", Json::from(net.interval.cycles())),
            ("nodes", Json::array((1..=net.config.nodes).map(Json::from))),
            ("links", Json::Array(links)),
            (
                "paths",
                Json::Array(
                    self.routes
                        .iter()
                        .map(|route| Json::array(route.iter().map(|&n| Json::from(n))))
                        .collect(),
                ),
            ),
            (
                "schedule",
                Json::object([(
                    "order",
                    Json::array(self.order.iter().map(|&i| Json::from(i))),
                )]),
            ),
        ])
    }
}

fn hit_ratio_delta(base: &EngineStats, now: &EngineStats) -> Option<f64> {
    let hits = now.path_cache_hits - base.path_cache_hits;
    let total = hits + (now.path_cache_misses - base.path_cache_misses);
    if total == 0 {
        return None;
    }
    Some(hits as f64 / total as f64)
}

/// Scales an objective value to the micro-unit integer the
/// `opt.best_objective` gauge stores (gauges are `u64`).
fn micro_units(value: f64) -> u64 {
    (value.max(0.0) * 1e6).round() as u64
}

struct Evaluated {
    evals: Vec<PathEvaluation>,
    score: f64,
    value: f64,
    delays: Vec<Option<f64>>,
}

/// Prices a batch of candidate states through the engine in one drain.
fn evaluate_batch(
    engine: &mut Engine,
    net: &GeneratedNetwork,
    states: &[&State],
    objective: Objective,
    label_prefix: &str,
) -> Result<Vec<Evaluated>> {
    for (i, state) in states.iter().enumerate() {
        let problems = route_problems(net, &state.tree)?;
        engine.submit(Scenario::paths(format!("{label_prefix}-{i}"), problems));
    }
    let results = engine.drain()?;
    results
        .iter()
        .zip(states)
        .map(|(result, state)| {
            let evals: Vec<PathEvaluation> =
                result.path_evaluations().into_iter().cloned().collect();
            let (score, value, delays) = score(
                objective,
                &evals,
                &state.order,
                net.superframe,
                net.interval,
            )?;
            Ok(Evaluated {
                evals,
                score,
                value,
                delays,
            })
        })
        .collect()
}

/// Runs the what-if search on a generated network through a shared
/// engine. Metrics (`opt.candidates_evaluated`, `opt.accepted_moves`,
/// the `opt.best_objective` gauge in micro-units and the
/// `opt.cache_hit_ratio` gauge in parts per million) are recorded into
/// the engine's metrics handle; one `opt.round` span per round goes to
/// its trace handle, and each round publishes an `opt.round` activity
/// frame on the engine's profiler so sampling captures attribute search
/// time round-by-round.
///
/// # Errors
///
/// Returns [`OptError::Infeasible`] when the initial greedy tree exceeds
/// the slot budget or the topology is disconnected, and propagates
/// model-layer failures.
pub fn optimize(
    engine: &mut Engine,
    net: &GeneratedNetwork,
    config: &SearchConfig,
) -> Result<Optimized> {
    if config.max_rounds == 0 {
        return Err(OptError::InvalidConfig {
            reason: "max_rounds must be at least 1".into(),
        });
    }
    let metrics = engine.metrics().clone();
    let trace = engine.trace().clone();
    let profiler = engine.profiler().clone();
    let round_frame = profiler.frame("opt.round");
    let candidates_counter = metrics.counter("opt.candidates_evaluated");
    let accepted_counter = metrics.counter("opt.accepted_moves");
    let best_gauge = metrics.gauge("opt.best_objective");
    let ratio_gauge = metrics.gauge("opt.cache_hit_ratio");
    let base_stats = engine.stats();

    let tree = greedy_tree(net)?;
    let budget = net.superframe.uplink_slots() as usize;
    if tree.total_hops() > budget {
        return Err(OptError::Infeasible {
            reason: format!(
                "greedy tree needs {} slots but the uplink half only has {budget}",
                tree.total_hops()
            ),
        });
    }
    let order: Vec<usize> = (0..tree.routes().len()).collect();
    let mut state = State { tree, order };

    let baseline = evaluate_batch(engine, net, &[&state], config.objective, "opt-baseline")?
        .pop()
        .expect("one baseline candidate");
    let mut candidates_evaluated = 1u64;
    let mut accepted_moves = 0u64;
    candidates_counter.increment();
    best_gauge.set(micro_units(baseline.value));
    let initial_objective = baseline.value;
    let mut current = baseline;
    let mut rounds = Vec::new();

    for round in 1..=config.max_rounds {
        let _round_guard = profiler.enter(round_frame);
        let mut span = trace.span("opt.round", "opt");
        span.arg("round", round);
        let moves = enumerate_moves(net, &state, config.objective);
        if moves.is_empty() {
            span.arg("candidates", 0usize);
            break;
        }
        let move_count = moves.len();
        let evaluated = {
            let states: Vec<&State> = moves.iter().map(|(_, s)| s).collect();
            evaluate_batch(
                engine,
                net,
                &states,
                config.objective,
                &format!("opt-round-{round}"),
            )?
        };
        candidates_counter.add(evaluated.len() as u64);
        candidates_evaluated += evaluated.len() as u64;

        // First strictly-better candidate wins ties, keeping the search
        // deterministic.
        let mut best: Option<usize> = None;
        for (i, candidate) in evaluated.iter().enumerate() {
            if candidate.score <= current.score + 1e-12 {
                continue;
            }
            match best {
                Some(b) if candidate.score <= evaluated[b].score + 1e-12 => {}
                _ => best = Some(i),
            }
        }
        let stats = engine.stats();
        let ratio = hit_ratio_delta(&base_stats, &stats);
        if let Some(r) = ratio {
            ratio_gauge.set((r * 1e6).round() as u64);
        }
        span.arg("candidates", move_count);
        span.arg("accepted", best.is_some());
        let accepted = best.is_some();
        if let Some(index) = best {
            current = evaluated.into_iter().nth(index).expect("index in range");
            state = moves.into_iter().nth(index).expect("index in range").1;
            accepted_moves += 1;
            accepted_counter.increment();
            best_gauge.set(micro_units(current.value));
        }
        span.arg("objective_value", current.value);
        rounds.push(RoundRecord {
            round,
            candidates: move_count,
            accepted,
            objective_value: current.value,
            cache_hit_ratio: ratio,
        });
        if !accepted {
            break;
        }
    }

    let final_stats = engine.stats();
    let cache_hit_ratio = hit_ratio_delta(&base_stats, &final_stats);
    if let Some(r) = cache_hit_ratio {
        ratio_gauge.set((r * 1e6).round() as u64);
    }

    let routes_ids = state.tree.routes();
    let routes: Vec<Vec<u32>> = routes_ids
        .iter()
        .map(|route| route.iter().map(|&n| numeric(n)).collect())
        .collect();
    let paths = routes_ids
        .iter()
        .enumerate()
        .map(|(i, route)| PathOutcome {
            device: numeric(route[0]),
            route: routes[i].clone(),
            hop_count: route.len() - 1,
            reachability: current.evals[i].reachability(),
            expected_delay_ms: current.delays[i],
        })
        .collect();
    Ok(Optimized {
        objective: config.objective,
        initial_objective,
        final_objective: current.value,
        candidates_evaluated,
        accepted_moves,
        rounds,
        cache_hit_ratio,
        total_hops: state.tree.total_hops(),
        uplink_slots: net.superframe.uplink_slots(),
        routes,
        order: state.order,
        paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};

    fn small_net(seed: u64) -> GeneratedNetwork {
        generate(&GeneratorConfig {
            seed,
            nodes: 8,
            extra_links: 4,
            availability: (0.7, 0.98),
            ..GeneratorConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn greedy_tree_routes_every_device() {
        let net = small_net(3);
        let tree = greedy_tree(&net).unwrap();
        assert_eq!(tree.routes().len(), 8);
        for route in tree.routes() {
            assert!(route.last().unwrap().is_gateway());
            for pair in route.windows(2) {
                assert!(net.topology.link(pair[0], pair[1]).is_some());
            }
        }
    }

    #[test]
    fn objective_parsing_round_trips() {
        for objective in [Objective::MaxReachability, Objective::MinDelay] {
            assert_eq!(Objective::parse(objective.name()), Some(objective));
        }
        assert_eq!(Objective::parse("latency"), None);
    }

    #[test]
    fn optimize_improves_or_ties_both_objectives() {
        for objective in [Objective::MaxReachability, Objective::MinDelay] {
            let net = small_net(7);
            let mut engine = Engine::new(2);
            let result = optimize(
                &mut engine,
                &net,
                &SearchConfig {
                    objective,
                    max_rounds: 4,
                },
            )
            .unwrap();
            assert!(result.improved_or_tied(), "{objective:?}");
            assert!(result.total_hops <= result.uplink_slots as usize);
            assert_eq!(result.paths.len(), 8);
        }
    }

    #[test]
    fn reparent_moves_respect_subtrees_and_budget() {
        let net = small_net(11);
        let tree = greedy_tree(&net).unwrap();
        let order: Vec<usize> = (0..tree.routes().len()).collect();
        let state = State { tree, order };
        for (mv, candidate) in enumerate_moves(&net, &state, Objective::MaxReachability) {
            let Move::Reparent { node, parent } = mv else {
                panic!("reachability objective must not generate swaps");
            };
            assert_eq!(candidate.tree.parent(node), Some(parent));
            // The new parent's route must not pass through the moved node.
            assert!(!candidate.tree.route(parent).contains(&node) || parent.is_gateway());
            assert!(candidate.tree.total_hops() <= net.superframe.uplink_slots() as usize);
        }
    }

    #[test]
    fn zero_rounds_is_rejected() {
        let net = small_net(1);
        let mut engine = Engine::new(1);
        let config = SearchConfig {
            objective: Objective::MaxReachability,
            max_rounds: 0,
        };
        assert!(matches!(
            optimize(&mut engine, &net, &config),
            Err(OptError::InvalidConfig { .. })
        ));
    }
}
