//! Network-level evaluation (Section VI).
//!
//! A [`NetworkModel`] bundles a topology, its uplink paths, a communication
//! schedule, the super-frame and the reporting interval. Evaluation builds
//! one [`PathProblem`] per path (the paper's per-path hierarchical DTMCs) and
//! computes the network aggregates: per-path reachability (Fig. 13), the
//! overall delay distribution `Gamma` and its mean (Eq. 13, Figs. 14-16),
//! and the network utilization `U` (Eq. 11, Table II).

use crate::dynamics::LinkDynamics;
use crate::error::{ModelError, Result};
use crate::ir::{FastSolver, MeasurePlan, NetworkProblem, PathProblem, ProblemHop, Solver};
use crate::measures::{DelayConvention, UtilizationConvention};
use crate::path::PathEvaluation;
use std::collections::BTreeMap;
use std::sync::Arc;
use whart_dtmc::ValueDistribution;
use whart_net::typical::TypicalNetwork;
use whart_net::{Hop, NodeId, Path, ReportingInterval, Schedule, Superframe, Topology};

/// A fully specified WirelessHART network ready for evaluation.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    topology: Topology,
    paths: Vec<Path>,
    schedule: Schedule,
    superframe: Superframe,
    interval: ReportingInterval,
    overrides: BTreeMap<(NodeId, NodeId), LinkDynamics>,
}

impl NetworkModel {
    /// Creates a network model, validating the schedule against the
    /// topology and paths.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Net`] for schedule/topology inconsistencies
    /// and [`ModelError::Inconsistent`] if the schedule exceeds the uplink
    /// half.
    pub fn new(
        topology: Topology,
        paths: Vec<Path>,
        schedule: Schedule,
        superframe: Superframe,
        interval: ReportingInterval,
    ) -> Result<Self> {
        schedule.validate(&topology, &paths)?;
        if schedule.len() > superframe.uplink_slots() as usize {
            return Err(ModelError::Inconsistent {
                reason: format!(
                    "schedule has {} slots but the uplink half only {}",
                    schedule.len(),
                    superframe.uplink_slots()
                ),
            });
        }
        Ok(NetworkModel {
            topology,
            paths,
            schedule,
            superframe,
            interval,
            overrides: BTreeMap::new(),
        })
    }

    /// Builds the model of the paper's typical network (Fig. 12) under one
    /// of its schedules.
    ///
    /// # Errors
    ///
    /// See [`NetworkModel::new`].
    pub fn from_typical(
        network: &TypicalNetwork,
        schedule: Schedule,
        interval: ReportingInterval,
    ) -> Result<Self> {
        NetworkModel::new(
            network.topology.clone(),
            network.paths.clone(),
            schedule,
            network.superframe,
            interval,
        )
    }

    /// The evaluated paths.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Gives up the model for its paths, without copying them.
    pub fn into_paths(self) -> Vec<Path> {
        self.paths
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The communication schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The super-frame.
    pub fn superframe(&self) -> Superframe {
        self.superframe
    }

    /// The reporting interval.
    pub fn interval(&self) -> ReportingInterval {
        self.interval
    }

    /// Overrides the dynamics of the (bidirectional) link between `a` and
    /// `b` — e.g. to force an outage window on link `e3` (Section VI-C) or
    /// start a link from the DOWN state. Every path crossing the link is
    /// affected.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Net`] if the nodes are not connected.
    pub fn override_link_dynamics(
        &mut self,
        a: NodeId,
        b: NodeId,
        dynamics: LinkDynamics,
    ) -> Result<()> {
        self.topology.link_for(Hop::new(a, b))?;
        self.overrides
            .insert(Hop::new(a, b).undirected_key(), dynamics);
        Ok(())
    }

    /// Compiles the problem of one path in one pass over the schedule:
    /// the path's hops with their resolved dynamics (overrides applied),
    /// frame slots and physical-link identities, and the TTL `Is * F_up`.
    /// [`NetworkModel::new`] validated the schedule, so the hops arrive
    /// in path order at distinct, increasing slots within the uplink
    /// half.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Inconsistent`] for an out-of-range index and
    /// [`ModelError::Net`] when `Is * F_up` overflows the slot count.
    pub fn path_problem(&self, path_index: usize) -> Result<PathProblem> {
        let path = self
            .paths
            .get(path_index)
            .ok_or_else(|| ModelError::Inconsistent {
                reason: format!("path index {path_index} out of range"),
            })?;
        let ttl = self.interval.uplink_slots(self.superframe)?;
        let mut hops = Vec::with_capacity(path.hop_count());
        for (slot, entry) in self.schedule.transmissions() {
            if entry.path_index == path_index {
                hops.push(self.problem_hop(slot, entry.hop)?);
            }
        }
        debug_assert_eq!(hops.len(), path.hop_count());
        Ok(PathProblem::new(hops, self.superframe, self.interval, ttl))
    }

    /// Every path's [`NetworkModel::path_problem`], in path order, from
    /// one pass over the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Net`] when `Is * F_up` overflows the slot
    /// count.
    pub fn path_problems(&self) -> Result<Vec<PathProblem>> {
        let ttl = self.interval.uplink_slots(self.superframe)?;
        let mut hops: Vec<Vec<ProblemHop>> = self
            .paths
            .iter()
            .map(|path| Vec::with_capacity(path.hop_count()))
            .collect();
        for (slot, entry) in self.schedule.transmissions() {
            hops[entry.path_index].push(self.problem_hop(slot, entry.hop)?);
        }
        Ok(hops
            .into_iter()
            .map(|hops| PathProblem::new(hops, self.superframe, self.interval, ttl))
            .collect())
    }

    /// The compiled hop transmitting `hop` at frame slot `slot`, with its
    /// link's dynamics (the override, if any) and identity.
    fn problem_hop(&self, slot: usize, hop: Hop) -> Result<ProblemHop> {
        let link = hop.undirected_key();
        let dynamics = match self.overrides.get(&link) {
            Some(d) => d.clone(),
            None => LinkDynamics::steady(self.topology.link_for(hop)?),
        };
        Ok(ProblemHop::new(dynamics, slot, Some(link)))
    }

    /// Lowers the whole network to its compiled [`NetworkProblem`] — the
    /// object every solver backend consumes.
    ///
    /// # Errors
    ///
    /// Propagates the first path-model construction failure.
    pub fn compile(&self) -> Result<NetworkProblem> {
        Ok(NetworkProblem::new(
            self.paths.clone(),
            self.path_problems()?,
        ))
    }

    /// Evaluates every path with the fast backend, one after another in
    /// path order — the serial reference the engine's drains are
    /// checked against bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first path-model construction failure.
    pub fn evaluate(&self) -> Result<NetworkEvaluation> {
        let mut reports = Vec::with_capacity(self.paths.len());
        for (path, problem) in self.paths.iter().zip(self.path_problems()?) {
            reports.push(PathReport {
                path: path.clone(),
                evaluation: Arc::new(FastSolver.solve_path(&problem, MeasurePlan::default())?),
            });
        }
        Ok(NetworkEvaluation::from_reports(reports))
    }
}

/// One path's evaluation inside a network.
///
/// The evaluation is immutable once solved, so it is shared behind an
/// [`Arc`]: batch evaluators that answer repeated paths from a cache hand out
/// references instead of deep copies. All read access goes through
/// `Deref`, so `report.evaluation.reachability()` reads as before.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// The route.
    pub path: Path,
    /// Its hierarchical-model evaluation.
    pub evaluation: Arc<PathEvaluation>,
}

/// The result of [`NetworkModel::evaluate`].
#[derive(Debug, Clone)]
pub struct NetworkEvaluation {
    reports: Vec<PathReport>,
}

impl NetworkEvaluation {
    /// Assembles an evaluation from per-path reports (path order), e.g.
    /// from an external evaluator that caches or batches the path solves.
    pub fn from_reports(reports: Vec<PathReport>) -> NetworkEvaluation {
        NetworkEvaluation { reports }
    }

    /// Per-path reports in path order.
    pub fn reports(&self) -> &[PathReport] {
        &self.reports
    }

    /// Per-path reachability probabilities (Fig. 13).
    pub fn reachabilities(&self) -> Vec<f64> {
        self.reports
            .iter()
            .map(|r| r.evaluation.reachability())
            .collect()
    }

    /// Per-path expected delays in milliseconds (Figs. 15-16); `None` for
    /// unreachable paths.
    pub fn expected_delays_ms(&self, convention: DelayConvention) -> Vec<Option<f64>> {
        self.reports
            .iter()
            .map(|r| r.evaluation.expected_delay_ms(convention))
            .collect()
    }

    /// The overall delay distribution `Gamma`: the average of the per-path
    /// delay distributions (Fig. 14).
    pub fn overall_delay_distribution(&self, convention: DelayConvention) -> ValueDistribution {
        let dists: Vec<ValueDistribution> = self
            .reports
            .iter()
            .map(|r| r.evaluation.delay_distribution(convention))
            .collect();
        ValueDistribution::average(dists.iter())
    }

    /// The overall mean delay `E[Gamma]` (Eq. 13): the average of the
    /// per-path expected delays. `None` if any path is unreachable.
    pub fn mean_delay_ms(&self, convention: DelayConvention) -> Option<f64> {
        NetworkEvaluation::mean_of_path_delays(self.expected_delays_ms(convention))
    }

    /// The network utilization `U` (Eq. 11): the sum of per-path
    /// utilizations (Table II).
    pub fn utilization(&self, convention: UtilizationConvention) -> f64 {
        NetworkEvaluation::sum_of_path_utilizations(
            self.reports
                .iter()
                .map(|r| r.evaluation.utilization(convention)),
        )
    }

    /// Eq. 13 over per-path expected delays already extracted, in path
    /// order: their average, or `None` if any path is unreachable. The
    /// one implementation behind [`NetworkEvaluation::mean_delay_ms`], so
    /// a caller holding the per-path delays gets the same bits without
    /// re-deriving them.
    pub fn mean_of_path_delays(delays: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
        let mut total = 0.0;
        let mut paths = 0usize;
        for d in delays {
            total += d?;
            paths += 1;
        }
        Some(total / paths as f64)
    }

    /// Eq. 11 over per-path utilizations already extracted: their sum.
    /// The one implementation behind [`NetworkEvaluation::utilization`].
    pub fn sum_of_path_utilizations(utilizations: impl IntoIterator<Item = f64>) -> f64 {
        utilizations.into_iter().sum()
    }

    /// The index of the path with the lowest reachability (the paper's
    /// "bottleneck": "the longest path with the lowest link availability").
    pub fn reachability_bottleneck(&self) -> Option<usize> {
        (0..self.reports.len()).min_by(|&a, &b| {
            self.reports[a]
                .evaluation
                .reachability()
                .partial_cmp(&self.reports[b].evaluation.reachability())
                .expect("reachabilities are finite")
        })
    }

    /// The index of the path with the highest expected delay (Fig. 15's
    /// path 10 under `eta_a`, Fig. 16's path 7 under `eta_b`).
    pub fn delay_bottleneck(&self, convention: DelayConvention) -> Option<usize> {
        let delays = self.expected_delays_ms(convention);
        (0..delays.len())
            .filter(|&i| delays[i].is_some())
            .max_by(|&a, &b| delays[a].partial_cmp(&delays[b]).expect("finite delays"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_channel::LinkModel;

    fn typical(pi: f64) -> TypicalNetwork {
        TypicalNetwork::new(LinkModel::from_availability(pi, 0.9).unwrap())
    }

    fn eval_a(pi: f64) -> NetworkEvaluation {
        let net = typical(pi);
        let model =
            NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
                .unwrap();
        model.evaluate().unwrap()
    }

    #[test]
    fn fig13_reachability_shape() {
        // Reachability decreases with hop count and increases with
        // availability; at pi = 0.903 even 3-hop paths exceed 0.999.
        let eval = eval_a(0.903);
        let r = eval.reachabilities();
        assert_eq!(r.len(), 10);
        assert!(r[0] > r[3] && r[3] > r[9]);
        // Fig. 8's marked point for the 3-hop path at pi = 0.903: R = 0.9989.
        assert!((r[9] - 0.9989).abs() < 2e-4, "{}", r[9]);
        // At pi = 0.693 the 3-hop paths drop towards 0.93.
        let r = eval_a(0.693).reachabilities();
        assert!((r[9] - 0.9238).abs() < 2e-3, "{}", r[9]);
    }

    #[test]
    fn fig14_first_cycle_fractions() {
        // 70.8% of messages arrive in the first cycle, 21.7% in the second
        // (pi = 0.83).
        let eval = eval_a(0.83);
        let gamma = eval.overall_delay_distribution(DelayConvention::Absolute);
        // First cycle: delays up to 200 ms (slots 1..19 of cycle 1; the
        // earliest second-cycle arrival is at 410 ms).
        let first = gamma.cdf(200.0);
        let second = gamma.cdf(600.0) - first;
        // The distribution is conditioned on delivery; the paper's 70.8%
        // counts all generated messages, so scale by the mean reachability.
        let mean_r = eval.reachabilities().iter().sum::<f64>() / 10.0;
        assert!((first * mean_r - 0.708).abs() < 2e-3, "{}", first * mean_r);
        assert!(
            (second * mean_r - 0.217).abs() < 3e-3,
            "{}",
            second * mean_r
        );
    }

    #[test]
    fn fig15_expected_delays_eta_a() {
        let eval = eval_a(0.83);
        let delays = eval.expected_delays_ms(DelayConvention::Absolute);
        // Path 10 is the bottleneck at ~421 ms.
        let d10 = delays[9].unwrap();
        assert!((d10 - 421.4).abs() < 1.0, "{d10}");
        assert_eq!(eval.delay_bottleneck(DelayConvention::Absolute), Some(9));
        // E[Gamma] ~ 235 ms.
        let mean = eval.mean_delay_ms(DelayConvention::Absolute).unwrap();
        assert!((mean - 235.0).abs() < 1.5, "{mean}");
    }

    #[test]
    fn fig16_expected_delays_eta_b() {
        let net = typical(0.83);
        let model =
            NetworkModel::from_typical(&net, net.schedule_eta_b(), ReportingInterval::REGULAR)
                .unwrap();
        let eval = model.evaluate().unwrap();
        let delays = eval.expected_delays_ms(DelayConvention::Absolute);
        // Path 10 drops from 421 to ~291 ms; path 7 becomes the bottleneck
        // at ~318 ms.
        assert!((delays[9].unwrap() - 291.0).abs() < 1.5, "{:?}", delays[9]);
        assert!((delays[6].unwrap() - 318.0).abs() < 1.5, "{:?}", delays[6]);
        assert_eq!(eval.delay_bottleneck(DelayConvention::Absolute), Some(6));
        // E[Gamma] rises to ~272 ms but the delays are better balanced.
        let mean = eval.mean_delay_ms(DelayConvention::Absolute).unwrap();
        assert!((mean - 272.0).abs() < 1.5, "{mean}");
    }

    #[test]
    fn table2_utilization() {
        // Table II: utilization vs availability.
        let cases = [
            (0.693, 0.313),
            (0.774, 0.297),
            (0.83, 0.283),
            (0.903, 0.263),
            (0.948, 0.25),
            (0.989, 0.24),
        ];
        for (pi, want) in cases {
            let u = eval_a(pi).utilization(UtilizationConvention::AsEvaluated);
            assert!((u - want).abs() < 3e-3, "pi={pi}: {u} vs {want}");
        }
    }

    #[test]
    fn bottleneck_is_longest_weakest_path() {
        let eval = eval_a(0.83);
        // Paths 9 and 10 (indices 8, 9) are the 3-hop paths; either is the
        // reachability bottleneck (they tie under homogeneous links).
        let b = eval.reachability_bottleneck().unwrap();
        assert!(b == 8 || b == 9);
    }

    #[test]
    fn link_override_affects_crossing_paths_only() {
        let net = typical(0.83);
        let mut model =
            NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
                .unwrap();
        // Degrade e3 = (n3, G) to availability 0.5.
        let degraded = LinkModel::from_availability(0.5, 0.9).unwrap();
        model
            .override_link_dynamics(
                NodeId::field(3),
                NodeId::Gateway,
                LinkDynamics::steady(degraded),
            )
            .unwrap();
        let eval = model.evaluate().unwrap();
        let baseline = eval_a(0.83);
        let r = eval.reachabilities();
        let r0 = baseline.reachabilities();
        // Paths 3, 7, 8, 10 (indices 2, 6, 7, 9) cross e3 and get worse.
        for i in [2, 6, 7, 9] {
            assert!(r[i] < r0[i] - 1e-3, "path {i} unaffected");
        }
        // Others unchanged.
        for i in [0, 1, 3, 4, 5, 8] {
            assert!((r[i] - r0[i]).abs() < 1e-12, "path {i} affected");
        }
    }

    #[test]
    fn override_requires_existing_link() {
        let net = typical(0.83);
        let mut model =
            NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
                .unwrap();
        let d = LinkDynamics::steady(LinkModel::from_availability(0.5, 0.9).unwrap());
        assert!(model
            .override_link_dynamics(NodeId::field(1), NodeId::field(2), d)
            .is_err());
    }

    #[test]
    fn path_problem_index_bounds() {
        let net = typical(0.83);
        let model =
            NetworkModel::from_typical(&net, net.schedule_eta_a(), ReportingInterval::REGULAR)
                .unwrap();
        assert!(model.path_problem(9).is_ok());
        assert!(model.path_problem(10).is_err());
    }

    #[test]
    fn an_overflowing_horizon_is_an_error_naming_the_interval() {
        let net = typical(0.83);
        let huge = ReportingInterval::new(4_000_000_000).unwrap();
        let model = NetworkModel::from_typical(&net, net.schedule_eta_a(), huge).unwrap();
        let want = "reporting interval of 4000000000 cycles x 20 uplink slots";
        let err = model.compile().unwrap_err().to_string();
        assert!(err.contains(want), "{err}");
        let mut builder = PathProblem::builder();
        builder
            .add_hop(
                LinkDynamics::steady(LinkModel::from_availability(0.83, 0.9).unwrap()),
                0,
            )
            .superframe(net.superframe)
            .interval(huge);
        let err = builder.build().unwrap_err().to_string();
        assert!(err.contains(want), "{err}");
    }

    #[test]
    fn schedule_longer_than_uplink_rejected() {
        let net = typical(0.83);
        let long = net.schedule_eta_a().padded(21);
        assert!(matches!(
            NetworkModel::from_typical(&net, long, ReportingInterval::REGULAR),
            Err(ModelError::Inconsistent { .. })
        ));
    }
}
