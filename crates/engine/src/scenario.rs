//! Scenario jobs and their results.
//!
//! A [`Scenario`] is one unit of batch work: a workload (a full network
//! or a set of standalone path problems — the network spec with its
//! parameter overrides and failure injections already applied) plus the
//! set of requested measures. The engine plans every submitted scenario
//! into a deduplicated set of path solves and assembles a
//! [`ScenarioResult`] per scenario, in submission order.

use std::sync::Arc;

use whart_model::{
    DelayConvention, NetworkEvaluation, NetworkModel, PathEvaluation, PathProblem,
    UtilizationConvention,
};

/// What a scenario evaluates.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A full network: one path solve per route, assembled into a
    /// [`NetworkEvaluation`]. Shared behind an [`Arc`] so resubmitting
    /// the same model across drains (warm fleets, long-lived services)
    /// bumps a reference count instead of deep-copying the topology,
    /// schedule and override tables.
    Network(Arc<NetworkModel>),
    /// Standalone path problems (the single-path studies and sweeps).
    Paths(Vec<PathProblem>),
}

impl Workload {
    /// How many path solves the workload asks for.
    pub fn path_count(&self) -> usize {
        match self {
            Workload::Network(model) => model.paths().len(),
            Workload::Paths(problems) => problems.len(),
        }
    }
}

/// The measures to extract from a scenario's evaluations, with the
/// conventions to apply. Conventions parameterize the cheap measure
/// extraction, not the cached DTMC solve, so they are not part of the
/// path cache key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureSet {
    /// Per-path reachability `R` (Eq. 6).
    pub reachability: bool,
    /// Per-path expected delay and the network mean `E[Gamma]` (Eq. 13).
    pub expected_delay: bool,
    /// Expected reporting intervals to the first loss (Eq. 8).
    pub expected_intervals_to_first_loss: bool,
    /// Per-path and network utilization `U` (Eq. 11).
    pub utilization: bool,
    /// The raw cycle probability function (Fig. 4's `g`).
    pub cycle_probabilities: bool,
    /// Delay accounting convention.
    pub delay_convention: DelayConvention,
    /// Utilization accounting convention.
    pub utilization_convention: UtilizationConvention,
}

impl Default for MeasureSet {
    fn default() -> Self {
        MeasureSet {
            reachability: true,
            expected_delay: true,
            expected_intervals_to_first_loss: true,
            utilization: true,
            cycle_probabilities: false,
            delay_convention: DelayConvention::Absolute,
            utilization_convention: UtilizationConvention::AsEvaluated,
        }
    }
}

/// One batch job.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Caller-chosen identifier, echoed on the result.
    pub label: String,
    /// The models to solve.
    pub workload: Workload,
    /// The measures to extract.
    pub measures: MeasureSet,
}

impl Scenario {
    /// A network scenario with default measures. Accepts an owned model
    /// or an `Arc<NetworkModel>` — callers resubmitting one model across
    /// drains should pass the `Arc` to skip the deep copy.
    pub fn network(label: impl Into<String>, model: impl Into<Arc<NetworkModel>>) -> Scenario {
        Scenario {
            label: label.into(),
            workload: Workload::Network(model.into()),
            measures: MeasureSet::default(),
        }
    }

    /// A standalone-paths scenario with default measures.
    pub fn paths(label: impl Into<String>, problems: Vec<PathProblem>) -> Scenario {
        Scenario {
            label: label.into(),
            workload: Workload::Paths(problems),
            measures: MeasureSet::default(),
        }
    }

    /// Replaces the measure set.
    #[must_use]
    pub fn with_measures(mut self, measures: MeasureSet) -> Scenario {
        self.measures = measures;
        self
    }
}

/// The measures extracted from one path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PathMeasures {
    /// Reachability, if requested.
    pub reachability: Option<f64>,
    /// Expected delay in ms, if requested (also `None` for an unreachable
    /// path).
    pub expected_delay_ms: Option<f64>,
    /// Expected intervals to first loss, if requested.
    pub expected_intervals_to_first_loss: Option<f64>,
    /// Utilization, if requested.
    pub utilization: Option<f64>,
    /// Cycle probability function, if requested.
    pub cycle_probabilities: Option<Vec<f64>>,
}

/// The evaluations behind one scenario result.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A network evaluation (for [`Workload::Network`]).
    Network(NetworkEvaluation),
    /// Standalone path evaluations in model order (for
    /// [`Workload::Paths`]).
    Paths(Vec<PathEvaluation>),
}

/// The result of one scenario, in submission order from
/// [`crate::Engine::drain`].
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// The full evaluations.
    pub outcome: Outcome,
    /// Requested per-path measures, in path order.
    pub path_measures: Vec<PathMeasures>,
    /// Network mean delay `E[Gamma]` (network workloads with
    /// `expected_delay` requested and every path reachable).
    pub mean_delay_ms: Option<f64>,
    /// Network utilization `U` (network workloads with `utilization`
    /// requested).
    pub network_utilization: Option<f64>,
}

impl ScenarioResult {
    /// The network evaluation, for network workloads.
    pub fn network(&self) -> Option<&NetworkEvaluation> {
        match &self.outcome {
            Outcome::Network(eval) => Some(eval),
            Outcome::Paths(_) => None,
        }
    }

    /// Every path evaluation, regardless of workload kind.
    pub fn path_evaluations(&self) -> Vec<&PathEvaluation> {
        match &self.outcome {
            Outcome::Network(eval) => eval
                .reports()
                .iter()
                .map(|r| r.evaluation.as_ref())
                .collect(),
            Outcome::Paths(evals) => evals.iter().collect(),
        }
    }
}

pub(crate) fn extract_path_measures(
    evaluation: &PathEvaluation,
    measures: MeasureSet,
) -> PathMeasures {
    PathMeasures {
        reachability: measures.reachability.then(|| evaluation.reachability()),
        expected_delay_ms: if measures.expected_delay {
            evaluation.expected_delay_ms(measures.delay_convention)
        } else {
            None
        },
        expected_intervals_to_first_loss: measures
            .expected_intervals_to_first_loss
            .then(|| evaluation.expected_intervals_to_first_loss()),
        utilization: measures
            .utilization
            .then(|| evaluation.utilization(measures.utilization_convention)),
        cycle_probabilities: measures
            .cycle_probabilities
            .then(|| evaluation.cycle_probabilities().as_slice().to_vec()),
    }
}
