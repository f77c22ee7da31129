//! Canonical cache keys for link dynamics and path problems.
//!
//! The batch engine (`whart-engine`) memoizes sub-computations across
//! scenario fleets. Two scenarios share work exactly when the inputs of
//! the underlying computation are bit-identical, so the keys here encode
//! every input of [`PathProblem::evaluate`] with bit-exact `f64` encoding
//! (`f64::to_bits`, with `-0.0` normalized to `0.0`): two problems with
//! equal signatures produce bit-identical evaluations, and problems that
//! differ in any evaluation-relevant input get different signatures.
//!
//! Measure conventions ([`crate::measures::DelayConvention`],
//! [`crate::measures::UtilizationConvention`]) are deliberately *not*
//! part of the signature: they parameterize the cheap measure extraction
//! applied downstream of the cached [`crate::path::PathEvaluation`], not
//! the DTMC solve itself.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::dynamics::LinkDynamics;
use crate::ir::PathProblem;

/// Bit-exact encoding of an `f64` probability for use in a hash key.
/// `-0.0` maps to the bits of `0.0` so the two zero encodings compare
/// equal, as they do arithmetically.
fn canonical_bits(value: f64) -> u64 {
    if value == 0.0 {
        0.0f64.to_bits()
    } else {
        value.to_bits()
    }
}

/// Canonical key of one [`LinkDynamics`]: the Gilbert-model transition
/// probabilities (Eqs. 4-5), the initial state distribution and any
/// scheduled outage windows. Two dynamics with equal keys yield the same
/// `pi(up)(k)` trajectory for every slot `k`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DynamicsKey {
    p_fl_bits: u64,
    p_rc_bits: u64,
    initial_up_bits: u64,
    outages: Vec<(u64, u64)>,
}

impl DynamicsKey {
    /// Derives the canonical key of `dynamics`.
    pub fn of(dynamics: &LinkDynamics) -> DynamicsKey {
        let model = dynamics.model();
        DynamicsKey {
            p_fl_bits: canonical_bits(model.p_fl()),
            p_rc_bits: canonical_bits(model.p_rc()),
            initial_up_bits: canonical_bits(dynamics.initial().up()),
            outages: dynamics
                .outages()
                .iter()
                .map(|o| (o.start, o.end))
                .collect(),
        }
    }
}

/// Canonical signature of a compiled [`PathProblem`]: per-hop dynamics
/// keys with their frame slots, the super-frame shape `(F_up, T_down)`,
/// the reporting interval `Is` and the message TTL. This is the complete
/// input of a path solve, so equal signatures guarantee bit-identical
/// [`crate::path::PathEvaluation`]s from the fast backend. Physical-link
/// identity ([`crate::ir::ProblemHop::link`]) is deliberately excluded:
/// two paths crossing different physical links with identical dynamics
/// are the same computation.
/// The per-hop keys live behind an `Arc` so cloning a signature (which
/// the engine does once per cache operation) is a reference-count bump,
/// and the content hash is computed once at construction so `HashMap`
/// probes never re-walk the hop list.
#[derive(Debug, Clone)]
pub struct PathSignature {
    hops: Arc<[(DynamicsKey, usize)]>,
    uplink_slots: u32,
    downlink_slots: u32,
    interval_cycles: u32,
    ttl: u32,
    /// Precomputed content hash (fixed-key `DefaultHasher`), the
    /// `Hash`/`PartialEq` fast path.
    hash: u64,
}

impl PartialEq for PathSignature {
    fn eq(&self, other: &PathSignature) -> bool {
        // The hash is a pure function of the remaining fields, so it acts
        // as a cheap reject before the hop-list walk.
        self.hash == other.hash
            && self.uplink_slots == other.uplink_slots
            && self.downlink_slots == other.downlink_slots
            && self.interval_cycles == other.interval_cycles
            && self.ttl == other.ttl
            && self.hops == other.hops
    }
}

impl Eq for PathSignature {}

impl Hash for PathSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PathSignature {
    /// Derives the canonical signature of a compiled problem (the
    /// implementation behind [`PathProblem::signature`]).
    pub(crate) fn of_problem(problem: &PathProblem) -> PathSignature {
        // Collected straight into the shared slice: one allocation.
        let hops: Arc<[(DynamicsKey, usize)]> = problem
            .hops()
            .iter()
            .map(|h| (DynamicsKey::of(h.dynamics()), h.frame_slot()))
            .collect();
        let uplink_slots = problem.superframe().uplink_slots();
        let downlink_slots = problem.superframe().downlink_slots();
        let interval_cycles = problem.interval().cycles();
        let ttl = problem.ttl();
        let mut hasher = DefaultHasher::new();
        hops.hash(&mut hasher);
        uplink_slots.hash(&mut hasher);
        downlink_slots.hash(&mut hasher);
        interval_cycles.hash(&mut hasher);
        ttl.hash(&mut hasher);
        PathSignature {
            hops,
            uplink_slots,
            downlink_slots,
            interval_cycles,
            ttl,
            hash: hasher.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Outage;
    use crate::sweeps::{chain_model, section_v_model};
    use whart_channel::{LinkModel, LinkState};
    use whart_net::ReportingInterval;

    fn link(pi: f64) -> LinkModel {
        LinkModel::from_availability(pi, 0.9).unwrap()
    }

    #[test]
    fn equal_problems_have_equal_signatures() {
        let a = section_v_model(0.83, ReportingInterval::REGULAR).unwrap();
        let b = section_v_model(0.83, ReportingInterval::REGULAR).unwrap();
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn negative_zero_normalizes() {
        assert_eq!(canonical_bits(-0.0), canonical_bits(0.0));
        assert_ne!(canonical_bits(-0.25), canonical_bits(0.25));
    }

    #[test]
    fn availability_changes_the_signature() {
        let a = section_v_model(0.83, ReportingInterval::REGULAR).unwrap();
        let b = section_v_model(0.903, ReportingInterval::REGULAR).unwrap();
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn interval_and_hop_count_change_the_signature() {
        let one = chain_model(1, 0.83, ReportingInterval::REGULAR).unwrap();
        let two = chain_model(2, 0.83, ReportingInterval::REGULAR).unwrap();
        assert_ne!(one.signature(), two.signature());
        let fast = chain_model(1, 0.83, ReportingInterval::FAST).unwrap();
        assert_ne!(one.signature(), fast.signature());
    }

    #[test]
    fn slots_change_the_signature() {
        let build = |slot| {
            let mut b = PathProblem::builder();
            b.add_hop(LinkDynamics::steady(link(0.83)), slot);
            b.superframe(whart_net::Superframe::symmetric(7).unwrap())
                .interval(ReportingInterval::REGULAR);
            b.build().unwrap()
        };
        assert_ne!(build(2).signature(), build(3).signature());
    }

    #[test]
    fn initial_state_and_outages_change_the_signature() {
        let steady = LinkDynamics::steady(link(0.83));
        let down = LinkDynamics::starting_in(link(0.83), LinkState::Down);
        assert_ne!(DynamicsKey::of(&steady), DynamicsKey::of(&down));
        let outage = steady.clone().with_outage(Outage::new(10, 20));
        assert_ne!(DynamicsKey::of(&steady), DynamicsKey::of(&outage));
        let other_window = steady.clone().with_outage(Outage::new(10, 30));
        assert_ne!(DynamicsKey::of(&outage), DynamicsKey::of(&other_window));
    }

    #[test]
    fn ttl_changes_the_signature() {
        let full = chain_model(2, 0.83, ReportingInterval::REGULAR).unwrap();
        let mut b = PathProblem::builder();
        b.add_hop(LinkDynamics::steady(link(0.83)), 0)
            .add_hop(LinkDynamics::steady(link(0.83)), 1);
        b.superframe(whart_net::Superframe::symmetric(2).unwrap())
            .interval(ReportingInterval::REGULAR)
            .ttl(1);
        let short = b.build().unwrap();
        assert_ne!(full.signature(), short.signature());
    }
}
