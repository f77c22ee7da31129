//! Canonical cache keys for path solves.
//!
//! The batch engine (`whart-engine`) memoizes path solves across
//! scenario fleets. Two solves share work exactly when their inputs are
//! bit-identical, so a [`PathSignature`] encodes every input of a solve
//! ([`crate::ir::Solver::solve_path`]: the compiled problem and the
//! [`MeasurePlan`]) with bit-exact `f64` encoding (`f64::to_bits`, with
//! `-0.0` normalized to `0.0`): equal signatures produce bit-identical
//! evaluations, and solves that differ in any evaluation-relevant input
//! get different signatures.
//!
//! Measure conventions ([`crate::measures::DelayConvention`],
//! [`crate::measures::UtilizationConvention`]) are deliberately *not*
//! part of the signature: they parameterize the cheap measure extraction
//! applied downstream of the cached [`crate::path::PathEvaluation`], not
//! the DTMC solve itself.
//!
//! # Layout
//!
//! A signature is one immutable slice of `u64` words behind an
//! `Arc<[u64]>` (16 bytes inline), so the engine's per-drain plan table
//! and the solve task it plans share one allocation; the path cache
//! copies the words ([`PathSignature::words`]) into its own arena. Two
//! `u32` fields share a word, high half first:
//!
//! | words | content |
//! |---|---|
//! | 0 | content hash of words 1.. (fixed-key SipHash) |
//! | 1 | `F_up`, `T_down` |
//! | 2 | `Is`, TTL |
//! | 3 | trajectory plan flag, hop count |
//! | per hop | `p_fl`, `p_rc`, initial `pi(up)` bits; frame slot, outage count; `(start, end)` per outage window |
//!
//! Every variable-length run is preceded by its count, so no two inputs
//! encode to the same words. A typical 2-hop steady path takes 12 words
//! (96 bytes plus the `Arc` header).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::dynamics::LinkDynamics;
use crate::ir::{MeasurePlan, PathProblem};

/// Words before the first hop: the hash and three packed header words.
const HEADER_WORDS: usize = 4;

/// Words of a hop without outage windows.
const HOP_WORDS: usize = 4;

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

/// Two `u32` fields in one word, `high` in the upper half.
fn pack(high: u32, low: u32) -> u64 {
    u64::from(high) << 32 | u64::from(low)
}

/// Words one hop occupies.
fn hop_len(dynamics: &LinkDynamics) -> usize {
    HOP_WORDS + 2 * dynamics.outages().len()
}

/// Writes one hop's canonical words into `out` (exactly
/// [`hop_len`]`(dynamics)` long): the Gilbert-model transition
/// probabilities (Eqs. 4-5), the initial state distribution, the frame
/// slot and the scheduled outage windows. Two hops with equal words
/// transmit in the same frame slot with the same `pi(up)(k)` for every
/// slot `k`.
fn encode_hop(out: &mut [u64], dynamics: &LinkDynamics, frame_slot: usize) {
    let model = dynamics.model();
    let outages = dynamics.outages();
    out[0] = canonical_bits(model.p_fl());
    out[1] = canonical_bits(model.p_rc());
    out[2] = canonical_bits(dynamics.initial().up());
    // Frame slots lie below `F_up`, a `u32`.
    let count = u32::try_from(outages.len()).expect("outage windows per hop fit in u32");
    out[3] = pack(frame_slot as u32, count);
    for (pair, outage) in out[HOP_WORDS..].chunks_exact_mut(2).zip(outages) {
        pair[0] = outage.start;
        pair[1] = outage.end;
    }
}

/// Canonical signature of one path solve: a compiled [`PathProblem`]
/// (per-hop dynamics with their frame slots, the super-frame shape
/// `(F_up, T_down)`, the reporting interval `Is` and the message TTL)
/// under a [`MeasurePlan`]. This is the complete input of a path solve,
/// so equal signatures guarantee bit-identical
/// [`crate::path::PathEvaluation`]s from the fast backend. Physical-link
/// identity ([`crate::ir::ProblemHop::link`]) is deliberately excluded:
/// two paths crossing different physical links with identical dynamics
/// are the same computation.
///
/// Cloning a signature is a reference-count bump, and the content hash
/// is the slice's first word, so hash probes never re-walk the hop
/// list. See the [module docs](self) for the word layout.
#[derive(Debug, Clone)]
pub struct PathSignature {
    words: Arc<[u64]>,
}

impl PartialEq for PathSignature {
    fn eq(&self, other: &PathSignature) -> bool {
        // The hash is a pure function of the remaining words, so it acts
        // as a cheap reject before the slice comparison.
        self.words[0] == other.words[0] && self.words == other.words
    }
}

impl Eq for PathSignature {}

impl Hash for PathSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.words[0]);
    }
}

impl PathSignature {
    /// Derives the signature of solving `problem` under `plan`. The words
    /// are written straight into the shared slice: one allocation.
    pub fn of(problem: &PathProblem, plan: MeasurePlan) -> PathSignature {
        let hops = problem.hops();
        let len = HEADER_WORDS + hops.iter().map(|h| hop_len(h.dynamics())).sum::<usize>();
        let mut words: Arc<[u64]> = std::iter::repeat(0).take(len).collect();
        let out = Arc::get_mut(&mut words).expect("a fresh slice is unshared");
        let superframe = problem.superframe();
        out[1] = pack(superframe.uplink_slots(), superframe.downlink_slots());
        out[2] = pack(problem.interval().cycles(), problem.ttl());
        // Each hop holds a distinct slot below `F_up`, so the count fits.
        out[3] = pack(u32::from(plan.goal_trajectory), hops.len() as u32);
        let mut at = HEADER_WORDS;
        for hop in hops {
            let end = at + hop_len(hop.dynamics());
            encode_hop(&mut out[at..end], hop.dynamics(), hop.frame_slot());
            at = end;
        }
        let mut hasher = DefaultHasher::new();
        out[1..].hash(&mut hasher);
        out[0] = hasher.finish();
        PathSignature { words }
    }

    /// The canonical words, content hash first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Outage;
    use crate::sweeps::{chain_model, section_v_model};
    use whart_channel::{LinkModel, LinkState};
    use whart_net::ReportingInterval;

    /// The canonical words of one dynamics at frame slot 0.
    struct DynamicsKey;

    impl DynamicsKey {
        fn of(dynamics: &LinkDynamics) -> Vec<u64> {
            let mut words = vec![0; hop_len(dynamics)];
            encode_hop(&mut words, dynamics, 0);
            words
        }
    }

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
