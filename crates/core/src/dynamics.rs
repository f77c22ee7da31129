//! Per-link stochastic dynamics over absolute slots.
//!
//! The hierarchical model (Section IV) lets every hop's success probability
//! vary per slot: the link DTMCs "evolve simultaneously with the path DTMC".
//! [`LinkDynamics`] captures the three situations the paper evaluates:
//!
//! * links already in steady state (the default for Sections V and VI-A);
//! * links started from an arbitrary distribution (Fig. 17's recovery
//!   curves, "different initial situations, like links being up or down
//!   initially");
//! * links forced DOWN for a window of slots (the fine-grained variant of
//!   the Section VI-C random-duration failures).
//!
//! Time is measured in *absolute* slots from the start of the evaluation
//! (uplink and downlink slots both advance the link chain; the path model
//! maps its uplink slots onto this axis).

use whart_channel::{LinkDistribution, LinkModel, LinkState};

/// A window of absolute slots `[start, end)` during which a link is forced
/// DOWN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First affected absolute slot.
    pub start: u64,
    /// First slot after the outage.
    pub end: u64,
}

impl Outage {
    /// Creates an outage window.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end > start, "outage window must be non-empty");
        Outage { start, end }
    }

    /// Whether the window covers a slot.
    pub fn covers(self, slot: u64) -> bool {
        (self.start..self.end).contains(&slot)
    }
}

/// The time-dependent behaviour of one link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDynamics {
    model: LinkModel,
    initial: LinkDistribution,
    outages: Vec<Outage>,
}

impl LinkDynamics {
    /// A link already in steady state at slot 0 (the paper's default
    /// assumption: "all links have already reached steady state at the
    /// beginning of the evaluation").
    pub fn steady(model: LinkModel) -> Self {
        LinkDynamics {
            model,
            initial: model.steady_state(),
            outages: Vec::new(),
        }
    }

    /// A link starting from an explicit distribution at slot 0.
    pub fn starting_from(model: LinkModel, initial: LinkDistribution) -> Self {
        LinkDynamics {
            model,
            initial,
            outages: Vec::new(),
        }
    }

    /// A link starting in a definite state at slot 0.
    pub fn starting_in(model: LinkModel, state: LinkState) -> Self {
        Self::starting_from(model, LinkDistribution::certain(state))
    }

    /// Adds an outage window: the link is DOWN with certainty throughout,
    /// and resumes its Markov evolution from the DOWN state afterwards
    /// (physical obstruction defeats channel hopping; once the obstruction
    /// clears the chain recovers at `p_rc` per slot).
    pub fn with_outage(mut self, outage: Outage) -> Self {
        self.outages.push(outage);
        self.outages.sort_by_key(|o| o.start);
        self
    }

    /// The underlying two-state link model.
    pub fn model(&self) -> LinkModel {
        self.model
    }

    /// The distribution at slot 0.
    pub fn initial(&self) -> LinkDistribution {
        self.initial
    }

    /// The scheduled outage windows, sorted by start slot.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The probability that the link is UP at an absolute slot, accounting
    /// for the initial distribution and any outage windows (Eq. 3; for a
    /// steady start without outages this is the constant Eq. 4).
    pub fn up_probability(&self, slot: u64) -> f64 {
        // Inside an outage the link is down with certainty.
        for o in &self.outages {
            if o.covers(slot) {
                return 0.0;
            }
        }
        // Evolve from the most recent anchor: either slot 0 with the
        // configured initial distribution, or the last slot of the most
        // recent outage (certainly DOWN), so the first post-outage slot has
        // already taken one recovery step (P(up) = p_rc).
        let mut anchor_slot = 0u64;
        let mut anchor = self.initial;
        for o in &self.outages {
            if o.end <= slot && o.end > anchor_slot {
                anchor_slot = o.end - 1;
                anchor = LinkDistribution::certain(LinkState::Down);
            }
        }
        self.model.after(anchor, slot - anchor_slot).up()
    }

    /// The UP-probability trajectory for slots `0..=slots`.
    pub fn up_trajectory(&self, slots: u64) -> Vec<f64> {
        (0..=slots).map(|t| self.up_probability(t)).collect()
    }

    /// Whether `up_probability` returns the *same bits* at every slot:
    /// no outages and an initial distribution exactly on the stationary
    /// point, so the transient term of Eq. 3 is exactly `0.0` rather
    /// than merely negligible. [`LinkDynamics::steady`] satisfies this
    /// by construction; it is the predicate behind slot-shift
    /// canonicalization in the batch engine, where bit-identical
    /// results are required (not 1e-15-close ones).
    pub fn is_exactly_stationary(&self) -> bool {
        self.outages.is_empty() && (self.initial.up() - self.model.availability()) == 0.0
    }
}

impl From<LinkModel> for LinkDynamics {
    /// Defaults to the steady-state assumption.
    fn from(model: LinkModel) -> Self {
        LinkDynamics::steady(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LinkModel {
        LinkModel::new(0.184, 0.9).unwrap()
    }

    #[test]
    fn steady_links_are_constant() {
        let d = LinkDynamics::steady(model());
        let pi = model().availability();
        for t in [0, 1, 5, 100, 10_000] {
            assert!((d.up_probability(t) - pi).abs() < 1e-12);
        }
    }

    #[test]
    fn fig17_recovery_curve() {
        // Fig. 17: starting DOWN, P(up) jumps to 0.9 after one slot and is at
        // steady state almost immediately.
        let d = LinkDynamics::starting_in(model(), LinkState::Down);
        let traj = d.up_trajectory(6);
        assert_eq!(traj[0], 0.0);
        assert!((traj[1] - 0.9).abs() < 1e-12);
        assert!((traj[6] - model().availability()).abs() < 1e-3);
    }

    #[test]
    fn outage_forces_down_then_recovers() {
        let d = LinkDynamics::steady(model()).with_outage(Outage::new(10, 14));
        assert!((d.up_probability(9) - model().availability()).abs() < 1e-12);
        for t in 10..14 {
            assert_eq!(d.up_probability(t), 0.0);
        }
        // The first slot after the outage recovers with p_rc...
        assert!((d.up_probability(14) - 0.9).abs() < 1e-12);
        // ...and the chain heads back towards steady state from there.
        let expected_15 = model()
            .after(LinkDistribution::certain(LinkState::Down), 2)
            .up();
        assert!((d.up_probability(15) - expected_15).abs() < 1e-12);
        assert!((d.up_probability(200) - model().availability()).abs() < 1e-12);
    }

    #[test]
    fn multiple_outages_anchor_to_latest() {
        let d = LinkDynamics::steady(model())
            .with_outage(Outage::new(30, 32))
            .with_outage(Outage::new(10, 12));
        assert_eq!(d.up_probability(31), 0.0);
        assert!((d.up_probability(32) - 0.9).abs() < 1e-12);
        assert!((d.up_probability(12) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn outage_end_is_exclusive() {
        let o = Outage::new(5, 8);
        assert!(!o.covers(4));
        assert!(o.covers(5));
        assert!(o.covers(7));
        assert!(!o.covers(8));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_outage_rejected() {
        let _ = Outage::new(5, 5);
    }

    #[test]
    fn from_link_model_is_steady() {
        let d: LinkDynamics = model().into();
        assert_eq!(d.model(), model());
        assert!((d.initial().up() - model().availability()).abs() < 1e-15);
    }
}
