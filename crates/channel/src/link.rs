//! The paper's two-state link model (Section III, Fig. 3).
//!
//! A wireless link alternates between an UP state, in which a whole message
//! is delivered without bit errors, and a DOWN state, in which transmission
//! certainly fails. Per slot the link fails with probability `p_fl` and
//! recovers with probability `p_rc`; channel hopping makes `p_rc` close to
//! (but below) one.

use crate::error::{ChannelError, Result};
use crate::modulation::{message_failure_probability, Modulation};
use crate::snr::EbN0;

/// The state of a link in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkState {
    /// Received signal strength above threshold; transmissions succeed.
    Up,
    /// Strong noise; transmissions fail.
    Down,
}

/// A probability distribution over [`LinkState`], `(P(up), P(down))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDistribution {
    up: f64,
}

impl LinkDistribution {
    /// A distribution with the given UP probability.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] if `up` is not a
    /// probability.
    pub fn new(up: f64) -> Result<Self> {
        check_probability("P(up)", up)?;
        Ok(LinkDistribution { up })
    }

    /// Point mass on a state.
    pub fn certain(state: LinkState) -> Self {
        LinkDistribution {
            up: if state == LinkState::Up { 1.0 } else { 0.0 },
        }
    }

    /// Probability of being UP.
    pub fn up(self) -> f64 {
        self.up
    }

    /// Probability of being DOWN.
    pub fn down(self) -> f64 {
        1.0 - self.up
    }
}

/// The two-state DTMC link model with per-slot failure probability `p_fl`
/// and recovery probability `p_rc`.
///
/// ```
/// use whart_channel::LinkModel;
///
/// # fn main() -> Result<(), whart_channel::ChannelError> {
/// // Section V-B of the paper: BER = 1e-4 on 127-byte messages.
/// let link = LinkModel::from_ber(1e-4, 127 * 8, LinkModel::DEFAULT_RECOVERY)?;
/// assert!((link.p_fl() - 0.0966).abs() < 5e-5);
/// assert!((link.availability() - 0.9031).abs() < 5e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    p_fl: f64,
    p_rc: f64,
}

impl LinkModel {
    /// The recovery probability used throughout the paper's evaluation:
    /// after a bad slot the pseudo-random hop almost surely lands on a
    /// working channel.
    pub const DEFAULT_RECOVERY: f64 = 0.9;

    /// Creates a link model from its two transition probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] if either parameter is
    /// not a probability, or if both are zero (the chain would have no
    /// unique stationary distribution).
    pub fn new(p_fl: f64, p_rc: f64) -> Result<Self> {
        check_probability("p_fl", p_fl)?;
        check_probability("p_rc", p_rc)?;
        if p_fl == 0.0 && p_rc == 0.0 {
            return Err(ChannelError::InvalidProbability {
                name: "p_fl+p_rc",
                value: 0.0,
            });
        }
        Ok(LinkModel { p_fl, p_rc })
    }

    /// Derives the failure probability from a bit error rate and message
    /// length (Eq. 2): `p_fl = 1 - (1 - ber)^bits`.
    ///
    /// # Errors
    ///
    /// See [`LinkModel::new`].
    pub fn from_ber(ber: f64, bits: u32, p_rc: f64) -> Result<Self> {
        check_probability("ber", ber)?;
        LinkModel::new(message_failure_probability(ber, bits), p_rc)
    }

    /// Derives the failure probability from a measured per-bit SNR via the
    /// modulation's AWGN BER curve (Eqs. 1-2).
    ///
    /// # Errors
    ///
    /// See [`LinkModel::new`].
    pub fn from_snr(modulation: Modulation, snr: EbN0, bits: u32, p_rc: f64) -> Result<Self> {
        LinkModel::from_ber(modulation.ber(snr), bits, p_rc)
    }

    /// Derives `p_fl` from a target stationary availability
    /// (inverting Eq. 4): `p_fl = p_rc * (1 - pi) / pi`.
    ///
    /// The paper's sweeps are parameterized this way
    /// (`pi(up)` in 0.693..0.989).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidProbability`] if `availability` is not
    /// in `(0, 1]` or the implied `p_fl` leaves `[0, 1]`.
    pub fn from_availability(availability: f64, p_rc: f64) -> Result<Self> {
        check_probability("pi(up)", availability)?;
        if availability == 0.0 {
            return Err(ChannelError::InvalidProbability {
                name: "pi(up)",
                value: 0.0,
            });
        }
        let p_fl = p_rc * (1.0 - availability) / availability;
        if p_fl > 1.0 {
            return Err(ChannelError::InvalidProbability {
                name: "implied p_fl",
                value: p_fl,
            });
        }
        LinkModel::new(p_fl, p_rc)
    }

    /// Per-slot failure probability (UP -> DOWN).
    pub fn p_fl(self) -> f64 {
        self.p_fl
    }

    /// Per-slot recovery probability (DOWN -> UP).
    pub fn p_rc(self) -> f64 {
        self.p_rc
    }

    /// Stationary availability `pi(up) = p_rc / (p_rc + p_fl)` (Eq. 4).
    pub fn availability(self) -> f64 {
        self.p_rc / (self.p_rc + self.p_fl)
    }

    /// The stationary distribution.
    pub fn steady_state(self) -> LinkDistribution {
        LinkDistribution {
            up: self.availability(),
        }
    }

    /// One step of the link chain (Eq. 3).
    pub fn step(self, dist: LinkDistribution) -> LinkDistribution {
        let up = dist.up() * (1.0 - self.p_fl) + dist.down() * self.p_rc;
        LinkDistribution { up }
    }

    /// The distribution after `slots` steps from `initial` (Eq. 3 iterated,
    /// in closed form using the chain's second eigenvalue
    /// `lambda = 1 - p_fl - p_rc`).
    pub fn after(self, initial: LinkDistribution, slots: u64) -> LinkDistribution {
        let pi = self.availability();
        let lambda = 1.0 - self.p_fl - self.p_rc;
        // P(up at t) = pi + (P(up at 0) - pi) * lambda^t.
        let up = pi + (initial.up() - pi) * powi_u64(lambda, slots);
        LinkDistribution {
            up: up.clamp(0.0, 1.0),
        }
    }

    /// The UP-probability trajectory over `slots` steps, starting from
    /// `initial` (Fig. 17 of the paper plots these curves).
    pub fn up_trajectory(self, initial: LinkDistribution, slots: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(slots + 1);
        let mut d = initial;
        out.push(d.up());
        for _ in 0..slots {
            d = self.step(d);
            out.push(d.up());
        }
        out
    }

    /// Expected number of slots the link stays UP once up: `1 / p_fl`
    /// (infinite for `p_fl = 0`).
    pub fn mean_up_run(self) -> f64 {
        1.0 / self.p_fl
    }

    /// Expected number of slots to recover once down: `1 / p_rc`.
    pub fn mean_down_run(self) -> f64 {
        1.0 / self.p_rc
    }
}

/// `base^exp` for possibly negative `base` and `u64` exponent, by squaring.
fn powi_u64(base: f64, mut exp: u64) -> f64 {
    let mut acc = 1.0;
    let mut b = base;
    while exp > 0 {
        if exp & 1 == 1 {
            acc *= b;
        }
        b *= b;
        exp >>= 1;
    }
    acc
}

fn check_probability(name: &'static str, value: f64) -> Result<()> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(ChannelError::InvalidProbability { name, value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_matches_eq4() {
        let link = LinkModel::new(0.3, 0.9).unwrap();
        assert!((link.availability() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn from_ber_matches_section_v_b() {
        let link = LinkModel::from_ber(1e-4, 1016, 0.9).unwrap();
        assert!((link.p_fl() - 0.0966).abs() < 5e-5);
        assert!((link.availability() - 0.9031).abs() < 5e-4);
    }

    #[test]
    fn from_availability_round_trips() {
        for &pi in &[0.693, 0.774, 0.83, 0.903, 0.948, 0.989] {
            let link = LinkModel::from_availability(pi, 0.9).unwrap();
            assert!((link.availability() - pi).abs() < 1e-12);
        }
    }

    #[test]
    fn from_snr_composes_eq1_and_eq2() {
        // Table IV: Eb/N0 = 7 -> p_fl = 0.089.
        let link =
            LinkModel::from_snr(Modulation::Oqpsk, EbN0::from_linear(7.0), 1016, 0.9).unwrap();
        assert!((link.p_fl() - 0.089).abs() < 5e-4, "{}", link.p_fl());
        // Eb/N0 = 6 -> p_fl = 0.237.
        let link =
            LinkModel::from_snr(Modulation::Oqpsk, EbN0::from_linear(6.0), 1016, 0.9).unwrap();
        assert!((link.p_fl() - 0.237).abs() < 5e-4, "{}", link.p_fl());
    }

    #[test]
    fn step_matches_dtmc_transient() {
        // The UP/DOWN chain of Eqs. 3-4 iterated by hand from DOWN:
        // p'(up) = p(up) (1 - p_fl) + p(down) p_rc.
        let link = LinkModel::new(0.184, 0.9).unwrap();
        let ours = link.up_trajectory(LinkDistribution::certain(LinkState::Down), 6);
        let (mut up, mut down) = (0.0, 1.0);
        for (t, got) in ours.iter().enumerate() {
            assert!((got - up).abs() < 1e-14, "slot {t}");
            (up, down) = (
                up * (1.0 - link.p_fl()) + down * link.p_rc(),
                up * link.p_fl() + down * (1.0 - link.p_rc()),
            );
        }
    }

    #[test]
    fn closed_form_after_matches_iteration() {
        let link = LinkModel::new(0.05, 0.9).unwrap();
        let init = LinkDistribution::certain(LinkState::Down);
        let traj = link.up_trajectory(init, 20);
        for (t, want) in traj.iter().enumerate() {
            let got = link.after(init, t as u64).up();
            assert!((got - want).abs() < 1e-12, "slot {t}: {got} vs {want}");
        }
    }

    #[test]
    fn fig17_recovery_is_nearly_immediate() {
        // Fig. 17: starting DOWN, one slot already reaches P(up) = 0.9 and
        // the chain is at steady state (within 1%) after two slots.
        for &p_fl in &[0.184, 0.05] {
            let link = LinkModel::new(p_fl, 0.9).unwrap();
            let traj = link.up_trajectory(LinkDistribution::certain(LinkState::Down), 6);
            assert_eq!(traj[0], 0.0);
            assert!((traj[1] - 0.9).abs() < 1e-12);
            assert!((traj[2] - link.availability()).abs() < 0.01);
        }
    }

    #[test]
    fn steady_state_is_fixed_point_of_step() {
        let link = LinkModel::new(0.26, 0.9).unwrap();
        let pi = link.steady_state();
        let stepped = link.step(pi);
        assert!((stepped.up() - pi.up()).abs() < 1e-15);
    }

    #[test]
    fn mean_runs() {
        let link = LinkModel::new(0.25, 0.5).unwrap();
        assert!((link.mean_up_run() - 4.0).abs() < 1e-12);
        assert!((link.mean_down_run() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(LinkModel::new(-0.1, 0.9).is_err());
        assert!(LinkModel::new(0.1, 1.5).is_err());
        assert!(LinkModel::new(0.0, 0.0).is_err());
        assert!(LinkModel::from_availability(0.0, 0.9).is_err());
        // pi = 0.3 with p_rc = 0.9 would need p_fl = 2.1 > 1.
        assert!(LinkModel::from_availability(0.3, 0.9).is_err());
        assert!(LinkDistribution::new(1.2).is_err());
    }

    #[test]
    fn certain_distributions() {
        assert_eq!(LinkDistribution::certain(LinkState::Up).up(), 1.0);
        assert_eq!(LinkDistribution::certain(LinkState::Down).down(), 1.0);
    }

    #[test]
    fn powi_u64_matches_std() {
        for &b in &[-0.5f64, 0.3, 1.1] {
            for e in 0u64..20 {
                assert!((powi_u64(b, e) - b.powi(e as i32)).abs() < 1e-12);
            }
        }
    }
}
