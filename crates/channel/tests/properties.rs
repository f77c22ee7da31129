//! Property-based tests for the physical-layer substrate.

use proptest::prelude::*;
use whart_channel::math::{erf, erfc, gamma_p, gamma_q};
use whart_channel::{
    ber_from_failure_probability, message_failure_probability, Blacklist, ChannelId, EbN0,
    HopSequence, LinkDistribution, LinkModel, Modulation, SnrDb,
};

proptest! {
    #[test]
    fn erf_erfc_complement_everywhere(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn erf_stays_in_range(x in -20.0f64..20.0) {
        let y = erf(x);
        prop_assert!((-1.0..=1.0).contains(&y));
        let c = erfc(x);
        prop_assert!((0.0..=2.0).contains(&c));
    }

    #[test]
    fn gamma_p_q_partition(a in 0.1f64..10.0, x in 0.0f64..30.0) {
        prop_assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&gamma_p(a, x)));
    }

    #[test]
    fn ber_curves_are_probabilities(snr in 0.0f64..40.0) {
        for m in [
            Modulation::Oqpsk,
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::NoncoherentBfsk,
            Modulation::Dbpsk,
        ] {
            let b = m.ber(EbN0::from_linear(snr));
            prop_assert!((0.0..=0.5).contains(&b), "{m}: {b}");
        }
    }

    #[test]
    fn message_failure_monotone_in_ber_and_bits(
        ber in 0.0f64..0.01,
        bits in 1u32..4096,
    ) {
        let p = message_failure_probability(ber, bits);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(message_failure_probability(ber, bits + 1) >= p);
        prop_assert!(message_failure_probability((ber * 1.5).min(1.0), bits) >= p);
    }

    #[test]
    fn ber_failure_inversion_round_trips(ber in 1e-9f64..0.01, bits in 1u32..4096) {
        let p_fl = message_failure_probability(ber, bits);
        // Once p_fl saturates towards 1 the representation of 1 - p_fl loses
        // relative precision and the round trip is inherently lossy, so only
        // the operationally relevant regime is asserted tightly.
        prop_assume!(p_fl < 0.99);
        let back = ber_from_failure_probability(p_fl, bits);
        prop_assert!(((back - ber) / ber).abs() < 1e-8);
    }

    #[test]
    fn link_transient_converges_to_availability(
        p_fl in 0.01f64..1.0,
        p_rc in 0.01f64..1.0,
        up0 in 0.0f64..1.0,
    ) {
        let link = LinkModel::new(p_fl, p_rc).unwrap();
        let d0 = LinkDistribution::new(up0).unwrap();
        let far = link.after(d0, 10_000);
        prop_assert!((far.up() - link.availability()).abs() < 1e-9);
    }

    #[test]
    fn link_closed_form_matches_stepping(
        p_fl in 0.0f64..1.0,
        p_rc in 0.001f64..1.0,
        up0 in 0.0f64..1.0,
        slots in 0u64..60,
    ) {
        let link = LinkModel::new(p_fl, p_rc).unwrap();
        let mut d = LinkDistribution::new(up0).unwrap();
        for _ in 0..slots {
            d = link.step(d);
        }
        let closed = link.after(LinkDistribution::new(up0).unwrap(), slots);
        prop_assert!((closed.up() - d.up()).abs() < 1e-10);
    }

    #[test]
    fn availability_inversion_round_trips(pi in 0.5f64..0.999) {
        let link = LinkModel::from_availability(pi, 0.9).unwrap();
        prop_assert!((link.availability() - pi).abs() < 1e-12);
    }

    #[test]
    fn snr_db_round_trip(db in -30.0f64..30.0) {
        let lin = EbN0::from_db(SnrDb::new(db));
        prop_assert!((10.0 * lin.linear().log10() - db).abs() < 1e-9);
    }

    #[test]
    fn hop_sequence_is_fair(offset in 0usize..64) {
        // Over one period every active channel appears exactly once.
        let seq = HopSequence::new(&Blacklist::new(), offset).unwrap();
        let mut seen = [0u32; 16];
        for t in 0..16u64 {
            seen[seq.channel_at(t).index()] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn blacklist_never_empties(channels in proptest::collection::vec(11u8..=26, 0..40)) {
        let mut bl = Blacklist::new();
        for c in channels {
            let _ = bl.ban(ChannelId::new(c).unwrap());
        }
        prop_assert!(bl.active_count() >= 1);
    }
}
