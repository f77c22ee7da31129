//! Property tests for the flat path signature: over random compiled
//! problems it is a function of exactly the solve's inputs — equal inputs
//! give equal signatures and hashes, changing any single input (or moving
//! an outage window to the next hop) gives a different signature, and the
//! two zero encodings agree.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use whart_channel::{LinkDistribution, LinkModel};
use whart_model::signature::PathSignature;
use whart_model::{LinkDynamics, Outage, PathProblem};
use whart_net::{ReportingInterval, Superframe};

#[derive(Debug, Clone, PartialEq)]
struct Hop {
    p_fl: f64,
    p_rc: f64,
    initial_up: f64,
    slot: usize,
    outages: Vec<(u64, u64)>,
}

#[derive(Debug, Clone, PartialEq)]
struct Inputs {
    hops: Vec<Hop>,
    f_up: u32,
    t_down: u32,
    is: u32,
    ttl: u32,
}

impl Inputs {
    fn problem(&self) -> PathProblem {
        let mut b = PathProblem::builder();
        for hop in &self.hops {
            let model = LinkModel::new(hop.p_fl, hop.p_rc).unwrap();
            let initial = LinkDistribution::new(hop.initial_up).unwrap();
            let mut dynamics = LinkDynamics::starting_from(model, initial);
            for &(start, end) in &hop.outages {
                dynamics = dynamics.with_outage(Outage::new(start, end));
            }
            b.add_hop(dynamics, hop.slot);
        }
        b.superframe(Superframe::new(self.f_up, self.t_down).unwrap())
            .interval(ReportingInterval::new(self.is).unwrap())
            .ttl(self.ttl);
        b.build().unwrap()
    }

    fn signature(&self) -> PathSignature {
        PathSignature::of(&self.problem())
    }
}

fn hash_of(signature: &PathSignature) -> u64 {
    let mut hasher = DefaultHasher::new();
    signature.hash(&mut hasher);
    hasher.finish()
}

/// A different probability, still in `[0, 1]` and never zero when the
/// input was at least 0.01.
fn other(p: f64) -> f64 {
    if p < 0.5 {
        p + 0.25
    } else {
        p - 0.25
    }
}

/// Every input with exactly one field changed, each still a valid
/// problem.
fn single_changes(inputs: &Inputs) -> Vec<(String, Inputs)> {
    let mut changes = Vec::new();
    let mut change = |what: String, edit: &dyn Fn(&mut Inputs)| {
        let mut changed = inputs.clone();
        edit(&mut changed);
        changes.push((what, changed));
    };
    change("F_up".into(), &|c| c.f_up += 1);
    change("T_down".into(), &|c| c.t_down += 1);
    change("Is".into(), &|c| c.is += 1);
    let ttl = if inputs.ttl > 1 {
        inputs.ttl - 1
    } else {
        inputs.ttl + 1
    };
    if ttl <= inputs.is * inputs.f_up {
        change("TTL".into(), &|c| c.ttl = ttl);
    }
    if inputs.hops.len() > 1 {
        change("hop count".into(), &|c| {
            c.hops.pop();
        });
    }
    for (k, hop) in inputs.hops.iter().enumerate() {
        change(format!("hop {k} p_fl"), &|c| {
            c.hops[k].p_fl = other(c.hops[k].p_fl)
        });
        change(format!("hop {k} p_rc"), &|c| {
            c.hops[k].p_rc = other(c.hops[k].p_rc)
        });
        change(format!("hop {k} initial up"), &|c| {
            c.hops[k].initial_up = other(c.hops[k].initial_up)
        });
        let low = if k == 0 {
            0
        } else {
            inputs.hops[k - 1].slot + 1
        };
        let high = inputs
            .hops
            .get(k + 1)
            .map_or(inputs.f_up as usize, |next| next.slot);
        if let Some(slot) = (low..high).find(|&s| s != hop.slot) {
            change(format!("hop {k} slot"), &|c| c.hops[k].slot = slot);
        }
        change(format!("hop {k} added outage"), &|c| {
            c.hops[k].outages.push((1000, 1001))
        });
        for w in 0..hop.outages.len() {
            change(format!("hop {k} outage {w} end"), &|c| {
                c.hops[k].outages[w].1 += 1
            });
            change(format!("hop {k} outage {w} start"), &|c| {
                let window = &mut c.hops[k].outages[w];
                if window.0 > 0 {
                    window.0 -= 1;
                } else {
                    window.0 = window.1;
                    window.1 += 1;
                }
            });
            change(format!("hop {k} outage {w} removed"), &|c| {
                c.hops[k].outages.remove(w);
            });
        }
    }
    changes
}

fn hop() -> impl Strategy<Value = Hop> {
    (
        0.0f64..1.0,
        0.01f64..=1.0,
        0.0f64..=1.0,
        proptest::collection::vec((0u64..200, 1u64..50), 0..3),
    )
        .prop_map(|(p_fl, p_rc, initial_up, windows)| Hop {
            p_fl,
            p_rc,
            initial_up,
            slot: 0,
            outages: windows
                .into_iter()
                .map(|(start, len)| (start, start + len))
                .collect(),
        })
}

/// 1-6 hops on random increasing slots, random `F_up`, `T_down`, `Is`,
/// and TTL.
fn inputs() -> impl Strategy<Value = Inputs> {
    (1usize..=6, 0u32..=6, 0u32..=8, 1u32..=5).prop_flat_map(|(n, extra, t_down, is)| {
        let f_up = n as u32 + extra;
        (
            proptest::collection::vec(hop(), n),
            proptest::sample::subsequence((0..f_up as usize).collect::<Vec<_>>(), n),
            1..=is * f_up,
        )
            .prop_map(move |(mut hops, slots, ttl)| {
                for (hop, slot) in hops.iter_mut().zip(slots) {
                    hop.slot = slot;
                }
                Inputs {
                    hops,
                    f_up,
                    t_down,
                    is,
                    ttl,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn equal_inputs_give_equal_signatures_and_hashes(inputs in inputs()) {
        let (a, b) = (inputs.signature(), inputs.signature());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn any_single_change_gives_a_different_signature(inputs in inputs()) {
        let signature = inputs.signature();
        for (what, changed) in single_changes(&inputs) {
            prop_assert!(changed != inputs, "{} changed nothing", what);
            prop_assert!(changed.signature() != signature, "{}", what);
        }
    }

    #[test]
    fn moving_an_outage_to_the_next_hop_gives_a_different_signature(
        inputs in inputs(),
    ) {
        let signature = inputs.signature();
        for k in 0..inputs.hops.len().saturating_sub(1) {
            if let Some(&window) = inputs.hops[k].outages.first() {
                let mut moved = inputs.clone();
                moved.hops[k].outages.remove(0);
                moved.hops[k + 1].outages.insert(0, window);
                prop_assert!(moved.signature() != signature, "hop {}", k);
            }
        }
    }

    /// Outage windows can spell out a whole hop in the word layout: a
    /// hop with `p_fl = 0` that starts DOWN at slot `s` encodes as
    /// `[0, p_rc bits, 0, s << 32 | windows]`, the same words as the two
    /// windows `(0, p_rc bits), (0, s << 32)`. Moving such a pair of
    /// windows across the hop boundary, and the hop it spells with them,
    /// must still change the signature: only the per-hop window count
    /// tells the two splits apart.
    #[test]
    fn windows_that_spell_a_hop_cannot_stand_in_for_it(
        inputs in inputs(),
        (b_rc, c_rc) in (0.01f64..=1.0, 0.01f64..=1.0),
        (b_slot, c_slot) in (1usize..4, 1usize..4),
    ) {
        let spell = |p_rc: f64, slot: usize| vec![(0, p_rc.to_bits()), (0, (slot as u64) << 32)];
        let down = |p_rc: f64, slot: usize, outages: Vec<(u64, u64)>| Hop {
            p_fl: 0.0,
            p_rc,
            initial_up: 0.0,
            slot,
            outages,
        };
        let problem = |hops: Vec<Hop>| Inputs { hops, f_up: 4, ..inputs.clone() };
        let first = Hop { slot: 0, outages: Vec::new(), ..inputs.hops[0].clone() };
        let windows_first = problem(vec![
            Hop { outages: spell(b_rc, b_slot), ..first.clone() },
            down(c_rc, c_slot, Vec::new()),
        ]);
        let windows_last = problem(vec![first, down(b_rc, b_slot, spell(c_rc, c_slot))]);
        prop_assert!(windows_first.signature() != windows_last.signature());
    }

    #[test]
    fn negative_zero_encodes_like_zero(inputs in inputs(), k in 0usize..6) {
        let k = k % inputs.hops.len();
        let with = |zero: f64| {
            let mut changed = inputs.clone();
            changed.hops[k].p_fl = zero;
            changed.hops[k].initial_up = zero;
            changed.signature()
        };
        let (positive, negative) = (with(0.0), with(-0.0));
        prop_assert_eq!(hash_of(&positive), hash_of(&negative));
        prop_assert_eq!(positive, negative);
    }
}
