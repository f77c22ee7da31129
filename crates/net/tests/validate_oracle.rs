//! `Schedule::validate` against the allocating implementation it
//! replaced, kept here as the oracle: on random valid schedules and on
//! single mutations of them (a swapped hop, a missing slot, an unknown
//! path, an unknown link, a hop reassigned to another path) both must
//! return the same `Ok`, or the same error text.

use proptest::prelude::*;
use whart_channel::LinkModel;
use whart_net::{uplink_paths, Hop, NetError, NodeId, Path, Schedule, ScheduleEntry, Topology};

/// The validation as it read before it stopped allocating.
fn oracle(schedule: &Schedule, topology: &Topology, paths: &[Path]) -> Result<(), NetError> {
    for (slot, entry) in schedule.transmissions() {
        topology.link_for(entry.hop)?;
        if entry.path_index >= paths.len() {
            return Err(NetError::InvalidSchedule {
                reason: format!("slot {slot} serves unknown path {}", entry.path_index),
            });
        }
    }
    for (path_index, path) in paths.iter().enumerate() {
        let scheduled = schedule.slots_for_path(path_index);
        let expected: Vec<Hop> = path.hops().collect();
        if scheduled.len() != expected.len() {
            return Err(NetError::InvalidSchedule {
                reason: format!(
                    "path {path_index} has {} hops but {} scheduled slots",
                    expected.len(),
                    scheduled.len()
                ),
            });
        }
        for ((slot, hop), want) in scheduled.iter().zip(&expected) {
            if hop != want {
                return Err(NetError::InvalidSchedule {
                    reason: format!(
                        "path {path_index}: slot {slot} transmits {hop}, expected {want}"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// A random tree: node i attaches to an earlier node or the gateway.
fn random_tree(attach: &[usize]) -> Topology {
    let link = LinkModel::from_availability(0.83, 0.9).unwrap();
    let mut t = Topology::new();
    for (i, &a) in attach.iter().enumerate() {
        let node = NodeId::field(i as u32 + 1);
        t.add_node(node).unwrap();
        let parent = match a % (i + 1) {
            0 => NodeId::Gateway,
            k => NodeId::field(k as u32),
        };
        t.connect(node, parent, link).unwrap();
    }
    t
}

/// A valid schedule: the paths' hops in `order`, each followed by
/// `gaps[i] % 3` idle slots.
fn valid_schedule(paths: &[Path], order: &[usize], gaps: &[usize]) -> Vec<Option<ScheduleEntry>> {
    let mut slots = Vec::new();
    let mut gap = gaps.iter().cycle();
    for &path_index in order {
        for hop in paths[path_index].hops() {
            slots.push(Some(ScheduleEntry { hop, path_index }));
            slots.extend(std::iter::repeat(None).take(gap.next().unwrap() % 3));
        }
    }
    slots
}

fn schedule_of(slots: &[Option<ScheduleEntry>]) -> Schedule {
    let entries: Vec<(usize, ScheduleEntry)> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.map(|e| (i, e)))
        .collect();
    Schedule::with_entries(slots.len(), &entries).unwrap()
}

/// Applies mutation `kind` at the `at`-th transmission.
fn mutate(slots: &mut [Option<ScheduleEntry>], kind: u8, at: usize, paths: usize, nodes: u32) {
    let busy: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_some()).collect();
    let i = busy[at % busy.len()];
    let j = busy[(at / 7 + 1) % busy.len()];
    match kind {
        // Two transmissions trade places.
        0 => slots.swap(i, j),
        // One transmission goes missing.
        1 => slots[i] = None,
        // One transmission serves a path that does not exist.
        2 => slots[i].as_mut().unwrap().path_index = paths + at % 3,
        // One transmission uses a link the topology lacks.
        3 => {
            let e = slots[i].as_mut().unwrap();
            e.hop = Hop::new(e.hop.from, NodeId::field(nodes + 1 + (at % 2) as u32));
        }
        // One transmission is attributed to another (existing) path.
        4 => {
            let e = slots[i].as_mut().unwrap();
            e.path_index = (e.path_index + 1 + at) % paths;
        }
        _ => unreachable!("kinds 0-4 mutate"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_agrees_with_the_allocating_oracle(
        // Up to 40 paths: `validate` checks them 16 at a time.
        attach in proptest::collection::vec(0usize..100, 1..40),
        shuffle in proptest::collection::vec(0usize..1000, 40),
        gaps in proptest::collection::vec(0usize..10, 1..8),
        // Kinds 0-4 mutate; 5 and 6 leave the schedule valid.
        (kind, at) in (0u8..7, 0usize..1000),
    ) {
        let topology = random_tree(&attach);
        let paths = uplink_paths(&topology).unwrap();
        let mut order: Vec<usize> = (0..paths.len()).collect();
        let n = order.len();
        for (i, &s) in shuffle.iter().enumerate().take(n) {
            order.swap(i, s % n);
        }
        let mut slots = valid_schedule(&paths, &order, &gaps);
        let mutated = kind < 5;
        if mutated {
            mutate(&mut slots, kind, at, paths.len(), attach.len() as u32);
        }
        let schedule = schedule_of(&slots);
        let got = schedule.validate(&topology, &paths).map_err(|e| e.to_string());
        let want = oracle(&schedule, &topology, &paths).map_err(|e| e.to_string());
        prop_assert_eq!(&got, &want);
        if !mutated {
            prop_assert!(got.is_ok(), "{:?}", got);
        }
    }
}
