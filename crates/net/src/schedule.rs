//! Communication schedules (Section II-C).
//!
//! The network manager centrally computes a schedule `eta` that assigns at
//! most one transmission to each uplink slot. A [`ScheduleEntry`] names the
//! hop that transmits and which path's message it carries (the same physical
//! link may serve several paths in different slots, e.g. link `e3` in the
//! paper's typical network serves paths 3, 7, 8 and 10).

use crate::error::{NetError, Result};
use crate::ids::Hop;
use crate::route::Path;
use crate::topology::Topology;

/// Path priority used by [`Schedule::by_priority`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePriority {
    /// Short paths transmit first (the paper's `eta_a` style).
    ShortPathsFirst,
    /// Long paths transmit first (the paper's `eta_b` balancing idea).
    LongPathsFirst,
}

/// One scheduled transmission: hop plus the index (into the network's path
/// list) of the message it forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleEntry {
    /// The transmitting hop.
    pub hop: Hop,
    /// Which path's message this slot serves.
    pub path_index: usize,
}

/// An uplink communication schedule: one optional transmission per slot.
///
/// Slots are 0-based in the API; [`Schedule::slot_number`] converts to the
/// paper's 1-based numbering used in delay formulas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    slots: Vec<Option<ScheduleEntry>>,
}

impl Schedule {
    /// An all-idle schedule of the given length.
    pub fn empty(len: usize) -> Self {
        Schedule {
            slots: vec![None; len],
        }
    }

    /// Builds a schedule by walking `order` over `paths` and assigning each
    /// path's hops to the next free slots, in hop order — the construction
    /// behind both of the paper's schedules: `eta_a` is `order =
    /// [0, 1, ..., 9]` (short paths first), `eta_b` starts with the long
    /// paths.
    ///
    /// The schedule length is exactly the total number of hops.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSchedule`] if `order` is not a permutation
    /// of the path indices.
    pub fn sequential(paths: &[Path], order: &[usize]) -> Result<Self> {
        Schedule::sequential_padded(paths, order, 0)
    }

    /// [`Schedule::sequential`] followed by [`Schedule::padded`]`(len)`,
    /// with the slots allocated once at their final length.
    ///
    /// # Errors
    ///
    /// See [`Schedule::sequential`].
    pub fn sequential_padded(paths: &[Path], order: &[usize], len: usize) -> Result<Self> {
        if order.len() != paths.len() {
            return Err(NetError::InvalidSchedule {
                reason: format!(
                    "order has {} entries for {} paths",
                    order.len(),
                    paths.len()
                ),
            });
        }
        for (position, &i) in order.iter().enumerate() {
            if i >= paths.len() || order[..position].contains(&i) {
                return Err(NetError::InvalidSchedule {
                    reason: format!("order is not a permutation (index {i})"),
                });
            }
        }
        let total: usize = paths.iter().map(Path::hop_count).sum();
        let mut schedule = Schedule::empty(total.max(len));
        let mut slot = 0;
        for &path_index in order {
            for hop in paths[path_index].hops() {
                schedule.slots[slot] = Some(ScheduleEntry { hop, path_index });
                slot += 1;
            }
        }
        Ok(schedule)
    }

    /// Builds a schedule by hop-count priority: [`SchedulePriority::ShortPathsFirst`]
    /// generalizes the paper's `eta_a`, [`SchedulePriority::LongPathsFirst`]
    /// its `eta_b` balancing idea (granting long paths early slots evens
    /// out the expected delays, Section VI-B). Ties keep path order.
    ///
    /// Note: the paper's exact `eta_b` additionally demotes path 7 within
    /// the 2-hop group; [`crate::typical::TypicalNetwork::schedule_eta_b`]
    /// reproduces that literal order.
    ///
    /// # Errors
    ///
    /// See [`Schedule::sequential`].
    pub fn by_priority(paths: &[Path], priority: SchedulePriority) -> Result<Self> {
        let mut order: Vec<usize> = (0..paths.len()).collect();
        match priority {
            SchedulePriority::ShortPathsFirst => {
                order.sort_by_key(|&i| paths[i].hop_count());
            }
            SchedulePriority::LongPathsFirst => {
                order.sort_by_key(|&i| std::cmp::Reverse(paths[i].hop_count()));
            }
        }
        Schedule::sequential(paths, &order)
    }

    /// Builds a schedule from explicit `(slot, entry)` assignments, leaving
    /// other slots idle — used for hand-written schedules like the paper's
    /// Section V example `(*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>)`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSchedule`] for out-of-range or doubly
    /// assigned slots.
    pub fn with_entries(len: usize, entries: &[(usize, ScheduleEntry)]) -> Result<Self> {
        let mut schedule = Schedule::empty(len);
        for &(slot, entry) in entries {
            if slot >= len {
                return Err(NetError::InvalidSchedule {
                    reason: format!("slot {slot} out of range for length {len}"),
                });
            }
            if schedule.slots[slot].is_some() {
                return Err(NetError::InvalidSchedule {
                    reason: format!("slot {slot} assigned twice"),
                });
            }
            schedule.slots[slot] = Some(entry);
        }
        Ok(schedule)
    }

    /// Number of slots (`F_up` of the owning super-frame).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Extends the schedule with idle slots up to `len` (no-op if already
    /// that long) — e.g. the paper's typical network packs 19 transmissions
    /// into an `F_up = 20` uplink half, leaving the last slot idle.
    pub fn padded(mut self, len: usize) -> Self {
        if self.slots.len() < len {
            self.slots.resize(len, None);
        }
        self
    }

    /// Whether the schedule has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The entry at a 0-based slot, if any.
    pub fn entry(&self, slot: usize) -> Option<ScheduleEntry> {
        self.slots.get(slot).copied().flatten()
    }

    /// Converts a 0-based slot index to the paper's 1-based slot number.
    pub fn slot_number(slot: usize) -> u32 {
        slot as u32 + 1
    }

    /// Iterates `(slot, entry)` over the scheduled transmissions.
    pub fn transmissions(&self) -> impl Iterator<Item = (usize, ScheduleEntry)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
    }

    /// The scheduled `(slot, hop)` pairs serving one path, in slot order.
    pub fn slots_for_path(&self, path_index: usize) -> Vec<(usize, Hop)> {
        self.transmissions()
            .filter(|(_, e)| e.path_index == path_index)
            .map(|(slot, e)| (slot, e.hop))
            .collect()
    }

    /// The 0-based slot of the path's final hop (towards its destination),
    /// if the path is scheduled.
    pub fn last_slot_for_path(&self, path_index: usize) -> Option<usize> {
        self.slots_for_path(path_index)
            .last()
            .map(|&(slot, _)| slot)
    }

    /// Validates the schedule against a topology and path list:
    ///
    /// * every scheduled hop uses an existing link;
    /// * every path's hops appear exactly once, in path order, in
    ///   increasing slots (a message cannot be forwarded before it arrives).
    ///
    /// Allocates nothing unless it fails: the paths are checked 16 at a
    /// time, each group in one pass over the schedule with its counters
    /// on the stack.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSchedule`] or [`NetError::UnknownLink`]
    /// describing the first violation: transmissions in slot order first,
    /// then paths in order, a path's slot count before its hops.
    pub fn validate(&self, topology: &Topology, paths: &[Path]) -> Result<()> {
        for (slot, entry) in self.transmissions() {
            topology.link_for(entry.hop)?;
            if entry.path_index >= paths.len() {
                return Err(NetError::InvalidSchedule {
                    reason: format!("slot {slot} serves unknown path {}", entry.path_index),
                });
            }
        }
        for (chunk, group) in paths.chunks(VALIDATE_CHUNK).enumerate() {
            let first = chunk * VALIDATE_CHUNK;
            // Per path of the group: transmissions seen so far, and the
            // first (slot, position) whose hop is not the path's hop at
            // that position.
            let mut seen = [0usize; VALIDATE_CHUNK];
            let mut wrong = [None::<(usize, usize)>; VALIDATE_CHUNK];
            for (slot, entry) in self.transmissions() {
                let i = entry.path_index.wrapping_sub(first);
                let Some(path) = group.get(i) else {
                    continue;
                };
                let position = seen[i];
                seen[i] += 1;
                if wrong[i].is_none()
                    && position < path.hop_count()
                    && entry.hop != path_hop(path, position)
                {
                    wrong[i] = Some((slot, position));
                }
            }
            for (i, path) in group.iter().enumerate() {
                let path_index = first + i;
                if seen[i] != path.hop_count() {
                    return Err(NetError::InvalidSchedule {
                        reason: format!(
                            "path {path_index} has {} hops but {} scheduled slots",
                            path.hop_count(),
                            seen[i]
                        ),
                    });
                }
                if let Some((slot, position)) = wrong[i] {
                    let hop = self.slots[slot].expect("a transmission").hop;
                    let want = path_hop(path, position);
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
}

/// How many paths [`Schedule::validate`] checks per pass over the
/// schedule.
const VALIDATE_CHUNK: usize = 16;

/// The `position`-th hop of `path`.
fn path_hop(path: &Path, position: usize) -> Hop {
    let nodes = path.nodes();
    Hop::new(nodes[position], nodes[position + 1])
}

impl std::fmt::Display for Schedule {
    /// Renders in the paper's `eta` notation: `(*, <n1,n2>, ...)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("(")?;
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match slot {
                Some(entry) => write!(f, "{}", entry.hop)?,
                None => f.write_str("*")?,
            }
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use whart_channel::LinkModel;

    fn n(i: u32) -> NodeId {
        NodeId::field(i)
    }

    fn three_hop_paths() -> Vec<Path> {
        vec![Path::new(vec![n(1), n(2), n(3), NodeId::Gateway]).unwrap()]
    }

    /// The paper's Section V schedule: (*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>).
    fn section_v_schedule() -> Schedule {
        let hops: Vec<Hop> = three_hop_paths()[0].hops().collect();
        Schedule::with_entries(
            7,
            &[
                (
                    2,
                    ScheduleEntry {
                        hop: hops[0],
                        path_index: 0,
                    },
                ),
                (
                    5,
                    ScheduleEntry {
                        hop: hops[1],
                        path_index: 0,
                    },
                ),
                (
                    6,
                    ScheduleEntry {
                        hop: hops[2],
                        path_index: 0,
                    },
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn section_v_schedule_shape() {
        let s = section_v_schedule();
        assert_eq!(s.len(), 7);
        assert!(s.entry(0).is_none());
        assert_eq!(s.entry(2).unwrap().hop, Hop::new(n(1), n(2)));
        assert_eq!(s.last_slot_for_path(0), Some(6));
        assert_eq!(Schedule::slot_number(6), 7);
        assert_eq!(s.to_string(), "(*, *, <n1,n2>, *, *, <n2,n3>, <n3,G>)");
    }

    #[test]
    fn sequential_packs_hops_in_order() {
        let paths = vec![
            Path::new(vec![n(1), NodeId::Gateway]).unwrap(),
            Path::new(vec![n(2), n(1), NodeId::Gateway]).unwrap(),
        ];
        let s = Schedule::sequential(&paths, &[0, 1]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.entry(0).unwrap().path_index, 0);
        assert_eq!(s.entry(1).unwrap().hop, Hop::new(n(2), n(1)));
        assert_eq!(s.entry(2).unwrap().hop, Hop::new(n(1), NodeId::Gateway));
        // Reversed priority.
        let s = Schedule::sequential(&paths, &[1, 0]).unwrap();
        assert_eq!(s.last_slot_for_path(1), Some(1));
        assert_eq!(s.last_slot_for_path(0), Some(2));
    }

    #[test]
    fn sequential_rejects_bad_orders() {
        let paths = three_hop_paths();
        assert!(Schedule::sequential(&paths, &[]).is_err());
        assert!(Schedule::sequential(&paths, &[1]).is_err());
        assert!(Schedule::sequential(&paths, &[0, 0]).is_err());
    }

    #[test]
    fn with_entries_rejects_conflicts() {
        let hops: Vec<Hop> = three_hop_paths()[0].hops().collect();
        let e = ScheduleEntry {
            hop: hops[0],
            path_index: 0,
        };
        assert!(Schedule::with_entries(3, &[(5, e)]).is_err());
        assert!(Schedule::with_entries(3, &[(1, e), (1, e)]).is_err());
    }

    #[test]
    fn validation_against_topology() {
        let mut t = Topology::new();
        for i in 1..=3 {
            t.add_node(n(i)).unwrap();
        }
        let link = LinkModel::from_availability(0.75, 0.9).unwrap();
        t.connect(n(1), n(2), link).unwrap();
        t.connect(n(2), n(3), link).unwrap();
        t.connect(n(3), NodeId::Gateway, link).unwrap();
        let paths = three_hop_paths();
        section_v_schedule().validate(&t, &paths).unwrap();

        // Break the hop order: forward before arrival.
        let hops: Vec<Hop> = paths[0].hops().collect();
        let bad = Schedule::with_entries(
            7,
            &[
                (
                    0,
                    ScheduleEntry {
                        hop: hops[1],
                        path_index: 0,
                    },
                ),
                (
                    1,
                    ScheduleEntry {
                        hop: hops[0],
                        path_index: 0,
                    },
                ),
                (
                    2,
                    ScheduleEntry {
                        hop: hops[2],
                        path_index: 0,
                    },
                ),
            ],
        )
        .unwrap();
        assert!(matches!(
            bad.validate(&t, &paths),
            Err(NetError::InvalidSchedule { .. })
        ));

        // A hop with no physical link.
        let bad = Schedule::with_entries(
            7,
            &[(
                0,
                ScheduleEntry {
                    hop: Hop::new(n(1), NodeId::Gateway),
                    path_index: 0,
                },
            )],
        )
        .unwrap();
        assert!(matches!(
            bad.validate(&t, &paths),
            Err(NetError::UnknownLink { .. })
        ));

        // Missing hops.
        let bad = Schedule::with_entries(
            7,
            &[(
                0,
                ScheduleEntry {
                    hop: hops[0],
                    path_index: 0,
                },
            )],
        )
        .unwrap();
        assert!(matches!(
            bad.validate(&t, &paths),
            Err(NetError::InvalidSchedule { .. })
        ));

        // Unknown path index.
        let bad = Schedule::with_entries(
            7,
            &[(
                0,
                ScheduleEntry {
                    hop: hops[0],
                    path_index: 7,
                },
            )],
        )
        .unwrap();
        assert!(matches!(
            bad.validate(&t, &paths),
            Err(NetError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn transmissions_iterates_in_slot_order() {
        let s = section_v_schedule();
        let slots: Vec<usize> = s.transmissions().map(|(i, _)| i).collect();
        assert_eq!(slots, vec![2, 5, 6]);
        assert_eq!(s.slots_for_path(0).len(), 3);
        assert!(s.slots_for_path(3).is_empty());
        assert_eq!(s.last_slot_for_path(3), None);
    }

    #[test]
    fn priority_builders_order_by_hops() {
        let paths = vec![
            Path::new(vec![n(2), n(1), NodeId::Gateway]).unwrap(), // 2 hops
            Path::new(vec![n(3), NodeId::Gateway]).unwrap(),       // 1 hop
            Path::new(vec![n(5), n(4), n(3), NodeId::Gateway]).unwrap(), // 3 hops
        ];
        let short = Schedule::by_priority(&paths, SchedulePriority::ShortPathsFirst).unwrap();
        // 1-hop path first, 3-hop path last.
        assert_eq!(short.last_slot_for_path(1), Some(0));
        assert_eq!(short.last_slot_for_path(2), Some(5));
        let long = Schedule::by_priority(&paths, SchedulePriority::LongPathsFirst).unwrap();
        assert_eq!(long.last_slot_for_path(2), Some(2));
        assert_eq!(long.last_slot_for_path(1), Some(5));
        // Both carry every hop exactly once.
        assert_eq!(short.transmissions().count(), 6);
        assert_eq!(long.transmissions().count(), 6);
    }

    #[test]
    fn empty_schedule_display() {
        assert_eq!(Schedule::empty(2).to_string(), "(*, *)");
        assert!(Schedule::empty(0).is_empty());
    }
}
