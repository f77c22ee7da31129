//! The slot-level discrete-event simulator.
//!
//! [`Simulator`] executes a fully specified WirelessHART network exactly as
//! the TDMA MAC would: every 10 ms slot advances the per-link channel
//! processes (uplink *and* downlink — the medium never pauses), scheduled
//! uplink slots carry their transmissions, messages hop towards the
//! gateway, and TTL expiry discards them at the end of their reporting
//! interval.
//!
//! This plays the role the field measurements of [Petersen, ETFA'09] play
//! in the paper: an independent ground truth the analytical DTMC is checked
//! against. Unlike the per-path analytical model, the simulator shares one
//! link process between all paths crossing a physical link, so it also
//! quantifies the (small) correlation the analytical decomposition ignores.

use crate::interference::{InterferedHoppingSampler, InterferenceWindow};
use crate::samplers::{GilbertSampler, HoppingSampler, LinkSampler};
use crate::stats::{PathStats, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whart_channel::{Blacklist, ChannelConditions, HopSequence, LinkState};
use whart_net::typical::TypicalNetwork;
use whart_net::{NetError, NodeId, Path, ReportingInterval, Schedule, Superframe, Topology};

/// The physical-layer fidelity of a simulation.
#[derive(Debug, Clone)]
pub enum PhyMode {
    /// Sample the paper's two-state link chains (one per physical link).
    Gilbert,
    /// Simulate pseudo-random channel hopping over the 16-channel band with
    /// per-channel bit error rates; message success is per-bit.
    Hopping {
        /// Per-channel bit error rates.
        conditions: ChannelConditions,
        /// The network manager's blacklist.
        blacklist: Blacklist,
        /// Message length in bits (the WirelessHART payload by default).
        message_bits: u32,
    },
    /// Channel hopping under time-varying interference bursts (e.g. Wi-Fi
    /// coexistence) — see [`InterferenceWindow`].
    HoppingInterfered {
        /// Per-channel baseline bit error rates.
        conditions: ChannelConditions,
        /// The network manager's blacklist.
        blacklist: Blacklist,
        /// Message length in bits.
        message_bits: u32,
        /// The interference bursts.
        windows: Vec<InterferenceWindow>,
    },
}

/// One physical link's sampler (enum dispatch keeps the samplers' generic
/// RNG methods object-free).
#[derive(Debug, Clone)]
enum Sampler {
    Gilbert(GilbertSampler),
    Hopping(HoppingSampler),
    Interfered(InterferedHoppingSampler),
}

impl Sampler {
    fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, slot: u64) {
        match self {
            Sampler::Gilbert(s) => s.step(rng, slot),
            Sampler::Hopping(s) => s.step(rng, slot),
            Sampler::Interfered(s) => s.step(rng, slot),
        }
    }

    fn transmit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        match self {
            Sampler::Gilbert(s) => s.transmit(rng),
            Sampler::Hopping(s) => s.transmit(rng),
            Sampler::Interfered(s) => s.transmit(rng),
        }
    }
}

/// A scheduled action: `(path_index, hop_position, sampler_index)`, the
/// last indexing the per-link samplers (and `link_keys`).
type SlotAction = (usize, usize, usize);

/// A slot-level Monte-Carlo simulation of a WirelessHART network.
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: Topology,
    paths: Vec<Path>,
    superframe: Superframe,
    interval: ReportingInterval,
    phy: PhyMode,
    /// Per uplink frame slot: the scheduled action, if any.
    slot_actions: Vec<Option<SlotAction>>,
    link_keys: Vec<(NodeId, NodeId)>,
}

impl Simulator {
    /// Creates a simulator after validating the schedule against the
    /// topology and paths.
    ///
    /// # Errors
    ///
    /// Returns the schedule/topology inconsistency found.
    pub fn new(
        topology: Topology,
        paths: Vec<Path>,
        schedule: Schedule,
        superframe: Superframe,
        interval: ReportingInterval,
        phy: PhyMode,
    ) -> Result<Self, NetError> {
        schedule.validate(&topology, &paths)?;
        if schedule.len() > superframe.uplink_slots() as usize {
            return Err(NetError::InvalidSchedule {
                reason: format!(
                    "schedule has {} slots but the uplink half only {}",
                    schedule.len(),
                    superframe.uplink_slots()
                ),
            });
        }
        let link_keys: Vec<(NodeId, NodeId)> = topology.links().map(|(k, _)| k).collect();
        let mut slot_actions = vec![None; superframe.uplink_slots() as usize];
        for (slot, entry) in schedule.transmissions() {
            let hop_position = paths[entry.path_index]
                .hops()
                .position(|h| h == entry.hop)
                .expect("validated schedules serve path hops");
            let link_key = entry.hop.undirected_key();
            let sampler = link_keys
                .iter()
                .position(|k| *k == link_key)
                .expect("validated schedules use topology links");
            slot_actions[slot] = Some((entry.path_index, hop_position, sampler));
        }
        Ok(Simulator {
            topology,
            paths,
            superframe,
            interval,
            phy,
            slot_actions,
            link_keys,
        })
    }

    /// A simulator for the paper's typical network under a schedule.
    ///
    /// # Errors
    ///
    /// See [`Simulator::new`].
    pub fn from_typical(
        network: &TypicalNetwork,
        schedule: Schedule,
        interval: ReportingInterval,
        phy: PhyMode,
    ) -> Result<Self, NetError> {
        Simulator::new(
            network.topology.clone(),
            network.paths.clone(),
            schedule,
            network.superframe,
            interval,
            phy,
        )
    }

    /// Runs `intervals` reporting intervals on one thread with the given
    /// seed.
    pub fn run(&self, seed: u64, intervals: u64) -> SimReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samplers = self.build_samplers(&mut rng);
        let cycles = self.interval.cycles() as usize;
        let f_up = u64::from(self.superframe.uplink_slots());
        let cycle_slots = u64::from(self.superframe.cycle_slots());
        let mut paths: Vec<PathStats> = (0..self.paths.len())
            .map(|_| PathStats::new(cycles))
            .collect();

        // position[p] = Some(hops completed) while in flight.
        let mut position: Vec<Option<usize>> = vec![Some(0); self.paths.len()];
        let mut absolute_slot = 0u64;
        for _ in 0..intervals {
            position.iter_mut().for_each(|p| *p = Some(0));
            for cycle in 0..cycles {
                for frame_slot in 0..cycle_slots {
                    for sampler in &mut samplers {
                        sampler.step(&mut rng, absolute_slot);
                    }
                    if frame_slot < f_up {
                        if let Some((path, hop, sampler)) = self.slot_actions[frame_slot as usize] {
                            if position[path] == Some(hop) {
                                paths[path].slots_used += 1;
                                if samplers[sampler].transmit(&mut rng) {
                                    let next = hop + 1;
                                    if next == self.paths[path].hop_count() {
                                        position[path] = None;
                                        paths[path].delivered_by_cycle[cycle] += 1;
                                        let delay = self
                                            .superframe
                                            .delay_ms(cycle as u32 + 1, frame_slot as u32 + 1);
                                        paths[path].delay_total_ms += u64::from(delay);
                                    } else {
                                        position[path] = Some(next);
                                    }
                                }
                            }
                        }
                    }
                    absolute_slot += 1;
                }
            }
            // TTL expiry: anything still in flight is discarded.
            for (path, pos) in position.iter().enumerate() {
                if pos.is_some() {
                    paths[path].lost += 1;
                }
            }
        }
        SimReport {
            paths,
            intervals,
            uplink_slots_per_interval: u64::from(self.interval.cycles()) * f_up,
        }
    }

    /// Runs `intervals` reporting intervals split across `workers` threads
    /// (deterministic per-worker seeds derived from `seed`) and merges the
    /// tallies.
    pub fn run_parallel(&self, seed: u64, intervals: u64, workers: usize) -> SimReport {
        let workers = workers.max(1).min(intervals.max(1) as usize);
        if workers == 1 {
            return self.run(seed, intervals);
        }
        let per = intervals / workers as u64;
        let extra = intervals % workers as u64;
        let mut reports: Vec<Option<SimReport>> = vec![None; workers];
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, slot) in reports.iter_mut().enumerate() {
                let chunk = per + u64::from((w as u64) < extra);
                let worker_seed =
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1));
                handles.push(scope.spawn(move || {
                    *slot = Some(self.run(worker_seed, chunk));
                }));
            }
            for h in handles {
                h.join().expect("simulation workers do not panic");
            }
        });
        let mut merged: Option<SimReport> = None;
        for report in reports.into_iter().flatten() {
            match &mut merged {
                Some(m) => m.merge(&report),
                None => merged = Some(report),
            }
        }
        merged.expect("at least one worker ran")
    }

    fn build_samplers(&self, rng: &mut StdRng) -> Vec<Sampler> {
        self.link_keys
            .iter()
            .enumerate()
            .map(|(offset, &(a, b))| match &self.phy {
                PhyMode::Gilbert => {
                    let model = self.topology.link(a, b).expect("links exist");
                    Sampler::Gilbert(if rng.gen::<f64>() < model.availability() {
                        GilbertSampler::new(model, LinkState::Up)
                    } else {
                        GilbertSampler::new(model, LinkState::Down)
                    })
                }
                PhyMode::Hopping {
                    conditions,
                    blacklist,
                    message_bits,
                } => {
                    let sequence = HopSequence::new(blacklist, offset)
                        .expect("blacklist keeps at least one channel");
                    Sampler::Hopping(HoppingSampler::new(
                        sequence,
                        conditions.clone(),
                        *message_bits,
                    ))
                }
                PhyMode::HoppingInterfered {
                    conditions,
                    blacklist,
                    message_bits,
                    windows,
                } => {
                    let sequence = HopSequence::new(blacklist, offset)
                        .expect("blacklist keeps at least one channel");
                    Sampler::Interfered(InterferedHoppingSampler::new(
                        sequence,
                        conditions.clone(),
                        windows.clone(),
                        *message_bits,
                    ))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_channel::LinkModel;

    fn typical_sim(pi: f64) -> Simulator {
        let net = TypicalNetwork::new(LinkModel::from_availability(pi, 0.9).unwrap());
        Simulator::from_typical(
            &net,
            net.schedule_eta_a(),
            ReportingInterval::REGULAR,
            PhyMode::Gilbert,
        )
        .unwrap()
    }

    #[test]
    fn simulated_reachability_matches_analytical() {
        let sim = typical_sim(0.83);
        let report = sim.run(42, 30_000);
        // Analytical values for 1-, 2- and 3-hop paths at pi = 0.83.
        let want = [0.999165, 0.996391, 0.99066];
        for (path, hops) in [(0usize, 0usize), (3, 1), (9, 2)] {
            let r = report.paths[path].reachability();
            assert!(
                (r - want[hops]).abs() < 0.004,
                "path {path}: {r} vs {}",
                want[hops]
            );
        }
    }

    #[test]
    fn simulated_delay_matches_analytical() {
        let sim = typical_sim(0.83);
        let report = sim.run(7, 30_000);
        // Path 10's expected delay under eta_a is ~421 ms (Fig. 15).
        let d = report.paths[9].mean_delay_ms().unwrap();
        assert!((d - 421.4).abs() < 6.0, "{d}");
        // Network mean delay ~235 ms.
        let mean = report.mean_delay_ms().unwrap();
        assert!((mean - 235.0).abs() < 4.0, "{mean}");
    }

    #[test]
    fn simulated_utilization_matches_table2() {
        let sim = typical_sim(0.83);
        let report = sim.run(11, 30_000);
        let u = report.network_utilization();
        assert!((u - 0.283).abs() < 0.004, "{u}");
    }

    #[test]
    fn parallel_run_merges_all_intervals() {
        let sim = typical_sim(0.83);
        let report = sim.run_parallel(3, 10_000, 4);
        assert_eq!(report.intervals, 10_000);
        for p in &report.paths {
            assert_eq!(p.messages(), 10_000);
        }
        // Statistically sane.
        assert!(report.paths[0].reachability() > 0.99);
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let sim = typical_sim(0.83);
        let a = sim.run(5, 500);
        let b = sim.run(5, 500);
        assert_eq!(a, b);
        let c = sim.run(6, 500);
        assert_ne!(a, c);
    }

    #[test]
    fn hopping_mode_with_clean_channels_always_delivers() {
        let net = TypicalNetwork::new(LinkModel::from_availability(0.83, 0.9).unwrap());
        let sim = Simulator::from_typical(
            &net,
            net.schedule_eta_a(),
            ReportingInterval::REGULAR,
            PhyMode::Hopping {
                conditions: ChannelConditions::uniform(0.0).unwrap(),
                blacklist: Blacklist::new(),
                message_bits: 1016,
            },
        )
        .unwrap();
        let report = sim.run(1, 200);
        for p in &report.paths {
            assert_eq!(p.lost, 0);
            assert_eq!(p.delivered_by_cycle[0], 200); // all in cycle 1
        }
    }

    #[test]
    fn hopping_mode_with_uniform_ber_matches_memoryless_model() {
        // With identical BER on all 16 channels, hopping is equivalent to a
        // memoryless per-slot success probability (1 - ber)^L; a 1-hop path
        // then delivers in cycle 1 with exactly that probability.
        let ber = 2e-4;
        let p_success = 1.0 - whart_channel::message_failure_probability(ber, 1016);
        let net = TypicalNetwork::new(LinkModel::from_availability(0.83, 0.9).unwrap());
        let sim = Simulator::from_typical(
            &net,
            net.schedule_eta_a(),
            ReportingInterval::REGULAR,
            PhyMode::Hopping {
                conditions: ChannelConditions::uniform(ber).unwrap(),
                blacklist: Blacklist::new(),
                message_bits: 1016,
            },
        )
        .unwrap();
        let report = sim.run(9, 20_000);
        let first_cycle = report.paths[0].cycle_fractions()[0];
        assert!(
            (first_cycle - p_success).abs() < 0.005,
            "{first_cycle} vs {p_success}"
        );
    }

    #[test]
    fn persistent_interferer_degrades_and_blacklisting_restores() {
        // Note: with a 40-slot cycle the hop sequence resonates with the
        // frame (160 = 0 mod 16), so each path's retries revisit a fixed
        // set of channels — a real slow-hopping artifact. The robust claims
        // are aggregate: a wide interferer (Wi-Fi cells 1, 6 and 11 = 12 of
        // 16 channels at BER 0.5) causes losses somewhere in the network,
        // and blacklisting the interfered channels removes them entirely.
        let windows = vec![
            crate::InterferenceWindow::wifi(1, 0, u64::MAX, 0.5),
            crate::InterferenceWindow::wifi(6, 0, u64::MAX, 0.5),
            crate::InterferenceWindow::wifi(11, 0, u64::MAX, 0.5),
        ];
        let net = TypicalNetwork::new(LinkModel::from_availability(0.83, 0.9).unwrap());
        let sim = Simulator::from_typical(
            &net,
            net.schedule_eta_a(),
            ReportingInterval::REGULAR,
            PhyMode::HoppingInterfered {
                conditions: ChannelConditions::uniform(0.0).unwrap(),
                blacklist: Blacklist::new(),
                message_bits: 1016,
                windows: windows.clone(),
            },
        )
        .unwrap();
        let report = sim.run(13, 2_000);
        let total_lost: u64 = report.paths.iter().map(|p| p.lost).sum();
        assert!(
            total_lost > 0,
            "a 12-channel interferer must cost something"
        );

        // Blacklist the 12 interfered channels; the remaining 4 are clean.
        let mut blacklist = Blacklist::new();
        for w in &windows {
            for &c in &w.channels {
                blacklist.ban(c).unwrap();
            }
        }
        let clean = Simulator::from_typical(
            &net,
            net.schedule_eta_a(),
            ReportingInterval::REGULAR,
            PhyMode::HoppingInterfered {
                conditions: ChannelConditions::uniform(0.0).unwrap(),
                blacklist,
                message_bits: 1016,
                windows,
            },
        )
        .unwrap();
        let report = clean.run(13, 2_000);
        for p in &report.paths {
            assert_eq!(p.lost, 0);
        }
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let net = TypicalNetwork::new(LinkModel::from_availability(0.83, 0.9).unwrap());
        let too_long = net.schedule_eta_a().padded(25);
        assert!(Simulator::from_typical(
            &net,
            too_long,
            ReportingInterval::REGULAR,
            PhyMode::Gilbert
        )
        .is_err());
    }
}
