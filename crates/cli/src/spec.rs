//! JSON network specifications.
//!
//! The paper's authors built a tool that "automatically derives the
//! underlying model of a fully specified network". A [`NetworkSpec`] is
//! that full specification: topology with per-link quality, routing paths,
//! super-frame, reporting interval and communication schedule. Node `0`
//! denotes the gateway; field devices are numbered from 1 as in the paper.
//!
//! Specs are read and written with the workspace's own [`whart_json`]
//! library; the shapes are the same as the historical serde encoding (link
//! quality is "untagged": the present keys select the variant, and quality
//! fields sit inline next to `a`/`b`).

use whart_channel::{LinkModel, Modulation, WIRELESSHART_MESSAGE_BITS};
use whart_json::Json;
use whart_model::{ModelError, NetworkModel};
use whart_net::{NodeId, Path, ReportingInterval, Schedule, Superframe, Topology};

/// How one link's quality is specified; each variant maps onto a
/// [`LinkModel`] constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LinkQuality {
    /// Explicit transition probabilities.
    Transitions {
        /// Per-slot failure probability.
        p_fl: f64,
        /// Per-slot recovery probability.
        p_rc: f64,
    },
    /// Bit error rate at the WirelessHART message length
    /// (`p_rc` defaults to 0.9).
    Ber {
        /// Bit error rate.
        ber: f64,
        /// Recovery probability (default 0.9).
        p_rc: f64,
    },
    /// Measured per-bit SNR, converted through the OQPSK curve.
    Snr {
        /// Linear Eb/N0.
        snr: f64,
        /// Recovery probability (default 0.9).
        p_rc: f64,
    },
    /// Stationary availability `pi(up)` (`p_rc` defaults to 0.9).
    Availability {
        /// Stationary UP probability.
        availability: f64,
        /// Recovery probability (default 0.9).
        p_rc: f64,
    },
}

fn default_recovery() -> f64 {
    LinkModel::DEFAULT_RECOVERY
}

impl LinkQuality {
    /// Builds the link model.
    ///
    /// # Errors
    ///
    /// Returns a message describing the invalid parameter.
    pub(crate) fn to_link_model(self) -> Result<LinkModel, String> {
        let model = match self {
            LinkQuality::Transitions { p_fl, p_rc } => LinkModel::new(p_fl, p_rc),
            LinkQuality::Ber { ber, p_rc } => {
                LinkModel::from_ber(ber, WIRELESSHART_MESSAGE_BITS, p_rc)
            }
            LinkQuality::Snr { snr, .. } if !(snr.is_finite() && snr >= 0.0) => {
                return Err(format!(
                    "field 'snr' must be a finite Eb/N0 >= 0 (got {snr})"
                ));
            }
            LinkQuality::Snr { snr, p_rc } => LinkModel::from_snr(
                Modulation::Oqpsk,
                whart_channel::EbN0::from_linear(snr),
                WIRELESSHART_MESSAGE_BITS,
                p_rc,
            ),
            LinkQuality::Availability { availability, p_rc } => {
                LinkModel::from_availability(availability, p_rc)
            }
        };
        model.map_err(|e| e.to_string())
    }

    /// Decodes the quality from the keys present on a link object.
    ///
    /// # Errors
    ///
    /// Describes the missing or mistyped keys.
    pub(crate) fn from_json(value: &Json) -> Result<LinkQuality, String> {
        let p_rc_or_default = || -> Result<f64, String> {
            match value.get("p_rc") {
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| "field 'p_rc' must be a number".to_owned()),
                None => Ok(default_recovery()),
            }
        };
        if value.get("p_fl").is_some() {
            Ok(LinkQuality::Transitions {
                p_fl: value.require_f64("p_fl")?,
                p_rc: value.require_f64("p_rc")?,
            })
        } else if value.get("ber").is_some() {
            Ok(LinkQuality::Ber {
                ber: value.require_f64("ber")?,
                p_rc: p_rc_or_default()?,
            })
        } else if value.get("snr").is_some() {
            Ok(LinkQuality::Snr {
                snr: value.require_f64("snr")?,
                p_rc: p_rc_or_default()?,
            })
        } else if value.get("availability").is_some() {
            Ok(LinkQuality::Availability {
                availability: value.require_f64("availability")?,
                p_rc: p_rc_or_default()?,
            })
        } else {
            Err("link needs one of 'p_fl', 'ber', 'snr' or 'availability'".into())
        }
    }

    /// The inline (flattened) JSON fields of this quality.
    fn json_fields(self) -> Vec<(String, Json)> {
        let pair = |k: &str, v: f64, p_rc: f64| {
            vec![
                (k.to_owned(), Json::from(v)),
                ("p_rc".to_owned(), Json::from(p_rc)),
            ]
        };
        match self {
            LinkQuality::Transitions { p_fl, p_rc } => pair("p_fl", p_fl, p_rc),
            LinkQuality::Ber { ber, p_rc } => pair("ber", ber, p_rc),
            LinkQuality::Snr { snr, p_rc } => pair("snr", snr, p_rc),
            LinkQuality::Availability { availability, p_rc } => {
                pair("availability", availability, p_rc)
            }
        }
    }
}

/// One bidirectional link.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinkSpec {
    /// One endpoint (0 = gateway).
    pub a: u32,
    /// The other endpoint (0 = gateway).
    pub b: u32,
    /// Link quality.
    pub quality: LinkQuality,
}

impl LinkSpec {
    /// Decodes one link object (`a`, `b` plus inline quality keys).
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped key.
    pub(crate) fn from_json(value: &Json) -> Result<LinkSpec, String> {
        Ok(LinkSpec {
            a: value.require_u32("a")?,
            b: value.require_u32("b")?,
            quality: LinkQuality::from_json(value)?,
        })
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("a".to_owned(), Json::from(self.a)),
            ("b".to_owned(), Json::from(self.b)),
        ];
        fields.extend(self.quality.json_fields());
        Json::Object(fields)
    }
}

/// The communication schedule: either built sequentially from a path
/// priority order (the paper's `eta_a`/`eta_b` style) or given slot by
/// slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ScheduleSpec {
    /// `Schedule::sequential` over 0-based path indices, padded to the
    /// uplink half.
    Sequential {
        /// Path priority order (0-based indices into `paths`).
        order: Vec<usize>,
    },
    /// Explicit slots: each entry is `[slot, from, to, path_index]`
    /// (0-based slot, nodes with 0 = gateway).
    Explicit {
        /// The slot assignments.
        slots: Vec<(usize, u32, u32, usize)>,
    },
}

impl ScheduleSpec {
    /// Decodes a schedule object: an `order` key selects the sequential
    /// form, a `slots` key the explicit form.
    ///
    /// # Errors
    ///
    /// Describes the malformed member.
    pub(crate) fn from_json(value: &Json) -> Result<ScheduleSpec, String> {
        if let Some(order) = value.get("order") {
            let order = order
                .as_array()
                .ok_or("field 'order' must be an array")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| "path indices must be non-negative integers".to_owned())
                })
                .collect::<Result<Vec<usize>, String>>()?;
            Ok(ScheduleSpec::Sequential { order })
        } else if let Some(slots) = value.get("slots") {
            let slots = slots
                .as_array()
                .ok_or("field 'slots' must be an array")?
                .iter()
                .map(|entry| {
                    let parts = entry.as_array().unwrap_or(&[]);
                    let nums: Option<Vec<u64>> = parts.iter().map(Json::as_u64).collect();
                    match nums.as_deref() {
                        Some([slot, from, to, path]) => Ok((
                            *slot as usize,
                            u32::try_from(*from).map_err(|_| "node id overflow".to_owned())?,
                            u32::try_from(*to).map_err(|_| "node id overflow".to_owned())?,
                            *path as usize,
                        )),
                        _ => Err("each slot entry must be [slot, from, to, path]".to_owned()),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ScheduleSpec::Explicit { slots })
        } else {
            Err("schedule needs an 'order' or a 'slots' member".into())
        }
    }

    fn to_json(&self) -> Json {
        match self {
            ScheduleSpec::Sequential { order } => {
                Json::object([("order", Json::array(order.iter().map(|&i| Json::from(i))))])
            }
            ScheduleSpec::Explicit { slots } => Json::object([(
                "slots",
                Json::array(slots.iter().map(|&(slot, from, to, path)| {
                    Json::array([
                        Json::from(slot),
                        Json::from(from),
                        Json::from(to),
                        Json::from(path),
                    ])
                })),
            )]),
        }
    }
}

/// A fully specified WirelessHART network.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NetworkSpec {
    /// Uplink slots per super-frame (`F_up`).
    pub uplink_slots: u32,
    /// Downlink slots (defaults to `uplink_slots`, the paper's symmetric
    /// frames).
    pub downlink_slots: Option<u32>,
    /// Reporting interval `Is` (default 4).
    pub reporting_interval: u32,
    /// Field devices (numbered from 1).
    pub nodes: Vec<u32>,
    /// Bidirectional links.
    pub links: Vec<LinkSpec>,
    /// Uplink paths as node sequences; a trailing gateway (`0`) is implied
    /// if missing.
    pub paths: Vec<Vec<u32>>,
    /// The communication schedule.
    pub schedule: ScheduleSpec,
}

pub(crate) fn node(n: u32) -> NodeId {
    if n == 0 {
        NodeId::Gateway
    } else {
        NodeId::field(n)
    }
}

fn u32_array(value: &Json, what: &str) -> Result<Vec<u32>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("'{what}' must be an array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("'{what}' entries must be non-negative integers"))
        })
        .collect()
}

impl NetworkSpec {
    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape error.
    pub(crate) fn from_json(text: &str) -> Result<Self, String> {
        let value = Json::parse(text).map_err(|e| format!("invalid spec: {e}"))?;
        Self::decode(&value).map_err(|e| format!("invalid spec: {e}"))
    }

    /// Decodes a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape error.
    pub(crate) fn decode(value: &Json) -> Result<Self, String> {
        let downlink_slots = match value.get("downlink_slots") {
            None | Some(Json::Null) => None,
            Some(_) => Some(value.require_u32("downlink_slots")?),
        };
        let reporting_interval = match value.get("reporting_interval") {
            None => 4,
            Some(_) => value.require_u32("reporting_interval")?,
        };
        let links = value
            .require("links")?
            .as_array()
            .ok_or("'links' must be an array")?
            .iter()
            .map(LinkSpec::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let paths = value
            .require("paths")?
            .as_array()
            .ok_or("'paths' must be an array")?
            .iter()
            .map(|route| u32_array(route, "paths"))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(NetworkSpec {
            uplink_slots: value.require_u32("uplink_slots")?,
            downlink_slots,
            reporting_interval,
            nodes: u32_array(value.require("nodes")?, "nodes")?,
            links,
            paths,
            schedule: ScheduleSpec::from_json(value.require("schedule")?)?,
        })
    }

    /// Encodes the spec as a JSON value (field order matches the struct).
    pub(crate) fn to_json_value(&self) -> Json {
        Json::object([
            ("uplink_slots", Json::from(self.uplink_slots)),
            ("downlink_slots", Json::from(self.downlink_slots)),
            ("reporting_interval", Json::from(self.reporting_interval)),
            (
                "nodes",
                Json::array(self.nodes.iter().map(|&n| Json::from(n))),
            ),
            (
                "links",
                Json::Array(self.links.iter().map(LinkSpec::to_json).collect()),
            ),
            (
                "paths",
                Json::Array(
                    self.paths
                        .iter()
                        .map(|route| Json::array(route.iter().map(|&n| Json::from(n))))
                        .collect(),
                ),
            ),
            ("schedule", self.schedule.to_json()),
        ])
    }

    /// Serializes the spec to pretty JSON.
    pub(crate) fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Builds the analytical network model.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub(crate) fn to_network(&self) -> Result<NetworkModel, String> {
        let (topology, paths, schedule, superframe, interval) = self.lower()?;
        // `NetworkModel::new` validates the schedule, so it is checked
        // once; its errors read as `build_parts` words them, without the
        // model's `network error:` prefix.
        NetworkModel::new(topology, paths, schedule, superframe, interval).map_err(|e| match e {
            ModelError::Net(e) => e.to_string(),
            e => e.to_string(),
        })
    }

    /// Builds the raw parts (topology, paths, schedule, frame, interval) —
    /// used by the simulator command.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    #[allow(clippy::type_complexity)]
    pub(crate) fn build_parts(
        &self,
    ) -> Result<(Topology, Vec<Path>, Schedule, Superframe, ReportingInterval), String> {
        let parts = self.lower()?;
        parts
            .2
            .validate(&parts.0, &parts.1)
            .map_err(|e| e.to_string())?;
        Ok(parts)
    }

    /// The parts of [`NetworkSpec::build_parts`] before the schedule is
    /// validated against the topology and paths.
    #[allow(clippy::type_complexity)]
    fn lower(
        &self,
    ) -> Result<(Topology, Vec<Path>, Schedule, Superframe, ReportingInterval), String> {
        let mut topology = Topology::with_capacity(self.nodes.len(), self.links.len());
        for &n in &self.nodes {
            if n == 0 {
                return Err("node 0 denotes the gateway and is implicit".into());
            }
            topology
                .add_node(NodeId::field(n))
                .map_err(|e| e.to_string())?;
        }
        for link in &self.links {
            let model = link.quality.to_link_model()?;
            topology
                .connect(node(link.a), node(link.b), model)
                .map_err(|e| e.to_string())?;
        }
        let mut paths = Vec::with_capacity(self.paths.len());
        for route in &self.paths {
            let mut nodes = Vec::with_capacity(route.len() + 1);
            nodes.extend(route.iter().map(|&n| node(n)));
            if nodes.last() != Some(&NodeId::Gateway) {
                nodes.push(NodeId::Gateway);
            }
            paths.push(Path::through(&topology, nodes).map_err(|e| e.to_string())?);
        }
        let superframe = Superframe::new(
            self.uplink_slots,
            self.downlink_slots.unwrap_or(self.uplink_slots),
        )
        .map_err(|e| e.to_string())?;
        let interval =
            ReportingInterval::new(self.reporting_interval).map_err(|e| e.to_string())?;
        let schedule = match &self.schedule {
            ScheduleSpec::Sequential { order } => {
                Schedule::sequential_padded(&paths, order, self.uplink_slots as usize)
                    .map_err(|e| e.to_string())?
            }
            ScheduleSpec::Explicit { slots } => {
                let entries: Vec<(usize, whart_net::ScheduleEntry)> = slots
                    .iter()
                    .map(|&(slot, from, to, path_index)| {
                        (
                            slot,
                            whart_net::ScheduleEntry {
                                hop: whart_net::Hop::new(node(from), node(to)),
                                path_index,
                            },
                        )
                    })
                    .collect();
                Schedule::with_entries(self.uplink_slots as usize, &entries)
                    .map_err(|e| e.to_string())?
            }
        };
        Ok((topology, paths, schedule, superframe, interval))
    }

    /// The paper's typical network (Fig. 12) with homogeneous links at the
    /// given availability, under schedule `eta_a`.
    pub(crate) fn typical(availability: f64) -> NetworkSpec {
        let quality = LinkQuality::Availability {
            availability,
            p_rc: 0.9,
        };
        let edges: [(u32, u32); 10] = [
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 1),
            (5, 1),
            (6, 2),
            (7, 3),
            (8, 3),
            (9, 6),
            (10, 7),
        ];
        NetworkSpec {
            uplink_slots: 20,
            downlink_slots: None,
            reporting_interval: 4,
            nodes: (1..=10).collect(),
            links: edges
                .iter()
                .map(|&(a, b)| LinkSpec { a, b, quality })
                .collect(),
            paths: vec![
                vec![1],
                vec![2],
                vec![3],
                vec![4, 1],
                vec![5, 1],
                vec![6, 2],
                vec![7, 3],
                vec![8, 3],
                vec![9, 6, 2],
                vec![10, 7, 3],
            ],
            schedule: ScheduleSpec::Sequential {
                order: (0..10).collect(),
            },
        }
    }

    /// The Section V example path as a one-path network spec.
    pub(crate) fn section_v(availability: f64) -> NetworkSpec {
        let quality = LinkQuality::Availability {
            availability,
            p_rc: 0.9,
        };
        NetworkSpec {
            uplink_slots: 7,
            downlink_slots: None,
            reporting_interval: 4,
            nodes: vec![1, 2, 3],
            links: vec![
                LinkSpec {
                    a: 1,
                    b: 2,
                    quality,
                },
                LinkSpec {
                    a: 2,
                    b: 3,
                    quality,
                },
                LinkSpec {
                    a: 3,
                    b: 0,
                    quality,
                },
            ],
            paths: vec![vec![1, 2, 3]],
            schedule: ScheduleSpec::Explicit {
                slots: vec![(2, 1, 2, 0), (5, 2, 3, 0), (6, 3, 0, 0)],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whart_model::DelayConvention;

    #[test]
    fn typical_spec_round_trips_through_json() {
        let spec = NetworkSpec::typical(0.83);
        let json = spec.to_json();
        let parsed = NetworkSpec::from_json(&json).unwrap();
        assert_eq!(parsed, spec);
        let model = parsed.to_network().unwrap();
        assert_eq!(model.paths().len(), 10);
        let eval = model.evaluate().unwrap();
        let mean = eval.mean_delay_ms(DelayConvention::Absolute).unwrap();
        assert!((mean - 235.0).abs() < 1.5, "{mean}");
    }

    #[test]
    fn section_v_spec_matches_paper() {
        let spec = NetworkSpec::section_v(0.75);
        let model = spec.to_network().unwrap();
        let eval = model.evaluate().unwrap();
        let r = eval.reachabilities()[0];
        assert!((r - 0.9624).abs() < 1e-4, "{r}");
    }

    #[test]
    fn quality_variants_parse() {
        for quality in [
            r#"{"a":1,"b":0,"p_fl":0.1,"p_rc":0.9}"#,
            r#"{"a":1,"b":0,"ber":0.0001}"#,
            r#"{"a":1,"b":0,"snr":7.0}"#,
            r#"{"a":1,"b":0,"availability":0.83}"#,
        ] {
            let link = LinkSpec::from_json(&whart_json::Json::parse(quality).unwrap()).unwrap();
            assert!(link.quality.to_link_model().is_ok(), "{quality}");
        }
    }

    #[test]
    fn snr_quality_matches_table_iv() {
        let value = whart_json::Json::parse(r#"{"a":5,"b":3,"snr":7.0}"#).unwrap();
        let link = LinkSpec::from_json(&value).unwrap();
        let model = link.quality.to_link_model().unwrap();
        assert!((model.p_fl() - 0.089).abs() < 5e-4);
    }

    #[test]
    fn bad_specs_are_rejected() {
        // Unknown node in a link.
        let spec = NetworkSpec {
            links: vec![LinkSpec {
                a: 1,
                b: 99,
                quality: LinkQuality::Availability {
                    availability: 0.8,
                    p_rc: 0.9,
                },
            }],
            ..NetworkSpec::section_v(0.8)
        };
        assert!(spec.to_network().is_err());
        // Node 0 in the device list.
        let spec = NetworkSpec {
            nodes: vec![0, 1],
            ..NetworkSpec::section_v(0.8)
        };
        assert!(spec.to_network().is_err());
        // Garbage JSON.
        assert!(NetworkSpec::from_json("{").is_err());
        // Structurally valid JSON, wrong shape.
        assert!(NetworkSpec::from_json(r#"{"uplink_slots": "seven"}"#).is_err());
        assert!(NetworkSpec::from_json(r#"{"uplink_slots": 7}"#).is_err());
        // Negative or infinite Eb/N0: an error naming the field, no panic.
        for snr in ["-1", "1e999"] {
            let link = format!(r#"{{"a":1,"b":0,"snr":{snr}}}"#);
            let link = LinkSpec::from_json(&whart_json::Json::parse(&link).unwrap()).unwrap();
            let err = link.quality.to_link_model().unwrap_err();
            assert!(err.contains("snr"), "{snr}: {err}");
        }
    }

    #[test]
    fn implied_gateway_suffix() {
        let mut spec = NetworkSpec::section_v(0.8);
        spec.paths = vec![vec![1, 2, 3, 0]]; // explicit gateway, same result
        let model = spec.to_network().unwrap();
        assert_eq!(model.paths()[0].hop_count(), 3);
    }
}
