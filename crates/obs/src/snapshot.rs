//! The serializable point-in-time snapshot of a metrics registry.

use crate::histogram::HistogramSnapshot;
use std::collections::BTreeMap;
use whart_json::Json;

/// A point-in-time copy of every instrument in a [`crate::Metrics`]
/// registry, with a stable JSON form for CLI `--metrics` files and CI
/// artifacts.
///
/// Instruments are keyed by name in sorted order, so serialized
/// snapshots diff cleanly. Numeric values are exact in JSON up to
/// `2^53` (JSON numbers are doubles); nanosecond sums stay below that
/// for ~104 days of accumulated time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no instruments at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Serializes to the stable JSON form.
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, u64>| {
            Json::Object(m.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect())
        };
        let histograms = Json::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::object([
                            ("count", Json::from(h.count)),
                            ("sum", Json::from(h.sum)),
                            ("min", Json::from(h.min)),
                            ("max", Json::from(h.max)),
                            (
                                "buckets",
                                Json::Array(
                                    h.buckets
                                        .iter()
                                        .map(|&(i, c)| {
                                            Json::Array(vec![Json::from(i as u64), Json::from(c)])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("overflow", Json::from(h.overflow)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::object([
            ("counters", map(&self.counters)),
            ("gauges", map(&self.gauges)),
            ("histograms", histograms),
        ])
    }

    /// Deserializes the JSON form produced by
    /// [`MetricsSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first structural mismatch encountered.
    pub fn from_json(value: &Json) -> Result<MetricsSnapshot, String> {
        if value.as_object().is_none() {
            return Err("snapshot must be a JSON object".into());
        }
        let u64_of = |v: &Json, what: &str| {
            v.as_u64()
                .ok_or_else(|| format!("{what} must be a non-negative integer"))
        };
        let map_of = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            match value.get(key) {
                None => Ok(BTreeMap::new()),
                Some(section) => section
                    .as_object()
                    .ok_or_else(|| format!("'{key}' must be an object"))?
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), u64_of(v, &format!("'{key}.{k}'"))?)))
                    .collect(),
            }
        };
        let counters = map_of("counters")?;
        let gauges = map_of("gauges")?;
        let mut histograms = BTreeMap::new();
        if let Some(section) = value.get("histograms") {
            for (name, h) in section
                .as_object()
                .ok_or("'histograms' must be an object")?
            {
                let field = |key: &str| -> Result<u64, String> {
                    u64_of(h.require(key)?, &format!("'histograms.{name}.{key}'"))
                };
                let mut buckets = Vec::new();
                for pair in h
                    .require("buckets")?
                    .as_array()
                    .ok_or_else(|| format!("'histograms.{name}.buckets' must be an array"))?
                {
                    let bad =
                        || format!("'histograms.{name}.buckets' entries must be [index, count]");
                    let index = pair.at(0).and_then(Json::as_u64).ok_or_else(bad)?;
                    let count = pair.at(1).and_then(Json::as_u64).ok_or_else(bad)?;
                    if index as usize >= crate::BUCKETS {
                        return Err(format!(
                            "'histograms.{name}.buckets' index {index} out of range"
                        ));
                    }
                    buckets.push((index as usize, count));
                }
                histograms.insert(
                    name.clone(),
                    HistogramSnapshot {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                        overflow: field("overflow")?,
                    },
                );
            }
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }

    /// Parses the JSON text form.
    ///
    /// # Errors
    ///
    /// Propagates syntax errors and structural mismatches.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let value = Json::parse(text).map_err(|e| format!("invalid snapshot: {e}"))?;
        MetricsSnapshot::from_json(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    #[test]
    fn json_round_trip_preserves_everything() {
        let metrics = Metrics::new();
        metrics.counter("engine.path_cache.hits").add(17);
        metrics.counter("solver.sim.draws").add(123_456);
        metrics.gauge("http.connections_open").set(9);
        let h = metrics.histogram("solver.fast.solve_ns");
        for v in [0u64, 1, 100, 65_535, 1 << 20, (1 << 40) + 5] {
            h.record(v);
        }
        let snapshot = metrics.snapshot();
        let text = snapshot.to_json().to_pretty();
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.histogram("solver.fast.solve_ns").unwrap().overflow, 1);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snapshot = MetricsSnapshot::default();
        assert!(snapshot.is_empty());
        let back = MetricsSnapshot::parse(&snapshot.to_json().to_compact()).unwrap();
        assert_eq!(back, snapshot);
        assert!(back.is_empty());
        // A disabled registry snapshots to the same empty form.
        assert_eq!(Metrics::disabled().snapshot(), snapshot);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(!MetricsSnapshot::parse("[]").unwrap_err().is_empty());
        assert!(MetricsSnapshot::parse("{\"counters\": {\"x\": -1}}").is_err());
        assert!(MetricsSnapshot::parse("{\"counters\": 3}").is_err());
        assert!(MetricsSnapshot::parse(
            "{\"histograms\": {\"h\": {\"count\": 1, \"sum\": 1, \"min\": 1, \"max\": 1, \
             \"buckets\": [[99, 1]], \"overflow\": 0}}}"
        )
        .is_err());
        // Missing sections default to empty.
        let partial = MetricsSnapshot::parse("{\"counters\": {\"x\": 4}}").unwrap();
        assert_eq!(partial.counter("x"), Some(4));
        assert!(partial.histograms.is_empty());
    }
}
