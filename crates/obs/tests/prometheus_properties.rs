//! Property tests for the Prometheus text-format encoder: arbitrary
//! registries (including hostile instrument names and label suffixes)
//! must render to an exposition that parses, whose histogram buckets
//! are cumulative-monotone with `+Inf` equal to `_count`, and whose
//! names and labels land in the Prometheus charsets after sanitization.

use proptest::prelude::*;
use whart_obs::prometheus::{parse, render_with, DerivedGauge};
use whart_obs::Metrics;

fn metric_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn label_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Builds an instrument name from raw draws, mixing clean dotted idiom,
/// `{k=v,...}` label suffixes, and hostile characters (spaces, unicode,
/// quotes, leading digits) that the encoder must sanitize away.
fn build_name(variant: u8, bytes: &[usize]) -> String {
    const CLEAN: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', '0', '7', '.', '_', 'q', 'r', 's', 't',
    ];
    const HOSTILE: &[char] = &[
        'a', '9', ' ', 'é', '-', '"', '\\', '{', '}', '=', ',', '/', 'µ', ':', '\t', 'Z',
    ];
    let pick = |table: &[char], draws: &[usize]| -> String {
        draws.iter().map(|&d| table[d % table.len()]).collect()
    };
    let half = bytes.len() / 2;
    match variant % 4 {
        // Clean dotted idiom, guaranteed-alphabetic first char.
        0 => format!("m{}", pick(CLEAN, bytes)),
        // One label.
        1 => format!(
            "m{}{{route=/v{}}}",
            pick(CLEAN, &bytes[..half]),
            bytes[half..].len()
        ),
        // Two labels, numeric value.
        2 => format!(
            "m{}{{route=/v1/analyze,code={}}}",
            pick(CLEAN, &bytes[..half]),
            200 + (bytes[half] % 300)
        ),
        // Hostile characters everywhere, including a label suffix.
        _ => format!(
            "{}{{rö ute={}}}",
            pick(HOSTILE, &bytes[..half]),
            pick(HOSTILE, &bytes[half..])
        ),
    }
}

/// Raw draws for one instrument name: a variant selector plus bytes.
fn instrument_name() -> impl Strategy<Value = String> {
    (0u8..4, proptest::collection::vec(0usize..1000, 1..12))
        .prop_map(|(variant, bytes)| build_name(variant, &bytes))
}

proptest! {
    #[test]
    fn renders_parse_and_validate(
        counters in proptest::collection::vec((instrument_name(), 0u64..1u64 << 40), 0..6),
        gauges in proptest::collection::vec((instrument_name(), 0u64..1u64 << 40), 0..6),
        histograms in proptest::collection::vec(
            (instrument_name(), proptest::collection::vec(any::<u64>(), 1..40)),
            0..4,
        ),
        derived in proptest::collection::vec((instrument_name(), -1e12f64..1e12), 0..3),
    ) {
        // Index prefixes keep sanitized family names distinct across
        // instruments (otherwise two hostile names can sanitize into one
        // family and legitimately interleave two histograms' buckets).
        let metrics = Metrics::new();
        for (i, (name, value)) in counters.iter().enumerate() {
            metrics.counter(&format!("c{i}.{name}")).add(*value);
        }
        for (i, (name, value)) in gauges.iter().enumerate() {
            metrics.gauge(&format!("g{i}.{name}")).set(*value);
        }
        for (i, (name, values)) in histograms.iter().enumerate() {
            let h = metrics.histogram(&format!("h{i}.{name}"));
            for &v in values {
                h.record(v);
            }
        }
        let derived: Vec<DerivedGauge> = derived
            .iter()
            .enumerate()
            .map(|(i, (n, v))| DerivedGauge::new(format!("d{i}.{n}"), *v))
            .collect();
        let text = render_with(&metrics.snapshot(), &derived);

        let exposition = parse(&text)
            .unwrap_or_else(|e| panic!("render output failed to parse: {e}\n---\n{text}"));
        exposition
            .validate()
            .unwrap_or_else(|e| panic!("render output failed validation: {e}\n---\n{text}"));

        // Every sample name and label name is in the Prometheus charset.
        for sample in &exposition.samples {
            prop_assert!(metric_name_ok(&sample.name), "bad name {:?}", sample.name);
            for (key, _) in &sample.labels {
                prop_assert!(label_name_ok(key), "bad label {key:?}");
            }
        }
        for family in exposition.types.keys() {
            prop_assert!(metric_name_ok(family), "bad family {family:?}");
        }

        // Histogram invariants, re-checked here independently of
        // validate(): cumulative buckets are monotone and +Inf == _count
        // == the number of recorded observations.
        for (family, kind) in &exposition.types {
            if kind != "histogram" {
                continue;
            }
            let bucket_name = format!("{family}_bucket");
            let buckets: Vec<&whart_obs::prometheus::Sample> =
                exposition.named(&bucket_name).collect();
            prop_assert!(!buckets.is_empty());
            let mut previous = f64::NEG_INFINITY;
            for sample in &buckets {
                if sample.label("le") != Some("+Inf") {
                    prop_assert!(sample.value >= previous, "non-monotone in {text}");
                    previous = sample.value;
                }
            }
            let inf = buckets
                .iter()
                .find(|s| s.label("le") == Some("+Inf"))
                .expect("+Inf bucket");
            // Index prefixes make each family a single histogram, so the
            // one _count sample (labelled or not) belongs to these
            // buckets.
            let count_name = format!("{family}_count");
            let count = exposition
                .named(&count_name)
                .next()
                .expect("_count sample")
                .value;
            prop_assert_eq!(inf.value, count);
            prop_assert!(inf.value >= previous, "+Inf below last finite bucket");
        }
    }

    #[test]
    fn rendering_is_deterministic(values in proptest::collection::vec(any::<u64>(), 1..50)) {
        let metrics = Metrics::new();
        let h = metrics.histogram("latency.ns");
        for &v in &values {
            h.record(v);
        }
        metrics.counter("events").add(values.len() as u64);
        let snapshot = metrics.snapshot();
        prop_assert_eq!(render_with(&snapshot, &[]), render_with(&snapshot, &[]));
    }
}
