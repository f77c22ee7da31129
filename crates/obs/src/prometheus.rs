//! Prometheus text-format exposition of a [`MetricsSnapshot`], plus the
//! parser-side helper the tests and CI smoke checks validate scrapes
//! with.
//!
//! Counters and gauges are emitted verbatim (one sample each); the log2
//! [`crate::HistogramSnapshot`] is emitted as a native Prometheus
//! histogram — cumulative `_bucket{le="..."}` series at the populated
//! buckets' inclusive upper bounds, a `+Inf` bucket equal to `_count`,
//! and exact `_sum`/`_count` samples.
//!
//! Instrument names are dotted in the registry (`engine.path_cache.hits`)
//! and may carry a `{key=value,...}` label suffix (the convention
//! `whart-serve` uses for per-route series, e.g.
//! `http.requests{route=/v1/analyze,code=200}`). Rendering splits the
//! suffix into Prometheus labels and sanitizes every metric name to
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` and every label name to
//! `[a-zA-Z_][a-zA-Z0-9_]*`; label values are escaped, not sanitized.
//! Series sharing a sanitized family name are grouped under one `# TYPE`
//! line.

use crate::histogram::bucket_upper_bound;
use crate::{HistogramSnapshot, MetricsSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A derived, float-valued gauge sample appended to an exposition by
/// [`render_with`] — computed at scrape time (cache hit ratios, latency
/// quantiles) rather than stored in the registry's integer instruments.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedGauge {
    /// Instrument-style name, optionally carrying a `{k=v,...}` suffix.
    pub name: String,
    /// Sample value.
    pub value: f64,
}

impl DerivedGauge {
    /// A derived gauge sample.
    pub fn new(name: impl Into<String>, value: f64) -> DerivedGauge {
        DerivedGauge {
            name: name.into(),
            value,
        }
    }
}

/// Whether `c` may appear in a metric name (after the first character).
fn metric_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == ':'
}

/// Sanitizes a metric name to `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = if i == 0 {
            c.is_ascii_alphabetic() || c == '_' || c == ':'
        } else {
            metric_char(c)
        };
        if ok {
            out.push(c);
        } else if i == 0 && metric_char(c) {
            // A leading digit is valid later in the name; keep it behind
            // a conventional prefix instead of erasing it.
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Sanitizes a label name to `[a-zA-Z_][a-zA-Z0-9_]*`.
pub fn sanitize_label_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = if i == 0 {
            c.is_ascii_alphabetic() || c == '_'
        } else {
            c.is_ascii_alphanumeric() || c == '_'
        };
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Splits an instrument name into its base and `{k=v,...}` label suffix
/// (already sanitized/escaped). A malformed suffix is folded into the
/// base name rather than dropped.
fn split_name(name: &str) -> (String, Vec<(String, String)>) {
    let Some(open) = name.find('{') else {
        return (sanitize_metric_name(name), Vec::new());
    };
    let Some(stripped) = name[open..]
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
    else {
        return (sanitize_metric_name(name), Vec::new());
    };
    let mut labels = Vec::new();
    for pair in stripped.split(',').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => {
                let v = v.trim_matches('"');
                labels.push((sanitize_label_name(k.trim()), escape_label_value(v)));
            }
            None => return (sanitize_metric_name(name), Vec::new()),
        }
    }
    labels.sort();
    (sanitize_metric_name(&name[..open]), labels)
}

fn format_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

/// Formats a float sample value: integral values print without a
/// fractional part (matching Prometheus' own text output for integers).
fn format_value(value: f64) -> String {
    if value.is_nan() {
        return "NaN".into();
    }
    if value.is_infinite() {
        return if value > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        };
    }
    if value.fract() == 0.0 && value.abs() < 9.007_199_254_740_992e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// One family of samples sharing a name and TYPE.
struct Family {
    kind: &'static str,
    /// `(label-suffix, rendered sample lines)`.
    lines: Vec<String>,
}

fn push_sample(
    families: &mut BTreeMap<String, Family>,
    family: &str,
    kind: &'static str,
    sample_name: &str,
    labels: &[(String, String)],
    value: f64,
) {
    let entry = families.entry(family.to_string()).or_insert(Family {
        kind,
        lines: Vec::new(),
    });
    entry.lines.push(format!(
        "{sample_name}{} {}",
        format_labels(labels),
        format_value(value)
    ));
}

/// Renders the snapshot plus `derived` float gauges (scrape-time values
/// such as cache hit ratios and latency quantiles) as Prometheus text
/// exposition (version 0.0.4).
pub fn render_with(snapshot: &MetricsSnapshot, derived: &[DerivedGauge]) -> String {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for (name, &value) in &snapshot.counters {
        let (base, labels) = split_name(name);
        push_sample(
            &mut families,
            &base,
            "counter",
            &base,
            &labels,
            value as f64,
        );
    }
    for (name, &value) in &snapshot.gauges {
        let (base, labels) = split_name(name);
        push_sample(&mut families, &base, "gauge", &base, &labels, value as f64);
    }
    for gauge in derived {
        let (base, labels) = split_name(&gauge.name);
        push_sample(&mut families, &base, "gauge", &base, &labels, gauge.value);
    }
    for (name, histogram) in &snapshot.histograms {
        let (base, labels) = split_name(name);
        render_histogram(&mut families, &base, &labels, histogram);
    }
    let mut out = String::new();
    for (name, family) in &families {
        let _ = writeln!(out, "# TYPE {name} {}", family.kind);
        for line in &family.lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn render_histogram(
    families: &mut BTreeMap<String, Family>,
    base: &str,
    labels: &[(String, String)],
    histogram: &HistogramSnapshot,
) {
    let bucket_name = format!("{base}_bucket");
    let mut cumulative = 0u64;
    for &(index, count) in &histogram.buckets {
        cumulative += count;
        let mut with_le = labels.to_vec();
        with_le.push(("le".into(), format!("{}", bucket_upper_bound(index))));
        push_sample(
            families,
            base,
            "histogram",
            &bucket_name,
            &with_le,
            cumulative as f64,
        );
    }
    let mut with_inf = labels.to_vec();
    with_inf.push(("le".into(), "+Inf".into()));
    push_sample(
        families,
        base,
        "histogram",
        &bucket_name,
        &with_inf,
        histogram.count as f64,
    );
    push_sample(
        families,
        base,
        "histogram",
        &format!("{base}_sum"),
        labels,
        histogram.sum as f64,
    );
    push_sample(
        families,
        base,
        "histogram",
        &format!("{base}_count"),
        labels,
        histogram.count as f64,
    );
}

/// One parsed sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name (the family name, possibly with a `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

impl Sample {
    /// The value of the label named `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text exposition: the declared types and every
/// sample, in source order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// `# TYPE` declarations by family name.
    pub types: BTreeMap<String, String>,
    /// Every sample line.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Samples whose name equals `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> {
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// The single sample with `name` and no labels, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// Structural validation beyond line syntax: no series (sample name
    /// plus label set, in any label order) may appear twice, and for
    /// every declared histogram family (per distinct non-`le` label
    /// set), cumulative bucket counts must be monotone in `le`, the
    /// `+Inf` bucket must exist and equal `_count`, and a `_sum` must be
    /// present.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut series = BTreeSet::new();
        for sample in &self.samples {
            let mut labels: Vec<&(String, String)> = sample.labels.iter().collect();
            labels.sort();
            if !series.insert((sample.name.as_str(), labels)) {
                return Err(format!(
                    "{}{}: repeated series",
                    sample.name,
                    format_labels(&sample.labels)
                ));
            }
        }
        for (family, kind) in &self.types {
            if kind != "histogram" {
                continue;
            }
            // Group bucket samples by their non-`le` labels.
            let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
            for sample in self.named(&format!("{family}_bucket")) {
                let le = sample
                    .label("le")
                    .ok_or_else(|| format!("{family}: bucket sample without 'le'"))?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("{family}: unparseable le '{le}'"))?
                };
                let group: Vec<String> = sample
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                groups
                    .entry(group.join(","))
                    .or_default()
                    .push((bound, sample.value));
            }
            if groups.is_empty() {
                return Err(format!("{family}: histogram with no _bucket samples"));
            }
            for (labels, mut buckets) in groups {
                buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are not NaN"));
                let mut previous = f64::NEG_INFINITY;
                for &(_, count) in &buckets {
                    if count < previous {
                        return Err(format!("{family}{{{labels}}}: bucket counts not monotone"));
                    }
                    previous = count;
                }
                let (last_bound, inf_count) = *buckets.last().expect("non-empty");
                if last_bound.is_finite() {
                    return Err(format!("{family}{{{labels}}}: missing +Inf bucket"));
                }
                let count = self
                    .samples
                    .iter()
                    .find(|s| {
                        s.name == format!("{family}_count")
                            && labels
                                == s.labels
                                    .iter()
                                    .map(|(k, v)| format!("{k}={v}"))
                                    .collect::<Vec<_>>()
                                    .join(",")
                    })
                    .map(|s| s.value)
                    .ok_or_else(|| format!("{family}{{{labels}}}: missing _count"))?;
                if inf_count != count {
                    return Err(format!(
                        "{family}{{{labels}}}: +Inf bucket {inf_count} != _count {count}"
                    ));
                }
                let has_sum = self
                    .samples
                    .iter()
                    .any(|s| s.name == format!("{family}_sum"));
                if !has_sum {
                    return Err(format!("{family}{{{labels}}}: missing _sum"));
                }
            }
        }
        Ok(())
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(metric_char)
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses Prometheus text exposition, enforcing the line grammar and the
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` metric- / `[a-zA-Z_][a-zA-Z0-9_]*`
/// label-name charsets.
///
/// This is the parser side of [`render_with`]: the golden and property tests
/// round-trip through it, and the CI smoke job reuses it (via the
/// `promcheck` example) to assert a live scrape parses.
///
/// # Errors
///
/// Describes the first malformed line.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut exposition = Exposition::default();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        let context = |what: &str| format!("line {}: {what}: {line}", number + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or_else(|| context("TYPE without name"))?;
                let kind = parts.next().ok_or_else(|| context("TYPE without kind"))?;
                if !valid_metric_name(name) {
                    return Err(context("invalid metric name in TYPE"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(context("unknown TYPE kind"));
                }
                if exposition.types.insert(name.into(), kind.into()).is_some() {
                    return Err(context("duplicate TYPE declaration"));
                }
            }
            continue;
        }
        exposition.samples.push(parse_sample(line, &context)?);
    }
    Ok(exposition)
}

fn parse_sample(line: &str, context: &dyn Fn(&str) -> String) -> Result<Sample, String> {
    let (name_and_labels, value) = match line.find('{') {
        Some(_) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| context("unterminated label set"))?;
            (&line[..=close], line[close + 1..].trim())
        }
        None => {
            let space = line
                .find(char::is_whitespace)
                .ok_or_else(|| context("sample without value"))?;
            (&line[..space], line[space..].trim())
        }
    };
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .split_whitespace()
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| context("unparseable sample value"))?,
    };
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some(open) => {
            let body = name_and_labels[open..]
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .ok_or_else(|| context("malformed label set"))?;
            let mut labels = Vec::new();
            for pair in split_label_pairs(body).map_err(|e| context(&e))? {
                let (key, raw) = pair;
                if !valid_label_name(&key) {
                    return Err(context("invalid label name"));
                }
                labels.push((key, raw));
            }
            (name_and_labels[..open].to_string(), labels)
        }
    };
    if !valid_metric_name(&name) {
        return Err(context("invalid metric name"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Splits `k="v",k2="v2"` respecting escapes inside quoted values.
fn split_label_pairs(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        let quoted = after.strip_prefix('"').ok_or("unquoted label value")?;
        // Find the closing quote, skipping escaped characters.
        let mut value = String::new();
        let mut chars = quoted.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err("dangling escape in label value".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        pairs.push((key, value));
        rest = quoted[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    #[test]
    fn golden_exposition_for_a_known_snapshot() {
        let metrics = Metrics::new();
        metrics.counter("engine.path_cache.hits").add(17);
        metrics
            .counter("http.requests{route=/v1/analyze,code=200}")
            .add(3);
        metrics
            .counter("http.requests{route=/v1/analyze,code=400}")
            .add(1);
        metrics.gauge("http.connections_open").set(9);
        let h = metrics.histogram("solver.fast.solve_ns");
        for v in [1u64, 3, 900, 70_000] {
            h.record(v);
        }
        let text = render_with(&metrics.snapshot(), &[]);
        let expected = "\
# TYPE engine_path_cache_hits counter
engine_path_cache_hits 17
# TYPE http_connections_open gauge
http_connections_open 9
# TYPE http_requests counter
http_requests{code=\"200\",route=\"/v1/analyze\"} 3
http_requests{code=\"400\",route=\"/v1/analyze\"} 1
# TYPE solver_fast_solve_ns histogram
solver_fast_solve_ns_bucket{le=\"1\"} 1
solver_fast_solve_ns_bucket{le=\"3\"} 2
solver_fast_solve_ns_bucket{le=\"1023\"} 3
solver_fast_solve_ns_bucket{le=\"131071\"} 4
solver_fast_solve_ns_bucket{le=\"+Inf\"} 4
solver_fast_solve_ns_sum 70904
solver_fast_solve_ns_count 4
";
        assert_eq!(text, expected);
        let parsed = parse(&text).unwrap();
        parsed.validate().unwrap();
        assert_eq!(parsed.types["http_requests"], "counter");
        assert_eq!(parsed.value("engine_path_cache_hits"), Some(17.0));
    }

    #[test]
    fn derived_gauges_render_as_floats() {
        let metrics = Metrics::new();
        metrics.counter("engine.path_cache.hits").add(1);
        let text = render_with(
            &metrics.snapshot(),
            &[
                DerivedGauge::new("engine.path_cache.hit_ratio", 0.5),
                DerivedGauge::new("http.request_ns.p99{route=/metrics}", 1234.0),
            ],
        );
        assert!(
            text.contains("# TYPE engine_path_cache_hit_ratio gauge"),
            "{text}"
        );
        assert!(text.contains("engine_path_cache_hit_ratio 0.5"), "{text}");
        assert!(
            text.contains("http_request_ns_p99{route=\"/metrics\"} 1234"),
            "{text}"
        );
        parse(&text).unwrap().validate().unwrap();
    }

    #[test]
    fn overflow_observations_keep_the_inf_bucket_equal_to_count() {
        let metrics = Metrics::new();
        let h = metrics.histogram("h");
        h.record(5);
        h.record(u64::MAX); // overflow bucket
        let text = render_with(&metrics.snapshot(), &[]);
        let parsed = parse(&text).unwrap();
        parsed.validate().unwrap();
        let inf = parsed
            .named("h_bucket")
            .find(|s| s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 2.0, "{text}");
        // The last finite bucket holds only the regular observation.
        let finite: Vec<f64> = parsed
            .named("h_bucket")
            .filter(|s| s.label("le") != Some("+Inf"))
            .map(|s| s.value)
            .collect();
        assert_eq!(finite, vec![1.0]);
    }

    #[test]
    fn nasty_names_are_sanitized_into_the_charset() {
        assert_eq!(
            sanitize_metric_name("engine.path-cache hits"),
            "engine_path_cache_hits"
        );
        assert_eq!(sanitize_metric_name("0day"), "_0day");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_label_name("le gacy-9"), "le_gacy_9");
        assert_eq!(sanitize_label_name("9code"), "_9code");
        let metrics = Metrics::new();
        metrics.counter("weird métric näme{röute=a\"b\\c}").add(1);
        let text = render_with(&metrics.snapshot(), &[]);
        let parsed = parse(&text).unwrap();
        parsed.validate().unwrap();
        for sample in &parsed.samples {
            assert!(valid_metric_name(&sample.name), "{}", sample.name);
            for (k, _) in &sample.labels {
                assert!(valid_label_name(k), "{k}");
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("no_value").is_err());
        assert!(parse("bad-name 3").is_err());
        assert!(parse("x{unterminated 3").is_err());
        assert!(parse("x{k=unquoted} 3").is_err());
        assert!(parse("x{9k=\"v\"} 3").is_err());
        assert!(parse("x nonsense").is_err());
        assert!(parse("# TYPE x nonsense").is_err());
        assert!(parse("# TYPE x counter\n# TYPE x counter").is_err());
        // Comments and empty lines are fine.
        parse("# HELP x whatever\n\nx 3\n").unwrap();
    }

    #[test]
    fn validate_catches_histogram_inconsistencies() {
        let bad_inf = "\
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_bucket{le=\"+Inf\"} 1
h_sum 1
h_count 2
";
        let err = parse(bad_inf).unwrap().validate().unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
        let no_inf = "\
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_sum 1
h_count 1
";
        let err = parse(no_inf).unwrap().validate().unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
        let no_buckets = "# TYPE h histogram\nh_sum 1\nh_count 1\n";
        let err = parse(no_buckets).unwrap().validate().unwrap_err();
        assert!(err.contains("no _bucket"), "{err}");
    }

    #[test]
    fn validate_rejects_a_repeated_series() {
        let repeated = "\
# TYPE engine_cache_path_entries gauge
engine_cache_path_entries{backend=\"sim\"} 3
engine_cache_path_entries{backend=\"fast\"} 5
engine_cache_path_entries{backend=\"sim\"} 3
";
        let err = parse(repeated).unwrap().validate().unwrap_err();
        assert!(
            err.contains("engine_cache_path_entries{backend=\"sim\"}: repeated series"),
            "{err}"
        );
        // Label order does not make a series distinct.
        let reordered = "x{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 1\n";
        assert!(parse(reordered).unwrap().validate().is_err());
        // Same name, other labels, or same labels, other name: distinct.
        let distinct = "x{a=\"1\"} 1\nx{a=\"2\"} 1\nx 1\ny{a=\"1\"} 1\n";
        parse(distinct).unwrap().validate().unwrap();
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let metrics = Metrics::new();
        metrics.gauge("g{path=a\\b\"c}").set(1);
        let text = render_with(&metrics.snapshot(), &[]);
        let parsed = parse(&text).unwrap();
        let sample = parsed.named("g").next().unwrap();
        assert_eq!(sample.label("path"), Some("a\\b\"c"));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render_with(&MetricsSnapshot::default(), &[]), "");
        let parsed = parse("").unwrap();
        assert!(parsed.samples.is_empty());
        parsed.validate().unwrap();
    }

    #[test]
    fn process_resource_gauges_render_under_their_exact_names() {
        // The serve /metrics handler publishes whart-prof's resource
        // sampler through these derived gauges. Their names are a wire
        // contract with dashboards and promcheck: already underscored,
        // they must render verbatim (no dot-to-underscore rewriting,
        // no prefixing) and round-trip through the parser.
        let derived = [
            DerivedGauge::new("process_cpu_percent", 12.5),
            DerivedGauge::new("process_rss_bytes", 104_857_600.0),
            DerivedGauge::new("process_threads", 9.0),
            DerivedGauge::new("process_open_fds", 32.0),
            DerivedGauge::new("process_start_time_seconds", 1_754_000_000.0),
            DerivedGauge::new("uptime_seconds", 42.5),
        ];
        let text = render_with(&MetricsSnapshot::default(), &derived);
        for gauge in &derived {
            assert!(
                text.contains(&format!("# TYPE {} gauge", gauge.name)),
                "{text}"
            );
        }
        let parsed = parse(&text).unwrap();
        parsed.validate().unwrap();
        for gauge in &derived {
            assert_eq!(
                parsed.value(&gauge.name),
                Some(gauge.value),
                "{}",
                gauge.name
            );
        }
    }
}
