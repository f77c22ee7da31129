//! The telemetry flags every profiling-capable command shares
//! (`--metrics`, `--trace`, `--profile`, `--profile-hz`): parsed once,
//! turned into handles once, and written out through one function.

use crate::commands::write_or_passthrough;
use crate::{flag_value, parse_or};
use whart_obs::Metrics;
use whart_prof::{Capture, Profiler};
use whart_trace::Trace;

/// Largest accepted sampling rate: comfortably above useful resolution,
/// low enough that the sampler thread cannot degenerate into a busy
/// loop.
pub(crate) const MAX_PROFILE_HZ: u32 = 50_000;

/// The artifact destinations of one command (`-` writes to stdout).
#[derive(Debug, Clone)]
pub(crate) struct TelemetryFlags {
    /// Metrics snapshot destination (`--metrics`).
    pub metrics: Option<String>,
    /// Trace journal destination (`--trace`): JSON Lines for `-` or a
    /// `.jsonl` path, Chrome `trace_event` JSON (Perfetto loadable)
    /// otherwise.
    pub trace: Option<String>,
    /// Sampled profile destination (`--profile`): per-thread JSON for a
    /// `.json` path, flamegraph collapsed stacks otherwise.
    pub profile: Option<String>,
    /// Sampling frequency for `--profile` captures (`--profile-hz`).
    pub profile_hz: u32,
}

impl Default for TelemetryFlags {
    fn default() -> TelemetryFlags {
        TelemetryFlags {
            metrics: None,
            trace: None,
            profile: None,
            profile_hz: whart_prof::DEFAULT_HZ,
        }
    }
}

impl TelemetryFlags {
    /// Parses the flags from `args`. `others` lists the command's other
    /// stdout-capable streams (serve's `--log`, optimize's
    /// `--emit-spec`): at most one stream in total may be `-`, or the
    /// outputs would interleave.
    pub(crate) fn parse(
        args: &[String],
        others: &[(&str, Option<&str>)],
    ) -> Result<TelemetryFlags, String> {
        let flags = TelemetryFlags {
            metrics: flag_value(args, "--metrics")?,
            trace: flag_value(args, "--trace")?,
            profile: flag_value(args, "--profile")?,
            profile_hz: parse_or(args, "--profile-hz", whart_prof::DEFAULT_HZ)?,
        };
        if flags.profile_hz == 0 {
            return Err("--profile-hz must be at least 1".into());
        }
        if flags.profile_hz > MAX_PROFILE_HZ {
            return Err(format!(
                "--profile-hz must be at most {MAX_PROFILE_HZ} (got {})",
                flags.profile_hz
            ));
        }
        let mut streams = vec![
            ("--metrics", flags.metrics.as_deref()),
            ("--trace", flags.trace.as_deref()),
            ("--profile", flags.profile.as_deref()),
        ];
        streams.extend_from_slice(others);
        let dashed: Vec<String> = streams
            .iter()
            .filter(|(_, value)| *value == Some("-"))
            .map(|(flag, _)| format!("{flag} -"))
            .collect();
        if dashed.len() > 1 {
            return Err(format!(
                "{} both stream to stdout and would interleave; give at \
                 least one of them a file path",
                dashed.join(" and ")
            ));
        }
        Ok(flags)
    }

    /// Handles for a one-shot command, each enabled exactly when its
    /// destination was given, so an absent flag keeps every
    /// instrumented site on the zero-cost disabled path.
    pub(crate) fn start(&self) -> Telemetry<'_> {
        self.start_with(
            self.metrics
                .as_ref()
                .map_or_else(Metrics::disabled, |_| Metrics::new()),
            self.trace
                .as_ref()
                .map_or_else(Trace::disabled, |_| Trace::new()),
            self.profile
                .as_ref()
                .map_or_else(Profiler::disabled, |_| Profiler::new()),
        )
    }

    /// Wraps caller-owned handles (serve keeps all three on for its
    /// whole life). A sampling capture runs only when `--profile` was
    /// given.
    pub(crate) fn start_with(
        &self,
        metrics: Metrics,
        trace: Trace,
        profiler: Profiler,
    ) -> Telemetry<'_> {
        let capture = self
            .profile
            .as_ref()
            .and_then(|_| profiler.start_capture(self.profile_hz));
        Telemetry {
            flags: self,
            metrics,
            trace,
            profiler,
            capture,
        }
    }
}

/// The live handles of one command run, plus the capture its
/// `--profile` artifact comes from.
pub(crate) struct Telemetry<'a> {
    flags: &'a TelemetryFlags,
    /// Solver, engine and handler metrics.
    pub metrics: Metrics,
    /// Structured event journal.
    pub trace: Trace,
    /// Activity-frame profiler.
    pub profiler: Profiler,
    capture: Option<Capture>,
}

impl Telemetry<'_> {
    /// Stops the capture and writes every requested artifact — metrics
    /// snapshot, trace journal, profile, in that order. Returns the text
    /// of the `-` stream, if any, for stdout.
    pub(crate) fn finish(self) -> Result<String, String> {
        let mut out = String::new();
        if let Some(path) = &self.flags.metrics {
            let mut text = self.metrics.snapshot().to_json().to_pretty();
            text.push('\n');
            out.push_str(&write_or_passthrough(path, text, "metrics")?);
        }
        if let Some(path) = &self.flags.trace {
            let log = self.trace.drain();
            let text = if path == "-" || path.ends_with(".jsonl") {
                log.to_jsonl()
            } else {
                let mut text = log.to_chrome_json().to_pretty();
                text.push('\n');
                text
            };
            out.push_str(&write_or_passthrough(path, text, "trace")?);
        }
        if let (Some(path), Some(capture)) = (&self.flags.profile, self.capture) {
            let profile = capture.stop();
            let text = if path != "-" && path.ends_with(".json") {
                let mut text = profile.to_json().to_pretty();
                text.push('\n');
                text
            } else {
                profile.to_folded()
            };
            out.push_str(&write_or_passthrough(path, text, "profile")?);
        }
        Ok(out)
    }
}
