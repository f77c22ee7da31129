//! The structured request log: leveled JSONL events written to one
//! mutex-guarded sink — a file, stdout or stderr.
//!
//! Every line is a flat JSON object with three fixed leading fields —
//! `ts_ms` (Unix milliseconds), `level`, `event` — followed by the
//! event's own fields in emission order:
//!
//! ```text
//! {"ts_ms":1754650000123,"level":"info","event":"http_request","request_id":"a3f2c1-000007","route":"/v1/analyze","code":200}
//! ```
//!
//! [`Logger::disabled`] (the default) carries no sink. An event on it,
//! or below the configured [`Level`], costs one branch and never builds
//! its fields. An admitted event is rendered and written whole under the
//! sink's lock, so a reader tailing the file sees every finished request.
//! Logging must never take the service down: write failures are counted
//! ([`Logger::write_errors`]), never propagated.
//!
//! ```
//! use whart_serve::log::{Level, Logger};
//!
//! let log = Logger::disabled();
//! log.emit(Level::Info, "http_request", || -> Vec<(&'static str, whart_json::Json)> {
//!     unreachable!("a disabled logger never builds fields")
//! });
//! assert_eq!(log.write_errors(), 0);
//! ```

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};
use whart_json::Json;

/// Event severity, from most to least urgent. The logger's configured
/// level admits events at that level and above (`Info` admits `Error`,
/// `Warn` and `Info`; `Debug` admits everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A request or subsystem failed.
    Error,
    /// Degraded but proceeding (overflow rejections).
    Warn,
    /// The per-request wide events and server lifecycle events.
    Info,
    /// High-volume diagnostics.
    Debug,
}

impl Level {
    /// The lowercase name used on log lines and by `--log-level`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a `--log-level` value (case-insensitive).
    ///
    /// # Errors
    ///
    /// Names the accepted levels.
    pub fn parse(text: &str) -> Result<Level, String> {
        match text.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!(
                "unknown log level '{other}' (expected error, warn, info or debug)"
            )),
        }
    }
}

struct Sink {
    level: Level,
    out: Mutex<Box<dyn Write + Send>>,
    write_errors: AtomicU64,
}

/// A cloneable handle to a JSONL sink, or a no-op stand-in. Clones share
/// the sink; the default handle is disabled.
#[derive(Clone, Default)]
pub struct Logger {
    sink: Option<Arc<Sink>>,
}

impl Logger {
    /// The no-op handle.
    pub fn disabled() -> Logger {
        Logger { sink: None }
    }

    /// The `--log <target>` mapping: `-` is stdout, `stderr` is stderr,
    /// anything else is a file path (created or truncated).
    ///
    /// # Errors
    ///
    /// When a file target cannot be created.
    pub fn for_target(target: &str, level: Level) -> Result<Logger, String> {
        let out: Box<dyn Write + Send> = match target {
            "-" => Box::new(std::io::stdout()),
            "stderr" => Box::new(std::io::stderr()),
            path => Box::new(
                std::fs::File::create(path)
                    .map_err(|e| format!("cannot open log file {path}: {e}"))?,
            ),
        };
        Ok(Logger {
            sink: Some(Arc::new(Sink {
                level,
                out: Mutex::new(out),
                write_errors: AtomicU64::new(0),
            })),
        })
    }

    /// Lines lost to sink write failures so far.
    pub fn write_errors(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.write_errors.load(Ordering::Relaxed))
    }

    /// Writes one `event` line at `level` carrying `fields` after the
    /// envelope. `fields` runs only when the handle is enabled and the
    /// level is admitted.
    pub fn emit<F, I>(&self, level: Level, event: &'static str, fields: F)
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        let Some(sink) = self.sink.as_ref().filter(|s| level <= s.level) else {
            return;
        };
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut all = vec![
            ("ts_ms".to_owned(), Json::from(ts_ms)),
            ("level".to_owned(), Json::from(level.as_str())),
            ("event".to_owned(), Json::from(event)),
        ];
        all.extend(fields().into_iter().map(|(k, v)| (k.to_owned(), v)));
        let mut line = Json::Object(all).to_compact();
        line.push('\n');
        let mut out = sink.out.lock().expect("log sink");
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            sink.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("whart-serve-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("info"), Ok(Level::Info));
        assert_eq!(Level::parse("WARN"), Ok(Level::Warn));
        assert_eq!(Level::parse("warning"), Ok(Level::Warn));
        assert_eq!(Level::parse("debug").unwrap().as_str(), "debug");
        assert!(Level::parse("verbose").unwrap_err().contains("log level"));
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn file_sink_writes_schema_lines_in_order() {
        let path = temp_path("lines.jsonl");
        let log = Logger::for_target(&path, Level::Info).unwrap();
        log.emit(Level::Info, "http_request", || {
            [
                ("request_id", Json::from("req-1")),
                ("route", Json::from("/v1/analyze")),
                ("code", Json::from(200u64)),
            ]
        });
        log.emit(Level::Warn, "queue_overflow", || {
            [("request_id", Json::from("req-2"))]
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let (ts_ms, rest) = lines[0]
            .strip_prefix("{\"ts_ms\":")
            .and_then(|l| l.split_once(','))
            .expect("ts_ms leads");
        assert!(ts_ms.parse::<u64>().is_ok(), "{ts_ms}");
        assert_eq!(
            rest,
            r#""level":"info","event":"http_request","request_id":"req-1","route":"/v1/analyze","code":200}"#
        );
        assert!(lines[1].contains(r#""level":"warn","event":"queue_overflow""#));
    }

    #[test]
    fn events_below_the_level_are_refused_before_their_fields_are_built() {
        let path = temp_path("filtered.jsonl");
        let log = Logger::for_target(&path, Level::Warn).unwrap();
        log.emit(Level::Info, "refused", || -> [(&'static str, Json); 0] {
            panic!("a refused event built its fields")
        });
        log.emit(Level::Error, "kept", || [("k", Json::from(1u64))]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"kept\""));
        Logger::default().emit(Level::Error, "off", || -> [(&'static str, Json); 0] {
            panic!("a disabled logger built its fields")
        });
    }

    #[test]
    fn target_mapping_matches_the_cli_contract() {
        assert!(Logger::for_target("-", Level::Info).is_ok());
        assert!(Logger::for_target("stderr", Level::Info).is_ok());
        let path = temp_path("mapped.jsonl");
        let log = Logger::for_target(&path, Level::Info).unwrap();
        log.emit(Level::Info, "e", Vec::new);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        assert!(
            Logger::for_target("/nonexistent-dir-xyz/log.jsonl", Level::Info)
                .err()
                .unwrap()
                .contains("cannot open log file")
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn write_failures_are_counted_not_propagated() {
        let log = Logger::for_target("/dev/full", Level::Info).unwrap();
        for _ in 0..3 {
            log.emit(Level::Info, "e", || [("k", Json::from(1u64))]);
        }
        assert_eq!(log.write_errors(), 3);
        assert_eq!(Logger::disabled().write_errors(), 0);
    }
}
