//! One finished request, described once.
//!
//! The request middleware builds one [`RequestRecord`] per request and
//! renders every other description from it, each only when asked for:
//!
//! * the trace journal's `http_request` event ([`RequestRecord::journal_event`]),
//!   built only once the journal admits it;
//! * the wide `http_request` log line ([`RequestRecord::log_fields`]),
//!   built only when the log admits it;
//! * the flight-recorder entry, which is the record itself: its summary
//!   and per-stage timeline are rendered on lookup.
//!
//! The stages have one set of names everywhere: the log line's
//! `queue_ns`, `handler_ns`, `write_ns` and `total_ns`, and the
//! timeline's `queue_wait`, `handler` and `write` events.

use whart_json::Json;
use whart_trace::{ArgValue, Phase, TraceEvent, TraceLog};

/// Everything the middleware knows about one finished request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The request's correlation id (`X-Request-Id`).
    pub id: String,
    /// Request method (`-` for a request that never parsed).
    pub method: String,
    /// Route label (the registered path, or an error label).
    pub route: &'static str,
    /// Response status code.
    pub status: u16,
    /// Wall-clock start, Unix milliseconds.
    pub started_unix_ms: u64,
    /// Start on the trace journal's clock ([`whart_trace::Trace::now_ns`]).
    pub started_trace_ns: u64,
    /// Time spent queued before a worker picked the connection up
    /// (first request after dispatch only; 0 on pipelined follow-ups).
    pub queue_ns: u64,
    /// Routing and handler time.
    pub handler_ns: u64,
    /// Time spent writing the response.
    pub write_ns: u64,
    /// Total service time, handler start to response written
    /// (`handler_ns + write_ns`).
    pub total_ns: u64,
    /// Request body length.
    pub bytes_in: u64,
    /// Response body length.
    pub bytes_out: u64,
    /// Whether the connection had already served earlier requests.
    pub reused_connection: bool,
    /// The handler's annotations (backend, cache hits, engine time).
    pub trace_args: Vec<(&'static str, ArgValue)>,
}

impl RequestRecord {
    /// The journal's `http_request` event: a complete span from the
    /// request's start covering `total_ns`, carrying `request_id`,
    /// `route`, `code`, then the handler's trace args.
    pub fn journal_event(&self) -> TraceEvent {
        let mut args = vec![
            ("request_id", ArgValue::from(self.id.as_str())),
            ("route", self.route.into()),
            ("code", u64::from(self.status).into()),
        ];
        args.extend(self.trace_args.iter().cloned());
        TraceEvent {
            name: "http_request".into(),
            cat: "http",
            ph: Phase::Complete {
                dur_ns: self.total_ns,
            },
            ts_ns: self.started_trace_ns,
            tid: 0,
            args,
        }
    }

    /// The wide `http_request` log line's fields, after the envelope.
    pub fn log_fields(&self) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("request_id", Json::from(self.id.as_str())),
            ("method", Json::from(self.method.as_str())),
            ("route", Json::from(self.route)),
            ("code", Json::from(self.status)),
            ("bytes_in", Json::from(self.bytes_in)),
            ("bytes_out", Json::from(self.bytes_out)),
            ("queue_ns", Json::from(self.queue_ns)),
            ("handler_ns", Json::from(self.handler_ns)),
            ("write_ns", Json::from(self.write_ns)),
            ("total_ns", Json::from(self.total_ns)),
            ("reused_connection", Json::from(self.reused_connection)),
        ];
        fields.extend(self.trace_args.iter().map(|(k, v)| (*k, v.to_json())));
        fields
    }

    /// The one-line summary object for `GET /v1/debug/requests`.
    pub fn summary_json(&self) -> Json {
        Json::object([
            ("id", Json::from(self.id.as_str())),
            ("method", Json::from(self.method.as_str())),
            ("route", Json::from(self.route)),
            ("status", Json::from(self.status)),
            ("started_unix_ms", Json::from(self.started_unix_ms)),
            ("queue_ns", Json::from(self.queue_ns)),
            ("total_ns", Json::from(self.total_ns)),
            ("reused_connection", Json::from(self.reused_connection)),
        ])
    }

    /// The per-stage timeline — queue wait, handler, response write —
    /// timestamped from the moment the request started queueing. Every
    /// stage carries the request id; the handler stage also carries the
    /// handler's trace args.
    pub fn timeline(&self) -> Vec<TraceEvent> {
        let stage = |name: &str, ts_ns: u64, dur_ns: u64, extra: &[(&'static str, ArgValue)]| {
            let mut args = vec![("request_id", ArgValue::from(self.id.as_str()))];
            args.extend(extra.iter().cloned());
            TraceEvent {
                name: name.into(),
                cat: "http",
                ph: Phase::Complete { dur_ns },
                ts_ns,
                tid: 0,
                args,
            }
        };
        vec![
            stage("queue_wait", 0, self.queue_ns, &[]),
            stage("handler", self.queue_ns, self.handler_ns, &self.trace_args),
            stage("write", self.queue_ns + self.handler_ns, self.write_ns, &[]),
        ]
    }

    /// The full trace for `GET /v1/debug/requests/<id>`: the summary
    /// plus the timeline as trace-journal JSONL.
    pub fn detail_jsonl(&self) -> String {
        let mut out = self.summary_json().to_compact();
        out.push('\n');
        let log = TraceLog {
            events: self.timeline(),
            dropped: 0,
        };
        out.push_str(&log.to_jsonl());
        out
    }
}
