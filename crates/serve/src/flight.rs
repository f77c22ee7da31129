//! The tail-sampled flight recorder: recent and slow request traces.
//!
//! `GET /v1/trace` drains the global journal — useful, but a single
//! slow request is gone the moment someone drains around it. The flight
//! recorder keeps per-request traces addressable after the fact:
//!
//! * a ring of the **last N** finished requests (whatever they were),
//! * plus a second ring of requests whose total latency exceeded a
//!   threshold — the tail sample, retained even as fast traffic churns
//!   the recent ring (until slow traffic itself overflows it).
//!
//! Each entry is the request's [`RequestRecord`]: the same record the
//! middleware renders the journal event and the log line from, so one
//! id links the response header, the log line, the journal and the
//! flight entry. Its summary and per-stage timeline are rendered only
//! when someone looks it up.

use crate::record::RequestRecord;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default size of the recent-requests ring.
pub const DEFAULT_RECENT: usize = 64;
/// Default size of the retained-slow ring.
pub const DEFAULT_SLOW: usize = 64;

struct Shared {
    recent_capacity: usize,
    slow_capacity: usize,
    threshold_ns: u64,
    recent: Mutex<VecDeque<RequestRecord>>,
    slow: Mutex<VecDeque<RequestRecord>>,
}

/// A cloneable handle to the two rings. The default handle is disabled
/// (a service that wants no recorder pays one branch per request).
#[derive(Clone, Default)]
pub struct FlightRecorder {
    shared: Option<Arc<Shared>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `recent_capacity` requests plus up
    /// to `slow_capacity` requests slower than `threshold_ns`.
    pub fn new(recent_capacity: usize, slow_capacity: usize, threshold_ns: u64) -> FlightRecorder {
        FlightRecorder {
            shared: Some(Arc::new(Shared {
                recent_capacity: recent_capacity.max(1),
                slow_capacity: slow_capacity.max(1),
                threshold_ns,
                recent: Mutex::new(VecDeque::new()),
                slow: Mutex::new(VecDeque::new()),
            })),
        }
    }

    /// The no-op handle.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { shared: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The tail-sampling latency threshold (`None` when disabled).
    pub fn threshold_ns(&self) -> Option<u64> {
        self.shared.as_ref().map(|s| s.threshold_ns)
    }

    /// Records one finished request: always into the recent ring, and
    /// into the retained-slow ring when it exceeded the threshold.
    pub fn record(&self, entry: RequestRecord) {
        let Some(shared) = &self.shared else {
            return;
        };
        if entry.total_ns > shared.threshold_ns {
            let mut slow = shared.slow.lock().expect("flight slow ring");
            if slow.len() == shared.slow_capacity {
                slow.pop_front();
            }
            slow.push_back(entry.clone());
        }
        let mut recent = shared.recent.lock().expect("flight recent ring");
        if recent.len() == shared.recent_capacity {
            recent.pop_front();
        }
        recent.push_back(entry);
    }

    /// Summaries of everything currently held, newest first, slow
    /// retentions before recent ones, deduplicated by id.
    pub fn summaries(&self) -> Vec<RequestRecord> {
        let Some(shared) = &self.shared else {
            return Vec::new();
        };
        let mut out: Vec<RequestRecord> = Vec::new();
        {
            let slow = shared.slow.lock().expect("flight slow ring");
            out.extend(slow.iter().rev().cloned());
        }
        let recent = shared.recent.lock().expect("flight recent ring");
        for entry in recent.iter().rev() {
            if !out.iter().any(|e| e.id == entry.id) {
                out.push(entry.clone());
            }
        }
        out
    }

    /// The full entry for `id`, if either ring still holds it.
    pub fn lookup(&self, id: &str) -> Option<RequestRecord> {
        let shared = self.shared.as_ref()?;
        {
            let slow = shared.slow.lock().expect("flight slow ring");
            if let Some(entry) = slow.iter().rev().find(|e| e.id == id) {
                return Some(entry.clone());
            }
        }
        let recent = shared.recent.lock().expect("flight recent ring");
        recent.iter().rev().find(|e| e.id == id).cloned()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("threshold_ns", &self.threshold_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, total_ns: u64) -> RequestRecord {
        RequestRecord {
            id: id.into(),
            method: "POST".into(),
            route: "/v1/analyze",
            status: 200,
            started_unix_ms: 1_700_000_000_000,
            started_trace_ns: 0,
            queue_ns: 1_000,
            handler_ns: total_ns / 2,
            write_ns: total_ns - total_ns / 2,
            total_ns,
            bytes_in: 0,
            bytes_out: 0,
            reused_connection: false,
            trace_args: Vec::new(),
        }
    }

    #[test]
    fn recent_ring_evicts_but_slow_requests_are_retained() {
        let recorder = FlightRecorder::new(2, 4, 1_000_000);
        recorder.record(entry("fast-1", 10));
        recorder.record(entry("slow-1", 5_000_000));
        recorder.record(entry("fast-2", 20));
        recorder.record(entry("fast-3", 30));
        // fast-1 and slow-1 have been pushed out of the recent ring...
        assert!(recorder.lookup("fast-1").is_none());
        // ...but slow-1 survives via the tail sample.
        let slow = recorder.lookup("slow-1").expect("tail-sampled");
        assert_eq!(slow.total_ns, 5_000_000);
        assert_eq!(recorder.lookup("fast-3").unwrap().id, "fast-3");

        let ids: Vec<String> = recorder.summaries().into_iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            vec!["slow-1", "fast-3", "fast-2"],
            "dedup, newest first"
        );
    }

    #[test]
    fn slow_ring_is_bounded_too() {
        let recorder = FlightRecorder::new(1, 2, 0);
        for i in 0..5u64 {
            recorder.record(entry(&format!("slow-{i}"), 100 + i));
        }
        assert!(recorder.lookup("slow-0").is_none());
        assert!(recorder.lookup("slow-4").is_some());
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let recorder = FlightRecorder::disabled();
        recorder.record(entry("x", 10));
        assert!(recorder.summaries().is_empty());
        assert!(recorder.lookup("x").is_none());
        assert_eq!(recorder.threshold_ns(), None);
        assert!(!FlightRecorder::default().is_enabled());
    }

    #[test]
    fn detail_jsonl_carries_the_summary_and_the_timeline() {
        let recorder = FlightRecorder::new(4, 4, u64::MAX);
        recorder.record(entry("req-1", 42));
        let record = recorder.lookup("req-1").unwrap();
        let detail = record.detail_jsonl();
        let lines: Vec<&str> = detail.lines().collect();
        assert_eq!(lines.len(), 4);
        let summary = whart_json::Json::parse(lines[0]).unwrap();
        assert_eq!(summary["id"].as_str(), Some("req-1"));
        assert_eq!(summary["total_ns"].as_u64(), Some(42));
        let stages: Vec<whart_json::Json> = lines[1..]
            .iter()
            .map(|l| whart_json::Json::parse(l).unwrap())
            .collect();
        let names: Vec<&str> = stages.iter().filter_map(|s| s["name"].as_str()).collect();
        assert_eq!(names, ["queue_wait", "handler", "write"]);
        assert_eq!(stages[1]["args"]["request_id"].as_str(), Some("req-1"));
        // The stages are the ones the log line times, under the same names.
        let fields = record.log_fields();
        let field = |key| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.as_u64())
        };
        let durations: Vec<Option<u64>> = stages.iter().map(|s| s["dur_ns"].as_u64()).collect();
        assert_eq!(
            durations,
            [field("queue_ns"), field("handler_ns"), field("write_ns")]
        );
    }
}
