//! whart-serve: a dependency-free HTTP/1.1 service framework for the
//! WirelessHART workspace.
//!
//! The `whart serve` subcommand wraps this crate around the evaluation
//! engine to form a long-running service whose caches stay warm across
//! requests. The framework itself knows nothing about network specs —
//! it provides the machinery a production-traffic internal service
//! needs, on `std` alone (consistent with the workspace's
//! offline/vendored dependency policy):
//!
//! * [`http`] — HTTP/1.1 request parsing and response writing:
//!   keep-alive/`Connection` semantics, hardened `Content-Length`
//!   validation, query strings, and chunked streaming for large
//!   response bodies.
//! * `conn` (private) — persistent-connection framing: a cross-request
//!   receive buffer (pipelining) and deadline-bounded reads and writes.
//! * `poll` (private) — readiness polling via a thin libc-free `poll(2)`
//!   shim, plus the Unix-socket wake pipe one thread uses to interrupt
//!   another's poll (workers wake the event loop, the event loop wakes a
//!   worker holding an idle connection).
//! * [`router`] — exact-path routing with stable route labels for
//!   metric cardinality control.
//! * [`server`] — the event loop and worker pool: while no more
//!   connections are open than workers, a worker keeps an idle keep-alive
//!   connection and serves its next request itself, handing it back to
//!   the event loop only when another connection needs the worker, when
//!   it expires, or at drain; a bounded dispatch
//!   queue with `503` + `Retry-After` admission control (held idle
//!   connections take no slot), built-in `GET /healthz` / `GET /readyz` probes
//!   (health flips to 503 once drain begins), per-request metrics and
//!   journal events on the shared [`whart_obs::Metrics`] /
//!   [`whart_trace::Trace`] facades, and graceful shutdown that drains
//!   every dispatched connection before [`server::Server::serve`]
//!   returns.
//! * [`signal`] — SIGINT observation (no libc dependency) so Ctrl-C
//!   triggers the same drain as `POST /admin/shutdown`.
//! * [`record`] — the one record the middleware keeps per request, from
//!   which the journal event, the log line and the flight entry render.
//! * [`log`] — the structured request log: leveled JSONL lines through
//!   one mutex-guarded sink.
//! * [`flight`] — the tail-sampled flight recorder: per-request stage
//!   timelines for the last N requests plus retained-slow outliers,
//!   addressable by correlation id.
//! * [`windows`] — per-route sliding-window rollups (requests, errors,
//!   latency quantiles, SLO misses) for `/statusz` and the
//!   `http.*.window30s` gauges.
//!
//! Every request is assigned (or propagates) an `X-Request-Id`
//! correlation id, returned on all responses — including protocol
//! errors and `503` queue-overflow rejections — and stamped on the
//! request's journal event, its structured log line, and its flight
//! recorder entry.
//!
//! The crate is Unix only: its event loop waits on sockets with
//! `poll(2)` and it catches Ctrl-C with `signal(2)`.
//!
//! ```no_run
//! use whart_serve::{Response, Router, Server, ServerConfig};
//!
//! let mut server = Server::bind(&ServerConfig::default()).unwrap();
//! let shutdown = server.shutdown();
//! server.set_router(Router::new().route("POST", "/admin/shutdown", move |_req| {
//!     shutdown.set();
//!     Response::text(202, "draining\n")
//! }));
//! server.ready().set(); // readiness usually flips after a self-check
//! server.serve().unwrap();
//! ```

#![deny(unsafe_code)] // `signal` and `poll` opt out locally for their shims.
#![warn(missing_docs)]
#![warn(unreachable_pub)]

#[cfg(not(unix))]
compile_error!("whart-serve is Unix only: its event loop waits on sockets with poll(2)");

mod conn;
pub mod flight;
pub mod http;
pub mod log;
mod poll;
pub mod record;
pub mod router;
pub mod server;
pub mod signal;
pub mod windows;

pub use flight::FlightRecorder;
pub use http::{Request, RequestError, Response};
pub use record::RequestRecord;
pub use router::{Handler, Router};
pub use server::{next_request_id, Flag, Server, ServerConfig};
pub use windows::{HttpWindows, RouteWindow};
