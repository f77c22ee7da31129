//! whart-trace: the workspace's structured event journal.
//!
//! `whart-obs` answers *how much* (counters, log2 histograms);
//! this crate answers *why* and *where*: hierarchical spans (scenario →
//! compile → path solve → per-hop link resolution) and typed provenance
//! events — per-hop `p_fl`/`p_rc`, per-cycle transition mass into
//! goal/loss states, transient-step residuals, chain sizes, Monte-Carlo
//! seeds — recorded into per-thread buffers and drained to JSONL or
//! Chrome `trace_event` JSON (loadable in `chrome://tracing`/Perfetto).
//!
//! The contract mirrors the `whart-obs` `Metrics` facade:
//!
//! * [`Trace::disabled`] (the default) carries no journal at all. Every
//!   event site costs a single `Option` branch — no allocation, no clock
//!   read, no lock.
//! * Enabled handles buffer events in thread-local chunks, so the
//!   per-event hot path takes no lock; chunks flush to the shared sink
//!   every [`FLUSH_CHUNK`] events and when a thread exits. Both hold
//!   each event as one packed byte record (about 100 bytes for a
//!   service's request event; the layout is in `packed.rs`), and
//!   [`Trace::drain`] rebuilds the [`TraceEvent`]s.
//! * The journal is bounded: once `capacity` events have been admitted
//!   between drains, further events are counted in
//!   [`TraceLog::dropped`] instead of stored, so a runaway per-slot
//!   instrumentation cannot exhaust memory. Spans, instants and built
//!   events share one admission path that reserves the slot first and
//!   builds the event only after that, so a refused one builds nothing:
//!   a span is admitted or refused once, when it starts, and a refused
//!   span neither clones the ambient context nor materializes its name.
//!   [`Trace::has_room_or_drop`] refuses a whole group of events (e.g.
//!   everything one solve would emit) with one atomic add.
//!
//! Tracing must never perturb results: traced solves are bit-identical
//! to untraced ones (asserted by the backend parity tests in
//! `whart-engine`).
//!
//! ```
//! use whart_trace::Trace;
//!
//! let trace = Trace::new();
//! {
//!     let mut span = trace.span("solve", "solver.fast");
//!     span.arg("hops", 3u64);
//!     trace.instant("hop", "solver.fast", [("p_fl", 0.25.into())]);
//! }
//! let log = trace.drain();
//! assert_eq!(log.len(), 2);
//! assert!(log.to_jsonl().lines().count() == 2);
//!
//! // Disabled: same call sites, no effect, one branch each.
//! let off = Trace::disabled();
//! assert!(!off.span("solve", "solver.fast").is_recording());
//! assert!(off.drain().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod chrome;
mod event;
mod packed;

pub use event::{ArgValue, Phase, TraceEvent, TraceLog};

use packed::{LocalIds, Statics};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Thread-local buffer length at which a chunk is flushed to the shared
/// sink.
pub const FLUSH_CHUNK: usize = 256;

/// Default journal capacity (events admitted between drains).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Source of unique journal identities (thread-local buffers key on
/// these, so a new trace never inherits a dead trace's buffers).
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(0);

/// The journal behind an enabled [`Trace`] handle.
struct Shared {
    id: u64,
    start: Instant,
    capacity: usize,
    /// Events admitted (stored somewhere: local buffers or the sink).
    admitted: AtomicUsize,
    /// Events refused by the capacity bound.
    dropped: AtomicU64,
    /// Next journal-assigned thread id.
    next_tid: AtomicU64,
    /// Flushed events awaiting a drain, as packed records.
    sink: Mutex<Vec<u8>>,
    /// The categories and arg keys the records refer to by id.
    statics: Mutex<Statics>,
    /// Fast-path flag: whether [`Shared::context`] holds anything.
    context_set: AtomicBool,
    /// Ambient arguments stamped on every event created while a
    /// [`ContextGuard`] is in scope (e.g. the request id a service
    /// attaches around an engine drain, so solver spans on pool worker
    /// threads carry it too).
    context: Mutex<Vec<(&'static str, ArgValue)>>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether the journal is at capacity (one atomic load).
    fn is_full(&self) -> bool {
        self.admitted.load(Ordering::Relaxed) >= self.capacity
    }

    /// Takes one capacity slot, or counts the event as dropped and
    /// returns `false` when the journal is full.
    fn reserve(&self) -> bool {
        if !self.is_full() {
            if self.admitted.fetch_add(1, Ordering::Relaxed) < self.capacity {
                return true;
            }
            // Lost a race for the last slot.
            self.admitted.fetch_sub(1, Ordering::Relaxed);
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// The current ambient context arguments (cheap when none are set:
    /// one atomic load, no lock).
    fn context_args(&self) -> Vec<(&'static str, ArgValue)> {
        if self.context_set.load(Ordering::Acquire) {
            self.context.lock().expect("trace context").clone()
        } else {
            Vec::new()
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Vec<LocalBuffer>> = const { RefCell::new(Vec::new()) };
}

/// One thread's pending chunk for one journal.
struct LocalBuffer {
    trace_id: u64,
    shared: Weak<Shared>,
    tid: u64,
    /// Packed records not yet flushed.
    records: Vec<u8>,
    /// How many records `records` holds.
    pending: usize,
    ids: LocalIds,
}

impl LocalBuffer {
    fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        if let Some(shared) = self.shared.upgrade() {
            shared
                .sink
                .lock()
                .expect("trace sink")
                .extend_from_slice(&self.records);
        }
        self.records.clear();
        self.pending = 0;
    }
}

impl Drop for LocalBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Packs an admitted event into this thread's buffer for `shared`,
/// assigning the thread its journal tid on first contact.
fn buffer_event(shared: &Arc<Shared>, event: TraceEvent) {
    let buffered = LOCAL.try_with(|local| {
        let mut buffers = local.borrow_mut();
        let buffer = match buffers.iter_mut().position(|b| b.trace_id == shared.id) {
            Some(i) => &mut buffers[i],
            None => {
                // Registration is rare: prune buffers of dead journals
                // while we are here, then enrol this thread.
                buffers.retain(|b| b.shared.strong_count() > 0);
                buffers.push(LocalBuffer {
                    trace_id: shared.id,
                    shared: Arc::downgrade(shared),
                    tid: shared.next_tid.fetch_add(1, Ordering::Relaxed),
                    records: Vec::new(),
                    pending: 0,
                    ids: LocalIds::default(),
                });
                buffers.last_mut().expect("just pushed")
            }
        };
        packed::encode(&mut buffer.records, &event, buffer.tid, |s| {
            buffer.ids.get(s, &shared.statics)
        });
        buffer.pending += 1;
        if buffer.pending >= FLUSH_CHUNK {
            buffer.flush();
        }
    });
    if buffered.is_err() {
        // Thread-local storage is tearing down (thread exit): bypass the
        // buffer and flush straight to the sink.
        let mut record = Vec::new();
        packed::encode(&mut record, &event, event.tid, |s| {
            shared.statics.lock().expect("trace statics").intern(s)
        });
        shared
            .sink
            .lock()
            .expect("trace sink")
            .extend_from_slice(&record);
    }
}

/// The journal's one admission path: takes a capacity slot of
/// `shared`'s journal and only then builds and buffers the event, or
/// counts the event as dropped, without building it, when the journal
/// is full.
fn emit(shared: &Arc<Shared>, build: impl FnOnce() -> TraceEvent) {
    if shared.reserve() {
        buffer_event(shared, build());
    }
}

/// A cloneable handle to a structured event journal, or a no-op
/// stand-in.
///
/// Cloning shares the journal: events emitted through any clone (on any
/// thread) land in the same drain. The default handle is disabled.
#[derive(Clone, Default)]
pub struct Trace {
    shared: Option<Arc<Shared>>,
}

impl Trace {
    /// A fresh, enabled journal with the default capacity.
    pub fn new() -> Trace {
        Trace::with_capacity(DEFAULT_CAPACITY)
    }

    /// A fresh, enabled journal admitting at most `capacity` events
    /// between drains (clamped to at least one); the overflow is counted
    /// in [`TraceLog::dropped`].
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            shared: Some(Arc::new(Shared {
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                capacity: capacity.max(1),
                admitted: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                next_tid: AtomicU64::new(0),
                sink: Mutex::new(Vec::new()),
                statics: Mutex::new(Statics::default()),
                context_set: AtomicBool::new(false),
                context: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op handle: every event site resolved through it records
    /// nothing and costs one branch.
    pub fn disabled() -> Trace {
        Trace { shared: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Nanoseconds since the journal was created (0 when disabled; the
    /// clock is not read).
    pub fn now_ns(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.now_ns())
    }

    /// Starts a span; the completed duration is recorded when the guard
    /// drops (or via [`TraceSpan::finish`]).
    ///
    /// Admission is decided here, once: the span takes its capacity slot
    /// before anything is built. On a disabled handle, or on a journal
    /// full until the next [`Trace::drain`] (the refusal is counted in
    /// [`TraceLog::dropped`]), the span does not record: the name is not
    /// materialized, the ambient context is not cloned, the clock is not
    /// read and nothing is allocated.
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> TraceSpan {
        TraceSpan {
            inner: self
                .shared
                .as_ref()
                .filter(|shared| shared.reserve())
                .map(|shared| SpanInner {
                    shared: Arc::clone(shared),
                    name: name.into(),
                    cat,
                    start_ns: shared.now_ns(),
                    args: shared.context_args(),
                }),
        }
    }

    /// Whether a group of `events` events would find room, decided once
    /// for the whole group: `true` when the journal has room now (nothing
    /// is reserved — each event still takes its own slot), `false` on a
    /// disabled handle, and `false` on a full journal after counting all
    /// `events` (evaluated only then) in [`TraceLog::dropped`] with one
    /// atomic add.
    ///
    /// A caller that emits a known number of events — a traced solve —
    /// asks once up front and, on `false`, skips building any of them
    /// while the dropped count stays exactly what emitting each one into
    /// the full journal would have made it.
    pub fn has_room_or_drop(&self, events: impl FnOnce() -> u64) -> bool {
        let Some(shared) = &self.shared else {
            return false;
        };
        if shared.is_full() {
            shared.dropped.fetch_add(events(), Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Installs ambient context arguments stamped on every span and
    /// instant created — on any thread — until the returned guard
    /// drops. The canonical use is request correlation: a service sets
    /// `request_id` around an engine drain so every engine and solver
    /// span it produces (including those on pool worker threads)
    /// carries the id without threading it through the solver APIs.
    ///
    /// Scopes restore the previously installed context when they drop,
    /// so nesting is safe; overlapping scopes from *concurrent* threads
    /// are not distinguished — callers serialize scoped work (as the
    /// serve layer does around its engine lock). No-op on disabled
    /// handles; when no scope is active the per-event cost is one
    /// atomic load.
    pub fn context_scope<I>(&self, args: I) -> ContextGuard
    where
        I: IntoIterator<Item = (&'static str, ArgValue)>,
    {
        match &self.shared {
            None => ContextGuard {
                shared: None,
                previous: Vec::new(),
            },
            Some(shared) => {
                let mut context = shared.context.lock().expect("trace context");
                let previous = std::mem::replace(&mut *context, args.into_iter().collect());
                shared
                    .context_set
                    .store(!context.is_empty(), Ordering::Release);
                ContextGuard {
                    shared: Some(Arc::clone(shared)),
                    previous,
                }
            }
        }
    }

    /// Records an instant provenance event: a forward to
    /// [`Trace::instant_with`] with ready-made args. On a disabled handle
    /// or a full journal the name is not materialized and `args` is
    /// dropped unconsumed.
    ///
    /// The args are evaluated before the call, so wherever computing
    /// them costs more than a copy, use [`Trace::instant_with`] instead:
    /// it builds them only for an event the journal admits.
    pub fn instant<I>(&self, name: impl Into<String>, cat: &'static str, args: I)
    where
        I: IntoIterator<Item = (&'static str, ArgValue)>,
    {
        self.instant_with(name, cat, || args);
    }

    /// Records an instant provenance event whose args are built by
    /// `args` — called only once the journal has admitted the event.
    ///
    /// The capacity slot is reserved first. On a disabled handle nothing
    /// happens; on a journal full until the next [`Trace::drain`] the
    /// event costs two atomic operations and is counted in
    /// [`TraceLog::dropped`]. Either way `args` never runs, the ambient
    /// context is not cloned and the name is not materialized. An
    /// admitted event carries the context args first, then `args`'
    /// items, and is timestamped after they are built.
    pub fn instant_with<F, I>(&self, name: impl Into<String>, cat: &'static str, args: F)
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, ArgValue)>,
    {
        let Some(shared) = &self.shared else {
            return;
        };
        emit(shared, || {
            let mut all = shared.context_args();
            all.extend(args());
            TraceEvent {
                name: name.into(),
                cat,
                ph: Phase::Instant,
                ts_ns: shared.now_ns(),
                tid: 0,
                args: all,
            }
        });
    }

    /// Records the event `build` returns — called only once the journal
    /// has admitted it, with the same capacity accounting as
    /// [`Trace::instant_with`]. The event is stored as built: no ambient
    /// context args are added, and only its `tid` is replaced by the
    /// calling thread's journal tid. This is the entry point for a
    /// caller that already knows an event's whole content, e.g. a
    /// service recording a finished request as one [`Phase::Complete`]
    /// event stamped from [`Trace::now_ns`] at the request's start.
    pub fn emit_with(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(shared) = &self.shared {
            emit(shared, build);
        }
    }

    /// Events refused so far by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// Flushes the calling thread's pending chunk to the shared sink.
    ///
    /// Long-lived threads (e.g. `whart serve` HTTP workers) call this at
    /// a natural publication point — after finishing a request — so a
    /// [`Trace::drain`] from *another* thread observes their completed
    /// events without waiting for a [`FLUSH_CHUNK`] boundary or thread
    /// exit. No-op on disabled handles and when nothing is pending.
    pub fn flush(&self) {
        let Some(shared) = &self.shared else {
            return;
        };
        let _ = LOCAL.try_with(|local| {
            let mut buffers = local.borrow_mut();
            if let Some(buffer) = buffers.iter_mut().find(|b| b.trace_id == shared.id) {
                buffer.flush();
            }
        });
    }

    /// Drains the journal: the calling thread's pending chunk is flushed
    /// first, then every event flushed so far is taken, rebuilt from its
    /// packed record and sorted by timestamp, and the capacity budget is
    /// released for them.
    ///
    /// Events still buffered on *other* live threads appear in a later
    /// drain (threads flush every [`FLUSH_CHUNK`] events, on
    /// [`Trace::flush`], and when they exit); the workspace drains after
    /// worker pools have joined, so a post-run drain is complete.
    /// Disabled handles drain empty.
    pub fn drain(&self) -> TraceLog {
        let Some(shared) = &self.shared else {
            return TraceLog::default();
        };
        self.flush();
        let records = std::mem::take(&mut *shared.sink.lock().expect("trace sink"));
        // Copied, so emitters meeting a new key never wait on a decode.
        let statics = shared
            .statics
            .lock()
            .expect("trace statics")
            .strs()
            .to_vec();
        let mut events = packed::decode(&records, &statics);
        shared.admitted.fetch_sub(events.len(), Ordering::Relaxed);
        events.sort_by_key(|a| (a.ts_ns, a.tid));
        TraceLog {
            events,
            dropped: shared.dropped.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Guard for [`Trace::context_scope`]: restores the previously
/// installed ambient context when dropped.
pub struct ContextGuard {
    shared: Option<Arc<Shared>>,
    previous: Vec<(&'static str, ArgValue)>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let mut context = shared.context.lock().expect("trace context");
            *context = std::mem::take(&mut self.previous);
            shared
                .context_set
                .store(!context.is_empty(), Ordering::Release);
        }
    }
}

struct SpanInner {
    shared: Arc<Shared>,
    name: String,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// A scoped span guard; emits a [`Phase::Complete`] event covering its
/// lifetime when dropped.
pub struct TraceSpan {
    inner: Option<SpanInner>,
}

impl TraceSpan {
    /// Whether this span will emit anything (false on disabled handles
    /// and when a full journal refused the span at its start).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a typed argument. On a non-recording span the value is
    /// not converted.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key, value.into()));
        }
    }

    /// Ends the span now (dropping has the same effect).
    pub fn finish(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        // The slot was reserved when the span started.
        if let Some(inner) = self.inner.take() {
            let shared = &inner.shared;
            let event = TraceEvent {
                name: inner.name,
                cat: inner.cat,
                ph: Phase::Complete {
                    dur_ns: shared.now_ns().saturating_sub(inner.start_ns),
                },
                ts_ns: inner.start_ns,
                tid: 0,
                args: inner.args,
            };
            buffer_event(shared, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_record_nothing() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        assert_eq!(trace.now_ns(), 0);
        let mut span = trace.span("s", "t");
        assert!(!span.is_recording());
        span.arg("k", 1u64);
        drop(span);
        trace.instant("i", "t", [("k", 1u64.into())]);
        assert!(trace.drain().is_empty());
        assert_eq!(trace.dropped(), 0);
        assert!(!Trace::default().is_enabled());
    }

    #[test]
    fn spans_and_instants_drain_in_timestamp_order() {
        let trace = Trace::new();
        {
            let mut outer = trace.span("outer", "test");
            outer.arg("k", "v");
            trace.instant("inside", "test", [("n", 3u64.into())]);
        }
        let log = trace.drain();
        assert_eq!(log.len(), 2);
        // The instant starts after the span but drains after it too:
        // span events are stamped at their start.
        assert_eq!(log.events[0].name, "outer");
        assert_eq!(log.events[1].name, "inside");
        assert!(log.events[0].ts_ns <= log.events[1].ts_ns);
        assert_eq!(log.events[0].arg("k").and_then(ArgValue::as_str), Some("v"));
        // Drains consume: a second drain is empty.
        assert!(trace.drain().is_empty());
    }

    #[test]
    fn events_accumulate_across_threads_with_distinct_tids() {
        let trace = Trace::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|worker| {
                    let trace = trace.clone();
                    scope.spawn(move || {
                        for i in 0..10 {
                            trace.instant(format!("w{worker}"), "test", [("i", (i as u64).into())]);
                        }
                    })
                })
                .collect();
            // Join explicitly: the scope's implicit join does not wait
            // for the thread-exit TLS flush that publishes the events.
            for worker in workers {
                worker.join().unwrap();
            }
        });
        let log = trace.drain();
        assert_eq!(log.len(), 40, "threads flush on exit");
        let tids: std::collections::BTreeSet<u64> = log.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "one journal tid per emitting thread");
    }

    #[test]
    fn capacity_bounds_the_journal_and_counts_drops() {
        let trace = Trace::with_capacity(5);
        for i in 0..12u64 {
            trace.instant("e", "test", [("i", i.into())]);
        }
        let log = trace.drain();
        assert_eq!(log.len(), 5);
        assert_eq!(log.dropped, 7);
        assert_eq!(trace.dropped(), 7);
        // Draining releases the budget: the journal admits again.
        trace.instant("after", "test", []);
        assert_eq!(trace.drain().len(), 1);
        let text = trace.drain().to_jsonl();
        assert!(text.contains("trace.dropped"), "{text}");
    }

    #[test]
    fn refused_instants_never_build_their_args() {
        let trace = Trace::with_capacity(1);
        trace.instant("fill", "test", []);
        let built = std::cell::Cell::new(0);
        for expected_dropped in 1..=3 {
            trace.instant_with("refused", "test", || {
                built.set(built.get() + 1);
                [("k", 1u64.into())]
            });
            assert_eq!(trace.dropped(), expected_dropped);
        }
        assert_eq!(built.get(), 0, "a refused event ran its args closure");
        // Draining releases the slot: the same event is admitted again.
        assert_eq!(trace.drain().len(), 1);
        trace.instant_with("admitted", "test", || {
            built.set(built.get() + 1);
            [("k", 1u64.into())]
        });
        assert_eq!(built.get(), 1);
        let log = trace.drain();
        assert_eq!(log.len(), 1);
        assert_eq!(log.events[0].name, "admitted");
        assert_eq!(log.dropped, 3);
    }

    #[test]
    fn spans_are_admitted_or_refused_when_they_start() {
        let trace = Trace::with_capacity(1);
        let _scope = trace.context_scope([("request_id", "req-1".into())]);
        let mut outer = trace.span("outer", "test");
        assert!(outer.is_recording(), "the span took the only slot");
        // Nested events find the journal full while the span is open.
        let mut inner = trace.span("inner", "test");
        assert!(!inner.is_recording());
        inner.arg("k", 1u64);
        drop(inner);
        trace.instant("hop", "test", []);
        assert_eq!(trace.dropped(), 2);
        outer.arg("k", 2u64);
        drop(outer);
        let log = trace.drain();
        assert_eq!(log.len(), 1);
        assert_eq!(log.events[0].name, "outer");
        assert_eq!(
            log.events[0].arg("request_id").and_then(ArgValue::as_str),
            Some("req-1")
        );
        assert_eq!(log.dropped, 2);
    }

    #[test]
    fn a_span_open_across_a_drain_keeps_its_slot() {
        let trace = Trace::with_capacity(1);
        let span = trace.span("open", "test");
        assert!(trace.drain().is_empty());
        trace.instant("refused", "test", []);
        drop(span);
        assert_eq!(trace.drain().len(), 1);
        assert_eq!(trace.dropped(), 1);
    }

    #[test]
    fn has_room_or_drop_refuses_a_whole_group_at_once() {
        let trace = Trace::with_capacity(1);
        assert!(trace.has_room_or_drop(|| panic!("counted with room")));
        trace.instant("fill", "test", []);
        assert!(!trace.has_room_or_drop(|| 7));
        assert!(!trace.has_room_or_drop(|| 3));
        assert_eq!(trace.dropped(), 10);
        assert_eq!(trace.drain().len(), 1);
        assert!(trace.has_room_or_drop(|| 1));
        let off = Trace::disabled();
        assert!(!off.has_room_or_drop(|| panic!("counted on a disabled handle")));
        assert_eq!(off.dropped(), 0);
    }

    #[test]
    fn emit_with_builds_only_admitted_events_and_stores_them_as_built() {
        let trace = Trace::with_capacity(1);
        let _scope = trace.context_scope([("request_id", "ambient".into())]);
        let event = TraceEvent {
            name: "http_request".into(),
            cat: "http",
            ph: Phase::Complete { dur_ns: 50 },
            ts_ns: 7,
            tid: 99,
            args: vec![("request_id", "own".into())],
        };
        trace.emit_with(|| event.clone());
        trace.emit_with(|| panic!("a refused event was built"));
        assert_eq!(trace.dropped(), 1);
        let log = trace.drain();
        let stored = &log.events[0];
        assert_ne!(stored.tid, 99, "the journal assigns the tid");
        let stored_at_tid_99 = TraceEvent {
            tid: 99,
            ..stored.clone()
        };
        assert_eq!(stored_at_tid_99, event, "stored as built, no ambient args");
        Trace::disabled().emit_with(|| panic!("a disabled handle built an event"));
    }

    #[test]
    fn disabled_handles_never_build_instant_args() {
        let trace = Trace::disabled();
        trace.instant_with("e", "test", || -> [(&'static str, ArgValue); 0] {
            panic!("a disabled handle ran its args closure")
        });
        assert!(trace.drain().is_empty());
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn instant_with_builds_the_same_event_as_instant() {
        let trace = Trace::new();
        let _scope = trace.context_scope([("request_id", "req-1".into())]);
        let args = || {
            [
                ("p_fl", ArgValue::from(0.25)),
                ("hop", ArgValue::from(2u64)),
            ]
        };
        trace.instant("hop", "solver.fast", args());
        trace.instant_with("hop", "solver.fast", args);
        let log = trace.drain();
        assert_eq!(log.len(), 2);
        let (eager, lazy) = (&log.events[0], &log.events[1]);
        let lazy_at_eager_ts = TraceEvent {
            ts_ns: eager.ts_ns,
            ..lazy.clone()
        };
        assert_eq!(&lazy_at_eager_ts, eager, "only the timestamp differs");
        assert_eq!(
            lazy.args.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            ["request_id", "p_fl", "hop"],
            "context args come first"
        );
    }

    #[test]
    fn chunked_flushing_reaches_the_sink_mid_thread() {
        let trace = Trace::new();
        for _ in 0..(FLUSH_CHUNK + 3) {
            trace.instant("e", "test", []);
        }
        // The first FLUSH_CHUNK events flushed; the rest are drained from
        // this thread's live buffer.
        let log = trace.drain();
        assert_eq!(log.len(), FLUSH_CHUNK + 3);
    }

    #[test]
    fn flush_publishes_a_live_threads_events_to_another_threads_drain() {
        let trace = Trace::new();
        let worker = trace.clone();
        let (flushed_tx, flushed_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            worker.instant("from-worker", "test", []);
            worker.flush();
            flushed_tx.send(()).unwrap();
            // Stay alive through the drain: visibility must come from the
            // explicit flush, not from thread-exit teardown.
            done_rx.recv().unwrap();
        });
        flushed_rx.recv().unwrap();
        let log = trace.drain();
        assert_eq!(log.len(), 1, "flushed event visible before thread exit");
        assert_eq!(log.events[0].name, "from-worker");
        done_tx.send(()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn clones_share_one_journal() {
        let trace = Trace::new();
        trace.clone().instant("a", "test", []);
        trace.instant("b", "test", []);
        assert_eq!(trace.drain().len(), 2);
    }

    #[test]
    fn context_scope_stamps_events_on_every_thread() {
        let trace = Trace::new();
        {
            let _scope = trace.context_scope([("request_id", "req-7".into())]);
            let mut span = trace.span("drain", "engine");
            span.arg("scenarios", 1u64);
            drop(span);
            std::thread::scope(|s| {
                let worker = trace.clone();
                // Join explicitly: the scope's implicit join does not wait
                // for the thread-exit TLS flush that publishes the event.
                s.spawn(move || worker.instant("hop", "solver.fast", [("slot", 3u64.into())]))
                    .join()
                    .unwrap();
            });
        }
        // After the scope: no stamping.
        trace.instant("outside", "test", []);
        let log = trace.drain();
        assert_eq!(log.len(), 3);
        for name in ["drain", "hop"] {
            let event = log.named(name).next().unwrap();
            assert_eq!(
                event.arg("request_id").and_then(ArgValue::as_str),
                Some("req-7"),
                "{name} missing the ambient request id"
            );
        }
        let span = log.named("drain").next().unwrap();
        assert_eq!(span.arg("scenarios").and_then(ArgValue::as_u64), Some(1));
        assert!(log.named("outside").next().unwrap().args.is_empty());
    }

    #[test]
    fn context_scopes_nest_and_restore() {
        let trace = Trace::new();
        let outer = trace.context_scope([("request_id", "outer".into())]);
        {
            let _inner = trace.context_scope([("request_id", "inner".into())]);
            trace.instant("a", "test", []);
        }
        trace.instant("b", "test", []);
        drop(outer);
        trace.instant("c", "test", []);
        let log = trace.drain();
        let id_of = |name: &str| {
            log.named(name)
                .next()
                .unwrap()
                .arg("request_id")
                .and_then(ArgValue::as_str)
                .map(str::to_owned)
        };
        assert_eq!(id_of("a").as_deref(), Some("inner"));
        assert_eq!(id_of("b").as_deref(), Some("outer"));
        assert_eq!(id_of("c"), None);
    }

    #[test]
    fn context_scope_on_a_disabled_handle_is_a_no_op() {
        let trace = Trace::disabled();
        let _scope = trace.context_scope([("request_id", "x".into())]);
        trace.instant("e", "test", []);
        assert!(trace.drain().is_empty());
    }

    #[test]
    fn capacity_is_clamped_positive() {
        let trace = Trace::with_capacity(0);
        trace.instant("e", "test", []);
        assert_eq!(trace.drain().len(), 1);
    }
}
