//! whart-obs: the workspace's metrics and timing facade.
//!
//! Production fleets need to see where solve time goes — cache hit
//! rates, per-backend solve latencies, compile vs. solve splits — but
//! the hot paths must not pay for that visibility when nobody is
//! looking. This crate provides exactly that trade:
//!
//! * [`Metrics`] — a cloneable handle to a named-instrument registry.
//!   [`Metrics::disabled`] (the default) carries no registry at all:
//!   every instrument resolved through it is a no-op whose record path
//!   is a single `Option` branch, no locks, no clock reads, no
//!   allocation.
//! * [`Counter`] / [`Gauge`] — atomic monotone counts and last-written
//!   values.
//! * [`Histogram`] — fixed log2-bucket latency/size histograms with an
//!   explicit overflow bucket, exact `count`/`sum`/`min`/`max`.
//! * [`SpanTimer`] — a scoped guard recording elapsed nanoseconds into
//!   a histogram when dropped. On a disabled handle the clock is never
//!   read.
//! * [`MetricsSnapshot`] — a point-in-time copy of every instrument,
//!   serializable to and from JSON (machine-readable CLI/CI artifacts).
//! * [`RollingCounter`] / [`RollingHistogram`] — sliding-window
//!   instruments (a ring of K sub-windows over an explicit clock) for
//!   "last 30 seconds" views next to the cumulative ones.
//!
//! Instrument handles resolve their storage once — hot loops should
//! resolve outside the loop and reuse the handle; each record is then
//! lock-free.
//!
//! ```
//! use whart_obs::Metrics;
//!
//! let metrics = Metrics::new();
//! metrics.counter("engine.path_cache.hits").add(3);
//! {
//!     let _span = metrics.histogram("engine.fast.path_solve_ns").start();
//!     // ... timed work ...
//! }
//! let snapshot = metrics.snapshot();
//! assert_eq!(snapshot.counter("engine.path_cache.hits"), Some(3));
//! assert_eq!(snapshot.histogram("engine.fast.path_solve_ns").unwrap().count, 1);
//!
//! // Disabled: same call sites, no effect, no cost beyond one branch.
//! let off = Metrics::disabled();
//! off.counter("engine.path_cache.hits").add(3);
//! assert!(off.snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod histogram;
pub mod prometheus;
mod snapshot;
pub mod window;

pub use histogram::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
pub use snapshot::MetricsSnapshot;
pub use window::{RollingCounter, RollingHistogram, DEFAULT_SUB_WINDOWS};

use histogram::HistogramCore;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::LocalKey;
use std::time::Instant;

/// One kind of instrument, by name.
type Table<T> = Mutex<HashMap<Arc<str>, Arc<T>>>;

/// The named-instrument registry behind an enabled [`Metrics`] handle.
struct Registry {
    /// Tells registries apart in the per-thread lookup caches.
    id: u64,
    counters: Table<AtomicU64>,
    gauges: Table<AtomicU64>,
    histograms: Table<HistogramCore>,
}

/// Source of [`Registry::id`]s.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(0);

/// How many recent lookups of each instrument kind a thread remembers:
/// enough for every instrument one engine drain or request resolves.
const RECENT: usize = 16;

/// A thread's recent lookups of one instrument kind, newest last:
/// `(registry id, name, instrument)`. A registry never forgets a name,
/// so an entry stays right for as long as it is cached.
type Recent<T> = RefCell<Vec<(u64, Arc<str>, Arc<T>)>>;

thread_local! {
    static RECENT_COUNTERS: Recent<AtomicU64> = const { RefCell::new(Vec::new()) };
    static RECENT_GAUGES: Recent<AtomicU64> = const { RefCell::new(Vec::new()) };
    static RECENT_HISTOGRAMS: Recent<HistogramCore> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the instrument named `name` in `table` of registry `id`,
/// created on first use. A name this thread resolved recently is found
/// in `recent` without locking, hashing or touching the instrument's
/// reference count; a registered name is found without allocating; only
/// a new name is copied into the table.
fn with_instrument<T: Default, R>(
    id: u64,
    table: &Table<T>,
    recent: &'static LocalKey<Recent<T>>,
    name: &str,
    f: impl FnOnce(&Arc<T>) -> R,
) -> R {
    let mut f = Some(f);
    let cached = recent.try_with(|recent| {
        recent
            .borrow()
            .iter()
            .rev()
            .find(|(registry, key, _)| *registry == id && **key == *name)
            .map(|(_, _, instrument)| (f.take().expect("called once"))(instrument))
    });
    if let Ok(Some(result)) = cached {
        return result;
    }
    let (key, instrument) = {
        let mut table = table.lock().expect("metrics lock");
        match table.get_key_value(name) {
            Some((key, instrument)) => (Arc::clone(key), Arc::clone(instrument)),
            None => {
                let key: Arc<str> = Arc::from(name);
                let instrument = Arc::clone(table.entry(Arc::clone(&key)).or_default());
                (key, instrument)
            }
        }
    };
    let result = (f.take().expect("called once"))(&instrument);
    let _ = recent.try_with(|recent| {
        let mut recent = recent.borrow_mut();
        if recent.len() == RECENT {
            recent.remove(0);
        }
        recent.push((id, key, instrument));
    });
    result
}

/// A cloneable handle to a metrics registry, or a no-op stand-in.
///
/// Cloning shares the registry: instruments resolved through any clone
/// land in the same snapshot. The default handle is disabled.
#[derive(Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<Registry>>,
}

impl Metrics {
    /// A fresh, enabled registry.
    pub fn new() -> Metrics {
        Metrics {
            registry: Some(Arc::new(Registry {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                counters: Table::default(),
                gauges: Table::default(),
                histograms: Table::default(),
            })),
        }
    }

    /// The no-op handle: every instrument resolved through it records
    /// nothing and costs one branch per operation.
    pub fn disabled() -> Metrics {
        Metrics { registry: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolves (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self
                .registry
                .as_ref()
                .map(|r| with_instrument(r.id, &r.counters, &RECENT_COUNTERS, name, Arc::clone)),
        }
    }

    /// Resolves (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self
                .registry
                .as_ref()
                .map(|r| with_instrument(r.id, &r.gauges, &RECENT_GAUGES, name, Arc::clone)),
        }
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            core: self.registry.as_ref().map(|r| {
                with_instrument(r.id, &r.histograms, &RECENT_HISTOGRAMS, name, Arc::clone)
            }),
        }
    }

    /// Adds `n` events to the counter named `name`: the same as
    /// `counter(name).add(n)` without a handle to clone and drop, for a
    /// name recorded once per call site.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.registry {
            with_instrument(r.id, &r.counters, &RECENT_COUNTERS, name, |cell| {
                cell.fetch_add(n, Ordering::Relaxed);
            });
        }
    }

    /// Records one observation into the histogram named `name`: the
    /// same as `histogram(name).record(value)` without a handle.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(r) = &self.registry {
            with_instrument(r.id, &r.histograms, &RECENT_HISTOGRAMS, name, |core| {
                core.record(value);
            });
        }
    }

    /// A point-in-time copy of every instrument. Empty for disabled
    /// handles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(registry) = &self.registry else {
            return MetricsSnapshot::default();
        };
        let counters = registry
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = registry
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = registry
            .histograms
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A monotone event counter.
#[derive(Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    pub fn increment(&self) {
        self.add(1);
    }
}

/// A last-written value.
#[derive(Clone)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.store(value, Ordering::Relaxed);
        }
    }
}

/// A fixed log2-bucket histogram of non-negative values (latencies in
/// nanoseconds, sizes, counts).
#[derive(Clone)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.record(value);
        }
    }

    /// Starts a span whose elapsed nanoseconds are recorded here when
    /// the guard drops. On a disabled histogram the clock is not read.
    pub fn start(&self) -> SpanTimer {
        SpanTimer {
            start: self.core.as_ref().map(|_| Instant::now()),
            histogram: self.clone(),
        }
    }
}

/// A scoped timer; records elapsed nanoseconds into its histogram on
/// drop (or explicitly via [`SpanTimer::stop`]).
pub struct SpanTimer {
    histogram: Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Stops the span now, recording the elapsed nanoseconds.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(start) = self.start.take() {
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.histogram.record(elapsed);
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let metrics = Metrics::new();
        let a = metrics.counter("events");
        let b = metrics.clone().counter("events");
        a.add(2);
        b.increment();
        assert_eq!(metrics.snapshot().counter("events"), Some(3));
    }

    #[test]
    fn recent_lookups_never_cross_registries_or_names() {
        let a = Metrics::new();
        let b = Metrics::new();
        // More names than a thread remembers, resolved twice over, in
        // both registries.
        for round in 0..2 {
            for i in 0..(2 * RECENT as u64) {
                a.counter(&format!("c{i}")).add(i);
                b.counter(&format!("c{i}")).add(100 + i);
                a.gauge(&format!("c{i}")).set(round);
            }
        }
        let (a, b) = (a.snapshot(), b.snapshot());
        for i in 0..(2 * RECENT as u64) {
            let name = format!("c{i}");
            assert_eq!(a.counter(&name), Some(2 * i));
            assert_eq!(b.counter(&name), Some(2 * (100 + i)));
            assert_eq!(a.gauge(&name), Some(1), "gauges are a separate table");
        }
    }

    #[test]
    fn by_name_recording_matches_handles() {
        let metrics = Metrics::new();
        metrics.add("events", 2);
        metrics.counter("events").add(3);
        metrics.record("size", 7);
        metrics.histogram("size").record(9);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("events"), Some(5));
        let size = snapshot.histogram("size").unwrap();
        assert_eq!((size.count, size.sum, size.min, size.max), (2, 16, 7, 9));
        let off = Metrics::disabled();
        off.add("events", 1);
        off.record("size", 1);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let metrics = Metrics::new();
        let g = metrics.gauge("depth");
        g.set(5);
        assert_eq!(metrics.snapshot().gauge("depth"), Some(5));
        g.set(3);
        assert_eq!(metrics.snapshot().gauge("depth"), Some(3));
    }

    #[test]
    fn timers_record_into_histograms() {
        let metrics = Metrics::new();
        {
            let _span = metrics.histogram("work_ns").start();
        }
        metrics.histogram("work_ns").start().stop();
        let snapshot = metrics.snapshot();
        let h = snapshot.histogram("work_ns").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.sum >= h.min);
    }

    #[test]
    fn disabled_handles_record_nothing_and_read_no_clock() {
        let metrics = Metrics::disabled();
        assert!(!metrics.is_enabled());
        metrics.counter("c").add(7);
        metrics.gauge("g").set(7);
        metrics.histogram("h").record(7);
        let span = metrics.histogram("t").start();
        assert!(span.start.is_none(), "disabled spans never touch the clock");
        drop(span);
        assert!(metrics.snapshot().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Metrics::default().is_enabled());
    }
}
