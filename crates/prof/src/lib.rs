//! Zero-cost-when-disabled sampling profiler for the whart workspace.
//!
//! An observability facade alongside `whart-obs` (metrics) and
//! `whart-trace` (event journal). A
//! [`Profiler`] is a handle around `Option<Arc<Shared>>`: the default
//! [`Profiler::disabled`] handle records nothing, allocates nothing and
//! reads no clocks, so instrumented hot paths cost a branch when
//! profiling is off.
//!
//! Instead of signals and stack unwinding (which need `unsafe`, libc
//! and debug info), instrumented threads publish a bounded, lock-free
//! **activity stack** of interned frame labels: entering a region pushes
//! a [`Frame`] via [`Profiler::enter`] and the returned [`ProfGuard`]
//! pops it on drop. A capture ([`Profiler::start_capture`]) runs a
//! sampler thread that wakes at a fixed rate, snapshots every live
//! activity stack and folds the observations into stack counts, which
//! render as flamegraph-compatible collapsed text (`a;b;c 42`, one line
//! per distinct stack — see [`Profile::to_folded`]) or as a JSON profile
//! with per-thread and per-frame totals ([`Profile::to_json`]).
//!
//! Because only instrumented regions are visible, this is a wall-clock
//! *activity* profiler: threads with an empty activity stack (parked
//! workers, idle keep-alive handlers) contribute no samples, and a
//! sample attributes the whole tick to whatever stack the thread had
//! published at that instant. Stacks are read racily (the owner thread
//! never blocks on the sampler); a torn read can at worst attribute one
//! tick to a transiently inconsistent stack, which is noise at any
//! realistic rate.
//!
//! The crate also ships process resource telemetry read from `/proc`
//! ([`ProcessStats`], [`ResourceSampler`]) so servers can export
//! `process_*` gauges without libc.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use whart_json::Json;

/// Default sampling rate for captures, in samples per second. A prime
/// just under 1 kHz, so the sampler never locks phase with millisecond-
/// periodic work (timer wheels, batch ticks) and systematically over- or
/// under-samples it.
pub const DEFAULT_HZ: u32 = 997;

/// Frames deeper than this are counted but not recorded; the sampler
/// sees the stack truncated at this depth. Instrumentation nests a
/// handful of levels (command > stage > solver > kernel), so 32 leaves
/// generous headroom.
pub const MAX_DEPTH: usize = 32;

/// Hard cap on distinct interned frame labels; labels are static
/// (instrumentation sites, not data), so hitting this means a bug.
const MAX_FRAMES: usize = u16::MAX as usize;

/// Replaces every character that would corrupt the folded-stack text
/// format (`;` separates frames, whitespace separates the count, and
/// newlines separate records) with `_`. Applied when a label is
/// interned, so hostile names can never reach an emitter.
pub fn sanitize_frame(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect();
    if cleaned.is_empty() {
        "_".to_string()
    } else {
        cleaned
    }
}

/// An interned activity-frame label, resolved once via
/// [`Profiler::frame`] and cheap to copy into hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame(u16);

/// One thread's published activity stack: a fixed ring of frame ids
/// plus a depth counter. Only the owner thread writes; the sampler
/// reads racily (Acquire on `depth` pairs with the owner's Release, so
/// a frame store is visible before the depth that exposes it).
struct ThreadSlot {
    name: Arc<str>,
    depth: AtomicUsize,
    frames: [AtomicU16; MAX_DEPTH],
    dead: AtomicBool,
}

impl ThreadSlot {
    fn new(name: Arc<str>) -> ThreadSlot {
        ThreadSlot {
            name,
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU16::new(0)),
            dead: AtomicBool::new(false),
        }
    }

    fn push(&self, frame: u16) {
        let depth = self.depth.load(Ordering::Relaxed);
        if depth < MAX_DEPTH {
            self.frames[depth].store(frame, Ordering::Relaxed);
        }
        self.depth.store(depth + 1, Ordering::Release);
    }

    fn pop(&self) {
        let depth = self.depth.load(Ordering::Relaxed);
        self.depth.store(depth.saturating_sub(1), Ordering::Release);
    }

    /// Racy snapshot of the stack, root-first; empty when idle.
    fn sample(&self, out: &mut Vec<u16>) {
        out.clear();
        let depth = self.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        for slot in &self.frames[..depth] {
            out.push(slot.load(Ordering::Relaxed));
        }
    }
}

/// Interned frame labels: id assignment is first-come, lookups by name.
#[derive(Default)]
struct FrameTable {
    names: Vec<String>,
    index: HashMap<String, u16>,
}

struct Shared {
    /// Distinguishes profilers in the per-thread slot cache.
    id: u64,
    frames: Mutex<FrameTable>,
    threads: Mutex<Vec<Arc<ThreadSlot>>>,
}

static NEXT_PROFILER_ID: AtomicUsize = AtomicUsize::new(1);
static NEXT_ANON_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT_CACHE: std::cell::RefCell<SlotCache> =
        const { std::cell::RefCell::new(SlotCache(Vec::new())) };
}

/// Per-thread cache of (profiler id, slot). Dropping it (thread exit)
/// empties and tombstones the slots so samplers skip them and the next
/// registration sweeps them out of the shared list.
struct SlotCache(Vec<(u64, Arc<ThreadSlot>)>);

impl Drop for SlotCache {
    fn drop(&mut self) {
        for (_, slot) in &self.0 {
            slot.depth.store(0, Ordering::Release);
            slot.dead.store(true, Ordering::Release);
        }
    }
}

impl Shared {
    /// The calling thread's activity slot for this profiler, registering
    /// (and naming) it on first use. The fast path is one thread-local
    /// lookup; the shared list is only locked on registration.
    fn slot(self: &Arc<Self>) -> Arc<ThreadSlot> {
        SLOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, slot)) = cache.0.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(slot);
            }
            let name: Arc<str> = match std::thread::current().name() {
                Some(name) => sanitize_frame(name).into(),
                None => {
                    let n = NEXT_ANON_THREAD.fetch_add(1, Ordering::Relaxed);
                    format!("thread-{n}").into()
                }
            };
            let slot = Arc::new(ThreadSlot::new(name));
            let mut threads = self.threads.lock().expect("profiler thread list poisoned");
            threads.retain(|s| !s.dead.load(Ordering::Acquire));
            threads.push(Arc::clone(&slot));
            drop(threads);
            cache.0.push((self.id, Arc::clone(&slot)));
            slot
        })
    }
}

/// Handle to a (possibly disabled) profiler. Cloning shares the
/// underlying state; the [`Profiler::disabled`] / [`Default`] handle
/// is inert and free.
#[derive(Clone, Default)]
pub struct Profiler {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Profiler {
    /// Creates an enabled profiler with an empty frame table.
    pub fn new() -> Profiler {
        Profiler {
            shared: Some(Arc::new(Shared {
                id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed) as u64,
                frames: Mutex::new(FrameTable::default()),
                threads: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The inert handle: every operation is a no-op.
    pub fn disabled() -> Profiler {
        Profiler { shared: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Interns `name` (sanitized via [`sanitize_frame`]) and returns its
    /// [`Frame`]. Takes a lock — resolve frames once per drain/request,
    /// outside hot loops. On a disabled handle this returns an inert
    /// frame without locking anything.
    pub fn frame(&self, name: &str) -> Frame {
        let Some(shared) = &self.shared else {
            return Frame(0);
        };
        let clean = sanitize_frame(name);
        let mut table = shared.frames.lock().expect("profiler frame table poisoned");
        if let Some(&id) = table.index.get(&clean) {
            return Frame(id);
        }
        if table.names.len() >= MAX_FRAMES {
            // Static instrumentation sites can't realistically get here;
            // collapse the overflow onto the last interned label rather
            // than panicking in a profiler.
            return Frame((MAX_FRAMES - 1) as u16);
        }
        let id = table.names.len() as u16;
        table.names.push(clean.clone());
        table.index.insert(clean, id);
        Frame(id)
    }

    /// Pushes `frame` onto the calling thread's activity stack,
    /// returning a guard that pops it on drop. On a disabled handle this
    /// touches no thread-local state and costs one branch.
    pub fn enter(&self, frame: Frame) -> ProfGuard {
        let Some(shared) = &self.shared else {
            return ProfGuard { slot: None };
        };
        let slot = shared.slot();
        slot.push(frame.0);
        ProfGuard { slot: Some(slot) }
    }

    /// Starts a sampling capture at `hz` samples per second (clamped to
    /// at least 1), or `None` on a disabled handle. Concurrent captures
    /// on one profiler are independent — a long-lived `--profile`
    /// capture and an on-demand `/v1/debug/profile` capture can overlap.
    pub fn start_capture(&self, hz: u32) -> Option<Capture> {
        let shared = Arc::clone(self.shared.as_ref()?);
        let hz = hz.max(1);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_sampler = Arc::clone(&stop);
        let sampler_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("whart-prof-sampler".to_string())
            .spawn(move || {
                let period = Duration::from_secs_f64(1.0 / f64::from(hz));
                let mut acc: HashMap<Arc<str>, ThreadAcc> = HashMap::new();
                let mut scratch: Vec<u16> = Vec::with_capacity(MAX_DEPTH);
                let (lock, cvar) = &*stop_sampler;
                loop {
                    sample_once(&sampler_shared, &mut acc, &mut scratch);
                    let stopped = lock.lock().expect("capture stop flag poisoned");
                    if *stopped {
                        break;
                    }
                    let (stopped, _) = cvar
                        .wait_timeout(stopped, period)
                        .expect("capture stop flag poisoned");
                    if *stopped {
                        break;
                    }
                }
                acc
            })
            .expect("spawn profiler sampler thread");
        Some(Capture {
            shared,
            stop,
            handle: Some(handle),
            hz,
            started: Instant::now(),
        })
    }
}

/// Per-thread sample accumulator inside a running capture.
#[derive(Default)]
struct ThreadAcc {
    samples: u64,
    stacks: HashMap<Vec<u16>, u64>,
}

/// One sampler tick: fold every live, non-idle activity stack.
fn sample_once(shared: &Shared, acc: &mut HashMap<Arc<str>, ThreadAcc>, scratch: &mut Vec<u16>) {
    let threads = shared
        .threads
        .lock()
        .expect("profiler thread list poisoned");
    for slot in threads.iter() {
        if slot.dead.load(Ordering::Acquire) {
            continue;
        }
        slot.sample(scratch);
        if scratch.is_empty() {
            continue;
        }
        let thread = acc.entry(Arc::clone(&slot.name)).or_default();
        thread.samples += 1;
        *thread.stacks.entry(scratch.clone()).or_insert(0) += 1;
    }
}

/// Pops the frame pushed by [`Profiler::enter`] on drop. Not `Send`:
/// the pop must happen on the thread that pushed.
pub struct ProfGuard {
    slot: Option<Arc<ThreadSlot>>,
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            slot.pop();
        }
    }
}

/// A running sampling capture; stop it to obtain the [`Profile`].
/// Dropping a capture without stopping signals the sampler to exit and
/// discards its samples.
pub struct Capture {
    shared: Arc<Shared>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<HashMap<Arc<str>, ThreadAcc>>>,
    hz: u32,
    started: Instant,
}

impl Capture {
    /// Signals the sampler, joins it and renders the accumulated
    /// samples.
    pub fn stop(mut self) -> Profile {
        let acc = self.halt();
        let duration = self.started.elapsed();
        let names = {
            let table = self
                .shared
                .frames
                .lock()
                .expect("profiler frame table poisoned");
            table.names.clone()
        };
        let resolve = |id: &u16| -> String {
            names
                .get(*id as usize)
                .cloned()
                .unwrap_or_else(|| "?".to_string())
        };
        let mut threads: Vec<ThreadProfile> = acc
            .into_iter()
            .map(|(name, thread)| {
                let mut stacks: Vec<(Vec<String>, u64)> = thread
                    .stacks
                    .into_iter()
                    .map(|(ids, count)| (ids.iter().map(resolve).collect(), count))
                    .collect();
                stacks.sort();
                ThreadProfile {
                    name: name.to_string(),
                    samples: thread.samples,
                    stacks,
                }
            })
            .collect();
        threads.sort_by(|a, b| a.name.cmp(&b.name));
        Profile {
            hz: self.hz,
            duration,
            threads,
        }
    }

    fn halt(&mut self) -> HashMap<Arc<str>, ThreadAcc> {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("capture stop flag poisoned") = true;
        cvar.notify_all();
        match self.handle.take() {
            Some(handle) => handle.join().expect("profiler sampler does not panic"),
            None => HashMap::new(),
        }
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.halt();
        }
    }
}

/// A per-thread profile over one capture's samples. All fields are
/// public so captures can be synthesized in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadProfile {
    /// Sanitized thread name (the folded root frame).
    pub name: String,
    /// Ticks on which this thread had a non-empty activity stack.
    pub samples: u64,
    /// Distinct observed stacks, root-first, with their sample counts.
    pub stacks: Vec<(Vec<String>, u64)>,
}

/// The rendered result of a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Sampling rate the capture ran at.
    pub hz: u32,
    /// Wall-clock duration of the capture.
    pub duration: Duration,
    /// Per-thread stack counts, sorted by thread name.
    pub threads: Vec<ThreadProfile>,
}

impl Profile {
    /// Total samples across all threads.
    pub fn total_samples(&self) -> u64 {
        self.threads.iter().map(|t| t.samples).sum()
    }

    /// Inclusive sample count of `frame` (ticks whose stack contains
    /// it, on any thread; a stack counts once even if the frame
    /// repeats).
    pub fn frame_total(&self, frame: &str) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| &t.stacks)
            .filter(|(stack, _)| stack.iter().any(|f| f == frame))
            .map(|(_, count)| count)
            .sum()
    }

    /// Samples attributed to threads whose name starts with `prefix`
    /// (e.g. `whart-worker-` for the engine pool).
    pub fn thread_samples(&self, prefix: &str) -> u64 {
        self.threads
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.samples)
            .sum()
    }

    /// Flamegraph-collapsed text: one `thread;frame;frame count` line
    /// per distinct stack, the thread name as the root frame, sorted
    /// for determinism. Frame names are sanitized at interning, so no
    /// frame ever contains `;`, whitespace or a newline.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for thread in &self.threads {
            for (stack, count) in &thread.stacks {
                out.push_str(&thread.name);
                for frame in stack {
                    out.push(';');
                    out.push_str(frame);
                }
                out.push(' ');
                out.push_str(&count.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// JSON profile: capture parameters, per-thread stacks and
    /// per-frame inclusive/self totals.
    pub fn to_json(&self) -> Json {
        let mut inclusive: HashMap<&str, u64> = HashMap::new();
        let mut self_total: HashMap<&str, u64> = HashMap::new();
        for thread in &self.threads {
            for (stack, count) in &thread.stacks {
                let mut seen: Vec<&str> = Vec::with_capacity(stack.len());
                for frame in stack {
                    if !seen.contains(&frame.as_str()) {
                        seen.push(frame);
                        *inclusive.entry(frame).or_insert(0) += count;
                    }
                }
                if let Some(leaf) = stack.last() {
                    *self_total.entry(leaf).or_insert(0) += count;
                }
            }
        }
        let mut frames: Vec<(&str, u64)> = inclusive.into_iter().collect();
        frames.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        Json::object([
            ("hz", Json::Number(f64::from(self.hz))),
            (
                "duration_ms",
                Json::Number(self.duration.as_secs_f64() * 1e3),
            ),
            ("total_samples", Json::Number(self.total_samples() as f64)),
            (
                "threads",
                Json::Array(
                    self.threads
                        .iter()
                        .map(|t| {
                            Json::object([
                                ("name", Json::String(t.name.clone())),
                                ("samples", Json::Number(t.samples as f64)),
                                (
                                    "stacks",
                                    Json::Array(
                                        t.stacks
                                            .iter()
                                            .map(|(stack, count)| {
                                                Json::object([
                                                    (
                                                        "frames",
                                                        Json::Array(
                                                            stack
                                                                .iter()
                                                                .map(|f| Json::String(f.clone()))
                                                                .collect(),
                                                        ),
                                                    ),
                                                    ("count", Json::Number(*count as f64)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "frames",
                Json::Array(
                    frames
                        .iter()
                        .map(|(name, total)| {
                            Json::object([
                                ("name", Json::String((*name).to_string())),
                                ("total", Json::Number(*total as f64)),
                                (
                                    "self",
                                    Json::Number(self_total.get(name).copied().unwrap_or(0) as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Parses flamegraph-collapsed text back into `(stack, count)` records
/// (the thread root frame is `stack[0]`). Blank lines are skipped.
///
/// # Errors
///
/// Rejects lines without a count, with a non-numeric count, or with
/// empty frames (`;;`, leading/trailing `;`).
pub fn parse_folded(text: &str) -> std::result::Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("folded line {}: missing sample count: {line:?}", i + 1))?;
        let count: u64 = count
            .parse()
            .map_err(|_| format!("folded line {}: bad sample count {count:?}", i + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("folded line {}: empty frame in {stack:?}", i + 1));
        }
        out.push((frames, count));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Process resource telemetry (/proc, std-only).
// ---------------------------------------------------------------------------

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc;
/// the value is 100 on every Linux configuration Rust supports (the
/// USER_HZ ABI constant, fixed independently of the scheduler HZ).
const CLK_TCK: f64 = 100.0;

/// Bytes per page for `/proc/self/statm` (4096 on every supported
/// Linux target; huge pages don't change the statm unit).
const PAGE_SIZE: u64 = 4096;

/// A point-in-time snapshot of the process's resource usage, read from
/// `/proc/self/stat`, `/proc/self/statm` and `/proc/self/fd`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessStats {
    /// CPU utilization in percent of one core (user + system). A
    /// one-shot sample reports the process-lifetime average; a
    /// [`ResourceSampler`] reports the rate over its tick interval.
    pub cpu_percent: f64,
    /// Resident set size in bytes.
    pub rss_bytes: u64,
    /// Kernel thread count.
    pub threads: u64,
    /// Open file descriptors.
    pub open_fds: u64,
    /// Process start time as seconds since the Unix epoch (the
    /// Prometheus `process_start_time_seconds` convention).
    pub start_time_seconds: f64,
    /// Cumulative user + system CPU ticks (internal rate basis).
    total_ticks: u64,
}

impl ProcessStats {
    /// Reads a one-shot snapshot, or `None` when `/proc` is
    /// unavailable (non-Linux hosts, locked-down sandboxes).
    pub fn sample() -> Option<ProcessStats> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // comm can contain spaces and parentheses; fields restart after
        // the last ')'.
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // 0-based after comm: state=0, ..., utime=11, stime=12,
        // num_threads=17, starttime=19.
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        let threads: u64 = fields.get(17)?.parse().ok()?;
        let starttime: u64 = fields.get(19)?.parse().ok()?;

        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;

        let open_fds = std::fs::read_dir("/proc/self/fd")
            .map(|entries| entries.count() as u64)
            .unwrap_or(0);

        let btime = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|line| line.strip_prefix("btime "))
                    .and_then(|v| v.trim().parse::<u64>().ok())
            })
            .unwrap_or(0);
        let start_time_seconds = btime as f64 + starttime as f64 / CLK_TCK;

        let total_ticks = utime + stime;
        // Lifetime average as the rate baseline for a one-shot sample.
        let now_since_boot = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
            - start_time_seconds;
        let cpu_percent = if now_since_boot > 0.0 {
            (total_ticks as f64 / CLK_TCK) / now_since_boot * 100.0
        } else {
            0.0
        };

        Some(ProcessStats {
            cpu_percent,
            rss_bytes: resident_pages * PAGE_SIZE,
            threads,
            open_fds,
            start_time_seconds,
            total_ticks,
        })
    }
}

/// A background thread that re-reads [`ProcessStats`] on a fixed tick
/// and keeps the latest snapshot available, with `cpu_percent`
/// recomputed from the tick-over-tick delta. Dropping the sampler stops
/// the thread.
pub struct ResourceSampler {
    latest: Arc<Mutex<Option<ProcessStats>>>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ResourceSampler {
    /// Spawns the sampler with the given tick interval.
    pub fn spawn(interval: Duration) -> ResourceSampler {
        let latest: Arc<Mutex<Option<ProcessStats>>> = Arc::new(Mutex::new(ProcessStats::sample()));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let latest_thread = Arc::clone(&latest);
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("whart-prof-resources".to_string())
            .spawn(move || {
                let mut prev: Option<(u64, Instant)> = None;
                let (lock, cvar) = &*stop_thread;
                loop {
                    {
                        let stopped = lock.lock().expect("resource sampler flag poisoned");
                        if *stopped {
                            break;
                        }
                        let (stopped, _) = cvar
                            .wait_timeout(stopped, interval)
                            .expect("resource sampler flag poisoned");
                        if *stopped {
                            break;
                        }
                    }
                    let Some(mut stats) = ProcessStats::sample() else {
                        continue;
                    };
                    let now = Instant::now();
                    if let Some((prev_ticks, prev_at)) = prev {
                        let wall = now.duration_since(prev_at).as_secs_f64();
                        if wall > 0.0 {
                            let delta = stats.total_ticks.saturating_sub(prev_ticks) as f64;
                            stats.cpu_percent = (delta / CLK_TCK) / wall * 100.0;
                        }
                    }
                    prev = Some((stats.total_ticks, now));
                    *latest_thread.lock().expect("resource sampler poisoned") = Some(stats);
                }
            })
            .expect("spawn resource sampler thread");
        ResourceSampler {
            latest,
            stop,
            handle: Some(handle),
        }
    }

    /// The most recent snapshot, or `None` when `/proc` is unreadable.
    pub fn latest(&self) -> Option<ProcessStats> {
        *self.latest.lock().expect("resource sampler poisoned")
    }
}

impl Drop for ResourceSampler {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("resource sampler flag poisoned") = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let prof = Profiler::disabled();
        assert!(!prof.is_enabled());
        assert!(prof.start_capture(DEFAULT_HZ).is_none());
        let frame = prof.frame("anything");
        // Guards on a disabled handle never touch thread-local state.
        let _a = prof.enter(frame);
        let _b = prof.enter(frame);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Profiler::default().is_enabled());
    }

    #[test]
    fn frames_intern_to_stable_ids() {
        let prof = Profiler::new();
        let a = prof.frame("engine.execute");
        let b = prof.frame("engine.execute");
        let c = prof.frame("engine.plan");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn capture_observes_nested_frames() {
        let prof = Profiler::new();
        let outer = prof.frame("outer");
        let inner = prof.frame("inner");
        let capture = prof.start_capture(4000).unwrap();
        {
            let _o = prof.enter(outer);
            let _i = prof.enter(inner);
            std::thread::sleep(Duration::from_millis(40));
        }
        let profile = capture.stop();
        assert!(profile.total_samples() > 0, "sampler never fired");
        assert!(profile.frame_total("outer") > 0);
        assert!(profile.frame_total("inner") > 0);
        let folded = profile.to_folded();
        assert!(
            folded.lines().any(|l| l.contains(";outer;inner ")),
            "nested stack missing from {folded:?}"
        );
        // Frames dropped: the stack is empty again, so a fresh capture
        // sees nothing.
        let idle = prof.start_capture(4000).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let idle = idle.stop();
        assert_eq!(idle.total_samples(), 0, "idle threads must not sample");
    }

    #[test]
    fn capture_sees_named_helper_threads() {
        let prof = Profiler::new();
        let work = prof.frame("helper.work");
        let capture = prof.start_capture(4000).unwrap();
        let prof2 = prof.clone();
        std::thread::Builder::new()
            .name("helper-0".to_string())
            .spawn(move || {
                let _g = prof2.enter(work);
                std::thread::sleep(Duration::from_millis(40));
            })
            .unwrap()
            .join()
            .unwrap();
        let profile = capture.stop();
        assert!(profile.thread_samples("helper-") > 0);
        assert!(profile
            .to_folded()
            .lines()
            .any(|l| l.starts_with("helper-0;helper.work ")));
    }

    #[test]
    fn depth_overflow_truncates_without_losing_balance() {
        let prof = Profiler::new();
        let frame = prof.frame("deep");
        let mut guards = Vec::new();
        for _ in 0..(MAX_DEPTH + 8) {
            guards.push(prof.enter(frame));
        }
        let capture = prof.start_capture(4000).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let profile = capture.stop();
        let max_len = profile
            .threads
            .iter()
            .flat_map(|t| &t.stacks)
            .map(|(s, _)| s.len())
            .max()
            .unwrap_or(0);
        assert!(max_len <= MAX_DEPTH);
        drop(guards);
        // Balanced: back to idle.
        let idle = prof.start_capture(4000).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(idle.stop().total_samples(), 0);
    }

    #[test]
    fn sanitize_strips_separators() {
        assert_eq!(sanitize_frame("a;b c\nd\te"), "a_b_c_d_e");
        assert_eq!(sanitize_frame(""), "_");
        assert_eq!(sanitize_frame("ok.frame-1"), "ok.frame-1");
    }

    #[test]
    fn folded_round_trips_a_synthetic_profile() {
        let profile = Profile {
            hz: DEFAULT_HZ,
            duration: Duration::from_millis(125),
            threads: vec![ThreadProfile {
                name: "main".to_string(),
                samples: 7,
                stacks: vec![
                    (vec!["a".to_string(), "b".to_string()], 4),
                    (vec!["a".to_string()], 3),
                ],
            }],
        };
        let folded = profile.to_folded();
        assert_eq!(folded, "main;a;b 4\nmain;a 3\n");
        let parsed = parse_folded(&folded).unwrap();
        assert_eq!(
            parsed,
            vec![
                (
                    vec!["main".to_string(), "a".to_string(), "b".to_string()],
                    4
                ),
                (vec!["main".to_string(), "a".to_string()], 3),
            ]
        );
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(parse_folded("main;a").is_err(), "missing count");
        assert!(parse_folded("main;a twelve").is_err(), "bad count");
        assert!(parse_folded("main;;a 3").is_err(), "empty frame");
        assert!(parse_folded("\n\n").unwrap().is_empty());
    }

    #[test]
    fn json_profile_has_frame_totals() {
        let profile = Profile {
            hz: 997,
            duration: Duration::from_millis(10),
            threads: vec![ThreadProfile {
                name: "main".to_string(),
                samples: 5,
                stacks: vec![
                    (vec!["a".to_string(), "b".to_string()], 3),
                    (vec!["a".to_string()], 2),
                ],
            }],
        };
        let json = profile.to_json();
        assert_eq!(json.get("total_samples").unwrap().as_u64(), Some(5));
        let frames = json.get("frames").unwrap().as_array().unwrap();
        let a = frames
            .iter()
            .find(|f| f.get("name").unwrap().as_str() == Some("a"))
            .unwrap();
        assert_eq!(a.get("total").unwrap().as_u64(), Some(5));
        assert_eq!(a.get("self").unwrap().as_u64(), Some(2));
        let b = frames
            .iter()
            .find(|f| f.get("name").unwrap().as_str() == Some("b"))
            .unwrap();
        assert_eq!(b.get("total").unwrap().as_u64(), Some(3));
        assert_eq!(b.get("self").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn process_stats_read_plausible_values() {
        let Some(stats) = ProcessStats::sample() else {
            // Non-Linux host: the facade degrades to absence, not error.
            return;
        };
        assert!(stats.rss_bytes > 0);
        assert!(stats.threads >= 1);
        assert!(stats.open_fds >= 1);
        assert!(stats.start_time_seconds > 0.0);
    }

    #[test]
    fn resource_sampler_serves_latest() {
        let sampler = ResourceSampler::spawn(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(40));
        if let Some(stats) = sampler.latest() {
            assert!(stats.rss_bytes > 0);
            assert!(stats.cpu_percent >= 0.0);
        }
    }
}
