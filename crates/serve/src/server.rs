//! The readiness-loop HTTP server: keep-alive connections, a bounded
//! request queue with admission control, graceful drain, built-in
//! health/readiness probes, and per-request metrics and tracing
//! middleware.
//!
//! ## Threading model
//!
//! One event loop (the thread calling [`Server::serve`]) owns a poll
//! set holding the nonblocking listener, a wake pipe, and every parked
//! connection: new ones and idle keep-alive ones no worker holds. When a
//! parked connection turns readable it is dispatched to a fixed pool of
//! worker threads over a work queue. Admission is **bounded**: once
//! every worker is busy and [`ServerConfig::max_queue`] connections are
//! already waiting, the next one is answered immediately with `503` +
//! `Retry-After` instead of buffering without bound (finite-queue
//! admission, the degradation mode the finite-queue mesh models in the
//! related work prescribe).
//!
//! A worker serves requests back-to-back while more are buffered or in
//! flight on the socket (pipelining). Once the connection goes idle, and
//! while no more connections are open than there are workers, the worker
//! **holds** it: it polls the socket and a wake pipe of its own, and
//! serves the next request itself, so that request costs one thread
//! wakeup instead of three (event loop, worker, event loop). With more
//! connections open than workers, the next request most likely arrives
//! on another connection, which would have to claim the holder back, so
//! the worker parks the connection with the event loop right away. A
//! held connection is not busy and not queued, so it counts against no
//! admission slot and can never cause a `503`. The worker hands it back
//! to the event loop's parked set (through a channel and the event
//! loop's wake pipe) in only three cases:
//!
//! * **yield** — the event loop queued a connection that no worker
//!   waiting on the queue will take, so it wakes one holding worker,
//!   which parks its connection and takes from the queue;
//! * **expiry** — the connection sat idle for
//!   [`ServerConfig::keepalive_timeout`]; the worker closes it (the
//!   event loop closes parked connections past the same timeout);
//! * **drain** — shutdown began; the worker closes it.
//!
//! A held connection whose next request finds every admission slot taken
//! is parked too, and the event loop admits or rejects it as it would
//! any parked connection.
//!
//! ## Shutdown and drain
//!
//! [`Server::shutdown`] returns a [`Flag`]; setting it (or a SIGINT
//! observed via [`crate::signal`]) makes the event loop stop accepting,
//! close parked connections, wake every holding worker to close its
//! connection, close the work queue, and join the workers. Workers
//! finish every dispatched connection — queued or mid-solve — and serve
//! already-buffered pipelined requests, but answer with
//! `Connection: close` and stop holding or parking, so the drain
//! converges.
//! `GET /healthz` answers `503 draining` the moment drain begins, so a
//! load balancer stops routing to the instance while in-flight work
//! completes.
//!
//! ## Observability
//!
//! Per request: `http.requests_total{route,code}`, the per-route
//! latency histogram `http.request_ns{route}`, the `http.in_flight`
//! gauge, `http.handler_panics_total` (handlers that panicked, each
//! answered with a `500` and `Connection: close`), and one
//! [`RequestRecord`] from which the journal's
//! `http_request` event, the wide `http_request` log line and the
//! flight-recorder entry are rendered. Per connection:
//! `http.connections_open` (gauge), `http.keepalive.reuses_total`,
//! `http.keepalive.expired_total`, and the admission-control pair
//! `http.queue_depth` (gauge) / `http.rejected_total{reason=queue_full}`.

use crate::conn::{After, Conn};
use crate::flight::FlightRecorder;
use crate::http::{Request, RequestError, Response};
use crate::log::{Level, Logger};
use crate::record::RequestRecord;
use crate::router::Router;
use crate::signal;
use crate::windows::HttpWindows;
use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use whart_json::Json;
use whart_obs::Metrics;
use whart_trace::Trace;

use crate::poll;
use std::os::unix::io::AsRawFd;

/// Event-loop tick: the upper bound on how long a poll sleeps, so
/// shutdown flags and idle expiry are observed promptly.
const TICK: Duration = Duration::from_millis(250);

/// How long the event loop spends writing a queue-full rejection.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Longest client-supplied `X-Request-Id` the server will propagate
/// (anything longer, empty, or non-printable is replaced).
const MAX_REQUEST_ID: usize = 128;

/// Monotonic per-process request-id sequence.
static NEXT_REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

/// Process-lifetime id prefix, so ids from different server runs do not
/// collide in aggregated logs.
fn request_id_prefix() -> u32 {
    static PREFIX: OnceLock<u32> = OnceLock::new();
    *PREFIX.get_or_init(|| {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| {
            d.subsec_nanos() as u128 | (d.as_secs() as u128) << 32
        });
        let pid = std::process::id();
        (nanos as u32) ^ (nanos >> 32) as u32 ^ pid.rotate_left(16)
    })
}

/// A fresh correlation id: `xxxxxxxx-nnnnnn` (process prefix, sequence).
pub fn next_request_id() -> String {
    format!(
        "{:08x}-{:06}",
        request_id_prefix(),
        NEXT_REQUEST_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Current wall clock, Unix milliseconds.
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Nanoseconds since `started`, saturating.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The request's correlation id: the client's `X-Request-Id` when it is
/// present and sane, otherwise a freshly generated one, injected into
/// the request headers so handlers downstream see the same id.
fn effective_request_id(request: &mut Request) -> String {
    let client_ok = request.header("x-request-id").is_some_and(|id| {
        !id.is_empty() && id.len() <= MAX_REQUEST_ID && id.bytes().all(|b| b.is_ascii_graphic())
    });
    if client_ok {
        return request.header("x-request-id").expect("checked").to_owned();
    }
    let id = next_request_id();
    request.headers.retain(|(name, _)| name != "x-request-id");
    request.headers.push(("x-request-id".into(), id.clone()));
    id
}

/// A cloneable one-way boolean latch (readiness, shutdown).
#[derive(Clone, Default)]
pub struct Flag(Arc<AtomicBool>);

impl Flag {
    /// A fresh, unset flag.
    pub fn new() -> Flag {
        Flag::default()
    }

    /// Latches the flag on.
    pub fn set(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been set.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for Flag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Flag").field(&self.is_set()).finish()
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:9090` (`:0` picks a free port).
    pub addr: String,
    /// Worker thread count (minimum 1).
    pub threads: usize,
    /// Per-request read deadline once bytes have started arriving, so a
    /// trickling client cannot pin a worker forever (408 on expiry).
    pub read_timeout: Duration,
    /// Per-response write deadline, so a peer that stops reading cannot
    /// pin a worker forever.
    pub write_timeout: Duration,
    /// How long an idle keep-alive connection may sit parked before the
    /// server closes it.
    pub keepalive_timeout: Duration,
    /// Dispatch-queue capacity. Readable connections beyond the free
    /// workers plus this backlog are rejected with `503` +
    /// `Retry-After` instead of queueing unboundedly. `0` means a
    /// request is admitted only when a worker is free right now.
    pub max_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            keepalive_timeout: Duration::from_secs(60),
            max_queue: 1024,
        }
    }
}

/// Shared per-worker context.
struct Ctx {
    router: Router,
    metrics: Metrics,
    trace: Trace,
    log: Logger,
    flight: FlightRecorder,
    windows: Option<Arc<HttpWindows>>,
    ready: Flag,
    shutdown: Flag,
    in_flight: AtomicU64,
    open: AtomicU64,
    queued: AtomicU64,
    /// Connections admitted and not yet done with: the queued ones plus
    /// the ones a worker is serving (never the ones it holds idle).
    admitted: AtomicU64,
    /// Admission bound on `admitted`: worker threads plus `max_queue`.
    capacity: u64,
    /// Workers committed to taking the next queued connection: blocked
    /// on the queue, on their way to it, or claimed by the event loop.
    /// Every transient error of `queued - waiting` overstates the queued
    /// connections nobody will take, so it costs a spare yield, never a
    /// stranded connection (a brief negative value is fine).
    waiting: AtomicI64,
    /// Per worker: holds an idle connection and may be claimed. Set by
    /// the worker; cleared by whichever of worker and event loop swaps
    /// it first, so exactly one of them decides what happens next.
    holding: Box<[AtomicBool]>,
    read_timeout: Duration,
    write_timeout: Duration,
    keepalive_timeout: Duration,
}

impl Ctx {
    /// Whether graceful drain has begun (flag or SIGINT).
    fn draining(&self) -> bool {
        self.shutdown.is_set() || signal::interrupted()
    }

    /// Queued connections that no waiting worker will take.
    fn unclaimed(&self) -> i64 {
        let queued = self.queued.load(Ordering::SeqCst) as i64;
        queued - self.waiting.load(Ordering::SeqCst)
    }
}

/// A connection plus the bookkeeping that must run when it dies, no
/// matter which thread drops it.
struct Tracked {
    conn: Conn,
    ctx: Arc<Ctx>,
    /// When the connection entered the dispatch queue (measures queue
    /// wait for the first request a worker serves off it).
    enqueued_at: Option<Instant>,
}

impl Deref for Tracked {
    type Target = Conn;
    fn deref(&self) -> &Conn {
        &self.conn
    }
}

impl DerefMut for Tracked {
    fn deref_mut(&mut self) -> &mut Conn {
        &mut self.conn
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        let open = self.ctx.open.fetch_sub(1, Ordering::SeqCst) - 1;
        self.ctx.metrics.gauge("http.connections_open").set(open);
    }
}

/// A bound HTTP server, not yet serving.
pub struct Server {
    listener: TcpListener,
    router: Router,
    metrics: Metrics,
    trace: Trace,
    log: Logger,
    flight: FlightRecorder,
    windows: Option<Arc<HttpWindows>>,
    ready: Flag,
    shutdown: Flag,
    threads: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    keepalive_timeout: Duration,
    max_queue: usize,
}

impl Server {
    /// Binds the listener and prepares the pool. Routes start empty so
    /// handlers can capture the server's [`Server::shutdown`] /
    /// [`Server::ready`] flags; install them with [`Server::set_router`].
    ///
    /// # Errors
    ///
    /// When the address cannot be bound.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            router: Router::new(),
            metrics: Metrics::disabled(),
            trace: Trace::disabled(),
            log: Logger::disabled(),
            flight: FlightRecorder::disabled(),
            windows: None,
            ready: Flag::new(),
            shutdown: Flag::new(),
            threads: config.threads.max(1),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            keepalive_timeout: config.keepalive_timeout,
            max_queue: config.max_queue,
        })
    }

    /// Installs the route table.
    pub fn set_router(&mut self, router: Router) {
        self.router = router;
    }

    /// Points request middleware at a metrics registry.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Points request middleware at a trace journal.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Points request middleware at a structured logger (one wide
    /// `http_request` event per request).
    pub fn set_log(&mut self, log: Logger) {
        self.log = log;
    }

    /// Points request middleware at a flight recorder.
    pub fn set_flight(&mut self, flight: FlightRecorder) {
        self.flight = flight;
    }

    /// Points request middleware at shared sliding-window statistics.
    pub fn set_windows(&mut self, windows: Arc<HttpWindows>) {
        self.windows = Some(windows);
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// When the socket address cannot be read back.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The readiness latch behind `GET /readyz`: the endpoint answers
    /// 503 until this is set (typically by a self-check solve).
    pub fn ready(&self) -> Flag {
        self.ready.clone()
    }

    /// The shutdown latch: setting it makes [`Server::serve`] stop
    /// accepting, drain, and return.
    pub fn shutdown(&self) -> Flag {
        self.shutdown.clone()
    }

    fn make_ctx(&mut self) -> Arc<Ctx> {
        Arc::new(Ctx {
            router: std::mem::take(&mut self.router),
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            log: self.log.clone(),
            flight: self.flight.clone(),
            windows: self.windows.clone(),
            ready: self.ready.clone(),
            shutdown: self.shutdown.clone(),
            in_flight: AtomicU64::new(0),
            open: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            capacity: (self.threads + self.max_queue) as u64,
            waiting: AtomicI64::new(0),
            holding: (0..self.threads).map(|_| AtomicBool::new(false)).collect(),
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            keepalive_timeout: self.keepalive_timeout,
        })
    }

    /// Runs the event loop until shutdown (flag or SIGINT), then drains
    /// the workers and returns.
    ///
    /// # Errors
    ///
    /// When the listener cannot be switched to nonblocking mode or the
    /// wake pipe cannot be created.
    pub fn serve(mut self) -> io::Result<()> {
        signal::install();
        self.listener.set_nonblocking(true)?;
        let ctx = self.make_ctx();
        let (work_tx, work_rx) = mpsc::channel::<Tracked>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (park_tx, park_rx) = mpsc::channel::<Tracked>();
        let mut wake = poll::WakePipe::new()?;
        // One pipe per worker, so the event loop can claim a holder.
        let mut holder_wakers = Vec::with_capacity(self.threads);
        let mut workers = Vec::with_capacity(self.threads);
        for index in 0..self.threads {
            let own = poll::WakePipe::new()?;
            holder_wakers.push(own.waker()?);
            let worker = Worker {
                index,
                ctx: Arc::clone(&ctx),
                work_rx: Arc::clone(&work_rx),
                park_tx: park_tx.clone(),
                waker: wake.waker()?,
                own,
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("whart-serve-{index}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker"),
            );
        }
        drop(park_tx); // the event loop only receives

        let mut idle: Vec<Tracked> = Vec::new();
        while !ctx.draining() {
            // Expire idle keep-alive connections; note the next expiry
            // so the poll timeout does not sleep past it.
            let now = Instant::now();
            let mut next_expiry: Option<Duration> = None;
            let mut i = 0;
            while i < idle.len() {
                let idle_for = now.duration_since(idle[i].idle_since);
                if idle_for >= ctx.keepalive_timeout {
                    drop(idle.swap_remove(i));
                    ctx.metrics
                        .counter("http.keepalive.expired_total")
                        .increment();
                } else {
                    let left = ctx.keepalive_timeout - idle_for;
                    next_expiry = Some(next_expiry.map_or(left, |m| m.min(left)));
                    i += 1;
                }
            }
            let timeout = next_expiry.map_or(TICK, |d| d.min(TICK));

            let mut fds = Vec::with_capacity(idle.len() + 2);
            fds.push(poll::PollFd::new(self.listener.as_raw_fd(), poll::POLLIN));
            fds.push(poll::PollFd::new(wake.fd(), poll::POLLIN));
            for parked in &idle {
                fds.push(poll::PollFd::new(parked.fd(), poll::POLLIN));
            }
            match poll::poll(&mut fds, Some(timeout)) {
                Ok(0) => continue,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }

            // Readable (or hung-up) parked connections go to the
            // workers; descending order keeps swap_remove indices valid.
            for index in (0..idle.len()).rev() {
                if fds[index + 2].ready() {
                    dispatch(&ctx, idle.swap_remove(index), &work_tx);
                }
            }
            claim_holders(&ctx, &mut holder_wakers);
            if fds[1].ready() {
                wake.drain();
            }
            // Park connections the workers handed back (the wake byte
            // may still be in flight; collecting every tick is cheap
            // and loses nothing).
            idle.extend(park_rx.try_iter());
            if fds[0].ready() {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            if let Ok(conn) = Conn::new(stream) {
                                let open = ctx.open.fetch_add(1, Ordering::SeqCst) + 1;
                                ctx.metrics.gauge("http.connections_open").set(open);
                                // Parked until its first bytes arrive;
                                // the next poll dispatches it.
                                idle.push(Tracked {
                                    conn,
                                    ctx: Arc::clone(&ctx),
                                    enqueued_at: None,
                                });
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
            }
        }

        // Drain: stop accepting, close parked connections, make holders
        // close theirs, close the work queue. Workers finish every
        // dispatched connection, then see the closed channel and exit.
        // Connections parked during the race are closed after the join.
        // Latching the flag (a SIGINT may have begun the drain) lets a
        // worker about to hold see the drain if the pass below misses it.
        ctx.shutdown.set();
        for (holding, waker) in ctx.holding.iter().zip(&mut holder_wakers) {
            if holding.swap(false, Ordering::SeqCst) {
                waker.wake();
            }
        }
        drop(work_tx);
        idle.clear();
        for worker in workers {
            let _ = worker.join();
        }
        wake.drain();
        for parked in park_rx.try_iter() {
            drop(parked);
        }
        Ok(())
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("threads", &self.threads)
            .field("max_queue", &self.max_queue)
            .finish()
    }
}

/// Admits a readable connection into the work queue, or rejects it
/// with `503` + `Retry-After` when every worker is busy and `max_queue`
/// connections are already waiting.
fn dispatch(ctx: &Arc<Ctx>, mut tracked: Tracked, work_tx: &mpsc::Sender<Tracked>) {
    if ctx.admitted.fetch_add(1, Ordering::SeqCst) >= ctx.capacity {
        ctx.admitted.fetch_sub(1, Ordering::SeqCst);
        ctx.metrics
            .counter("http.rejected_total{reason=queue_full}")
            .increment();
        // No request was parsed, so the overflow gets a fresh
        // correlation id: the rejected client can still quote an id
        // that the server's log line carries.
        let request_id = next_request_id();
        let response = Response::text(503, "server busy: request queue is full\n")
            .with_header("Retry-After", "1")
            .with_header("X-Request-Id", request_id.clone());
        let _ = tracked.write_response(&response, false, false, REJECT_WRITE_TIMEOUT);
        ctx.log.emit(Level::Warn, "queue_overflow", || {
            [
                ("request_id", Json::from(request_id)),
                ("code", Json::from(503u64)),
                ("queue_depth", Json::from(ctx.queued.load(Ordering::SeqCst))),
            ]
        });
        return;
    }
    // Count before sending so a worker's decrement can never observe
    // the queue below zero.
    let depth = ctx.queued.fetch_add(1, Ordering::SeqCst) + 1;
    ctx.metrics.gauge("http.queue_depth").set(depth);
    tracked.enqueued_at = Some(Instant::now());
    if work_tx.send(tracked).is_err() {
        let depth = ctx.queued.fetch_sub(1, Ordering::SeqCst) - 1;
        ctx.metrics.gauge("http.queue_depth").set(depth);
        ctx.admitted.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claims one holding worker for each queued connection that no waiting
/// worker will take; a claimed worker parks the connection it holds and
/// takes from the queue.
fn claim_holders(ctx: &Ctx, holder_wakers: &mut [poll::Waker]) {
    let mut unclaimed = ctx.unclaimed();
    for (holding, waker) in ctx.holding.iter().zip(holder_wakers) {
        if unclaimed <= 0 {
            return;
        }
        // Count the claimed worker only after the claim: until then
        // `unclaimed` errs high, which costs at most a spare yield.
        if holding.swap(false, Ordering::SeqCst) {
            ctx.waiting.fetch_add(1, Ordering::SeqCst);
            waker.wake();
            unclaimed -= 1;
        }
    }
}

/// What a worker should do with a connection after serving it.
enum Disposition {
    /// Keep it: it is idle between requests.
    Keep,
    /// Drop the connection.
    Close,
}

/// How a worker's hold on an idle connection ended.
enum Held {
    /// Its next request arrived (or its peer hung up).
    Readable,
    /// It sat idle for the keep-alive timeout.
    Expired,
    /// The event loop needs this worker for queued work, or drain began.
    /// `counted`: the event loop claimed the worker and already counts
    /// it in `waiting`.
    Yield { counted: bool },
}

/// One pool thread and what it owns.
struct Worker {
    index: usize,
    ctx: Arc<Ctx>,
    work_rx: Arc<Mutex<mpsc::Receiver<Tracked>>>,
    park_tx: mpsc::Sender<Tracked>,
    /// Wakes the event loop after a connection was parked.
    waker: poll::Waker,
    /// Where the event loop wakes this worker out of a hold.
    own: poll::WakePipe,
}

impl Worker {
    fn run(mut self) {
        let mut counted = false;
        loop {
            if !counted {
                self.ctx.waiting.fetch_add(1, Ordering::SeqCst);
            }
            // Hold the lock only for the handoff, not while serving.
            let tracked = match self.work_rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => return,
            };
            let Ok(mut tracked) = tracked else {
                return; // channel closed: drain complete
            };
            // Stop counting as waiting before leaving the queue count,
            // so `unclaimed` errs high in between, never low.
            self.ctx.waiting.fetch_sub(1, Ordering::SeqCst);
            let depth = self.ctx.queued.fetch_sub(1, Ordering::SeqCst) - 1;
            self.ctx.metrics.gauge("http.queue_depth").set(depth);
            let queue_ns = tracked.enqueued_at.take().map_or(0, elapsed_ns);
            counted = self.serve_and_hold(tracked, queue_ns);
        }
    }

    /// Serves a dispatched connection and holds it between requests
    /// until it closes, expires or must go back to the event loop.
    /// Returns whether the event loop already counts this worker as
    /// waiting on the queue.
    fn serve_and_hold(&mut self, mut tracked: Tracked, mut queue_ns: u64) -> bool {
        loop {
            // `serve_conn` frees the admission slot: an idle connection
            // holds none.
            if let Disposition::Close = serve_conn(&self.ctx, &mut tracked.conn, queue_ns) {
                return false;
            }
            // With more open connections than workers, the next request
            // likely lands on another connection, and a hold would only
            // add a claim to that request's wakeups.
            if self.ctx.open.load(Ordering::SeqCst) > self.ctx.holding.len() as u64 {
                self.park(tracked);
                return false;
            }
            queue_ns = 0;
            match self.hold(&tracked.conn) {
                Held::Readable => {
                    if self.ctx.admitted.fetch_add(1, Ordering::SeqCst) >= self.ctx.capacity {
                        // Every slot is taken: the event loop admits or
                        // rejects the request like any parked one.
                        self.ctx.admitted.fetch_sub(1, Ordering::SeqCst);
                        self.park(tracked);
                        return false;
                    }
                }
                Held::Expired => {
                    self.ctx
                        .metrics
                        .counter("http.keepalive.expired_total")
                        .increment();
                    return false;
                }
                Held::Yield { counted } => {
                    if !self.ctx.draining() {
                        self.park(tracked);
                    }
                    return counted;
                }
            }
        }
    }

    /// Waits for the held connection's next request, its expiry, or the
    /// event loop's claim on this worker.
    fn hold(&mut self, conn: &Conn) -> Held {
        let ctx = &self.ctx;
        let holding = &ctx.holding[self.index];
        loop {
            // Publish the hold before looking for queued work: either
            // this look sees the work, or the event loop (which queues
            // before it looks at holders) sees the hold, claims it and
            // wakes the poll below. The same goes for the drain flag.
            holding.store(true, Ordering::SeqCst);
            let wanted = ctx.unclaimed() > 0 || ctx.draining();
            let idle_for = conn.idle_since.elapsed();
            let mut fds = [
                poll::PollFd::new(conn.fd(), poll::POLLIN),
                poll::PollFd::new(self.own.fd(), poll::POLLIN),
            ];
            let mut failed = false;
            if !wanted && idle_for < ctx.keepalive_timeout {
                let left = ctx.keepalive_timeout - idle_for;
                failed = matches!(
                    poll::poll(&mut fds, Some(left)),
                    Err(e) if e.kind() != io::ErrorKind::Interrupted
                );
            }
            if fds[1].ready() {
                self.own.drain();
            }
            if !holding.swap(false, Ordering::SeqCst) {
                return Held::Yield { counted: true };
            }
            if wanted || failed {
                return Held::Yield { counted: false };
            }
            if fds[0].ready() {
                return Held::Readable;
            }
            if conn.idle_since.elapsed() >= ctx.keepalive_timeout {
                return Held::Expired;
            }
            // A wake byte left by an earlier claim, or a signal: hold on.
        }
    }

    /// Hands a connection back to the event loop's parked set.
    fn park(&mut self, tracked: Tracked) {
        if self.park_tx.send(tracked).is_ok() {
            self.waker.wake();
        }
    }
}

/// Built-in probe routes, answered before the router.
fn builtin(ctx: &Ctx, method: &str, path: &str) -> Option<(&'static str, Response)> {
    match (method, path) {
        ("GET", "/healthz") => Some((
            "/healthz",
            // A draining server must stop reporting healthy so load
            // balancers route around it while in-flight work finishes.
            if ctx.draining() {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ok\n")
            },
        )),
        ("GET", "/readyz") => Some((
            "/readyz",
            if ctx.ready.is_set() {
                Response::text(200, "ready\n")
            } else {
                Response::text(503, "starting\n")
            },
        )),
        _ => None,
    }
}

thread_local! {
    /// The worker's buffer for the middleware's instrument names.
    static INSTRUMENT_NAME: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut String, n: u16) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// Records the request middleware's observability from the request's
/// one record: cumulative metrics, rolling windows, the journal event,
/// the wide log line and the flight-recorder entry — all stamped with
/// the request's correlation id. The journal event and the log line are
/// built only if the journal and the log admit them.
fn instrument(ctx: &Ctx, record: RequestRecord) {
    let label = record.route;
    if ctx.metrics.is_enabled() {
        // `http.requests_total{route=..,code=..}` and
        // `http.request_ns{route=..}`, spelled into one reused buffer.
        INSTRUMENT_NAME.with(|name| {
            let mut name = name.borrow_mut();
            name.clear();
            name.push_str("http.requests_total{route=");
            name.push_str(label);
            name.push_str(",code=");
            push_decimal(&mut name, record.status);
            name.push('}');
            ctx.metrics.add(&name, 1);
            name.clear();
            name.push_str("http.request_ns{route=");
            name.push_str(label);
            name.push('}');
            ctx.metrics.record(&name, record.total_ns);
        });
    }
    if let Some(windows) = &ctx.windows {
        windows.record(label, record.status, record.total_ns);
    }
    ctx.trace.emit_with(|| record.journal_event());
    ctx.log
        .emit(Level::Info, "http_request", || record.log_fields());
    ctx.flight.record(record);
    // Workers are long-lived, so publish this thread's buffered events
    // now: a `GET /v1/trace` drain from another worker must observe
    // every request that already completed.
    ctx.trace.flush();
}

/// Writes a protocol-error response (the connection closes after it).
/// No request was parsed, so the error gets a fresh correlation id.
fn answer_error(ctx: &Ctx, conn: &mut Conn, label: &'static str, response: Response) {
    let (started, started_unix_ms, started_trace_ns) =
        (Instant::now(), unix_ms(), ctx.trace.now_ns());
    let request_id = next_request_id();
    let response = response.with_header("X-Request-Id", request_id.clone());
    let _ = conn.write_response(&response, false, false, ctx.write_timeout);
    let total_ns = elapsed_ns(started);
    instrument(
        ctx,
        RequestRecord {
            id: request_id,
            method: "-".into(),
            route: label,
            status: response.status,
            started_unix_ms,
            started_trace_ns,
            queue_ns: 0,
            handler_ns: 0,
            write_ns: total_ns,
            total_ns,
            bytes_in: 0,
            bytes_out: response.body.len() as u64,
            reused_connection: conn.served > 0,
            trace_args: Vec::new(),
        },
    );
}

/// Serves requests on one dispatched connection until it closes, errors,
/// or goes idle (then its worker holds it). The dispatch's admission slot
/// is freed as soon as the last response is written, before the
/// bookkeeping and before `http.in_flight` drops, so a client that sees
/// the gauge at 0 knows the worker takes no slot.
fn serve_conn(ctx: &Ctx, conn: &mut Conn, mut queue_ns: u64) -> Disposition {
    loop {
        let mut request = match conn.next_request(ctx.read_timeout) {
            Ok(request) => request,
            Err(error) => {
                ctx.admitted.fetch_sub(1, Ordering::SeqCst);
                let (label, response) = match error {
                    RequestError::Closed | RequestError::Io(_) => return Disposition::Close,
                    RequestError::TimedOut => {
                        ("timeout", Response::text(408, "request read timed out\n"))
                    }
                    RequestError::TooLarge(message) => {
                        ("oversized", Response::text(413, format!("{message}\n")))
                    }
                    RequestError::Malformed(message) => {
                        ("malformed", Response::text(400, format!("{message}\n")))
                    }
                };
                answer_error(ctx, conn, label, response);
                return Disposition::Close;
            }
        };
        let reused = conn.served > 0;
        if reused {
            ctx.metrics
                .counter("http.keepalive.reuses_total")
                .increment();
        }
        // Drain begins between requests too: answer the current request
        // but tell the client the connection is done.
        let keep_alive = request.wants_keep_alive() && !ctx.draining();
        let allow_chunked = request.minor_version >= 1;

        // Assign or propagate the correlation id before routing, so
        // handlers (and the solves they run) see the same id the
        // client gets back.
        let request_id = effective_request_id(&mut request);

        let flight = ctx.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let gauge = ctx.metrics.gauge("http.in_flight");
        gauge.set(flight);
        let (started, started_unix_ms, started_trace_ns) =
            (Instant::now(), unix_ms(), ctx.trace.now_ns());
        let (label, mut response, panicked) = match builtin(ctx, &request.method, &request.path) {
            Some((label, response)) => (label, response, false),
            // A panicking handler must not take its worker (and the
            // worker's admission slot and in-flight count) down with it.
            None => match panic::catch_unwind(AssertUnwindSafe(|| ctx.router.dispatch(&request))) {
                Ok((label, response)) => (label, response, false),
                Err(_) => {
                    ctx.metrics.counter("http.handler_panics_total").increment();
                    let response = Response::text(500, "internal error: the handler panicked\n");
                    (ctx.router.label(&request), response, true)
                }
            },
        };
        let handler_ns = elapsed_ns(started);
        // Every response — success or failure — returns the id the
        // request was served under.
        response.headers.push(("X-Request-Id", request_id.clone()));
        // Drain may have begun while the handler ran: the header the
        // client sees must match what the connection will actually do.
        // After a panic the connection closes too.
        let keep_alive = keep_alive && !panicked && !ctx.draining();
        let wrote = conn
            .write_response(&response, keep_alive, allow_chunked, ctx.write_timeout)
            .is_ok();
        let total_ns = elapsed_ns(started);
        let next = if !wrote || !keep_alive {
            Some(Disposition::Close)
        } else {
            match conn.after_response() {
                After::Buffered => None,
                After::Closed => Some(Disposition::Close),
                After::Idle if ctx.draining() => Some(Disposition::Close),
                After::Idle => Some(Disposition::Keep),
            }
        };
        if next.is_some() {
            ctx.admitted.fetch_sub(1, Ordering::SeqCst);
        }
        instrument(
            ctx,
            RequestRecord {
                id: request_id,
                method: std::mem::take(&mut request.method),
                route: label,
                status: response.status,
                started_unix_ms,
                started_trace_ns,
                queue_ns,
                handler_ns,
                write_ns: total_ns.saturating_sub(handler_ns),
                total_ns,
                bytes_in: request.body.len() as u64,
                bytes_out: response.body.len() as u64,
                reused_connection: reused,
                trace_args: std::mem::take(&mut response.trace_args),
            },
        );
        // Queue wait belongs to the request that was actually waiting;
        // pipelined follow-ups on the same dispatch never queued.
        queue_ns = 0;
        let remaining = ctx.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        gauge.set(remaining);
        if let Some(disposition) = next {
            return disposition;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use whart_trace::{ArgValue, Phase, TraceEvent};

    /// One request over a fresh connection, `Connection: close` so the
    /// read-to-EOF below terminates under keep-alive defaults.
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    /// A two-worker server, set up by `configure` before it serves.
    fn start_with(
        router: Router,
        configure: impl FnOnce(&mut Server),
    ) -> (SocketAddr, Flag, std::thread::JoinHandle<()>) {
        let mut server = Server::bind(&ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        server.set_router(router);
        configure(&mut server);
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        (addr, shutdown, handle)
    }

    fn start(router: Router) -> (SocketAddr, Flag, Flag, Metrics, std::thread::JoinHandle<()>) {
        let metrics = Metrics::new();
        let mut ready = Flag::new();
        let (addr, shutdown, handle) = start_with(router, |server| {
            server.set_metrics(metrics.clone());
            ready = server.ready();
        });
        (addr, ready, shutdown, metrics, handle)
    }

    #[test]
    fn probes_flip_with_the_readiness_flag() {
        let (addr, ready, shutdown, _metrics, handle) = start(Router::new());
        assert_eq!(get(addr, "/healthz"), (200, "ok\n".into()));
        assert_eq!(get(addr, "/readyz").0, 503, "not ready before the flag");
        ready.set();
        assert_eq!(get(addr, "/readyz"), (200, "ready\n".into()));
        shutdown.set();
        handle.join().unwrap();
    }

    #[test]
    fn requests_route_and_record_metrics() {
        let router = Router::new().route("GET", "/hello", |req| {
            let name = req.query_param("name").unwrap_or("world");
            Response::text(200, format!("hi {name}\n")).with_trace_arg("greeted", true)
        });
        let (addr, _ready, shutdown, metrics, handle) = start(router);
        assert_eq!(get(addr, "/hello?name=x"), (200, "hi x\n".into()));
        assert_eq!(get(addr, "/nope").0, 404);
        shutdown.set();
        handle.join().unwrap();
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.counter("http.requests_total{route=/hello,code=200}"),
            Some(1)
        );
        assert_eq!(
            snapshot.counter("http.requests_total{route=unmatched,code=404}"),
            Some(1)
        );
        let latency = snapshot
            .histogram("http.request_ns{route=/hello}")
            .expect("per-route latency histogram");
        assert_eq!(latency.count, 1);
        assert_eq!(snapshot.gauge("http.in_flight"), Some(0), "drained");
        assert_eq!(snapshot.gauge("http.connections_open"), Some(0), "closed");
    }

    /// One raw request exchange returning (status, headers+body text).
    fn raw_exchange(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    }

    fn response_header<'a>(raw: &'a str, name: &str) -> Option<&'a str> {
        raw.split("\r\n\r\n")
            .next()
            .unwrap_or("")
            .lines()
            .find_map(|line| {
                let (k, v) = line.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim())
            })
    }

    #[test]
    fn request_ids_are_assigned_propagated_and_returned() {
        let router = Router::new().route("GET", "/id", |req| {
            // Handlers observe the id the middleware injected.
            Response::text(200, req.request_id().unwrap_or("missing").to_owned())
        });
        let (addr, _ready, shutdown, _metrics, handle) = start(router);

        // Server-assigned: header present, matches what the handler saw.
        let raw = raw_exchange(addr, "GET /id HTTP/1.1\r\nConnection: close\r\n\r\n");
        let id = response_header(&raw, "X-Request-Id")
            .expect("assigned id")
            .to_owned();
        assert!(raw.ends_with(&id), "handler saw the same id: {raw}");
        assert!(id.contains('-') && id.len() >= 10, "{id}");

        // Client-supplied ids are propagated verbatim.
        let raw = raw_exchange(
            addr,
            "GET /id HTTP/1.1\r\nX-Request-Id: client-abc-1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(response_header(&raw, "X-Request-Id"), Some("client-abc-1"));
        assert!(raw.ends_with("client-abc-1"));

        // Garbage client ids are replaced, not echoed.
        let raw = raw_exchange(
            addr,
            "GET /id HTTP/1.1\r\nX-Request-Id: bad id with spaces\r\nConnection: close\r\n\r\n",
        );
        let id = response_header(&raw, "X-Request-Id").unwrap();
        assert_ne!(id, "bad id with spaces");

        // Errors carry an id too.
        let raw = raw_exchange(addr, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(response_header(&raw, "X-Request-Id").is_some(), "{raw}");

        shutdown.set();
        handle.join().unwrap();
    }

    #[test]
    fn the_middleware_feeds_windows_and_the_flight_recorder() {
        let router = Router::new().route("GET", "/w", |_| Response::text(200, "ok\n"));
        let windows = Arc::new(HttpWindows::new(
            Duration::from_secs(30),
            Duration::from_millis(5),
        ));
        let flight = FlightRecorder::new(8, 8, u64::MAX);
        let (addr, shutdown, handle) = start_with(router, |server| {
            server.set_windows(Arc::clone(&windows));
            server.set_flight(flight.clone());
        });

        let raw = raw_exchange(addr, "GET /w HTTP/1.1\r\nConnection: close\r\n\r\n");
        let id = response_header(&raw, "X-Request-Id").unwrap().to_owned();
        shutdown.set();
        handle.join().unwrap();

        let snapshot = windows.snapshot();
        let route = snapshot.iter().find(|r| r.route == "/w").expect("windowed");
        assert_eq!((route.requests, route.errors), (1, 0));
        assert_eq!(route.latency.count, 1);

        let entry = flight.lookup(&id).expect("flight entry by response id");
        assert_eq!((entry.status, entry.route), (200, "/w"));
        let timeline = entry.timeline();
        let names: Vec<&str> = timeline.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["queue_wait", "handler", "write"]);
        assert!(timeline[1].arg("request_id").is_some());
    }

    fn has_request_id(event: &TraceEvent, id: &str) -> bool {
        event
            .args
            .iter()
            .any(|(k, v)| *k == "request_id" && v.as_str() == Some(id))
    }

    #[test]
    fn the_journal_event_names_only_its_own_request_id() {
        // `/hold` keeps an ambient request id installed, as the engine
        // store does around a solve, until the test has seen the journal
        // event of a request the other worker finished meanwhile.
        let trace = Trace::new();
        let (entered, release) = (Flag::new(), Flag::new());
        let router = {
            let (trace, entered, release) = (trace.clone(), entered.clone(), release.clone());
            Router::new()
                .route("GET", "/hold", move |_| {
                    let _scope = trace.context_scope([("request_id", "holder-1".into())]);
                    entered.set();
                    while !release.is_set() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Response::text(200, "held\n")
                })
                .route("GET", "/quick", |_| Response::text(200, "quick\n"))
        };
        let (addr, shutdown, handle) = start_with(router, |server| server.set_trace(trace.clone()));
        let holder = std::thread::spawn(move || {
            raw_exchange(
                addr,
                "GET /hold HTTP/1.1\r\nX-Request-Id: holder-1\r\nConnection: close\r\n\r\n",
            )
        });
        while !entered.is_set() {
            std::thread::sleep(Duration::from_millis(1));
        }
        raw_exchange(
            addr,
            "GET /quick HTTP/1.1\r\nX-Request-Id: quick-1\r\nConnection: close\r\n\r\n",
        );
        let is_quick = |e: &TraceEvent| e.name == "http_request" && has_request_id(e, "quick-1");
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !events.iter().any(is_quick) {
            assert!(
                Instant::now() < deadline,
                "the quick request was never journaled"
            );
            std::thread::sleep(Duration::from_millis(1));
            events.extend(trace.drain().events);
        }
        release.set();
        holder.join().unwrap();
        shutdown.set();
        handle.join().unwrap();

        let quick = events.iter().find(|e| is_quick(e)).unwrap();
        let args: Vec<(&str, &ArgValue)> = quick.args.iter().map(|(k, v)| (*k, v)).collect();
        assert_eq!(
            args,
            [
                ("request_id", &ArgValue::from("quick-1")),
                ("route", &ArgValue::from("/quick")),
                ("code", &ArgValue::from(200u64)),
            ]
        );
    }

    #[test]
    fn the_journal_event_spans_the_whole_request() {
        let trace = Trace::new();
        let flight = FlightRecorder::new(8, 8, u64::MAX);
        let router = Router::new().route("GET", "/sleep", |_| {
            std::thread::sleep(Duration::from_millis(50));
            Response::text(200, "slept\n")
        });
        let (addr, shutdown, handle) = start_with(router, |server| {
            server.set_trace(trace.clone());
            server.set_flight(flight.clone());
        });
        let before_ns = trace.now_ns();
        raw_exchange(
            addr,
            "GET /sleep HTTP/1.1\r\nX-Request-Id: sleep-1\r\nConnection: close\r\n\r\n",
        );
        let after_ns = trace.now_ns();
        shutdown.set();
        handle.join().unwrap();

        let log = trace.drain();
        let event = log
            .named("http_request")
            .find(|e| has_request_id(e, "sleep-1"))
            .expect("journaled");
        let Phase::Complete { dur_ns } = event.ph else {
            panic!("http_request is a complete event: {event:?}")
        };
        assert!(dur_ns >= 50_000_000, "covers the handler: {dur_ns} ns");
        assert!(
            before_ns <= event.ts_ns && event.ts_ns + dur_ns <= after_ns,
            "starts when the request did: {event:?}"
        );
        assert_eq!(dur_ns, flight.lookup("sleep-1").unwrap().total_ns);
    }

    #[test]
    fn malformed_requests_answer_400() {
        let (addr, _ready, shutdown, metrics, handle) = start(Router::new());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        shutdown.set();
        handle.join().unwrap();
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.counter("http.requests_total{route=malformed,code=400}"),
            Some(1)
        );
    }

    #[test]
    fn shutdown_drains_queued_and_in_flight_requests() {
        // One worker, a slow handler: the second connection queues
        // behind the first. Shutdown fires while both are outstanding;
        // both must still complete without a reset.
        let router = Router::new().route("GET", "/slow", |_| {
            std::thread::sleep(Duration::from_millis(120));
            Response::text(200, "done\n")
        });
        let config = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        let mut server = Server::bind(&config).unwrap();
        server.set_router(router);
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        let clients: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || get(addr, "/slow")))
            .collect();
        // Let both connections land, then shut down mid-flight.
        std::thread::sleep(Duration::from_millis(60));
        shutdown.set();
        for client in clients {
            let (status, body) = client.join().unwrap();
            assert_eq!((status, body.as_str()), (200, "done\n"));
        }
        handle.join().unwrap();
        // The listener is gone: new connections are refused.
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Accepted-but-dead sockets can linger briefly; a write+read
                // must fail either way.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                let mut buf = [0u8; 1];
                matches!(s.read(&mut buf), Ok(0) | Err(_))
            }
        );
    }

    #[test]
    fn a_panicking_handler_costs_one_500_not_the_worker() {
        let router = Router::new()
            .route("GET", "/boom", |_| panic!("handler bug"))
            .route("GET", "/hello", |_| Response::text(200, "hi\n"));
        let metrics = Metrics::new();
        let mut server = Server::bind(&ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        server.set_router(router);
        server.set_metrics(metrics.clone());
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        // The client asks for keep-alive; the read still ends because the
        // server closes the connection after the panic.
        let raw = raw_exchange(addr, "GET /boom HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 500"), "{raw}");
        assert_eq!(response_header(&raw, "Connection"), Some("close"));
        // The only worker survived and its admission slot came back.
        for _ in 0..3 {
            assert_eq!(get(addr, "/hello"), (200, "hi\n".into()));
        }
        shutdown.set();
        handle.join().unwrap();
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("http.handler_panics_total"), Some(1));
        assert_eq!(
            snapshot.counter("http.requests_total{route=/boom,code=500}"),
            Some(1)
        );
        assert_eq!(snapshot.gauge("http.in_flight"), Some(0));
    }
}
