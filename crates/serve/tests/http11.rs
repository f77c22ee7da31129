//! HTTP/1.1 conformance tests for the persistent-connection server:
//! pipelining, keep-alive lifecycle, admission control, drain behavior,
//! and chunked response framing, all exercised over real sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use whart_obs::Metrics;
use whart_serve::{Flag, Response, Router, Server, ServerConfig};

/// A parsed response off a persistent connection.
#[derive(Debug)]
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap()
    }
}

/// Reads one framed response (Content-Length or chunked) without
/// relying on the server closing the connection.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .unwrap();
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').unwrap();
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).unwrap();
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            let mut chunk = vec![0u8; size + 2]; // payload + trailing CRLF
            reader.read_exact(&mut chunk).unwrap();
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else {
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap_or(0);
        let mut buf = vec![0u8; length];
        reader.read_exact(&mut buf).unwrap();
        body = buf;
    }
    Reply {
        status,
        headers,
        body,
    }
}

fn start(config: ServerConfig, router: Router) -> (SocketAddr, Flag, std::thread::JoinHandle<()>) {
    let mut server = Server::bind(&config).unwrap();
    server.set_router(router);
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    (addr, shutdown, handle)
}

/// [`start`] with a metrics registry the test can read.
fn start_metered(
    config: ServerConfig,
    router: Router,
) -> (SocketAddr, Flag, std::thread::JoinHandle<()>, Metrics) {
    let metrics = Metrics::new();
    let mut server = Server::bind(&config).unwrap();
    server.set_router(router);
    server.set_metrics(metrics.clone());
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown();
    let handle = std::thread::spawn(move || server.serve().unwrap());
    (addr, shutdown, handle, metrics)
}

fn echo_router() -> Router {
    Router::new()
        .route("GET", "/ping", |_| Response::text(200, "pong\n"))
        .route("POST", "/echo", |req| {
            Response::text(200, req.body_text().unwrap_or("?").to_string())
        })
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    BufReader::new(stream)
}

#[test]
fn pipelined_requests_on_one_socket_answer_in_order() {
    let (addr, shutdown, handle) = start(ServerConfig::default(), echo_router());
    let mut reader = connect(addr);
    // Three requests in a single write; responses must come back in
    // order on the same connection.
    reader
        .get_mut()
        .write_all(
            b"GET /ping HTTP/1.1\r\nHost: t\r\n\r\n\
              POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello\
              GET /ping HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .unwrap();
    let first = read_reply(&mut reader);
    assert_eq!((first.status, first.body_text()), (200, "pong\n"));
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = read_reply(&mut reader);
    assert_eq!((second.status, second.body_text()), (200, "hello"));
    let third = read_reply(&mut reader);
    assert_eq!(third.status, 200);
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn keep_alive_connection_serves_sequential_requests() {
    let (addr, shutdown, handle) = start(ServerConfig::default(), echo_router());
    let mut reader = connect(addr);
    for i in 0..5 {
        write!(reader.get_mut(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let reply = read_reply(&mut reader);
        assert_eq!(reply.status, 200, "request {i} on the same socket");
        assert_eq!(reply.header("connection"), Some("keep-alive"));
    }
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn connection_close_is_honored() {
    let (addr, shutdown, handle) = start(ServerConfig::default(), echo_router());
    let mut reader = connect(addr);
    write!(
        reader.get_mut(),
        "GET /ping HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    // The server must actually close: the next read sees EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes after a closed response");
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn http10_defaults_to_close() {
    let (addr, shutdown, handle) = start(ServerConfig::default(), echo_router());
    let mut reader = connect(addr);
    write!(reader.get_mut(), "GET /ping HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn idle_connections_are_closed_at_the_keepalive_timeout() {
    let config = ServerConfig {
        keepalive_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, shutdown, handle, metrics) = start_metered(config, echo_router());
    let mut reader = connect(addr);
    let started = Instant::now();
    write!(reader.get_mut(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.header("connection"), Some("keep-alive"));
    // Go idle past the keep-alive timeout: the server closes its end
    // and the read sees EOF (not a timeout on our side).
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closed the idle connection");
    assert!(started.elapsed() >= Duration::from_millis(200));
    shutdown.set();
    handle.join().unwrap();
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.counter("http.keepalive.expired_total"), Some(1));
    assert_eq!(snapshot.gauge("http.connections_open"), Some(0));
}

#[test]
fn oversized_bodies_answer_413_and_close() {
    let (addr, shutdown, handle) = start(ServerConfig::default(), echo_router());
    let mut reader = connect(addr);
    // Declare a body over the 16 MiB cap; the server must reject on the
    // declaration alone, without us sending the payload.
    write!(
        reader.get_mut(),
        "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    )
    .unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 413);
    assert_eq!(reply.header("connection"), Some("close"));
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn malformed_content_length_is_rejected() {
    for bad in ["abc", "+5", "-1", "1 2", "0x10"] {
        let (addr, shutdown, handle) = start(ServerConfig::default(), echo_router());
        let mut reader = connect(addr);
        write!(
            reader.get_mut(),
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {bad}\r\n\r\n"
        )
        .unwrap();
        let reply = read_reply(&mut reader);
        assert_eq!(reply.status, 400, "content-length {bad:?}");
        shutdown.set();
        handle.join().unwrap();
    }
}

#[test]
fn conflicting_content_lengths_are_rejected() {
    let (addr, shutdown, handle) = start(ServerConfig::default(), echo_router());
    let mut reader = connect(addr);
    reader
        .get_mut()
        .write_all(
            b"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 400);
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn chunked_responses_decode_and_the_connection_stays_reusable() {
    let big = "x".repeat(200 * 1024);
    let payload = big.clone();
    let router = Router::new()
        .route("GET", "/big", move |_| {
            Response::json(200, payload.clone()).with_chunked()
        })
        .route("GET", "/ping", |_| Response::text(200, "pong\n"));
    let (addr, shutdown, handle) = start(ServerConfig::default(), router);
    let mut reader = connect(addr);
    write!(reader.get_mut(), "GET /big HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("transfer-encoding"),
        Some("chunked"),
        "large body streams chunked"
    );
    assert_eq!(reply.header("content-length"), None);
    assert_eq!(reply.body, big.as_bytes(), "chunks reassemble exactly");
    // Framing intact: the same connection serves another request.
    write!(reader.get_mut(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!((reply.status, reply.body_text()), (200, "pong\n"));
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn chunked_responses_fall_back_to_content_length_for_http10() {
    let router = Router::new().route("GET", "/big", |_| {
        Response::json(200, "y".repeat(100 * 1024)).with_chunked()
    });
    let (addr, shutdown, handle) = start(ServerConfig::default(), router);
    let mut reader = connect(addr);
    write!(reader.get_mut(), "GET /big HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("transfer-encoding"), None);
    assert_eq!(reply.header("content-length"), Some("102400"));
    assert_eq!(reply.body.len(), 100 * 1024);
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn saturated_queue_rejects_with_503_and_retry_after() {
    // One worker, zero queue slots: while the worker is busy, any other
    // readable connection must be rejected immediately, not buffered.
    let router = Router::new()
        .route("GET", "/slow", |_| {
            std::thread::sleep(Duration::from_millis(600));
            Response::text(200, "done\n")
        })
        .route("GET", "/ping", |_| Response::text(200, "pong\n"));
    let config = ServerConfig {
        threads: 1,
        max_queue: 0,
        ..ServerConfig::default()
    };
    let (addr, shutdown, handle) = start(config, router);
    let mut slow = connect(addr);
    write!(slow.get_mut(), "GET /slow HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    // Give the event loop time to dispatch /slow into the lone worker.
    std::thread::sleep(Duration::from_millis(150));
    let mut rejected = connect(addr);
    write!(rejected.get_mut(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(&mut rejected);
    assert_eq!(reply.status, 503, "admission control rejects");
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert_eq!(reply.header("connection"), Some("close"));
    // The in-flight slow request still completes normally.
    let reply = read_reply(&mut slow);
    assert_eq!((reply.status, reply.body_text()), (200, "done\n"));
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn healthz_flips_to_503_once_drain_begins() {
    // One worker. Connection A occupies it with a slow request;
    // connection B's health probe gets queued behind A; drain begins
    // while both are outstanding. B's probe is served mid-drain and
    // must report 503 so load balancers stop routing here.
    let router = Router::new().route("GET", "/slow", |_| {
        std::thread::sleep(Duration::from_millis(400));
        Response::text(200, "done\n")
    });
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (addr, shutdown, handle) = start(config, router);

    // Pre-drain baseline on its own connection.
    let mut probe = connect(addr);
    write!(probe.get_mut(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(&mut probe);
    assert_eq!((reply.status, reply.body_text()), (200, "ok\n"));
    drop(probe);

    let mut slow = connect(addr);
    write!(slow.get_mut(), "GET /slow HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let mut queued = connect(addr);
    write!(queued.get_mut(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    shutdown.set();

    let reply = read_reply(&mut slow);
    assert_eq!(reply.status, 200, "in-flight request drains normally");
    assert_eq!(reply.header("connection"), Some("close"), "drain closes");
    let reply = read_reply(&mut queued);
    assert_eq!(
        (reply.status, reply.body_text()),
        (503, "draining\n"),
        "a draining server must stop reporting healthy"
    );
    handle.join().unwrap();
}

#[test]
fn trickling_clients_time_out_with_408() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let (addr, shutdown, handle) = start(config, echo_router());
    let mut reader = connect(addr);
    // Start a request but never finish the head.
    reader
        .get_mut()
        .write_all(b"GET /ping HTTP/1.1\r\nHos")
        .unwrap();
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 408);
    assert_eq!(reply.header("connection"), Some("close"));
    shutdown.set();
    handle.join().unwrap();
}

/// One `GET /ping` on a persistent connection; returns the status.
fn ping(reader: &mut BufReader<TcpStream>) -> u16 {
    write!(reader.get_mut(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let reply = read_reply(reader);
    assert_eq!(reply.header("connection"), Some("keep-alive"));
    reply.status
}

#[test]
fn a_held_idle_connection_never_costs_another_connection_a_503() {
    // One worker, no queue slots. After A's response the worker holds A
    // idle; B's request must still be admitted (a held connection takes
    // no slot) and served well before A could expire. With two
    // connections open to one worker, both then keep being served.
    let config = ServerConfig {
        threads: 1,
        max_queue: 0,
        keepalive_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    };
    let (addr, shutdown, handle, metrics) = start_metered(config, echo_router());
    // The worker frees its admission slot just after the response bytes
    // leave, which no client read can observe, but before
    // `http.in_flight` drops to 0: wait for the gauge before switching
    // connections. With the slot still taken, a 503 would be the
    // admission rule working, not a held connection.
    let settle = || {
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().gauge("http.in_flight") != Some(0) {
            assert!(Instant::now() < deadline, "the request never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let started = Instant::now();
    let mut a = connect(addr);
    assert_eq!(ping(&mut a), 200);
    settle();
    let mut b = connect(addr);
    assert_eq!(ping(&mut b), 200, "B is admitted while A is held");
    settle();
    assert_eq!(ping(&mut a), 200, "A is served again");
    settle();
    assert_eq!(ping(&mut b), 200);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "served long before the keep-alive timeout: {:?}",
        started.elapsed()
    );
    shutdown.set();
    handle.join().unwrap();
}

#[test]
fn shutdown_closes_a_held_connection_within_a_tick() {
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (addr, shutdown, handle) = start(config, echo_router());
    let mut reader = connect(addr);
    assert_eq!(ping(&mut reader), 200);
    let started = Instant::now();
    shutdown.set();
    handle.join().unwrap();
    // The event loop notices the flag within one 250 ms tick.
    assert!(
        started.elapsed() < Duration::from_millis(250 + 750),
        "serve() returned {:?} after shutdown",
        started.elapsed()
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "drain closed the held connection");
}
