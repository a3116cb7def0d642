//! Multi-client serving over a durable session: a length-prefixed wire
//! protocol on TCP, a blocking accept loop with one worker thread per
//! connection, and a snapshot read path that never blocks ingest.
//!
//! ## Protocol
//!
//! Every request and response is one frame: a big-endian `u32` byte length
//! followed by that many bytes of UTF-8 text. A request is a single
//! statement — TQL (`SELECT …`), DML (`INSERT`/`UPDATE`/`DELETE`), DDL
//! (`CREATE …`), or a meta-command (`.metrics`, `.lint`, `.wal`,
//! `.ping`). A response's first line is its status:
//!
//! ```text
//! OK <pin-micros|->     the request succeeded; for queries, the
//!                       transaction tick the snapshot was pinned at
//! ERR <message>         the statement was rejected (parse/constraint)
//! BUSY <message>        admission control rejected it; retry later
//! READONLY <message>    the database is degraded; writes are refused
//! ```
//!
//! The remaining lines are the body (query results, outcome, metrics…).
//!
//! ## Read path
//!
//! `SELECT` statements never touch the database's locks while executing:
//! the server grabs the memoized
//! [`latest_snapshot`](tempora_design::Database::latest_snapshot) — an
//! `Arc`-shared chunk view pinned at the last issued transaction stamp — and
//! runs the query on it. Writers proceed concurrently; the `OK` line
//! carries the pin so a client (or a differential test) can reconstruct
//! the exact view later with
//! [`snapshot_at`](tempora_design::Database::snapshot_at).
//!
//! ## Robustness
//!
//! Per-connection socket timeouts bound how long a stalled peer can hold
//! a worker; a bounded in-flight gate sheds load with retriable `BUSY`
//! responses; a request that panics is answered `ERR internal` and gives
//! its in-flight slot back; a degraded WAL ([`WalError::Degraded`]) turns
//! writes into `READONLY` responses carrying the parked-frame diagnostic
//! while reads keep flowing; and [`Server::shutdown`] drains gracefully —
//! stop accepting, finish in-flight requests, checkpoint, close.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tempora_query::QueryResult;
use tempora_time::Timestamp;
use tempora_wal::{DurableDatabase, WalError};

/// Upper bound on a single frame's payload, requests and responses alike.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connections beyond this are refused with a `BUSY` frame.
    pub max_connections: usize,
    /// Requests executing concurrently beyond this get `BUSY` responses.
    pub max_inflight: usize,
    /// Socket read/write timeout per connection: a peer that stalls
    /// longer than this mid-request is disconnected.
    pub request_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_connections: 128,
            max_inflight: 64,
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// Reads one `[u32 BE length][payload]` frame. `Ok(None)` on a clean EOF
/// at a frame boundary.
///
/// # Errors
///
/// IO errors (including read timeouts), an oversized length prefix, or an
/// EOF inside a frame.
pub fn read_frame(stream: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0_u8; 4];
    match stream.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            while got < 4 {
                let more = stream.read(&mut len_buf[got..])?;
                if more == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside a frame length prefix",
                    ));
                }
                got += more;
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes}-byte limit"),
        ));
    }
    let mut payload = vec![0_u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one `[u32 BE length][payload]` frame and flushes it.
///
/// # Errors
///
/// IO errors (including write timeouts) and oversized payloads.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "frame too large for a u32 prefix")
    })?;
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
                payload.len()
            ),
        ));
    }
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Renders just the element lines of a query result — the deterministic
/// part a differential harness compares (stats carry strategy/examined
/// counts, which legitimately differ between a snapshot execution and a
/// replay against a restored copy).
#[must_use]
pub fn render_elements(result: &QueryResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in &result.elements {
        let _ = writeln!(out, "  {e}");
        for (name, value) in &e.attrs {
            let _ = writeln!(out, "    {name} = {value}");
        }
    }
    out
}

fn render_query_response(pin: Timestamp, result: &QueryResult) -> String {
    format!(
        "OK {}\n{}\n{}",
        pin.micros(),
        result.stats,
        render_elements(result)
    )
}

/// Executes one request against the database, returning the full response
/// text (status line + body). Exposed so tests can drive the dispatch
/// without a socket.
#[must_use]
pub fn handle_request(db: &DurableDatabase, request: &str) -> String {
    let request = request.trim();
    let first = request
        .split_whitespace()
        .next()
        .unwrap_or("")
        .to_ascii_uppercase();
    if let Some(meta) = request.strip_prefix('.') {
        return handle_meta(db, meta);
    }
    match first.as_str() {
        "SELECT" => {
            // Lock-free read path: the memoized snapshot pinned at the
            // last issued stamp. Ingest proceeds concurrently.
            let snap = db.db().latest_snapshot();
            match snap.query(request) {
                Ok(result) => render_query_response(snap.pin(), &result),
                Err(e) => format!("ERR {e}"),
            }
        }
        "CREATE" | "INSERT" | "DELETE" | "UPDATE" => match db.execute(request) {
            Ok(outcome) => format!("OK -\n{outcome}"),
            Err(WalError::Degraded(msg)) => {
                tempora_obs::counter("tempora_serve_readonly_responses_total").inc();
                let status = db.status();
                format!(
                    "READONLY {msg}; {} parked frame(s) await `.wal retry`; \
                     reads stay available",
                    status.pending
                )
            }
            Err(e) => format!("ERR {e}"),
        },
        _ => format!(
            "ERR unknown statement {:?} (expected SELECT, INSERT, UPDATE, DELETE, CREATE, \
             or a meta-command)",
            request.split_whitespace().next().unwrap_or("")
        ),
    }
}

fn handle_meta(db: &DurableDatabase, meta: &str) -> String {
    let mut parts = meta.split_whitespace();
    match parts.next().unwrap_or("") {
        "ping" => "OK -\npong".to_string(),
        "metrics" => {
            // A torn-read-free snapshot of the process registry, in the
            // Prometheus text exposition.
            format!("OK -\n{}", tempora_obs::snapshot().to_prometheus())
        }
        "lint" => {
            let analyses = db.db().lint_all();
            let mut body = String::new();
            for analysis in analyses {
                body.push_str(&analysis.to_string());
                body.push('\n');
            }
            format!("OK -\n{body}")
        }
        "wal" => match parts.next() {
            Some("retry") => match db.retry() {
                Ok(()) => format!("OK -\n{}", db.status()),
                Err(e) => format!("ERR retry failed: {e}"),
            },
            _ => format!("OK -\n{}", db.status()),
        },
        other => format!("ERR unknown meta-command .{other}"),
    }
}

struct Shared {
    db: Arc<DurableDatabase>,
    config: ServeConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    connections: AtomicUsize,
    /// Live connection streams, for unblocking reads during drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
}

/// A running `tempora-serve` instance: an accept loop plus one worker
/// thread per connection, all over one shared [`DurableDatabase`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7777`, or port `0` for an ephemeral
    /// port) and starts accepting clients.
    ///
    /// # Errors
    ///
    /// The bind failure.
    pub fn start(
        db: Arc<DurableDatabase>,
        addr: &str,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            config,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server {
            shared,
            addr: local,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently open connections.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.shared.connections.load(Ordering::SeqCst)
    }

    /// Gracefully drains and stops: no new connections are accepted,
    /// in-flight requests finish, every idle connection is closed, and the
    /// database is checkpointed so a fresh open replays nothing.
    ///
    /// Returns the checkpoint epoch.
    ///
    /// # Errors
    ///
    /// [`WalError::Degraded`] when the database cannot checkpoint (parked
    /// frames are not durable); the server is fully stopped regardless.
    pub fn shutdown(mut self) -> Result<u64, WalError> {
        self.stop_threads();
        self.shared.db.checkpoint()
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Let in-flight requests finish before severing connections.
        while self.shared.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Ok(conns) = self.shared.conns.lock() {
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let workers = match self.shared.workers.lock() {
            Ok(mut w) => std::mem::take(&mut *w),
            Err(_) => Vec::new(),
        };
        for handle in workers {
            let _ = handle.join();
        }
        tempora_obs::gauge("tempora_serve_connections").set(0);
        tempora_obs::gauge("tempora_serve_inflight").set(0);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stop.load(Ordering::SeqCst) {
            self.stop_threads();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let open = shared.connections.fetch_add(1, Ordering::SeqCst) + 1;
        if open > shared.config.max_connections {
            shared.connections.fetch_sub(1, Ordering::SeqCst);
            tempora_obs::counter("tempora_serve_busy_rejections_total").inc();
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = write_frame(
                &mut stream,
                format!(
                    "BUSY {} connection(s) open (limit {}); retry",
                    open - 1,
                    shared.config.max_connections
                )
                .as_bytes(),
            );
            continue;
        }
        tempora_obs::gauge("tempora_serve_connections").set(open as i64);
        let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        if let (Ok(clone), Ok(mut conns)) = (stream.try_clone(), shared.conns.lock()) {
            conns.insert(id, clone);
        }
        let worker_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            serve_connection(&worker_shared, stream);
            if let Ok(mut conns) = worker_shared.conns.lock() {
                conns.remove(&id);
            }
            let open = worker_shared.connections.fetch_sub(1, Ordering::SeqCst) - 1;
            tempora_obs::gauge("tempora_serve_connections").set(open as i64);
        });
        if let Ok(mut workers) = shared.workers.lock() {
            workers.push(handle);
        }
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let timeout = shared.config.request_timeout;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    while !shared.stop.load(Ordering::SeqCst) {
        let payload = match read_frame(&mut stream, MAX_FRAME_BYTES) {
            Ok(Some(payload)) => payload,
            // Clean EOF, a read timeout, or a torn frame all end the
            // connection; the client reconnects if it wants more.
            Ok(None) | Err(_) => break,
        };
        let response = match String::from_utf8(payload) {
            Err(_) => "ERR request is not UTF-8".to_string(),
            Ok(text) => {
                let slot = InflightSlot::acquire(
                    &shared.inflight,
                    tempora_obs::gauge("tempora_serve_inflight"),
                );
                if slot.count > shared.config.max_inflight {
                    tempora_obs::counter("tempora_serve_busy_rejections_total").inc();
                    format!(
                        "BUSY {} request(s) in flight (limit {}); retry",
                        slot.count, shared.config.max_inflight
                    )
                } else {
                    tempora_obs::counter("tempora_serve_requests_total").inc();
                    let from = std::time::Instant::now();
                    let response = contain_panics(|| handle_request(&shared.db, &text));
                    tempora_obs::histogram("tempora_serve_request_seconds")
                        .record_us(u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX));
                    response
                }
            }
        };
        if write_frame(&mut stream, response.as_bytes()).is_err() {
            break;
        }
    }
}

/// One request's in-flight slot: taken before dispatch and given back on
/// drop, so a request that panics cannot leak it (after `max_inflight`
/// leaks every request would get `BUSY`). `gauge` mirrors the count.
struct InflightSlot<'a> {
    inflight: &'a AtomicUsize,
    gauge: Arc<tempora_obs::Gauge>,
    /// In-flight requests including this one, at acquisition.
    count: usize,
}

impl<'a> InflightSlot<'a> {
    fn acquire(inflight: &'a AtomicUsize, gauge: Arc<tempora_obs::Gauge>) -> Self {
        let count = inflight.fetch_add(1, Ordering::SeqCst) + 1;
        gauge.set(count as i64);
        InflightSlot {
            inflight,
            gauge,
            count,
        }
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let now = self.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.gauge.set(now as i64);
    }
}

/// Runs a request handler, turning a panic into an `ERR internal`
/// response (counted in `tempora_serve_panics_total`) so the connection
/// and its worker survive.
fn contain_panics(handler: impl FnOnce() -> String) -> String {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        tempora_obs::counter("tempora_serve_panics_total").inc();
        "ERR internal".to_string()
    })
}

/// A response's status line, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseStatus {
    /// The request succeeded. For queries, `pin` is the transaction tick
    /// the answering snapshot was pinned at.
    Ok {
        /// The snapshot pin, when the response came from the read path.
        pin: Option<Timestamp>,
    },
    /// Admission control rejected the request; it is safe to retry.
    Busy,
    /// The database is degraded read-only; writes are refused.
    ReadOnly,
    /// The statement was rejected.
    Error,
}

/// A parsed server response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status line's verdict.
    pub status: ResponseStatus,
    /// The status line's trailing detail (pin, error message…).
    pub detail: String,
    /// Everything after the status line.
    pub body: String,
}

impl Response {
    /// Parses a response frame's text.
    #[must_use]
    pub fn parse(text: &str) -> Response {
        let (first, body) = match text.split_once('\n') {
            Some((first, body)) => (first, body.to_string()),
            None => (text, String::new()),
        };
        let (verb, detail) = match first.split_once(' ') {
            Some((verb, detail)) => (verb, detail.to_string()),
            None => (first, String::new()),
        };
        let status = match verb {
            "OK" => ResponseStatus::Ok {
                pin: detail.parse::<i64>().ok().map(Timestamp::from_micros),
            },
            "BUSY" => ResponseStatus::Busy,
            "READONLY" => ResponseStatus::ReadOnly,
            _ => ResponseStatus::Error,
        };
        Response {
            status,
            detail,
            body,
        }
    }

    /// Whether the request may be retried verbatim (admission backoff).
    #[must_use]
    pub fn is_retriable(&self) -> bool {
        self.status == ResponseStatus::Busy
    }
}

/// A blocking client for the wire protocol.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// The connect failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one statement and awaits its response.
    ///
    /// # Errors
    ///
    /// IO failures (including the server closing the connection).
    pub fn request(&mut self, statement: &str) -> io::Result<Response> {
        write_frame(&mut self.stream, statement.as_bytes())?;
        let payload = read_frame(&mut self.stream, MAX_FRAME_BYTES)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )
        })?;
        let text = String::from_utf8(payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
        Ok(Response::parse(&text))
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tempora_time::{ManualClock, TransactionClock};
    use tempora_wal::{DurabilityConfig, MemStorage};

    fn served_db() -> (Arc<DurableDatabase>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
        let (db, _) = DurableDatabase::open(
            Arc::new(MemStorage::new()),
            clock.clone(),
            DurabilityConfig::default(),
        )
        .expect("open");
        db.execute_ddl("CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING) AS EVENT WITH RETROACTIVE")
            .expect("ddl");
        (Arc::new(db), clock)
    }

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello frames").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"hello frames"
        );
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn oversized_and_torn_frames_are_errors() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // A length prefix larger than the cap.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes().to_vec();
        assert!(read_frame(&mut io::Cursor::new(huge), MAX_FRAME_BYTES).is_err());
        // A frame cut short mid-payload.
        let torn = &buf[..buf.len() - 3];
        assert!(read_frame(&mut io::Cursor::new(torn.to_vec()), MAX_FRAME_BYTES).is_err());
    }

    #[test]
    fn dispatch_answers_queries_from_a_pinned_snapshot() {
        let (db, clock) = served_db();
        clock.set(Timestamp::from_secs(10));
        db.execute("INSERT INTO plant OBJECT 1 VALID 1970-01-01T00:00:05 SET temperature = 19.5")
            .expect("insert");
        let response = Response::parse(&handle_request(&db, "SELECT FROM plant"));
        let ResponseStatus::Ok { pin: Some(pin) } = response.status else {
            panic!("expected a pinned OK, got {response:?}");
        };
        assert_eq!(pin, clock.now());
        assert!(response.body.contains("temperature"), "{}", response.body);
    }

    #[test]
    fn dispatch_rejects_unknown_statements_and_relations() {
        let (db, _) = served_db();
        let r = Response::parse(&handle_request(&db, "EXPLODE plant"));
        assert_eq!(r.status, ResponseStatus::Error);
        let r = Response::parse(&handle_request(&db, "SELECT FROM ghost"));
        assert_eq!(r.status, ResponseStatus::Error);
        assert!(r.detail.contains("ghost"), "{}", r.detail);
    }

    #[test]
    fn meta_commands_answer_inline() {
        let (db, _) = served_db();
        let metrics = Response::parse(&handle_request(&db, ".metrics"));
        assert!(matches!(metrics.status, ResponseStatus::Ok { .. }));
        let wal = Response::parse(&handle_request(&db, ".wal"));
        assert!(wal.body.contains("epoch"), "{}", wal.body);
        let lint = Response::parse(&handle_request(&db, ".lint"));
        assert!(matches!(lint.status, ResponseStatus::Ok { .. }));
        let pong = Response::parse(&handle_request(&db, ".ping"));
        assert_eq!(pong.body, "pong");
        let unknown = Response::parse(&handle_request(&db, ".frobnicate"));
        assert_eq!(unknown.status, ResponseStatus::Error);
    }

    #[test]
    fn server_round_trips_over_a_real_socket() {
        let (db, clock) = served_db();
        let server =
            Server::start(Arc::clone(&db), "127.0.0.1:0", ServeConfig::default()).expect("start");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        clock.set(Timestamp::from_secs(10));
        let insert = client
            .request("INSERT INTO plant OBJECT 1 VALID 1970-01-01T00:00:05 SET temperature = 20.5")
            .expect("insert request");
        assert!(matches!(insert.status, ResponseStatus::Ok { .. }), "{insert:?}");
        let select = client.request("SELECT FROM plant").expect("select request");
        let ResponseStatus::Ok { pin: Some(_) } = select.status else {
            panic!("expected pinned OK, got {select:?}");
        };
        assert!(select.body.contains("temperature"), "{}", select.body);
        // Drain: the shutdown checkpoint compacts the log.
        let epoch = server.shutdown().expect("shutdown checkpoints");
        assert_eq!(epoch, 1);
    }

    #[test]
    fn inflight_gate_sheds_load_with_busy() {
        let (db, _) = served_db();
        let server = Server::start(
            Arc::clone(&db),
            "127.0.0.1:0",
            ServeConfig {
                max_inflight: 0, // every request over the gate
                ..ServeConfig::default()
            },
        )
        .expect("start");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        let response = client.request("SELECT FROM plant").expect("request");
        assert!(response.is_retriable(), "{response:?}");
        drop(server);
    }

    #[test]
    fn connection_cap_refuses_with_busy() {
        let (db, _) = served_db();
        let server = Server::start(
            Arc::clone(&db),
            "127.0.0.1:0",
            ServeConfig {
                max_connections: 1,
                ..ServeConfig::default()
            },
        )
        .expect("start");
        let addr = server.local_addr().to_string();
        let mut first = Client::connect(&addr).expect("first connect");
        assert!(matches!(
            first.request(".ping").expect("ping").status,
            ResponseStatus::Ok { .. }
        ));
        // The second connection is turned away at the door.
        let mut second = Client::connect(&addr).expect("tcp connects");
        let refusal = read_frame(&mut second.stream, MAX_FRAME_BYTES)
            .expect("refusal frame")
            .expect("not eof");
        let refusal = Response::parse(std::str::from_utf8(&refusal).expect("utf8"));
        assert!(refusal.is_retriable(), "{refusal:?}");
        drop(server);
    }

    #[test]
    fn a_panicking_request_releases_its_inflight_slot() {
        let inflight = AtomicUsize::new(0);
        let gauge = tempora_obs::gauge("t_serve_inflight_slot");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let slot = InflightSlot::acquire(&inflight, Arc::clone(&gauge));
            assert_eq!(slot.count, 1);
            assert_eq!(gauge.get(), 1);
            panic!("handler panicked mid-request");
        }));
        assert!(outcome.is_err());
        assert_eq!(inflight.load(Ordering::SeqCst), 0, "slot leaked");
        assert_eq!(gauge.get(), 0, "gauge out of step with the count");
    }

    #[test]
    fn a_panicking_handler_answers_err_internal() {
        let panics = tempora_obs::counter("tempora_serve_panics_total");
        let before = panics.get();
        let response = contain_panics(|| panic!("boom"));
        assert_eq!(Response::parse(&response).status, ResponseStatus::Error);
        assert_eq!(response, "ERR internal");
        assert!(panics.get() > before);
        assert_eq!(contain_panics(|| "OK -".to_string()), "OK -");
    }

    #[test]
    fn writes_during_degraded_mode_get_readonly_responses() {
        use tempora_wal::{AppendFault, FaultPlan, FaultStorage};
        let plan = FaultPlan::new();
        let mem = MemStorage::new();
        let storage = FaultStorage::new(Arc::new(mem), Arc::clone(&plan));
        let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
        let (db, _) = DurableDatabase::open(
            Arc::new(storage),
            clock.clone(),
            DurabilityConfig {
                append_retries: 0,
                ..DurabilityConfig::default()
            },
        )
        .expect("open");
        db.execute_ddl("CREATE TEMPORAL RELATION r (k KEY) AS EVENT").expect("ddl");
        clock.set(Timestamp::from_secs(10));
        plan.fail_append(2, AppendFault::Error);
        let degraded = Response::parse(&handle_request(
            &db,
            "INSERT INTO r OBJECT 1 VALID 1970-01-01T00:00:05",
        ));
        assert_eq!(degraded.status, ResponseStatus::ReadOnly, "{degraded:?}");
        assert!(degraded.detail.contains("parked frame"), "{}", degraded.detail);
        // Reads keep answering from the snapshot.
        let read = Response::parse(&handle_request(&db, "SELECT FROM r"));
        assert!(matches!(read.status, ResponseStatus::Ok { .. }), "{read:?}");
    }
}
