//! # hdb-server — the networked hidden-database service
//!
//! Exposes any [`SearchBackend`] over the hidden-DB wire protocol
//! ([`hdb_interface::wire`]): length-prefixed binary frames over TCP,
//! covering `schema` / `len` / `evaluate` / `exact_count` / `exact_sum`
//! plus the incremental walk fast path with **server-side session state**
//! keyed by a session id, so a drill-down probe from a
//! [`RemoteBackend`](hdb_interface::RemoteBackend) costs one AND on the
//! server and one round trip on the wire — and since a probe carries the
//! branch commitments made before it, a drill-down *step* (commit a
//! branch, probe a child) costs that same single round trip.
//!
//! ## Concurrency model
//!
//! [`ServerConfig::pool_threads`] serving threads share one
//! [`reactor`](hdb_interface::reactor) (`epoll` on Linux, portable `poll`
//! elsewhere) over the listener and every connection, all one-shot
//! registered. Each thread blocks in the reactor for one event at a time
//! and serves it on the spot: the thread that wakes on the listener
//! accepts, and the thread that wakes on a connection takes it out of the
//! table and runs its turn — flush pending output, serve up to a fixed
//! quota of buffered frames, read until the socket would block, then
//! re-arm. A request is thus answered on the thread that woke for it,
//! with no hand-off between threads. A connection that uses up its quota
//! re-arms for read and write; its send buffer has room, so it fires
//! again at once, behind the events already ready. Idle connections cost
//! **zero** syscalls and zero turns — there is no sweep.
//!
//! ## Session lifecycle
//!
//! `WalkOpen` materialises the root match set and returns a `sid`; a
//! walk probe (`WalkClassify`, count-only — the protocol's one walk probe)
//! references `(sid, parent_level)` and names its query once: the named
//! level's query, then the extends the client committed since its last
//! probe, then the probed predicate. The server compares the named
//! level's query with that prefix in one slice comparison, then pushes
//! each extend above `parent_level` as the next prefix of the probe's
//! query, truncating any deeper levels first (the walk is
//! stack-disciplined, so a retract is simply the client extending from a
//! shallower level), and classifies against the level the last one
//! pushed — all under the session's stack lock, so a chain commits
//! atomically against concurrent probes of the same session. A probe
//! whose prefix is not the named level's query (another walk's sid, say
//! after a restart) is treated like a missing session, so it can never be
//! answered from another walk's state. Every level's query is a strict
//! prefix of a validated query, which constrains each attribute once, so
//! no session grows deeper than the schema is wide. Sessions
//! die on `WalkClose`, by LRU eviction (O(log n) via an explicit
//! recency order) once the table exceeds its cap, or with the process —
//! the table is soft state and is never persisted. A missing session is
//! *not* an error: a probe without extends falls back to fresh
//! evaluation (bit-identical, one intersection slower), and one with
//! extends answers `SessionGone` so the client re-roots.
//!
//! ## Observability
//!
//! The server keeps its query ledger in a [`QueryCounter`], the type a
//! client's `HiddenDb` charges: every probe-shaped request (`Evaluate`
//! and `WalkClassify`) bumps `hdb_queries_issued_total` and exactly one
//! of `underflow`/`valid`/`overflow`/`errored`, so
//! `issued == underflow + valid + overflow + errored` holds on every
//! scrape. A `Stats` request answers the merged snapshot (backend
//! series, server ledger, serving counters) over the wire; an optional
//! second listener ([`ServerConfig::metrics_addr`]) serves the same
//! snapshot as a Prometheus text exposition over HTTP. Recording
//! happens strictly after each response is computed — responses are
//! bit-identical with the ledger on or off the scrape path.
//!
//! ## Robustness
//!
//! Every decoder is total: a malformed-but-framed payload gets a typed
//! [`Response::Error`]; an unframeable byte stream (corrupt length
//! prefix) closes the connection. Every reply is one frame of at most
//! [`MAX_FRAME_LEN`](hdb_interface::wire::MAX_FRAME_LEN) bytes: a reply
//! that would be larger is answered with a typed [`Response::Error`]
//! (tallied `errored` if it was a probe), and the connection keeps
//! serving. Once a connection's output drains, its buffer shrinks back to
//! 16 KiB, so one large reply does not stay allocated for the life of the
//! connection. The server never panics on input.
//!
//! ```no_run
//! use hdb_interface::{HiddenDb, Query, RemoteBackend, Table, Schema, TopKInterface, Tuple};
//! use hdb_server::Server;
//!
//! let table = Table::new(Schema::boolean(2), vec![Tuple::new(vec![0, 1])]).unwrap();
//! let server = Server::bind(hdb_interface::TableBackend::new(table), "127.0.0.1:0").unwrap();
//! let db = HiddenDb::over(RemoteBackend::connect(server.addr().to_string()).unwrap(), 10);
//! assert!(db.query(&Query::all()).unwrap().is_valid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hdb_interface::reactor::{Interest, Reactor, ReactorKind};
use hdb_interface::wire::{write_frame, FrameBuf, Request, Response, PROTOCOL_VERSION};
use hdb_interface::{
    HdbError, MetricsSnapshot, Predicate, Query, QueryCounter, Result, Schema, SearchBackend,
    WalkState,
};

/// The reactor token reserved for the listener; connections count up
/// from [`FIRST_CONN_TOKEN`].
const LISTENER_TOKEN: u64 = 0;
/// The reactor token reserved for the optional metrics listener.
const METRICS_TOKEN: u64 = 1;
/// The first connection token.
const FIRST_CONN_TOKEN: u64 = 2;
/// How long a serving thread blocks per reactor wait — a liveness
/// backstop only (shutdown also wakes the reactor via the listener);
/// no per-connection work happens on this cadence.
const WAIT_BACKSTOP: Duration = Duration::from_millis(500);
/// Frames served to one connection per turn before it yields to the
/// other ready connections (the fairness quota).
const FRAMES_PER_TURN: usize = 64;
/// Output-buffer capacity a connection keeps once its output drains: a
/// walk probe's reply at `k = 10` is about 1 KiB, so this holds a run of
/// small replies, while the capacity of a larger one is given back.
const OUT_RETAIN: usize = 16 * 1024;

/// Tuning knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Serving threads. Each blocks in the shared reactor for one ready
    /// event at a time and serves it itself, so more threads serve more
    /// connections truly concurrently; the default covers the typical
    /// client pool (see `docs/ARCHITECTURE.md` §Serving layer on sizing).
    pub pool_threads: usize,
    /// Walk sessions kept before LRU eviction kicks in. Each session
    /// holds one materialised match set per committed walk level.
    pub session_cap: usize,
    /// Readiness backend: `Auto` picks `epoll` on Linux; `Portable`
    /// forces the `poll` fallback (tests exercise it everywhere).
    pub reactor: ReactorKind,
    /// Address for the Prometheus-text metrics endpoint (port 0 for
    /// ephemeral). `None` (the default) binds no metrics listener; the
    /// `Stats` wire request answers regardless.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            pool_threads: hdb_interface::par::default_workers().max(4),
            session_cap: 1024,
            reactor: ReactorKind::Auto,
            metrics_addr: None,
        }
    }
}

/// One committed walk level: its query and the materialised state. Level
/// 0 is the session root; above it, each level's query is the one below
/// plus one predicate: [`walk_probe`] pushes the next prefix of the
/// probe's query.
struct Level {
    query: Query,
    state: WalkState,
}

/// One walk session: the server-side level stack, stack-disciplined
/// (level 0 is the session root). Recency lives in the table, not here,
/// so a slow probe holding the stack lock never stalls table-wide
/// operations.
struct Session {
    stack: Mutex<Vec<Level>>,
}

/// The two sides of the session index, kept in lock-step under one lock:
/// `by_sid` answers probes, `by_recency` answers "who is stalest" in
/// O(log n). Both are ordered structures so eviction order is
/// deterministic on every server alike.
#[derive(Default)]
struct SessionTable {
    by_sid: BTreeMap<u64, (u64, Arc<Session>)>,
    by_recency: BTreeSet<(u64, u64)>,
}

/// The server-side walk-session table: sid → state stack, LRU-capped
/// with an explicit recency order (eviction is O(log n), not an O(n)
/// scan — the C10K regime holds thousands of live sessions). It is soft
/// state, held only in memory: a probe naming a session it lacks is
/// answered bit-identically, fresh or by `SessionGone` and a client
/// re-root.
struct Sessions {
    table: Mutex<SessionTable>,
    next_sid: AtomicU64,
    clock: AtomicU64,
    cap: usize,
    /// LRU evictions so far (an evicted session is not an error, but a
    /// rising rate means the cap is too small for the client fleet).
    evictions: AtomicU64,
}

impl Sessions {
    fn new(cap: usize) -> Self {
        Self {
            table: Mutex::new(SessionTable::default()),
            next_sid: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            cap: cap.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    /// Opens a session rooted at `root`, evicting the stalest entry if
    /// the table is at cap.
    fn open(&self, root: Query, root_state: WalkState) -> u64 {
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        let touched = self.clock.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(Session {
            stack: Mutex::new(vec![Level { query: root, state: root_state }]),
        });
        // Poison recovery: the table holds plain data (the two maps are
        // re-synchronised on every mutation), so a panicked holder
        // leaves it fully usable.
        let mut t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        if t.by_sid.len() >= self.cap {
            // LRU eviction: the recency set's first pair is the stalest
            // session. Eviction is safe — clients fall back to fresh
            // evaluation, bit-identically.
            if let Some(&stale) = t.by_recency.first() {
                t.by_recency.remove(&stale);
                t.by_sid.remove(&stale.1);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        t.by_sid.insert(sid, (touched, entry));
        t.by_recency.insert((touched, sid));
        sid
    }

    /// The predicates committed in session `sid`, one per level above its
    /// root, shallowest first, leaving its recency alone; `None` if it is
    /// gone or its stack is poisoned. Each level's query is the one below
    /// plus its predicate, so that predicate is the query's last.
    fn steps(&self, sid: u64) -> Option<Vec<Predicate>> {
        let entry = {
            let t = self.table.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(&t.by_sid.get(&sid)?.1)
        };
        let stack = entry.stack.lock().ok()?;
        stack.iter().skip(1).map(|l| l.query.predicates().last().copied()).collect()
    }

    /// The session, bumped to most-recently-used.
    fn get(&self, sid: u64) -> Option<Arc<Session>> {
        let touched = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        let (old, entry) = {
            let slot = t.by_sid.get_mut(&sid)?;
            let old = slot.0;
            slot.0 = touched;
            (old, Arc::clone(&slot.1))
        };
        t.by_recency.remove(&(old, sid));
        t.by_recency.insert((touched, sid));
        Some(entry)
    }

    fn close(&self, sid: u64) {
        let mut t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((touched, _)) = t.by_sid.remove(&sid) {
            t.by_recency.remove(&(touched, sid));
        }
    }

    fn len(&self) -> usize {
        self.table.lock().unwrap_or_else(|p| p.into_inner()).by_sid.len()
    }

    fn clear(&self) {
        let mut t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        t.by_sid.clear();
        t.by_recency.clear();
    }
}

/// Everything the serving threads share.
struct Inner<B> {
    backend: B,
    sessions: Sessions,
    shutdown: AtomicBool,
    reactor: Reactor,
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    conns: Mutex<BTreeMap<u64, Conn>>,
    next_token: AtomicU64,
    /// Connection turns started by readiness events (idle connections
    /// add zero).
    dispatches: AtomicU64,
    /// Request frames served.
    frames: AtomicU64,
    /// The query ledger: one recorded probe per probe-shaped request,
    /// unmetered (the clients hold the budgets).
    ledger: QueryCounter,
}

impl<B: SearchBackend> Inner<B> {
    /// The merged snapshot every exposure path serves: backend-reported
    /// series, the ledger, and the serving counters, in one ordered map.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.backend.fill_metrics(&mut snap);
        self.ledger.publish(&mut snap);
        snap.counters.insert(
            "hdb_server_dispatches_total".to_string(),
            self.dispatches.load(Ordering::Relaxed),
        );
        snap.counters
            .insert("hdb_server_frames_total".to_string(), self.frames.load(Ordering::Relaxed));
        snap.counters.insert(
            "hdb_server_session_evictions_total".to_string(),
            self.sessions.evictions.load(Ordering::Relaxed),
        );
        snap.gauges.insert("hdb_server_sessions".to_string(), self.sessions.len() as u64);
        snap
    }
}

/// Validates a wire-supplied ranking spec: an attribute ranking must
/// reference a schema attribute (scoring would index out of bounds
/// otherwise — the wire is untrusted).
fn validate_ranking(schema: &Schema, spec: hdb_interface::RankingSpec) -> Result<()> {
    if let hdb_interface::RankingSpec::Attribute { attr, .. } = spec {
        if attr >= schema.len() {
            return Err(HdbError::InvalidQuery(format!(
                "ranking attribute {attr} out of range"
            )));
        }
    }
    Ok(())
}

/// Validates and narrows a wire `k`.
fn validate_k(k: u64) -> Result<usize> {
    match usize::try_from(k) {
        Ok(k) if k >= 1 => Ok(k),
        _ => Err(HdbError::InvalidQuery(format!("k must be in 1..=usize::MAX, got {k}"))),
    }
}

/// Classifies `child` against the level a walk probe reads. `child` is
/// the query of level `parent_level` (its prefix), then `extends`
/// predicates that commit pending levels, then the probed predicate; a
/// count that leaves no probed predicate is refused with a typed error
/// before any session lookup. With no extends, the probe reads
/// `parent_level` itself; a missing session, a poisoned stack (some
/// probe panicked mid-update, so its contents are suspect), a retired
/// level, or a level whose query is not the prefix (the sid is some
/// other walk's, say one handed out by a restarted server) leaves no
/// state, and the probe evaluates fresh — bit-identical, one
/// intersection slower. Otherwise the stack is truncated above
/// `parent_level` (the walk is stack-disciplined, and the truncation
/// makes a replayed chain idempotent), each extend is pushed as the next
/// prefix of `child`, and the probe reads the level the last one pushed,
/// under the same lock. A chain that cannot commit — missing or poisoned
/// session (a poisoned one is closed), retired parent level, or a named
/// level whose query is not the prefix — answers `SessionGone` and
/// commits nothing, so the client re-roots.
fn walk_probe<B: SearchBackend>(
    inner: &Inner<B>,
    sid: u64,
    parent_level: u32,
    extends: u32,
    child: &Query,
    k: usize,
) -> Result<Response> {
    let preds = child.predicates();
    let split = usize::try_from(extends).ok().and_then(|n| {
        let (&pred, path) = preds.split_last()?;
        let (prefix, pushed) = path.split_at_checked(path.len().checked_sub(n)?)?;
        Some((prefix, pushed, pred))
    });
    let Some((prefix, pushed, pred)) = split else {
        return Err(HdbError::InvalidQuery(format!(
            "a walk probe's extends ({extends}) must be fewer than its query's predicates ({})",
            preds.len()
        )));
    };
    let classify = |parent: Option<&WalkState>| -> Result<Response> {
        Ok(Response::Classified(match parent {
            Some(parent) => inner.backend.classify_from(parent, child, pred, k)?,
            None => hdb_interface::Classified::from_evaluation(
                inner.backend.evaluate(child, k, &hdb_interface::RowIdRanking)?,
                k,
            ),
        }))
    };
    let entry = inner.sessions.get(sid);
    let parent = parent_level as usize;
    let named = |l: &Level| l.query.predicates() == prefix;
    if pushed.is_empty() {
        let stack = entry.as_ref().and_then(|e| e.stack.lock().ok());
        let level = stack.as_ref().and_then(|s| s.get(parent));
        return classify(level.filter(|l| named(l)).map(|l| &l.state));
    }
    let Some(entry) = entry else { return Ok(Response::SessionGone) };
    let Ok(mut stack) = entry.stack.lock() else {
        inner.sessions.close(sid);
        return Ok(Response::SessionGone);
    };
    // The chain must hang off the level it names before anything is
    // truncated. A validated query constrains each attribute once, so
    // this prefix rule also keeps the stack within the schema's width.
    if !stack.get(parent).is_some_and(named) {
        return Ok(Response::SessionGone);
    }
    stack.truncate(parent + 1);
    for &p in pushed {
        let Some(top) = stack.last() else { return Ok(Response::SessionGone) };
        let query = top.query.and(p.attr, p.value)?;
        let state = inner.backend.extend_state(&top.state, &query, p, WalkState::fallback());
        stack.push(Level { query, state });
    }
    classify(stack.last().map(|l| &l.state))
}

/// Answers one decoded request, appending the reply to `out` as one
/// frame. Total: every failure path is a typed [`Response::Error`] (or
/// the graceful `SessionGone`), never a panic. Fails only if not even an
/// error frame could be encoded; the connection must then drop.
fn handle_request<B: SearchBackend>(
    inner: &Inner<B>,
    req: Request,
    out: &mut Vec<u8>,
) -> Result<()> {
    let schema = inner.backend.schema();
    // Probe-shaped requests feed the ledger; `k` is captured up front
    // because the match below consumes the request.
    let probe_k = match &req {
        Request::Evaluate { k, .. } | Request::WalkClassify { k, .. } => Some(*k),
        _ => None,
    };
    let outcome = (|| -> Result<Response> {
        Ok(match req {
            Request::Hello { version } => {
                if version != PROTOCOL_VERSION {
                    return Err(HdbError::Transport(format!(
                        "protocol version mismatch: server {PROTOCOL_VERSION}, client {version}"
                    )));
                }
                Response::Hello { version: PROTOCOL_VERSION }
            }
            Request::Schema => Response::Schema(schema.clone()),
            Request::Len => Response::Len(inner.backend.len() as u64),
            Request::Evaluate { query, k, ranking } => {
                query.validate(schema)?;
                validate_ranking(schema, ranking)?;
                let k = validate_k(k)?;
                Response::Evaluation(inner.backend.evaluate(
                    &query,
                    k,
                    ranking.instantiate().as_ref(),
                )?)
            }
            Request::ExactCount { query } => {
                query.validate(schema)?;
                Response::Count(inner.backend.exact_count(&query)? as u64)
            }
            Request::ExactSum { attr, query } => {
                query.validate(schema)?;
                let attr = usize::try_from(attr)
                    .map_err(|_| HdbError::InvalidQuery("attribute id overflows".into()))?;
                Response::Sum(inner.backend.exact_sum(attr, &query)?)
            }
            Request::WalkOpen { root } => {
                root.validate(schema)?;
                let state = inner.backend.walk_state(&root);
                Response::Session { sid: inner.sessions.open(root, state) }
            }
            Request::WalkClassify { sid, parent_level, extends, child, k } => {
                child.validate(schema)?;
                let k = validate_k(k)?;
                walk_probe(inner, sid, parent_level, extends, &child, k)?
            }
            Request::WalkClose { sid } => {
                inner.sessions.close(sid);
                Response::Closed
            }
            Request::Stats => Response::Stats(inner.metrics_snapshot()),
        })
    })();
    let resp = enqueue_response(out, outcome.unwrap_or_else(Response::Error))?;
    // Ledger recording happens strictly after the reply is encoded: the
    // answer is bit-identical whether or not anyone ever scrapes. Errors,
    // `SessionGone` (a chained probe's no-answer road) and replies too
    // large for a frame land in `errored`; everything else partitions on
    // the true match count.
    if let Some(k) = probe_k {
        let count = match &resp {
            Response::Evaluation(ev) => Some(ev.count as u64),
            Response::Classified(c) => Some(c.count as u64),
            _ => None,
        };
        inner.ledger.record(count, k);
    }
    Ok(())
}

/// Appends `resp` to `out` as one frame and returns the reply that went
/// out. A reply that cannot be one frame — over
/// [`MAX_FRAME_LEN`](hdb_interface::wire::MAX_FRAME_LEN) bytes, or a
/// length beyond the wire's `u32` ranges — goes out as its typed error
/// instead, so the connection keeps serving. Failure means not even the
/// error could be framed, and the connection must drop.
fn enqueue_response(out: &mut Vec<u8>, resp: Response) -> Result<Response> {
    // `write_frame` checks the cap before writing a byte, so a refused
    // reply leaves `out` as it was.
    match resp.encode().and_then(|payload| write_frame(out, &payload)) {
        Ok(()) => Ok(resp),
        Err(e) => {
            let err = Response::Error(e);
            write_frame(out, &err.encode()?)?;
            Ok(err)
        }
    }
}

/// One connection's serving state. Lives in the connection table while
/// parked (armed in the reactor) and is owned by exactly one serving
/// thread while being served — one-shot notification makes the hand-off
/// race-free.
struct Conn {
    stream: TcpStream,
    buf: FrameBuf,
    /// Encoded-but-unsent response frames.
    out: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self { stream, buf: FrameBuf::new(), out: Vec::new(), out_pos: 0 }
    }
}

enum FlushState {
    Drained,
    Blocked,
    Gone,
}

/// Writes as much pending output as the socket accepts.
fn flush(conn: &mut Conn) -> FlushState {
    while conn.out_pos < conn.out.len() {
        let Some(rest) = conn.out.get(conn.out_pos..) else {
            return FlushState::Gone;
        };
        match conn.stream.write(rest) {
            Ok(0) => return FlushState::Gone,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return FlushState::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return FlushState::Gone,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    conn.out.shrink_to(OUT_RETAIN);
    FlushState::Drained
}

enum ReadState {
    More,
    Blocked,
    Gone,
}

/// Pulls whatever the socket has buffered (nonblocking).
fn read_more(conn: &mut Conn) -> ReadState {
    let mut chunk = [0u8; 16 * 1024];
    match conn.stream.read(&mut chunk) {
        Ok(0) => ReadState::Gone, // clean EOF
        // `read` contracts n ≤ chunk.len(); a lying Read impl gets the
        // connection dropped, not a panic.
        Ok(n) => match chunk.get(..n) {
            Some(got) => {
                conn.buf.extend(got);
                ReadState::More
            }
            None => ReadState::Gone,
        },
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => ReadState::Blocked,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => ReadState::More,
        Err(_) => ReadState::Gone,
    }
}

/// Drops a connection: deregister from the reactor, close the socket.
fn close_conn<B>(inner: &Inner<B>, conn: Conn) {
    inner.reactor.deregister(conn.stream.as_raw_fd());
    drop(conn);
}

/// Parks a connection back into the table and re-arms its readiness
/// interest. Insert-before-arm: one-shot registration guarantees no
/// event can fire until the arm, so the thread that wakes for it always
/// finds the connection in the table.
fn park<B>(inner: &Inner<B>, token: u64, conn: Conn, interest: Interest) {
    let fd = conn.stream.as_raw_fd();
    inner.conns.lock().unwrap_or_else(|p| p.into_inner()).insert(token, conn);
    if inner.reactor.rearm(fd, token, interest).is_err() {
        let removed = inner.conns.lock().unwrap_or_else(|p| p.into_inner()).remove(&token);
        if let Some(conn) = removed {
            close_conn(inner, conn);
        }
    }
}

/// One turn over a connection: flush, serve up to the fairness quota of
/// frames, read until the socket blocks, then park.
fn turn<B: SearchBackend>(inner: &Inner<B>, token: u64, mut conn: Conn) {
    if inner.shutdown.load(Ordering::Acquire) {
        close_conn(inner, conn);
        return;
    }
    let mut served = 0usize;
    loop {
        match flush(&mut conn) {
            FlushState::Drained => {}
            FlushState::Blocked => return park(inner, token, conn, Interest::WRITE),
            FlushState::Gone => return close_conn(inner, conn),
        }
        if served >= FRAMES_PER_TURN {
            // Fairness: yield to the other ready connections. Its send
            // buffer has room unless the peer stopped reading, so the
            // re-armed connection fires again at once, behind the events
            // already ready.
            return park(inner, token, conn, Interest::READ_WRITE);
        }
        match conn.buf.next_frame() {
            Ok(Some(payload)) => {
                let answered = match Request::decode(&payload) {
                    Ok(req) => handle_request(inner, req, &mut conn.out),
                    // Malformed but correctly framed: the stream stays
                    // synchronised, so answer a typed error and keep
                    // serving.
                    Err(e) => enqueue_response(&mut conn.out, Response::Error(e)).map(drop),
                };
                if answered.is_err() {
                    return close_conn(inner, conn);
                }
                inner.frames.fetch_add(1, Ordering::Relaxed);
                served += 1;
            }
            Ok(None) => match read_more(&mut conn) {
                ReadState::More => {}
                ReadState::Blocked => return park(inner, token, conn, Interest::READ),
                ReadState::Gone => return close_conn(inner, conn),
            },
            // Corrupt length prefix: the byte stream can never
            // resynchronise — drop the connection.
            Err(_) => return close_conn(inner, conn),
        }
    }
}

/// Accepts every pending connection on the (nonblocking) listener and
/// registers each with the reactor.
fn accept_ready<B>(inner: &Inner<B>) {
    loop {
        match inner.listener.accept() {
            Ok((stream, _)) => {
                let setup =
                    stream.set_nodelay(true).and_then(|()| stream.set_nonblocking(true));
                if setup.is_err() {
                    continue;
                }
                let token = inner.next_token.fetch_add(1, Ordering::Relaxed);
                let fd = stream.as_raw_fd();
                inner
                    .conns
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(token, Conn::new(stream));
                if inner.reactor.register(fd, token, Interest::READ).is_err() {
                    inner.conns.lock().unwrap_or_else(|p| p.into_inner()).remove(&token);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Serves one Prometheus scrape: drain the request head (the path is
/// ignored — every scrape gets the full exposition), write an
/// `HTTP/1.0` response, close. Runs on the serving thread that accepted
/// it, with bounded timeouts so a stalled scraper pins that thread for
/// seconds at most.
fn serve_scrape<B: SearchBackend>(inner: &Inner<B>, mut stream: TcpStream) {
    let setup = stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(2))))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(2))));
    if setup.is_err() {
        return;
    }
    // Read until the blank line ending the request head (or a bounded
    // cap — a scrape carries no body worth waiting for).
    let mut head = vec![0u8; 4096];
    let mut got = 0usize;
    while got < head.len() {
        let Some(room) = head.get_mut(got..) else { break };
        match stream.read(room) {
            Ok(0) => break,
            Ok(n) => {
                got += n;
                let read = head.get(..got).unwrap_or_default();
                if read.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    let body = inner.metrics_snapshot().render_prometheus();
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Accepts every pending scrape connection on the (nonblocking) metrics
/// listener and serves each.
fn accept_scrapes<B: SearchBackend>(inner: &Inner<B>, metrics: &TcpListener) {
    loop {
        match metrics.accept() {
            Ok((stream, _)) => serve_scrape(inner, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// A serving thread: blocks in the shared reactor for one event at a
/// time and serves it on the spot — accepting on a listener, or running
/// the woken connection's turn. Runs until the shutdown flag is set
/// ([`RunningServer::stop`] wakes the reactor with throwaway
/// connections).
fn serving_thread<B: SearchBackend>(inner: &Inner<B>) {
    while !inner.shutdown.load(Ordering::Acquire) {
        let ev = match inner.reactor.wait(Some(WAIT_BACKSTOP)) {
            Ok(Some(ev)) => ev,
            Ok(None) => continue,
            Err(_) => break,
        };
        let rearmed = match (ev.token, &inner.metrics_listener) {
            (LISTENER_TOKEN, _) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                accept_ready(inner);
                inner.reactor.rearm(inner.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            }
            (METRICS_TOKEN, Some(metrics)) => {
                accept_scrapes(inner, metrics);
                inner.reactor.rearm(metrics.as_raw_fd(), METRICS_TOKEN, Interest::READ)
            }
            (token, _) => {
                let conn = inner.conns.lock().unwrap_or_else(|p| p.into_inner()).remove(&token);
                // A missing entry is a stale event for a connection that
                // already closed — ignore.
                if let Some(conn) = conn {
                    inner.dispatches.fetch_add(1, Ordering::Relaxed);
                    turn(inner, token, conn);
                }
                Ok(())
            }
        };
        if rearmed.is_err() {
            break;
        }
    }
    // Pass the shutdown wake-up on: a throwaway connection is still
    // pending, so the re-armed listener wakes the next serving thread.
    let _ = inner.reactor.rearm(inner.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
}

/// Namespace for [`Server::bind`].
pub struct Server;

impl Server {
    /// Binds `backend` to `addr` (use port 0 for an ephemeral port) with
    /// the default [`ServerConfig`] and starts serving in background
    /// threads. The returned handle stops the server when dropped.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if the address cannot be bound.
    pub fn bind<B: SearchBackend + 'static>(
        backend: B,
        addr: impl ToSocketAddrs,
    ) -> Result<RunningServer> {
        Self::bind_with(backend, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit tuning.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if the address cannot be bound or the
    /// readiness backend cannot be created.
    pub fn bind_with<B: SearchBackend + 'static>(
        backend: B,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<RunningServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| HdbError::Transport(format!("bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| HdbError::Transport(format!("local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| HdbError::Transport(format!("nonblocking listener: {e}")))?;
        let reactor = Reactor::with_kind(config.reactor)
            .map_err(|e| HdbError::Transport(format!("reactor: {e}")))?;
        reactor
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .map_err(|e| HdbError::Transport(format!("register listener: {e}")))?;
        let metrics = match &config.metrics_addr {
            None => None,
            Some(addr) => {
                let m = TcpListener::bind(addr.as_str())
                    .map_err(|e| HdbError::Transport(format!("bind metrics {addr}: {e}")))?;
                m.set_nonblocking(true)
                    .map_err(|e| HdbError::Transport(format!("nonblocking metrics: {e}")))?;
                reactor
                    .register(m.as_raw_fd(), METRICS_TOKEN, Interest::READ)
                    .map_err(|e| HdbError::Transport(format!("register metrics: {e}")))?;
                Some(m)
            }
        };
        let metrics_addr = match &metrics {
            None => None,
            Some(m) => Some(
                m.local_addr()
                    .map_err(|e| HdbError::Transport(format!("metrics local_addr: {e}")))?,
            ),
        };
        let inner = Arc::new(Inner {
            backend,
            sessions: Sessions::new(config.session_cap),
            shutdown: AtomicBool::new(false),
            reactor,
            listener,
            metrics_listener: metrics,
            conns: Mutex::new(BTreeMap::new()),
            next_token: AtomicU64::new(FIRST_CONN_TOKEN),
            dispatches: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            ledger: QueryCounter::unlimited(),
        });
        let threads = (0..config.pool_threads.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || serving_thread(&inner))
            })
            .collect();
        Ok(RunningServer { addr: local_addr, metrics_addr, control: Control(inner), threads })
    }
}

/// Type-erased handle on the shared server state (the server handle
/// must not be generic over the backend).
struct Control(Arc<dyn ControlTarget>);

trait ControlTarget: Send + Sync {
    fn set_shutdown(&self);
    fn session_count(&self) -> usize;
    fn session_steps(&self, sid: u64) -> Option<Vec<Predicate>>;
    fn dispatch_count(&self) -> u64;
    fn frame_count(&self) -> u64;
    fn reactor_name(&self) -> &'static str;
    fn drain(&self);
    fn metrics_snapshot(&self) -> MetricsSnapshot;
}

impl<B: SearchBackend> ControlTarget for Inner<B> {
    fn set_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn session_count(&self) -> usize {
        self.sessions.len()
    }

    fn session_steps(&self, sid: u64) -> Option<Vec<Predicate>> {
        self.sessions.steps(sid)
    }

    fn dispatch_count(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    fn frame_count(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    fn reactor_name(&self) -> &'static str {
        self.reactor.backend_name()
    }

    fn drain(&self) {
        // Every serving thread has joined by the time this runs: every
        // parked connection can be deregistered and closed, and the
        // session table cleared, without racing a turn.
        let parked = std::mem::take(
            &mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()),
        );
        for (_, conn) in parked {
            self.reactor.deregister(conn.stream.as_raw_fd());
        }
        self.sessions.clear();
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        Inner::metrics_snapshot(self)
    }
}

/// A live server: [`ServerConfig::pool_threads`] serving threads over
/// one reactor. Dropping it (or calling [`RunningServer::shutdown`])
/// stops accepting, closes every connection, drains the session table,
/// and joins all threads.
pub struct RunningServer {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    control: Control,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-endpoint address, when
    /// [`ServerConfig::metrics_addr`] asked for one.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The merged metrics snapshot — the same one a `Stats` wire request
    /// or a Prometheus scrape would serve.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.control.0.metrics_snapshot()
    }

    /// Live walk sessions (diagnostics for tests and ops).
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.control.0.session_count()
    }

    /// The predicates committed in session `sid`, one per level above its
    /// root, shallowest first, or `None` if the server holds no such
    /// session (diagnostics for tests and ops; reading them leaves the
    /// session's recency alone).
    #[must_use]
    pub fn session_steps(&self, sid: u64) -> Option<Vec<Predicate>> {
        self.control.0.session_steps(sid)
    }

    /// Connection turns started by readiness events so far, including
    /// each one after a connection yielded its fairness quota. Idle
    /// connections add zero — this is the regression pin for the
    /// poll-sweep defect.
    #[must_use]
    pub fn dispatch_count(&self) -> u64 {
        self.control.0.dispatch_count()
    }

    /// Request frames served so far.
    #[must_use]
    pub fn frame_count(&self) -> u64 {
        self.control.0.frame_count()
    }

    /// The readiness backend in use (`"epoll"` or `"poll"`).
    #[must_use]
    pub fn reactor_name(&self) -> &'static str {
        self.control.0.reactor_name()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.control.0.set_shutdown();
        // Unblock the reactor with throwaway connections: listener
        // readiness wakes a serving thread, which sees the flag and
        // re-arms the listener on its way out, so a connection still
        // pending wakes the next. One per thread: one that a thread
        // mid-accept takes wakes a thread by its hang-up instead.
        for _ in &self.threads {
            let _ = TcpStream::connect(self.addr);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // With every serving thread joined, drain parked connections
        // and the session table.
        self.control.0.drain();
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdb_interface::wire::{read_frame, MAX_FRAME_LEN};
    use hdb_interface::{
        Clock as _, HiddenDb, Query, RemoteBackend, Table, TableBackend, TopKInterface, Tuple,
    };

    fn table() -> Table {
        let tuples: Vec<Tuple> =
            (0..32u16).map(|i| Tuple::new((0..5).map(|b| (i >> b) & 1).collect())).collect();
        Table::new(Schema::boolean(5), tuples).unwrap()
    }

    fn serve() -> RunningServer {
        serve_with(ServerConfig::default())
    }

    fn serve_with(config: ServerConfig) -> RunningServer {
        Server::bind_with(TableBackend::new(table()), "127.0.0.1:0", config).unwrap()
    }

    fn ask(stream: &mut TcpStream, req: &Request) -> Response {
        write_frame(stream, &req.encode().unwrap()).unwrap();
        let payload = read_frame(stream).unwrap().unwrap();
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn round_trip_over_loopback() {
        let server = serve();
        let remote = RemoteBackend::connect(server.addr().to_string()).unwrap();
        assert_eq!(remote.len(), 32);
        assert_eq!(remote.schema().len(), 5);
        let db = HiddenDb::over(remote, 3);
        assert!(db.query(&Query::all()).unwrap().is_overflow());
        let q = Query::all().and(0, 1).unwrap().and(1, 1).unwrap().and(2, 1).unwrap();
        let out = db.query(&q).unwrap();
        assert!(out.is_overflow());
        assert_eq!(db.queries_issued(), 2);
        server.shutdown();
    }

    #[test]
    fn portable_reactor_serves_identically() {
        let server =
            serve_with(ServerConfig { reactor: ReactorKind::Portable, ..Default::default() });
        assert_eq!(server.reactor_name(), "poll");
        let remote = HiddenDb::over(RemoteBackend::connect(server.addr().to_string()).unwrap(), 3);
        let local = HiddenDb::new(table(), 3);
        for q in [Query::all(), Query::all().and(0, 1).unwrap()] {
            assert_eq!(local.query(&q).unwrap(), remote.query(&q).unwrap());
        }
        server.shutdown();
    }

    #[test]
    fn idle_connections_cost_zero_dispatches() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(
            ask(&mut stream, &Request::Hello { version: PROTOCOL_VERSION }),
            Response::Hello { version: PROTOCOL_VERSION }
        );
        let after_handshake = server.dispatch_count();
        // The connection now sits idle. Under the old poll-sweep every
        // 2 ms slice cost a timed read; under readiness notification an
        // idle connection must cost nothing at all.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(server.dispatch_count(), after_handshake, "idle connection was swept");
        // …and it is still alive and served on demand.
        assert_eq!(ask(&mut stream, &Request::Len), Response::Len(32));
        assert!(server.dispatch_count() > after_handshake);
        server.shutdown();
    }

    /// The serving loop on both backends. With one serving thread, a
    /// connection pipelining a long run of frames yields after its quota,
    /// so a second one is answered long before the run is served; with
    /// four, shutdown wakes every thread at once, not at the backstop.
    #[test]
    fn serving_threads_share_fairly_and_stop_promptly() {
        const PIPELINED: usize = 100_000;
        for reactor in [ReactorKind::Auto, ReactorKind::Portable] {
            let config =
                |pool_threads| ServerConfig { pool_threads, reactor, ..Default::default() };
            let server = serve_with(config(1));
            let mut busy = TcpStream::connect(server.addr()).unwrap();
            let mut replies = busy.try_clone().unwrap();
            let (first_tx, first_rx) = std::sync::mpsc::channel();
            // Every reply is drained, so the busy connection never meets
            // back-pressure.
            let reader = std::thread::spawn(move || {
                for i in 0..PIPELINED {
                    let payload = read_frame(&mut replies).unwrap().unwrap();
                    assert_eq!(Response::decode(&payload).unwrap(), Response::Len(32));
                    if i == 0 {
                        first_tx.send(()).unwrap();
                    }
                }
            });
            let mut frames = Vec::new();
            let len = Request::Len.encode().unwrap();
            for _ in 0..PIPELINED {
                write_frame(&mut frames, &len).unwrap();
            }
            let writer = std::thread::spawn(move || busy.write_all(&frames).unwrap());
            first_rx.recv().unwrap();
            let mut other = TcpStream::connect(server.addr()).unwrap();
            assert_eq!(ask(&mut other, &Request::Len), Response::Len(32));
            let served = server.frame_count();
            assert!(
                served < PIPELINED as u64 / 2,
                "{reactor:?}: the second connection waited for {served} pipelined frames"
            );
            writer.join().unwrap();
            reader.join().unwrap();
            server.shutdown();

            let server = serve_with(config(4));
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            assert_eq!(ask(&mut stream, &Request::Len), Response::Len(32));
            let clock = hdb_interface::WallClock::new();
            server.shutdown();
            let took = Duration::from_nanos(clock.now_nanos());
            assert!(took < WAIT_BACKSTOP / 2, "{reactor:?}: shutdown took {took:?}");
        }
    }

    #[test]
    fn walk_sessions_survive_extend_retract_and_eviction() {
        let server = serve_with(ServerConfig { session_cap: 2, ..Default::default() });
        let local = HiddenDb::new(table(), 2);
        let remote =
            HiddenDb::over(RemoteBackend::connect(server.addr().to_string()).unwrap(), 2);
        let mut lw = local.walk_session(Query::all()).unwrap();
        let mut rw = remote.walk_session(Query::all()).unwrap();
        // A branch extended again right after its retract is re-committed
        // and reads the server level its chain committed; once a sibling's
        // chain has overwritten that level, the branch must be rebuilt.
        for (attr, v) in [(0usize, 1u16), (1, 1), (2, 1)] {
            lw.extend(attr, v);
            rw.extend(attr, v);
        }
        for (step, a3) in (1..).zip([1u16, 1, 0, 1]) {
            if step > 1 {
                lw.retract();
                rw.retract();
                lw.extend(2, a3);
                rw.extend(2, a3);
            }
            let want = lw.classify(3, 1).unwrap();
            let ids: Vec<_> = want.tuples().iter().map(|t| t.id).collect();
            assert_eq!(ids, if a3 == 1 { [15, 31] } else { [11, 27] }, "step {step}");
            assert_eq!(rw.classify(3, 1).unwrap(), want, "step {step}: A3={a3}, probe A4=1");
        }
        for _ in 0..3 {
            lw.retract();
            rw.retract();
        }
        for (attr, v) in [(0usize, 1u16), (1, 0), (2, 1)] {
            assert_eq!(
                lw.classify(attr, v).unwrap(),
                rw.classify(attr, v).unwrap(),
                "probe {attr}={v}"
            );
            lw.extend(attr, v);
            rw.extend(attr, v);
        }
        lw.retract();
        rw.retract();
        assert_eq!(lw.classify(2, 0).unwrap(), rw.classify(2, 0).unwrap());
        // Two extends with no probe between ride on the next probe as a
        // chain; after a retract, a probe from the chain's first node
        // reads that node's level, not its child's.
        lw.extend(2, 0);
        rw.extend(2, 0);
        lw.extend(3, 1);
        rw.extend(3, 1);
        assert_eq!(lw.classify(4, 0).unwrap(), rw.classify(4, 0).unwrap());
        lw.retract();
        rw.retract();
        assert_eq!(lw.classify(4, 1).unwrap(), rw.classify(4, 1).unwrap());
        lw.retract();
        rw.retract();
        // cap 2: two more sessions evict the first; probes still answer
        let _s2 = remote.walk_session(Query::all()).unwrap();
        let _s3 = remote.walk_session(Query::all()).unwrap();
        assert!(server.session_count() <= 2);
        assert_eq!(lw.classify(2, 1).unwrap(), rw.classify(2, 1).unwrap());
        assert_eq!(local.queries_issued(), remote.queries_issued());
        server.shutdown();
    }

    fn open(stream: &mut TcpStream) -> u64 {
        match ask(stream, &Request::WalkOpen { root: Query::all() }) {
            Response::Session { sid } => sid,
            other => panic!("expected a session, got {other:?}"),
        }
    }

    /// A count-only walk probe of `below ∧ attr = value` from
    /// `parent_level`, whose last `extends` predicates before the probed
    /// one commit pending levels first.
    fn classify(
        sid: u64,
        parent_level: u32,
        extends: u32,
        below: &Query,
        (attr, value): (usize, u16),
    ) -> Request {
        Request::WalkClassify {
            sid,
            parent_level,
            extends,
            child: below.and(attr, value).unwrap(),
            k: 2,
        }
    }

    /// A probe naming a level whose query its child does not extend —
    /// another walk's, as after a server restart hands the sid out again
    /// — is never answered from that level: without extends it is
    /// evaluated fresh, with extends it gets `SessionGone`, and the
    /// session it named keeps its stack.
    #[test]
    fn a_probe_naming_another_walks_level_is_not_answered_from_it() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let sid = open(&mut stream);
        let two = Query::all().and(4, 1).unwrap().and(3, 0).unwrap();
        let commit = classify(sid, 0, 2, &two, (2, 1));
        assert!(matches!(ask(&mut stream, &commit), Response::Classified(_)));
        // Another walk, three levels deep: 0=1, 1=0, 2=1.
        let theirs = Query::all().and(0, 1).unwrap().and(1, 0).unwrap().and(2, 1).unwrap();
        let probed = theirs.and(3, 1).unwrap();
        let want = hdb_interface::Classified::from_evaluation(
            TableBackend::new(table()).evaluate(&probed, 2, &hdb_interface::RowIdRanking).unwrap(),
            2,
        );
        assert_eq!(want.page.iter().map(|t| t.id).collect::<Vec<_>>(), [13, 29]);
        let fresh = classify(sid, 1, 0, &theirs, (3, 1));
        assert_eq!(ask(&mut stream, &fresh), Response::Classified(want));
        let chained = classify(sid, 1, 1, &probed, (4, 0));
        assert_eq!(ask(&mut stream, &chained), Response::SessionGone);
        assert_eq!(server.session_steps(sid), Some(two.predicates().to_vec()));
        server.shutdown();
    }

    #[test]
    fn lru_eviction_follows_recency_not_sid_order() {
        let server = serve_with(ServerConfig { session_cap: 2, ..Default::default() });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let one = Query::all().and(0, 1).unwrap();
        let extend =
            |stream: &mut TcpStream, sid: u64| ask(stream, &classify(sid, 0, 1, &one, (1, 0)));
        let s1 = open(&mut stream);
        let s2 = open(&mut stream);
        // Touch s1 so s2 is now the stalest; the next open must evict
        // s2, not the lowest sid.
        assert!(matches!(extend(&mut stream, s1), Response::Classified(_)));
        let s3 = open(&mut stream);
        assert!(matches!(extend(&mut stream, s2), Response::SessionGone), "s2 must be evicted");
        assert!(matches!(extend(&mut stream, s1), Response::Classified(_)));
        assert!(matches!(extend(&mut stream, s3), Response::Classified(_)));
        // Two levels, then a retract to one: a chain from the retired
        // second level cannot commit.
        let two = one.and(1, 0).unwrap();
        let deep = classify(s1, 0, 2, &two, (2, 1));
        assert!(matches!(ask(&mut stream, &deep), Response::Classified(_)));
        assert!(matches!(extend(&mut stream, s1), Response::Classified(_)));
        let retired = classify(s1, 2, 1, &two.and(2, 1).unwrap(), (3, 0));
        assert_eq!(ask(&mut stream, &retired), Response::SessionGone);
        assert_eq!(server.session_steps(s1), Some(one.predicates().to_vec()));
        server.shutdown();
    }

    /// Two steps carried by one probe commit exactly what the same two
    /// steps sent one per probe commit, and the probes answer bitwise
    /// the same.
    #[test]
    fn chained_probe_is_bit_identical_to_one_step_per_probe() {
        let server = serve();
        let mut a = TcpStream::connect(server.addr()).unwrap();
        let mut b = TcpStream::connect(server.addr()).unwrap();
        let (sid_a, sid_b) = (open(&mut a), open(&mut b));
        let one = Query::all().and(0, 1).unwrap();
        let two = one.and(1, 0).unwrap();
        // One step per probe on session a…
        let first = ask(&mut a, &classify(sid_a, 0, 1, &one, (1, 1)));
        assert!(matches!(first, Response::Classified(_)), "{first:?}");
        let split = ask(&mut a, &classify(sid_a, 1, 1, &two, (2, 1)));
        // …both steps in one probe on session b.
        let chained = ask(&mut b, &classify(sid_b, 0, 2, &two, (2, 1)));
        assert!(matches!(split, Response::Classified(_)), "{split:?}");
        assert_eq!(split, chained);
        let steps = Some(two.predicates().to_vec());
        assert_eq!(server.session_steps(sid_a), steps);
        assert_eq!(server.session_steps(sid_b), steps);
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_garbage_drops_the_connection() {
        let server = serve();
        // Well-framed garbage payload → typed error response, connection
        // stays usable.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &[0x7F, 1, 2, 3]).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Error(HdbError::Transport(_))
        ));
        // The same connection still serves real requests.
        assert_eq!(ask(&mut stream, &Request::Len), Response::Len(32));
        // The retired walk probes are unknown tags now: a version-5 body
        // carrying two steps (tag 0x0A: sid, parent level, step count,
        // each step's predicate and query, then the probe's query,
        // predicate and k), and the full-page probe (tag 0x09, the same
        // body plus a row-id ranking byte). Each gets a typed error, and
        // the connection keeps serving.
        let sid = open(&mut stream);
        let pred =
            |attr: u64, value: u16| [attr.to_le_bytes().as_slice(), &value.to_le_bytes()].concat();
        let query = |preds: &[(u64, u16)]| {
            let count = u32::try_from(preds.len()).unwrap().to_le_bytes().to_vec();
            [count, preds.iter().flat_map(|&(a, v)| pred(a, v)).collect()].concat()
        };
        let v5 = [
            vec![0x0A],
            sid.to_le_bytes().to_vec(),
            0u32.to_le_bytes().to_vec(),
            2u32.to_le_bytes().to_vec(),
            pred(0, 1),
            query(&[(0, 1)]),
            pred(1, 0),
            query(&[(0, 1), (1, 0)]),
            query(&[(0, 1), (1, 0), (2, 1)]),
            pred(2, 1),
            2u64.to_le_bytes().to_vec(),
        ]
        .concat();
        let mut v4 = v5.clone();
        v4[0] = 0x09;
        v4.push(0x00);
        for (tag, retired) in [("0x0a", v5), ("0x09", v4)] {
            write_frame(&mut stream, &retired).unwrap();
            let payload = read_frame(&mut stream).unwrap().unwrap();
            match Response::decode(&payload).unwrap() {
                Response::Error(HdbError::Transport(msg)) => {
                    assert!(msg.contains(&format!("unknown request tag {tag}")), "{msg}");
                }
                other => panic!("retired tag {tag} got {other:?}"),
            }
            assert_eq!(ask(&mut stream, &Request::Len), Response::Len(32));
        }
        // A version-5 client is refused with the typed mismatch error.
        let refused = ask(&mut stream, &Request::Hello { version: 5 });
        assert!(matches!(&refused, Response::Error(HdbError::Transport(m))
            if m.contains("protocol version mismatch")), "{refused:?}");
        // Unframeable input (absurd length prefix) → connection dropped.
        let mut evil = TcpStream::connect(server.addr()).unwrap();
        evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(evil.read(&mut buf).unwrap_or(0), 0, "server must close");
        // Invalid queries and k = 0 get typed errors, not panics.
        let remote = RemoteBackend::connect(server.addr().to_string()).unwrap();
        let bad = Query::all().and(9, 0).unwrap();
        assert!(matches!(
            remote.exact_count(&bad),
            Err(HdbError::InvalidQuery(_))
        ));
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let resp = ask(
            &mut stream,
            &Request::Evaluate {
                query: Query::all(),
                k: 0,
                ranking: hdb_interface::RankingSpec::RowId,
            },
        );
        assert!(matches!(resp, Response::Error(HdbError::InvalidQuery(_))));
        server.shutdown();
    }

    /// A backend whose one tuple is too wide for a frame: its values
    /// alone take [`MAX_FRAME_LEN`] bytes on the wire.
    struct TooWide(Schema);

    impl SearchBackend for TooWide {
        fn schema(&self) -> &Schema {
            &self.0
        }

        fn len(&self) -> usize {
            1
        }

        fn evaluate(
            &self,
            _: &Query,
            _: usize,
            _: &dyn hdb_interface::RankingFunction,
        ) -> Result<hdb_interface::Evaluation> {
            let tuple = Tuple::new(vec![0; MAX_FRAME_LEN / 2]);
            let top = vec![hdb_interface::ReturnedTuple { id: 0, tuple }];
            Ok(hdb_interface::Evaluation { count: 1, top })
        }

        fn exact_count(&self, _: &Query) -> Result<usize> {
            Ok(1)
        }

        fn exact_sum(&self, _: hdb_interface::AttrId, _: &Query) -> Result<f64> {
            Ok(0.0)
        }
    }

    /// A reply over the frame cap is answered with a typed error frame
    /// and tallied `errored`; the same connection then keeps serving.
    #[test]
    fn a_reply_over_the_frame_cap_is_a_typed_error_and_the_connection_serves_on() {
        let server = Server::bind(TooWide(Schema::boolean(1)), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let ranking = hdb_interface::RankingSpec::RowId;
        match ask(&mut stream, &Request::Evaluate { query: Query::all(), k: 1, ranking }) {
            Response::Error(HdbError::Transport(msg)) => {
                assert!(msg.contains(&format!("{MAX_FRAME_LEN}-byte cap")), "{msg}");
            }
            other => panic!("expected a typed error frame, got {other:?}"),
        }
        assert_eq!(ask(&mut stream, &Request::Len), Response::Len(1));
        let snap = server.metrics();
        assert_eq!(ledger_of(&snap), (1, 1), "ledger must partition");
        assert_eq!(snap.counters.get("hdb_queries_errored_total"), Some(&1));
        server.shutdown();
    }

    /// Flushing a large reply gives its buffer capacity back, so one big
    /// reply does not stay allocated for the life of the connection.
    #[test]
    fn a_drained_output_buffer_gives_back_a_large_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let reader = std::thread::spawn(move || {
            let mut sink = Vec::new();
            peer.read_to_end(&mut sink).map(|_| sink.len())
        });
        let mut conn = Conn::new(listener.accept().unwrap().0);
        let large = 64 * OUT_RETAIN;
        write_frame(&mut conn.out, &vec![7; large]).unwrap();
        assert!(matches!(flush(&mut conn), FlushState::Drained));
        assert!(
            conn.out.capacity() <= OUT_RETAIN,
            "a drained buffer kept {} bytes of capacity",
            conn.out.capacity()
        );
        drop(conn);
        assert_eq!(reader.join().unwrap().unwrap(), 4 + large);
    }

    #[test]
    fn hostile_ranking_and_unbounded_extend_are_rejected_typed() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // An out-of-range ranking attribute must be a typed error, not an
        // index panic in the scoring kernel.
        let resp = ask(
            &mut stream,
            &Request::Evaluate {
                query: Query::all(),
                k: 1,
                ranking: hdb_interface::RankingSpec::Attribute { attr: 9999, descending: false },
            },
        );
        assert!(matches!(resp, Response::Error(HdbError::InvalidQuery(_))), "{resp:?}");
        // A client extending past one-level-per-attribute must be stopped
        // instead of inflating the state stack unboundedly. A probe's
        // query must extend the level it names (the server's prefix
        // check), and a query constrains each attribute once, so a walk
        // commits at most one level per attribute: here four, each probed
        // with the fifth attribute still free.
        let sid = open(&mut stream);
        let mut below = Query::all();
        for level in 0..4u32 {
            let next = below.and(level as usize, 0).unwrap();
            match ask(&mut stream, &classify(sid, level, 1, &next, (4, 0))) {
                Response::Classified(_) => below = next,
                other => panic!("cap must allow legitimate depths, hit at {level}: {other:?}"),
            }
        }
        // A chain whose query does not extend the level it names is
        // refused whole, before any push.
        let zero = Query::all().and(0, 0).unwrap();
        assert_eq!(
            ask(&mut stream, &classify(sid, 4, 1, &zero, (1, 0))),
            Response::SessionGone,
            "a chain must hang off the level it names"
        );
        // A count with no probed predicate left — six extends over a
        // one-predicate query — is a typed error before any session
        // lookup, tallied errored, and the connection serves on.
        match ask(&mut stream, &classify(sid, 0, 6, &Query::all(), (1, 0))) {
            Response::Error(HdbError::InvalidQuery(msg)) => {
                assert!(msg.contains("extends (6)"), "{msg}");
            }
            other => panic!("an impossible extend count got {other:?}"),
        }
        let snap = server.metrics();
        assert_eq!(ledger_of(&snap), (7, 7), "ledger must partition");
        // errored: the hostile ranking, the refused chain and the count
        assert_eq!(snap.counters.get("hdb_queries_errored_total"), Some(&3));
        assert_eq!(ask(&mut stream, &Request::Len), Response::Len(32));
        assert_eq!(server.session_steps(sid).map(|s| s.len()), Some(4));
        server.shutdown();
    }

    /// Sessions are soft state: a restarted server holds none, so the
    /// plain probe a walk sent before the restart is answered fresh and
    /// bit-identically, and the same probe carrying its two extends from
    /// the root gets `SessionGone`, so the client re-roots.
    #[test]
    fn a_restarted_server_answers_plain_probes_identically_and_chains_gone() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let sid = open(&mut stream);
        let two = Query::all().and(0, 1).unwrap().and(1, 0).unwrap();
        let commit = classify(sid, 0, 2, &two, (3, 0));
        assert!(matches!(ask(&mut stream, &commit), Response::Classified(_)));
        let probe = classify(sid, 2, 0, &two, (2, 1));
        let before = ask(&mut stream, &probe);
        assert!(matches!(before, Response::Classified(_)), "{before:?}");
        assert_eq!(server.session_count(), 1);
        assert_eq!(server.session_steps(sid).map(|s| s.len()), Some(2));
        server.shutdown();
        let revived = serve();
        assert_eq!(revived.session_count(), 0);
        let mut stream = TcpStream::connect(revived.addr()).unwrap();
        assert_eq!(ask(&mut stream, &probe), before);
        let chained = classify(sid, 0, 2, &two, (2, 1));
        assert_eq!(ask(&mut stream, &chained), Response::SessionGone);
        revived.shutdown();
    }

    /// The four outcome buckets of a snapshot's query ledger, plus the
    /// issued total — for asserting the partition invariant.
    fn ledger_of(snap: &hdb_interface::MetricsSnapshot) -> (u64, u64) {
        let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let issued = c("hdb_queries_issued_total");
        let sum = c("hdb_queries_underflow_total")
            + c("hdb_queries_valid_total")
            + c("hdb_queries_overflow_total")
            + c("hdb_queries_errored_total");
        (issued, sum)
    }

    #[test]
    fn stats_frame_serves_a_partitioned_ledger() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // One overflow (32 > k=3), one valid (2 ≤ 3), one errored (k=0).
        let ranking = hdb_interface::RankingSpec::RowId;
        let overflow =
            ask(&mut stream, &Request::Evaluate { query: Query::all(), k: 3, ranking });
        assert!(matches!(overflow, Response::Evaluation(_)));
        let narrow = Query::all()
            .and(0, 1)
            .unwrap()
            .and(1, 1)
            .unwrap()
            .and(2, 1)
            .unwrap()
            .and(3, 1)
            .unwrap();
        let valid = ask(
            &mut stream,
            &Request::Evaluate { query: narrow, k: 3, ranking: hdb_interface::RankingSpec::RowId },
        );
        assert!(matches!(valid, Response::Evaluation(_)));
        let errored = ask(
            &mut stream,
            &Request::Evaluate {
                query: Query::all(),
                k: 0,
                ranking: hdb_interface::RankingSpec::RowId,
            },
        );
        assert!(matches!(errored, Response::Error(_)));

        let Response::Stats(snap) = ask(&mut stream, &Request::Stats) else {
            panic!("expected a Stats response");
        };
        let (issued, sum) = ledger_of(&snap);
        assert_eq!(issued, 3);
        assert_eq!(issued, sum, "ledger must partition");
        assert_eq!(snap.counters.get("hdb_queries_overflow_total"), Some(&1));
        assert_eq!(snap.counters.get("hdb_queries_valid_total"), Some(&1));
        assert_eq!(snap.counters.get("hdb_queries_errored_total"), Some(&1));
        // Serving counters ride along (the Stats frame snapshots before
        // its own frame-count bump, so the three probes are the floor).
        assert!(snap.counters.get("hdb_server_frames_total").copied().unwrap_or(0) >= 3);
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_a_prometheus_scrape() {
        let metrics = Some("127.0.0.1:0".to_string());
        let server = serve_with(ServerConfig { metrics_addr: metrics, ..Default::default() });
        let metrics_addr = server.metrics_addr().expect("metrics listener bound");
        // Issue a probe so the ledger is non-trivial.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let resp = ask(
            &mut stream,
            &Request::Evaluate {
                query: Query::all(),
                k: 3,
                ranking: hdb_interface::RankingSpec::RowId,
            },
        );
        assert!(matches!(resp, Response::Evaluation(_)));

        let mut scrape = TcpStream::connect(metrics_addr).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        scrape.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: text/plain"), "{text}");
        assert!(text.contains("# TYPE hdb_queries_issued_total counter\n"), "{text}");
        assert!(text.contains("\nhdb_queries_issued_total 1\n"), "{text}");
        assert!(text.contains("\nhdb_queries_overflow_total 1\n"), "{text}");
        // The scrape agrees with the in-process snapshot's partition.
        let (issued, sum) = ledger_of(&server.metrics());
        assert_eq!(issued, 1);
        assert_eq!(issued, sum);
        server.shutdown();
    }

    #[test]
    fn session_evictions_are_counted() {
        let server = serve_with(ServerConfig { session_cap: 1, ..Default::default() });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..3 {
            open(&mut stream);
        }
        let snap = server.metrics();
        assert_eq!(snap.counters.get("hdb_server_session_evictions_total"), Some(&2));
        assert_eq!(snap.gauges.get("hdb_server_sessions"), Some(&1));
        server.shutdown();
    }

    #[test]
    fn ground_truth_crosses_the_wire() {
        let server = serve();
        let remote = RemoteBackend::connect(server.addr().to_string()).unwrap();
        let local = TableBackend::new(table());
        for q in [Query::all(), Query::all().and(0, 1).unwrap()] {
            assert_eq!(remote.exact_count(&q).unwrap(), local.exact_count(&q).unwrap());
            assert_eq!(
                remote.exact_sum(3, &q).unwrap().to_bits(),
                local.exact_sum(3, &q).unwrap().to_bits()
            );
        }
        assert!(remote.exact_sum(99, &Query::all()).is_err());
        server.shutdown();
    }
}
