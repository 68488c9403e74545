//! # hdb-server — the networked hidden-database service
//!
//! Exposes any [`SearchBackend`] over the hidden-DB wire protocol
//! ([`hdb_interface::wire`]): length-prefixed binary frames over TCP,
//! covering `schema` / `len` / `evaluate` / `exact_count` / `exact_sum`
//! plus the incremental walk fast path with **server-side session state**
//! keyed by a session id, so a drill-down probe from a
//! [`RemoteBackend`](hdb_interface::RemoteBackend) costs one AND on the
//! server and one round trip on the wire — and with the fused
//! extend+probe messages, a drill-down *step* (commit a branch, probe a
//! child) costs that same single round trip.
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
//! **zero** syscalls and zero turns — there is no sweep. The replies to a
//! `Batch` frame leave in one `write`.
//!
//! ## Session lifecycle
//!
//! `WalkOpen` materialises the root match set and returns a `sid`;
//! `WalkExtend` pushes one level (truncating any deeper levels — the walk
//! is stack-disciplined, so a retract is simply the client re-extending
//! from a shallower level); probes reference `(sid, level)`. The fused
//! `WalkExtendEvaluate` / `WalkExtendClassify` messages commit an extend
//! and probe from the pushed level in one frame, and a `Batch` request
//! carries a deferred extend chain plus its probe in one round trip —
//! answered with one response frame per member, in member order.
//! Sessions die on `WalkClose`, or by LRU eviction (O(log n) via an
//! explicit recency order) once the table exceeds its cap — an evicted
//! session is *not* an error: probes fall back to fresh evaluation
//! (bit-identical, one intersection slower) and extends answer
//! `SessionGone` so the client re-roots.
//!
//! ## Observability
//!
//! The server keeps a query ledger partitioned exactly like the
//! client-side [`QueryCounter`](hdb_interface::QueryCounter): every
//! probe-shaped request (`Evaluate`, the walk probes, and the fused
//! extend+probe pair) bumps `hdb_queries_issued_total` and exactly one
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
//! prefix) closes the connection. Valid pages longer than
//! [`STREAM_TUPLES`] leave as a
//! `Streamed` head plus bounded `PageChunk` frames, encoded one chunk at
//! a time as the socket drains — a slow reader pins one chunk of memory,
//! not the page. The server never panics on input.
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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hdb_interface::reactor::{Interest, Reactor, ReactorKind};
use hdb_interface::wire::{
    encode_page_chunk, write_frame, FrameBuf, Request, Response, PROTOCOL_VERSION, STREAM_TUPLES,
};
use hdb_interface::{
    Counter, HdbError, Histogram, MetricsRegistry, MetricsSnapshot, Predicate, Query, Result,
    ReturnedTuple, Schema, SearchBackend, SessionDump, SessionRecord, WalkState, WalkStep,
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
/// Bytes of a batch's replies held back so that they leave in one
/// `write`; a batch answering more flushes early.
const BATCH_REPLY_CAP: usize = 64 * 1024;

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

/// One committed walk level: the materialised state plus the *recipe*
/// that produced it (the level's query, and for levels ≥ 1 the
/// predicate that extended the parent). The recipe is what snapshots
/// persist — states are backend-internal and rebuild bit-identically
/// from the recipe on import.
struct Level {
    query: Query,
    /// `None` exactly at level 0 (the root has no extending predicate).
    pred: Option<Predicate>,
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
/// scan — the C10K regime holds thousands of live sessions).
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

    fn open(&self, root: Query, root_state: WalkState) -> u64 {
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        let touched = self.clock.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(Session {
            stack: Mutex::new(vec![Level { query: root, pred: None, state: root_state }]),
        });
        self.insert(sid, touched, entry);
        sid
    }

    /// Inserts a session under an explicit `(sid, touched)` pair —
    /// shared by [`Sessions::open`] and snapshot import — evicting the
    /// stalest entry if the table is at cap.
    fn insert(&self, sid: u64, touched: u64, entry: Arc<Session>) {
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
        if let Some((old, _)) = t.by_sid.insert(sid, (touched, entry)) {
            t.by_recency.remove(&(old, sid));
        }
        t.by_recency.insert((touched, sid));
    }

    /// Serialises every live session to its recipe (root query plus the
    /// predicate/child chain). Sessions whose stack lock is poisoned are
    /// skipped — their contents are suspect, exactly as probes treat
    /// them.
    fn export(&self) -> SessionDump {
        let t = self.table.lock().unwrap_or_else(|p| p.into_inner());
        let mut sessions = Vec::with_capacity(t.by_sid.len());
        for (&sid, &(touched, ref entry)) in &t.by_sid {
            let Ok(stack) = entry.stack.lock() else { continue };
            let Some(root) = stack.first() else { continue };
            let mut steps = Vec::with_capacity(stack.len().saturating_sub(1));
            for level in stack.iter().skip(1) {
                let Some(pred) = level.pred else { break };
                steps.push(WalkStep { pred, child: level.query.clone() });
            }
            if steps.len() + 1 == stack.len() {
                sessions.push(SessionRecord {
                    sid,
                    touched,
                    root: root.query.clone(),
                    steps,
                });
            }
        }
        SessionDump {
            next_sid: self.next_sid.load(Ordering::Relaxed),
            clock: self.clock.load(Ordering::Relaxed),
            sessions,
        }
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

/// The server's query ledger: pre-resolved registry counters bumped
/// once per probe-shaped request, strictly after its response is
/// computed. Every recorded probe lands in `issued` plus exactly one
/// outcome bucket, so `issued == underflow + valid + overflow +
/// errored` is an invariant of every snapshot.
struct Ledger {
    issued: Counter,
    underflow: Counter,
    valid: Counter,
    overflow: Counter,
    errored: Counter,
}

impl Ledger {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            issued: registry.counter("hdb_queries_issued_total"),
            underflow: registry.counter("hdb_queries_underflow_total"),
            valid: registry.counter("hdb_queries_valid_total"),
            overflow: registry.counter("hdb_queries_overflow_total"),
            errored: registry.counter("hdb_queries_errored_total"),
        }
    }

    /// Classifies one probe's response under the `k` it asked for.
    /// Errors and `SessionGone` (the fused probes' no-answer road) land
    /// in `errored`; everything else partitions on the true match count.
    fn record(&self, k: u64, resp: &Response) {
        let count = match resp {
            Response::Evaluation(ev) | Response::ExtendEvaluation { evaluation: ev, .. } => {
                Some(ev.count)
            }
            Response::Classified(c) | Response::ExtendClassified { classified: c, .. } => {
                Some(c.count)
            }
            _ => None,
        };
        self.issued.inc();
        match count {
            Some(0) => self.underflow.inc(),
            Some(n) if n as u64 <= k => self.valid.inc(),
            Some(_) => self.overflow.inc(),
            None => self.errored.inc(),
        }
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
    /// Request frames served (batch members count individually).
    frames: AtomicU64,
    /// Page-chunk bytes pushed through [`Conn::tail`] streaming.
    streamed_bytes: AtomicU64,
    registry: MetricsRegistry,
    ledger: Ledger,
    /// Members per batch frame.
    batch_size: Histogram,
}

impl<B: SearchBackend> Inner<B> {
    /// The merged snapshot every exposure path serves: backend-reported
    /// series, the registry (ledger + batch histogram), and the serving
    /// counters, in one ordered map.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.backend.fill_metrics(&mut snap);
        snap.merge(self.registry.snapshot());
        snap.counters.insert(
            "hdb_server_dispatches_total".to_string(),
            self.dispatches.load(Ordering::Relaxed),
        );
        snap.counters
            .insert("hdb_server_frames_total".to_string(), self.frames.load(Ordering::Relaxed));
        snap.counters.insert(
            "hdb_server_streamed_bytes_total".to_string(),
            self.streamed_bytes.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            "hdb_server_session_evictions_total".to_string(),
            self.sessions.evictions.load(Ordering::Relaxed),
        );
        snap.gauges.insert("hdb_server_sessions".to_string(), self.sessions.len() as u64);
        snap
    }

    /// Rebuilds sessions from a snapshot dump: every record replays its
    /// recipe (root `walk_state`, then one `extend_state` per step)
    /// against the live backend, so the restored states are
    /// bit-identical to the pre-crash ones. Records that no longer
    /// validate against the schema, or exceed the walk depth cap, are
    /// dropped — a missing session is not an error, clients fall back.
    fn import_sessions(&self, dump: &SessionDump) {
        let schema = self.backend.schema();
        let mut max_sid = 0u64;
        for rec in &dump.sessions {
            if rec.root.validate(schema).is_err() || rec.steps.len() > schema.len() {
                continue;
            }
            let valid = rec.steps.iter().all(|s| {
                s.child.validate(schema).is_ok() && validate_pred(schema, s.pred).is_ok()
            });
            if !valid {
                continue;
            }
            let mut stack = Vec::with_capacity(rec.steps.len() + 1);
            stack.push(Level {
                query: rec.root.clone(),
                pred: None,
                state: self.backend.walk_state(&rec.root),
            });
            for step in &rec.steps {
                let parent = stack.len() - 1;
                let state = self.backend.extend_state(
                    &stack[parent].state,
                    &step.child,
                    step.pred,
                    WalkState::fallback(),
                );
                stack.push(Level { query: step.child.clone(), pred: Some(step.pred), state });
            }
            let entry = Arc::new(Session { stack: Mutex::new(stack) });
            self.sessions.insert(rec.sid, rec.touched, entry);
            max_sid = max_sid.max(rec.sid);
        }
        // Monotonic counters: never move backwards, and never hand out a
        // sid that a restored session already owns.
        self.sessions.next_sid.fetch_max(dump.next_sid.max(max_sid + 1), Ordering::Relaxed);
        self.sessions.clock.fetch_max(dump.clock, Ordering::Relaxed);
    }
}

/// Validates a predicate against the schema bounds (the wire is
/// untrusted: an out-of-range posting lookup must not reach the index).
fn validate_pred(schema: &Schema, pred: Predicate) -> Result<()> {
    if pred.attr >= schema.len() {
        return Err(HdbError::InvalidQuery(format!("predicate attribute {} out of range", pred.attr)));
    }
    if (pred.value as usize) >= schema.fanout(pred.attr) {
        return Err(HdbError::InvalidQuery(format!(
            "predicate value {} out of domain for attribute {}",
            pred.value, pred.attr
        )));
    }
    Ok(())
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

/// Validates the shared preamble of an extend: child query, predicate,
/// session, level bounds. `Ok(None)` is the graceful `SessionGone` road.
fn locate_session<B: SearchBackend>(
    inner: &Inner<B>,
    schema: &Schema,
    sid: u64,
    parent_level: u32,
) -> Option<Arc<Session>> {
    let entry = inner.sessions.get(sid)?;
    // Depth cap: a legitimate walk commits at most one level per
    // attribute, so a deeper stack can only be a hostile client
    // inflating server memory — send it to the fresh fallback instead.
    if parent_level as usize + 1 > schema.len() {
        return None;
    }
    Some(entry)
}

/// Commits one extend into a locked session stack. The walk is
/// stack-disciplined: extending from level L retires everything deeper
/// (the client retracted). Returns the pushed level's index, or `None`
/// when `parent_level` references a retired level.
fn push_level<B: SearchBackend>(
    inner: &Inner<B>,
    stack: &mut Vec<Level>,
    parent_level: u32,
    child: &Query,
    pred: Predicate,
) -> Option<u32> {
    let parent = parent_level as usize;
    if parent >= stack.len() {
        return None;
    }
    stack.truncate(parent + 1);
    let state =
        inner.backend.extend_state(&stack[parent].state, child, pred, WalkState::fallback());
    stack.push(Level { query: child.clone(), pred: Some(pred), state });
    Some(parent_level + 1)
}

/// Answers one decoded request. Total: every failure path is a typed
/// [`Response::Error`] (or the graceful `SessionGone`), never a panic.
fn handle_request<B: SearchBackend>(inner: &Inner<B>, req: Request) -> Response {
    let schema = inner.backend.schema();
    // Probe-shaped requests feed the ledger; `k` is captured up front
    // because the match below consumes the request.
    let probe_k = match &req {
        Request::Evaluate { k, .. }
        | Request::WalkEvaluate { k, .. }
        | Request::WalkClassify { k, .. }
        | Request::WalkExtendEvaluate { k, .. }
        | Request::WalkExtendClassify { k, .. } => Some(*k),
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
            Request::WalkExtend { sid, parent_level, child, pred } => {
                child.validate(schema)?;
                validate_pred(schema, pred)?;
                let Some(entry) = locate_session(inner, schema, sid, parent_level) else {
                    return Ok(Response::SessionGone);
                };
                // A poisoned stack means some probe panicked mid-update;
                // its contents are suspect, so retire the session and
                // send the client to the fresh-evaluation fallback.
                let Ok(mut stack) = entry.stack.lock() else {
                    inner.sessions.close(sid);
                    return Ok(Response::SessionGone);
                };
                match push_level(inner, &mut stack, parent_level, &child, pred) {
                    Some(level) => Response::Level { level },
                    None => Response::SessionGone,
                }
            }
            Request::WalkEvaluate { sid, parent_level, child, pred, k, ranking } => {
                child.validate(schema)?;
                validate_pred(schema, pred)?;
                validate_ranking(schema, ranking)?;
                let k = validate_k(k)?;
                let ranking = ranking.instantiate();
                // Missing session, poisoned stack (a probe panicked
                // mid-update — its state is suspect), or retired level
                // all take the same road: fresh evaluation, which is
                // bit-identical, just one intersection slower.
                let entry = inner.sessions.get(sid);
                let stack = entry.as_ref().and_then(|e| e.stack.lock().ok());
                let parent =
                    stack.as_ref().and_then(|s| s.get(parent_level as usize)).map(|l| &l.state);
                let evaluation = match parent {
                    Some(parent) => inner.backend.evaluate_from(
                        parent,
                        &child,
                        pred,
                        k,
                        ranking.as_ref(),
                    )?,
                    None => inner.backend.evaluate(&child, k, ranking.as_ref())?,
                };
                Response::Evaluation(evaluation)
            }
            Request::WalkClassify { sid, parent_level, child, pred, k } => {
                child.validate(schema)?;
                validate_pred(schema, pred)?;
                let k = validate_k(k)?;
                // Same fallback road as WalkEvaluate: missing session,
                // poisoned stack, or retired level → fresh evaluation.
                let entry = inner.sessions.get(sid);
                let stack = entry.as_ref().and_then(|e| e.stack.lock().ok());
                let parent =
                    stack.as_ref().and_then(|s| s.get(parent_level as usize)).map(|l| &l.state);
                let classified = match parent {
                    Some(parent) => {
                        inner.backend.classify_from(parent, &child, pred, k)?
                    }
                    None => hdb_interface::Classified::from_evaluation(
                        inner.backend.evaluate(&child, k, &hdb_interface::RowIdRanking)?,
                        k,
                    ),
                };
                Response::Classified(classified)
            }
            Request::WalkExtendEvaluate {
                sid,
                parent_level,
                ext_child,
                ext_pred,
                child,
                pred,
                k,
                ranking,
            } => {
                ext_child.validate(schema)?;
                validate_pred(schema, ext_pred)?;
                child.validate(schema)?;
                validate_pred(schema, pred)?;
                validate_ranking(schema, ranking)?;
                let k = validate_k(k)?;
                let ranking = ranking.instantiate();
                let Some(entry) = locate_session(inner, schema, sid, parent_level) else {
                    return Ok(Response::SessionGone);
                };
                let Ok(mut stack) = entry.stack.lock() else {
                    inner.sessions.close(sid);
                    return Ok(Response::SessionGone);
                };
                // Extend, then probe from the level just pushed — the
                // stack lock spans both, so the fused pair is atomic
                // against concurrent probes of the same session.
                let Some(level) = push_level(inner, &mut stack, parent_level, &ext_child, ext_pred)
                else {
                    return Ok(Response::SessionGone);
                };
                let evaluation = inner.backend.evaluate_from(
                    &stack[level as usize].state,
                    &child,
                    pred,
                    k,
                    ranking.as_ref(),
                )?;
                Response::ExtendEvaluation { level, evaluation }
            }
            Request::WalkExtendClassify {
                sid,
                parent_level,
                ext_child,
                ext_pred,
                child,
                pred,
                k,
            } => {
                ext_child.validate(schema)?;
                validate_pred(schema, ext_pred)?;
                child.validate(schema)?;
                validate_pred(schema, pred)?;
                let k = validate_k(k)?;
                let Some(entry) = locate_session(inner, schema, sid, parent_level) else {
                    return Ok(Response::SessionGone);
                };
                let Ok(mut stack) = entry.stack.lock() else {
                    inner.sessions.close(sid);
                    return Ok(Response::SessionGone);
                };
                let Some(level) = push_level(inner, &mut stack, parent_level, &ext_child, ext_pred)
                else {
                    return Ok(Response::SessionGone);
                };
                let classified =
                    inner.backend.classify_from(&stack[level as usize].state, &child, pred, k)?;
                Response::ExtendClassified { level, classified }
            }
            Request::WalkClose { sid } => {
                inner.sessions.close(sid);
                Response::Closed
            }
            Request::Stats => Response::Stats(inner.metrics_snapshot()),
            // Batches are flattened at the connection layer (one
            // response frame per member); one reaching the dispatcher
            // means a member was itself a batch, which decode rejects —
            // keep the handler total anyway.
            Request::Batch(_) => {
                return Err(HdbError::Transport("batch members cannot be batches".into()))
            }
        })
    })();
    let resp = outcome.unwrap_or_else(Response::Error);
    // Ledger recording happens strictly after the response is computed:
    // the answer is bit-identical whether or not anyone ever scrapes.
    if let Some(k) = probe_k {
        inner.ledger.record(k, &resp);
    }
    resp
}

/// An in-flight chunked page stream: the page is held un-encoded and
/// chunked into the output buffer one [`STREAM_TUPLES`] slice at a time,
/// each only after the previous chunk drained — a slow reader pins one
/// chunk, not the page.
struct PageTail {
    page: Vec<ReturnedTuple>,
    next: usize,
}

/// One connection's serving state. Lives in the connection table while
/// parked (armed in the reactor) and is owned by exactly one serving
/// thread while being served — one-shot notification makes the hand-off
/// race-free.
struct Conn {
    stream: TcpStream,
    buf: FrameBuf,
    /// Encoded-but-unsent frames: one response frame, or a batch's
    /// replies held until its last member is answered (bounded by
    /// [`BATCH_REPLY_CAP`] plus one frame).
    out: Vec<u8>,
    out_pos: usize,
    /// A page mid-stream; no new frame is served until it completes.
    tail: Option<PageTail>,
    /// Batch members not yet answered (each gets its own response).
    queued: VecDeque<Request>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: FrameBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            tail: None,
            queued: VecDeque::new(),
        }
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
    FlushState::Drained
}

/// Encodes `resp` into the connection's output buffer. Pages longer
/// than [`STREAM_TUPLES`] are split: the head frame goes out now, the
/// page parks in [`Conn::tail`] and streams chunk by chunk as the
/// socket drains. Failure means the connection must drop (the stream
/// would desynchronise).
fn enqueue_response(conn: &mut Conn, mut resp: Response) -> Result<()> {
    let page = match &mut resp {
        Response::Evaluation(ev) if ev.top.len() > STREAM_TUPLES => {
            Some(std::mem::take(&mut ev.top))
        }
        Response::Classified(c) if c.page.len() > STREAM_TUPLES => {
            Some(std::mem::take(&mut c.page))
        }
        Response::ExtendEvaluation { evaluation, .. }
            if evaluation.top.len() > STREAM_TUPLES =>
        {
            Some(std::mem::take(&mut evaluation.top))
        }
        Response::ExtendClassified { classified, .. }
            if classified.page.len() > STREAM_TUPLES =>
        {
            Some(std::mem::take(&mut classified.page))
        }
        _ => None,
    };
    let payload = match page {
        Some(page) => {
            let head = Response::Streamed(Box::new(resp)).encode()?;
            conn.tail = Some(PageTail { page, next: 0 });
            head
        }
        // An unencodable response (a length beyond the wire's u32
        // ranges) degrades to its typed error; if even that cannot
        // encode, the caller drops the connection.
        None => match resp.encode() {
            Ok(payload) => payload,
            Err(e) => Response::Error(e).encode()?,
        },
    };
    write_frame(&mut conn.out, &payload)
}

/// Appends the next pending page chunk to the output buffer and
/// returns its encoded byte length. `Ok(_)` leaves `conn.tail` set iff
/// more chunks remain.
fn enqueue_chunk(conn: &mut Conn, mut tail: PageTail) -> Result<u64> {
    let end = tail.page.len().min(tail.next.saturating_add(STREAM_TUPLES));
    let chunk = tail
        .page
        .get(tail.next..end)
        .ok_or_else(|| HdbError::Transport("page stream cursor out of range".into()))?;
    let last = end == tail.page.len();
    let payload = encode_page_chunk(chunk, last)?;
    write_frame(&mut conn.out, &payload)?;
    if !last {
        tail.next = end;
        conn.tail = Some(tail);
    }
    Ok(payload.len() as u64)
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

/// One turn over a connection: flush, stream pending chunks, serve up
/// to the fairness quota of frames, read until the socket blocks, then
/// park.
fn turn<B: SearchBackend>(inner: &Inner<B>, token: u64, mut conn: Conn) {
    if inner.shutdown.load(Ordering::Acquire) {
        close_conn(inner, conn);
        return;
    }
    let mut served = 0usize;
    loop {
        // A batch's replies leave in one write: hold them until its last
        // member is answered, unless a page stream (which flushes before
        // each chunk) or the byte cap needs the buffer drained first.
        let hold =
            !conn.queued.is_empty() && conn.tail.is_none() && conn.out.len() < BATCH_REPLY_CAP;
        if !hold {
            match flush(&mut conn) {
                FlushState::Drained => {}
                FlushState::Blocked => return park(inner, token, conn, Interest::WRITE),
                FlushState::Gone => return close_conn(inner, conn),
            }
        }
        // A page mid-stream owns the connection: its chunks must be the
        // next frames out (the client reassembles them positionally),
        // and encoding one chunk per drained buffer bounds memory.
        if let Some(tail) = conn.tail.take() {
            match enqueue_chunk(&mut conn, tail) {
                Ok(bytes) => inner.streamed_bytes.fetch_add(bytes, Ordering::Relaxed),
                Err(_) => return close_conn(inner, conn),
            };
            continue;
        }
        if served >= FRAMES_PER_TURN {
            // Fairness: yield to the other ready connections. Its send
            // buffer has room unless the peer stopped reading, so the
            // re-armed connection fires again at once, behind the events
            // already ready.
            return park(inner, token, conn, Interest::READ_WRITE);
        }
        let resp = if let Some(req) = conn.queued.pop_front() {
            Some(handle_request(inner, req))
        } else {
            match conn.buf.next_frame() {
                Ok(Some(payload)) => Some(match Request::decode(&payload) {
                    // A batch answers with one response per member, in
                    // member order; members queue so a streamed page in
                    // the middle keeps its chunks contiguous.
                    Ok(Request::Batch(members)) => {
                        inner.batch_size.observe(members.len() as u64);
                        conn.queued.extend(members);
                        match conn.queued.pop_front() {
                            Some(req) => handle_request(inner, req),
                            None => Response::Error(HdbError::Transport(
                                "empty batch frame".into(),
                            )),
                        }
                    }
                    Ok(req) => handle_request(inner, req),
                    // Malformed but correctly framed: the stream stays
                    // synchronised, so answer a typed error and keep
                    // serving.
                    Err(e) => Response::Error(e),
                }),
                Ok(None) => None,
                // Corrupt length prefix: the byte stream can never
                // resynchronise — drop the connection.
                Err(_) => return close_conn(inner, conn),
            }
        };
        if let Some(resp) = resp {
            if enqueue_response(&mut conn, resp).is_err() {
                return close_conn(inner, conn);
            }
            inner.frames.fetch_add(1, Ordering::Relaxed);
            served += 1;
            continue;
        }
        match read_more(&mut conn) {
            ReadState::More => {}
            ReadState::Blocked => return park(inner, token, conn, Interest::READ),
            ReadState::Gone => return close_conn(inner, conn),
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
        let registry = MetricsRegistry::new();
        let ledger = Ledger::new(&registry);
        let batch_size = registry.histogram("hdb_server_batch_size");
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
            streamed_bytes: AtomicU64::new(0),
            registry,
            ledger,
            batch_size,
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
    fn dispatch_count(&self) -> u64;
    fn frame_count(&self) -> u64;
    fn reactor_name(&self) -> &'static str;
    fn drain(&self);
    fn export_sessions(&self) -> SessionDump;
    fn import_sessions(&self, dump: &SessionDump);
    fn metrics_snapshot(&self) -> MetricsSnapshot;
}

impl<B: SearchBackend> ControlTarget for Inner<B> {
    fn set_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn session_count(&self) -> usize {
        self.sessions.len()
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

    fn export_sessions(&self) -> SessionDump {
        self.sessions.export()
    }

    fn import_sessions(&self, dump: &SessionDump) {
        Inner::import_sessions(self, dump);
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

    /// Connection turns started by readiness events so far, including
    /// each one after a connection yielded its fairness quota. Idle
    /// connections add zero — this is the regression pin for the
    /// poll-sweep defect.
    #[must_use]
    pub fn dispatch_count(&self) -> u64 {
        self.control.0.dispatch_count()
    }

    /// Request frames served so far (batch members count individually).
    #[must_use]
    pub fn frame_count(&self) -> u64 {
        self.control.0.frame_count()
    }

    /// The readiness backend in use (`"epoll"` or `"poll"`).
    #[must_use]
    pub fn reactor_name(&self) -> &'static str {
        self.control.0.reactor_name()
    }

    /// Serialises every live walk session to its recipe (root query
    /// plus the predicate chain) for inclusion in a durability snapshot
    /// — see [`hdb_interface::PersistentBackend::snapshot_with_sessions`].
    #[must_use]
    pub fn export_sessions(&self) -> SessionDump {
        self.control.0.export_sessions()
    }

    /// Rebuilds walk sessions from a snapshot dump by replaying each
    /// recipe against the live backend — restored probe answers are
    /// bit-identical to the pre-crash session's. Records that no longer
    /// validate (schema drift, depth cap) are dropped silently; the sid
    /// and recency counters only ever move forward.
    pub fn import_sessions(&self, dump: &SessionDump) {
        self.control.0.import_sessions(dump);
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
    use hdb_interface::wire::read_frame;
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
        // cap 2: two more sessions evict the first; probes still answer
        let _s2 = remote.walk_session(Query::all()).unwrap();
        let _s3 = remote.walk_session(Query::all()).unwrap();
        assert!(server.session_count() <= 2);
        assert_eq!(lw.classify(2, 1).unwrap(), rw.classify(2, 1).unwrap());
        assert_eq!(local.queries_issued(), remote.queries_issued());
        server.shutdown();
    }

    #[test]
    fn lru_eviction_follows_recency_not_sid_order() {
        let server = serve_with(ServerConfig { session_cap: 2, ..Default::default() });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let open = |stream: &mut TcpStream| match ask(stream, &Request::WalkOpen {
            root: Query::all(),
        }) {
            Response::Session { sid } => sid,
            other => panic!("expected a session, got {other:?}"),
        };
        let extend = |stream: &mut TcpStream, sid: u64| {
            ask(stream, &Request::WalkExtend {
                sid,
                parent_level: 0,
                child: Query::all().and(0, 1).unwrap(),
                pred: Predicate::new(0, 1),
            })
        };
        let s1 = open(&mut stream);
        let s2 = open(&mut stream);
        // Touch s1 so s2 is now the stalest; the next open must evict
        // s2, not the lowest sid.
        assert!(matches!(extend(&mut stream, s1), Response::Level { level: 1 }));
        let s3 = open(&mut stream);
        assert!(matches!(extend(&mut stream, s2), Response::SessionGone), "s2 must be evicted");
        assert!(matches!(extend(&mut stream, s1), Response::Level { level: 1 }));
        assert!(matches!(extend(&mut stream, s3), Response::Level { level: 1 }));
        server.shutdown();
    }

    #[test]
    fn fused_extend_probe_is_bit_identical_to_the_two_message_sequence() {
        let server = serve();
        let mut a = TcpStream::connect(server.addr()).unwrap();
        let mut b = TcpStream::connect(server.addr()).unwrap();
        let open = |stream: &mut TcpStream| match ask(stream, &Request::WalkOpen {
            root: Query::all(),
        }) {
            Response::Session { sid } => sid,
            other => panic!("expected a session, got {other:?}"),
        };
        let sid_a = open(&mut a);
        let sid_b = open(&mut b);
        let ext_child = Query::all().and(0, 1).unwrap();
        let ext_pred = Predicate::new(0, 1);
        let child = ext_child.clone().and(1, 0).unwrap();
        let pred = Predicate::new(1, 0);
        // Two-message sequence on connection a…
        assert!(matches!(
            ask(&mut a, &Request::WalkExtend {
                sid: sid_a,
                parent_level: 0,
                child: ext_child.clone(),
                pred: ext_pred,
            }),
            Response::Level { level: 1 }
        ));
        let plain = ask(&mut a, &Request::WalkClassify {
            sid: sid_a,
            parent_level: 1,
            child: child.clone(),
            pred,
            k: 2,
        });
        // …fused single message on connection b.
        let fused = ask(&mut b, &Request::WalkExtendClassify {
            sid: sid_b,
            parent_level: 0,
            ext_child,
            ext_pred,
            child,
            pred,
            k: 2,
        });
        let Response::Classified(plain) = plain else { panic!("{plain:?}") };
        let Response::ExtendClassified { level, classified } = fused else { panic!("{fused:?}") };
        assert_eq!(level, 1);
        assert_eq!(plain, classified);
        server.shutdown();
    }

    #[test]
    fn batch_frames_answer_one_response_per_member() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let batch = Request::Batch(vec![
            Request::Len,
            Request::WalkOpen { root: Query::all() },
            Request::ExactCount { query: Query::all() },
        ]);
        write_frame(&mut stream, &batch.encode().unwrap()).unwrap();
        // The replies leave in one write, which loopback delivers as one
        // segment: the first read returns all three.
        let mut got = vec![0u8; 64 * 1024];
        let n = stream.read(&mut got).unwrap();
        let mut frames = FrameBuf::new();
        frames.extend(&got[..n]);
        let mut replies = Vec::new();
        while let Some(payload) = frames.next_frame().unwrap() {
            replies.push(Response::decode(&payload).unwrap());
        }
        assert_eq!(replies.len(), 3, "the first read returned {} of 3 replies", replies.len());
        assert_eq!(replies[0], Response::Len(32));
        assert!(matches!(replies[1], Response::Session { .. }));
        assert_eq!(replies[2], Response::Count(32));
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
        // A client extending past one-level-per-attribute (the wire child
        // query need not be consistent with the claimed level) must hit
        // the depth cap instead of inflating the state stack unboundedly.
        let Response::Session { sid } = ask(&mut stream, &Request::WalkOpen { root: Query::all() })
        else {
            panic!("expected a session");
        };
        let child = Query::all().and(0, 0).unwrap();
        let pred = Predicate::new(0, 0);
        let mut capped = false;
        for level in 0..10u32 {
            let req = Request::WalkExtend {
                sid,
                parent_level: level,
                child: child.clone(),
                pred,
            };
            match ask(&mut stream, &req) {
                Response::Level { level: l } => assert_eq!(l, level + 1),
                Response::SessionGone => {
                    assert!(level >= 5, "cap must allow legitimate depths, hit at {level}");
                    capped = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(capped, "extend depth must be capped at the schema width");
        server.shutdown();
    }

    #[test]
    fn exported_sessions_reimport_with_bit_identical_probes() {
        let server = serve();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let Response::Session { sid } = ask(&mut stream, &Request::WalkOpen { root: Query::all() })
        else {
            panic!("expected a session");
        };
        for (attr, v) in [(0usize, 1u16), (1, 0)] {
            let req = Request::WalkExtend {
                sid,
                parent_level: attr as u32,
                child: Query::all().and(attr, v).unwrap(),
                pred: Predicate::new(attr, v),
            };
            assert!(matches!(ask(&mut stream, &req), Response::Level { .. }));
        }
        let probe = Request::WalkClassify {
            sid,
            parent_level: 2,
            child: Query::all().and(2, 1).unwrap(),
            pred: Predicate::new(2, 1),
            k: 2,
        };
        let before = ask(&mut stream, &probe);
        let dump = server.export_sessions();
        assert_eq!(dump.sessions.len(), 1);
        assert_eq!(dump.sessions[0].steps.len(), 2);
        server.shutdown();
        // A brand-new server process restores the dump and answers the
        // same probe on the same sid, bit-identically.
        let revived = serve();
        revived.import_sessions(&dump);
        assert_eq!(revived.session_count(), 1);
        let mut stream = TcpStream::connect(revived.addr()).unwrap();
        assert_eq!(ask(&mut stream, &probe), before);
        // New sessions never collide with restored sids.
        let Response::Session { sid: sid2 } =
            ask(&mut stream, &Request::WalkOpen { root: Query::all() })
        else {
            panic!("expected a session");
        };
        assert!(sid2 > sid);
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
    fn session_evictions_and_batches_are_counted() {
        let server = serve_with(ServerConfig { session_cap: 1, ..Default::default() });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..3 {
            let resp = ask(&mut stream, &Request::WalkOpen { root: Query::all() });
            assert!(matches!(resp, Response::Session { .. }));
        }
        let batch = Request::Batch(vec![Request::Len, Request::Len]);
        write_frame(&mut stream, &batch.encode().unwrap()).unwrap();
        for _ in 0..2 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            assert_eq!(Response::decode(&payload).unwrap(), Response::Len(32));
        }
        let snap = server.metrics();
        assert_eq!(snap.counters.get("hdb_server_session_evictions_total"), Some(&2));
        assert_eq!(snap.gauges.get("hdb_server_sessions"), Some(&1));
        let batches = snap.histograms.get("hdb_server_batch_size").expect("batch histogram");
        assert_eq!(batches.count, 1);
        assert_eq!(batches.sum, 2);
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
