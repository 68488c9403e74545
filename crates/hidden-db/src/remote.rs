//! [`RemoteBackend`]: a [`SearchBackend`] living on the other side of a
//! TCP socket, served by the `hdb-server` crate.
//!
//! Every evaluation is one request/response exchange over the
//! [`wire`](crate::wire) protocol, so
//! `HiddenDb::over(RemoteBackend::connect(addr)?, k)` puts an actual
//! network between the paper's estimators and the corpus while the whole
//! budget / accounting / memo / session stack runs unchanged on the
//! client.
//!
//! Connections are pooled: each request checks one out (opening a new
//! socket only when the pool is empty), so concurrent estimation workers
//! ride concurrent connections and a serial drill-down reuses one warm
//! socket. The incremental walk fast path maps onto server-side sessions:
//! [`SearchBackend::walk_state`] opens a session (the server materialises
//! the root match set) and each [`SearchBackend::classify_from`] probe is
//! one `WalkClassify` referencing it by `(sid, level)` — the only walk
//! probe the wire carries.
//!
//! ## Pipelined extends
//!
//! [`SearchBackend::extend_state`] costs **zero** round trips: it only
//! records a pending branch commitment in the client-side walk node. The
//! next probe carries the pending chain as its `extends`, so a drill-down
//! step — commit a branch, probe a child — costs exactly one round trip,
//! down from two, however many commitments are pending. Extends replay
//! idempotently on the server (the chain's first push truncates deeper
//! levels), which is what makes the pooled-connection stale retry safe —
//! and the retry path enforces it structurally: [`Request::replayable`]
//! gates every re-send, so a message that must not be replayed
//! (`WalkOpen` allocates a fresh session per send) can never ride a
//! retry, whichever method a caller picks.
//!
//! Every fast-path degradation (evicted session, failed open) falls back
//! to re-rooting a fresh session or fresh evaluation, both bit-identical,
//! so transport hiccups can slow a walk down but never change a result;
//! hard failures surface as [`HdbError::Transport`].

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::backend::{Classified, Evaluation, SearchBackend, WalkState};
use crate::error::{HdbError, Result};
use crate::obs::MetricsSnapshot;
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RankingSpec};
use crate::schema::{AttrId, Schema};
use crate::storage::WalkStep;
use crate::wire::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};

/// Cap on pooled idle connections per client.
const DEFAULT_MAX_IDLE: usize = 8;

/// Default per-operation I/O timeout: long enough for a paper-scale
/// evaluation, short enough that a hung server surfaces as a typed error
/// rather than a stuck client.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The connection pool + request plumbing shared by a [`RemoteBackend`]
/// and the walk-session handles it spawns.
struct ClientCore {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
    io_timeout: Duration,
    /// Wire exchanges performed (one per request frame sent) — the
    /// round-trip economics evidence.
    requests: AtomicU64,
    /// Exchanges re-sent on a fresh socket after a pooled connection
    /// turned out stale. Every retry is also counted in `requests`.
    retries: AtomicU64,
}

impl ClientCore {
    fn open(&self) -> Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| HdbError::Transport(format!("connect to {} failed: {e}", self.addr)))?;
        let setup = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(self.io_timeout)))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)));
        setup.map_err(|e| HdbError::Transport(format!("socket setup failed: {e}")))?;
        Ok(stream)
    }

    fn checkin(&self, stream: TcpStream) {
        // Poison recovery throughout this file: the idle pool is a plain
        // Vec of sockets with no cross-field invariant, so a panicked
        // holder leaves it fully usable — recover instead of unwinding.
        let mut idle = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        if idle.len() < DEFAULT_MAX_IDLE {
            idle.push(stream);
        } // else: drop (close) the surplus connection
    }

    /// One request/response exchange on an open connection: one request
    /// frame out, one reply frame back (at most
    /// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) bytes, so the cap
    /// bounds what a lying server can make the client allocate).
    fn roundtrip(&self, stream: &mut TcpStream, req: &Request) -> Result<Response> {
        // Assemble the frame first so the request hits the wire in one
        // write (one segment on loopback).
        let mut framed = Vec::new();
        write_frame(&mut framed, &req.encode()?)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        stream
            .write_all(&framed)
            .map_err(|e| HdbError::Transport(format!("write failed: {e}")))?;
        let payload = read_frame(stream)?
            .ok_or_else(|| HdbError::Transport("server closed the connection".into()))?;
        Response::decode(&payload)
    }

    /// Sends `req` on a pooled connection, falling back to a fresh one if
    /// the pooled socket turned out stale (the server may have dropped it
    /// while idle). The single retry is gated on
    /// [`Request::replayable`] **structurally** — a non-replayable
    /// request (`WalkOpen`, which allocates a fresh session per send) is
    /// routed through the single-attempt [`ClientCore::request_once`]
    /// path no matter who calls, so no future call site can accidentally
    /// double-apply an effect by picking the convenient method.
    fn request(&self, req: &Request) -> Result<Response> {
        if !req.replayable() {
            return self.request_once(req);
        }
        let pooled = self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop();
        if let Some(mut stream) = pooled {
            if let Ok(resp) = self.roundtrip(&mut stream, req) {
                self.checkin(stream);
                return Ok(resp);
            }
            // stale pooled connection: drop it and retry fresh below
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
        let mut stream = self.open()?;
        let resp = self.roundtrip(&mut stream, req)?;
        self.checkin(stream);
        Ok(resp)
    }

    /// [`ClientCore::request`] without the stale-connection retry, for
    /// requests with server-side effects (`WalkOpen`): a retry after a
    /// processed-but-unanswered attempt would leak an orphan session into
    /// the server's table. Failing is fine — the caller falls back to
    /// fresh evaluation.
    fn request_once(&self, req: &Request) -> Result<Response> {
        let mut stream = match self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop() {
            Some(stream) => stream,
            None => self.open()?,
        };
        let resp = self.roundtrip(&mut stream, req)?;
        self.checkin(stream);
        Ok(resp)
    }
}

/// Converts a protocol-level error response into `Err`, handing every
/// other variant to the caller's matcher.
fn ok_or_err(resp: Response) -> Result<Response> {
    match resp {
        Response::Error(e) => Err(e),
        other => Ok(other),
    }
}

fn unexpected(what: &str, got: &Response) -> HdbError {
    HdbError::Transport(format!("protocol error: expected {what}, got {got:?}"))
}

/// Client-side handle of one server-side walk session. All levels of a
/// walk share the handle; dropping the last clone closes the session
/// (best effort — the server also evicts by LRU).
struct RemoteSessionHandle {
    core: Arc<ClientCore>,
    sid: u64,
}

impl Drop for RemoteSessionHandle {
    fn drop(&mut self) {
        // Close only over an already-idle connection: a drop must never
        // block on a dead server, and an unclosed session just ages out
        // of the server's LRU table.
        let pooled = self.core.idle.lock().unwrap_or_else(|p| p.into_inner()).pop();
        if let Some(mut stream) = pooled {
            let core = Arc::clone(&self.core);
            if core.roundtrip(&mut stream, &Request::WalkClose { sid: self.sid }).is_ok() {
                self.core.checkin(stream);
            }
        }
    }
}

/// Where one walk node stands with respect to the server.
enum NodeState {
    /// The server knows this node: `(sid, level)` in a live session.
    Committed { session: Arc<RemoteSessionHandle>, level: u32 },
    /// The extend that created this node has not crossed the wire yet —
    /// it will piggyback on the next probe. `pred` extends the parent;
    /// the node's full query lives on [`RemoteNode::query`].
    Pending { pred: Predicate },
}

/// One node of the client-side walk tree. Children keep their parent
/// chain alive (`Arc`), so a pending node can always resolve upward to
/// the nearest committed ancestor.
struct RemoteNode {
    /// The node's full query — the re-root anchor after an eviction.
    query: Query,
    parent: Option<Arc<RemoteNode>>,
    state: Mutex<NodeState>,
}

impl RemoteNode {
    fn set_state(&self, state: NodeState) {
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = state;
    }
}

/// The payload a [`RemoteBackend`] stores in a [`WalkState`].
struct RemoteWalk {
    node: Arc<RemoteNode>,
}

/// How a probe reaches the server: the nearest committed ancestor, plus
/// the pending nodes on the way down to the probed one and the steps
/// that commit them, both shallowest first.
struct Anchor {
    session: Arc<RemoteSessionHandle>,
    level: u32,
    pendings: Vec<Arc<RemoteNode>>,
    extends: Vec<WalkStep>,
}

/// Walks from `node` up to the nearest committed ancestor, collecting
/// pending nodes along the way; `None` when no ancestor is committed.
fn anchor_of(node: &Arc<RemoteNode>) -> Option<Anchor> {
    let mut pendings = Vec::new();
    let mut extends = Vec::new();
    let mut cur = Arc::clone(node);
    loop {
        match &*cur.state.lock().unwrap_or_else(|p| p.into_inner()) {
            NodeState::Committed { session, level } => {
                pendings.reverse();
                extends.reverse();
                let (session, level) = (Arc::clone(session), *level);
                return Some(Anchor { session, level, pendings, extends });
            }
            NodeState::Pending { pred } => {
                extends.push(WalkStep { pred: *pred, child: cur.query.clone() });
            }
        }
        let parent = cur.parent.clone()?;
        pendings.push(std::mem::replace(&mut cur, parent));
    }
}

/// A [`SearchBackend`] speaking the hidden-DB wire protocol to an
/// `hdb-server` over pooled TCP connections.
///
/// The schema and corpus size are fetched once at connect time (the
/// hidden-database model is static); every other operation is one
/// request/response round trip — including a drill-down extend+probe,
/// which travels as one walk probe carrying its extends (see the module
/// docs).
pub struct RemoteBackend {
    core: Arc<ClientCore>,
    schema: Schema,
    len: usize,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("addr", &self.core.addr)
            .field("len", &self.len)
            .finish()
    }
}

impl RemoteBackend {
    /// Connects to an `hdb-server` at `addr` (e.g. `"127.0.0.1:7171"`),
    /// performs the version handshake, and fetches the schema and corpus
    /// size.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if the server is unreachable, speaks a
    /// different protocol version, or answers malformed frames.
    pub fn connect(addr: impl Into<String>) -> Result<Self> {
        Self::connect_with(addr, DEFAULT_IO_TIMEOUT)
    }

    /// [`RemoteBackend::connect`] with an explicit per-operation I/O
    /// timeout.
    ///
    /// # Errors
    /// Same as [`RemoteBackend::connect`].
    pub fn connect_with(addr: impl Into<String>, io_timeout: Duration) -> Result<Self> {
        let core = Arc::new(ClientCore {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
            io_timeout,
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        });
        match ok_or_err(core.request(&Request::Hello { version: PROTOCOL_VERSION })?)? {
            Response::Hello { version } if version == PROTOCOL_VERSION => {}
            Response::Hello { version } => {
                return Err(HdbError::Transport(format!(
                    "protocol version mismatch: client {PROTOCOL_VERSION}, server {version}"
                )))
            }
            other => return Err(unexpected("Hello", &other)),
        }
        let schema = match ok_or_err(core.request(&Request::Schema)?)? {
            Response::Schema(s) => s,
            other => return Err(unexpected("Schema", &other)),
        };
        let len = match ok_or_err(core.request(&Request::Len)?)? {
            Response::Len(n) => usize::try_from(n)
                .map_err(|_| HdbError::Transport("corpus size overflows usize".into()))?,
            other => return Err(unexpected("Len", &other)),
        };
        Ok(Self { core, schema, len })
    }

    /// The server address this backend talks to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.core.addr
    }

    /// Wire exchanges performed so far (one per frame sent — a probe
    /// carrying an extend chain counts once). This is the round-trip
    /// economics evidence: with pipelined extends, a drill-down step
    /// adds exactly one.
    #[must_use]
    pub fn requests_sent(&self) -> u64 {
        self.core.requests.load(Ordering::Relaxed)
    }

    /// Exchanges that were re-sent on a fresh socket after a pooled
    /// connection turned out stale. Retries are replay-gated (see the
    /// module docs) and each one is also counted in
    /// [`RemoteBackend::requests_sent`].
    #[must_use]
    pub fn retries_sent(&self) -> u64 {
        self.core.retries.load(Ordering::Relaxed)
    }

    /// Fetches the **server's** metrics snapshot over the wire
    /// ([`Request::Stats`]) — the same series its Prometheus endpoint
    /// renders, so a client can audit the server-side query ledger
    /// without scraping a second port.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when the exchange fails or the server
    /// answers with anything but a snapshot.
    pub fn server_stats(&self) -> Result<MetricsSnapshot> {
        match ok_or_err(self.core.request(&Request::Stats)?)? {
            Response::Stats(snap) => Ok(snap),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// One cheap request/response round trip ([`Request::Len`]) proving
    /// the server is alive and answering protocol — the fleet health
    /// checker's probe. Also re-validates that the server still reports
    /// the corpus size learned at connect time, so a restarted server
    /// with different data is detected instead of silently merged.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when the exchange fails or the reported
    /// size changed.
    pub fn ping(&self) -> Result<()> {
        match ok_or_err(self.core.request(&Request::Len)?)? {
            Response::Len(n) if usize::try_from(n) == Ok(self.len) => Ok(()),
            Response::Len(n) => Err(HdbError::Transport(format!(
                "server at {} now reports {n} rows (expected {})",
                self.core.addr, self.len
            ))),
            other => Err(unexpected("Len", &other)),
        }
    }

    fn spec_of(ranking: &dyn RankingFunction) -> Result<RankingSpec> {
        ranking.wire_spec().ok_or_else(|| {
            HdbError::Transport(
                "ranking function has no wire spec; only RankingSpec-describable rankings \
                 can cross the network"
                    .into(),
            )
        })
    }

    /// Re-roots a walk node after its session vanished server-side:
    /// opens a fresh session whose root *is* the node's query, so probes
    /// from the node stay incremental. Returns the new handle, or `None`
    /// when the open failed (callers then evaluate fresh).
    fn re_root(&self, node: &Arc<RemoteNode>) -> Option<Arc<RemoteSessionHandle>> {
        match self.core.request_once(&Request::WalkOpen { root: node.query.clone() }) {
            Ok(Response::Session { sid }) => {
                let session =
                    Arc::new(RemoteSessionHandle { core: Arc::clone(&self.core), sid });
                node.set_state(NodeState::Committed { session: Arc::clone(&session), level: 0 });
                Some(session)
            }
            _ => None,
        }
    }
}

impl SearchBackend for RemoteBackend {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.len
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        let req = Request::Evaluate {
            query: q.clone(),
            k: k as u64,
            ranking: Self::spec_of(ranking)?,
        };
        match ok_or_err(self.core.request(&req)?)? {
            Response::Evaluation(ev) => Ok(ev),
            other => Err(unexpected("Evaluation", &other)),
        }
    }

    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counters.insert("hdb_remote_requests_total".into(), self.requests_sent());
        snap.counters.insert("hdb_remote_retries_total".into(), self.retries_sent());
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        match ok_or_err(self.core.request(&Request::ExactCount { query: q.clone() })?)? {
            Response::Count(n) => usize::try_from(n)
                .map_err(|_| HdbError::Transport("count overflows usize".into())),
            other => Err(unexpected("Count", &other)),
        }
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let req = Request::ExactSum { attr: attr as u64, query: q.clone() };
        match ok_or_err(self.core.request(&req)?)? {
            Response::Sum(x) => Ok(x),
            other => Err(unexpected("Sum", &other)),
        }
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        // A failed open falls back to fresh evaluation: correctness is
        // preserved and a genuinely dead server will surface a Transport
        // error on the next charged probe.
        match self.core.request_once(&Request::WalkOpen { root: q.clone() }) {
            Ok(Response::Session { sid }) => WalkState::with_payload(RemoteWalk {
                node: Arc::new(RemoteNode {
                    query: q.clone(),
                    parent: None,
                    state: Mutex::new(NodeState::Committed {
                        session: Arc::new(RemoteSessionHandle {
                            core: Arc::clone(&self.core),
                            sid,
                        }),
                        level: 0,
                    }),
                }),
            }),
            _ => WalkState::fallback(),
        }
    }

    /// Zero round trips: the branch commitment is recorded client-side
    /// and piggybacks onto the next probe (see the module docs).
    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        _recycled: WalkState,
    ) -> WalkState {
        let Some(walk) = parent.payload::<RemoteWalk>() else {
            // No server session behind the parent: open one rooted at
            // the child so the subtree below is still incremental.
            return self.walk_state(child);
        };
        WalkState::with_payload(RemoteWalk {
            node: Arc::new(RemoteNode {
                query: child.clone(),
                parent: Some(Arc::clone(&walk.node)),
                state: Mutex::new(NodeState::Pending { pred }),
            }),
        })
    }

    /// Sends one `WalkClassify` of `child` (= the parent's query ∧ `pred`)
    /// from the parent's node, carrying the pending chain above it, and
    /// commits each pending node once the answer arrives. When the chain
    /// cannot commit (`SessionGone`), the node re-roots and the probe goes
    /// again with no extends; `fresh` answers whenever no session can.
    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let fresh = || -> Result<Classified> {
            Ok(Classified::from_evaluation(
                self.evaluate(child, k, &crate::ranking::RowIdRanking)?,
                k,
            ))
        };
        let Some(walk) = parent.payload::<RemoteWalk>() else {
            return fresh();
        };
        let Some(Anchor { session, level, pendings, extends }) = anchor_of(&walk.node) else {
            return fresh();
        };
        let send = |sid: u64, level: u32, extends: Vec<WalkStep>| -> Result<Option<Classified>> {
            let req = Request::WalkClassify {
                sid,
                parent_level: level,
                extends,
                child: child.clone(),
                pred,
                k: k as u64,
            };
            match ok_or_err(self.core.request(&req)?)? {
                Response::SessionGone => Ok(None),
                Response::Classified(c) => Ok(Some(c)),
                other => Err(unexpected("Classified", &other)),
            }
        };
        if let Some(answer) = send(session.sid, level, extends)? {
            for (node, level) in pendings.iter().zip(level + 1..) {
                node.set_state(NodeState::Committed { session: Arc::clone(&session), level });
            }
            return Ok(answer);
        }
        if !pendings.is_empty() {
            if let Some(session) = self.re_root(&walk.node) {
                if let Some(answer) = send(session.sid, 0, Vec::new())? {
                    return Ok(answer);
                }
            }
        }
        fresh()
    }
}
