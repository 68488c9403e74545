//! [`RemoteBackend`]: a [`SearchBackend`] living on the other side of a
//! TCP socket, served by the `hdb-server` crate — one server, or a
//! rotation of replicas serving the same corpus.
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
//! next probe carries the number of pending nodes as its `extends` (its
//! query already names their predicates), so a drill-down step — commit
//! a branch, probe a child — costs exactly one round trip, down from two,
//! however many commitments are pending. Extends replay idempotently on
//! the server (the chain's first push truncates deeper levels), which is
//! what makes re-sending a probe safe.
//!
//! ## Retries and failover
//!
//! This module alone decides when, and to which replica of its rotation,
//! a request is sent again: `ClientCore::retry` is the one retry loop,
//! with [`FleetConfig`] as its policy. A replica passes the handshake
//! (protocol version, schema, row count) before it serves, so a failover
//! cannot merge a different corpus. Walk state needs no guard of its own
//! across a failover or a server restart: the server checks every probe
//! against the level it names, so a session id another server handed out
//! cannot answer for this walk.
//!
//! Every fast-path degradation (evicted session, failed open) falls back
//! to re-rooting a fresh session or fresh evaluation, both bit-identical,
//! so transport hiccups can slow a walk down but never change a result;
//! hard failures surface as [`HdbError::Transport`].

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::backend::{Classified, Evaluation, SearchBackend, WalkState};
use crate::error::{HdbError, Result};
use crate::federated::FleetConfig;
use crate::obs::MetricsSnapshot;
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RankingSpec};
use crate::schema::{AttrId, Schema};
use crate::wire::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};

/// Cap on pooled idle connections per client.
const DEFAULT_MAX_IDLE: usize = 8;

/// The replica rotation and the idle connections to its current replica,
/// under one lock: the hot path (pop a pooled connection, push it back)
/// takes no other.
struct Rotation {
    /// Never empty: the last replica cannot be drained.
    replicas: Vec<String>,
    /// Index into `replicas` of the replica requests go to.
    current: usize,
    /// Bumped each time the rotation moves on. A connection, a failure or
    /// a session of an older generation belongs to a replica that is no
    /// longer current: it is not pooled, moves nothing and closes nothing.
    generation: u64,
    /// Whether `current` has passed the handshake in this generation.
    checked: bool,
    /// Idle connections to `current`, all of this generation.
    idle: Vec<TcpStream>,
}

impl Rotation {
    /// Moves on to the next replica and drops the idle connections to the
    /// old one. Returns whether the replica left behind had been serving,
    /// which makes the move a failover.
    fn advance(&mut self) -> bool {
        let failover = self.checked;
        self.current = (self.current + 1) % self.replicas.len().max(1);
        self.generation += 1;
        self.checked = false;
        self.idle.clear();
        failover
    }
}

/// The replica rotation, connection pool and retry loop shared by a
/// [`RemoteBackend`] and the walk-session handles it spawns.
struct ClientCore {
    rotation: Mutex<Rotation>,
    cfg: FleetConfig,
    /// The schema and row count every replica must serve, learned from
    /// the first replica that passes the handshake.
    corpus: OnceLock<(Schema, usize)>,
    /// Wire exchanges performed (one per request frame sent) — the
    /// round-trip economics evidence.
    requests: AtomicU64,
    /// Attempts the retry loop made after a failed one.
    retries: AtomicU64,
    /// Serving replicas abandoned after a failed exchange or a drain.
    failovers: AtomicU64,
}

/// `req` as one frame, ready for a single write (one segment on
/// loopback).
fn framed(req: &Request) -> Result<Vec<u8>> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &req.encode()?)?;
    Ok(frame)
}

impl ClientCore {
    fn lock(&self) -> MutexGuard<'_, Rotation> {
        // Poison recovery throughout this file: every update of the
        // rotation leaves it consistent (`current` in range, `idle` of
        // the current generation), so a panicked holder leaves it fully
        // usable — recover instead of unwinding.
        self.rotation.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn open(&self, addr: &str) -> Result<TcpStream> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| HdbError::Transport(format!("connect to {addr} failed: {e}")))?;
        let setup = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(self.cfg.io_timeout)))
            .and_then(|()| stream.set_write_timeout(Some(self.cfg.io_timeout)));
        setup.map_err(|e| HdbError::Transport(format!("socket setup failed: {e}")))?;
        Ok(stream)
    }

    /// One request/response exchange on an open connection: one request
    /// frame out, one reply frame back (at most
    /// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) bytes, so the cap
    /// bounds what a lying server can make the client allocate).
    fn exchange(&self, stream: &mut TcpStream, frame: &[u8]) -> Result<Response> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        stream
            .write_all(frame)
            .map_err(|e| HdbError::Transport(format!("write failed: {e}")))?;
        let payload = read_frame(stream)?
            .ok_or_else(|| HdbError::Transport("server closed the connection".into()))?;
        Response::decode(&payload)
    }

    /// The handshake a replica passes before it serves: the protocol
    /// version, then its schema and row count, which must be the corpus
    /// the first replica served (the first handshake learns it).
    fn check(&self, stream: &mut TcpStream, addr: &str) -> Result<()> {
        let mut ask = |req: &Request| ok_or_err(self.exchange(stream, &framed(req)?)?);
        match ask(&Request::Hello { version: PROTOCOL_VERSION })? {
            Response::Hello { version } if version == PROTOCOL_VERSION => {}
            Response::Hello { version } => {
                return Err(HdbError::Transport(format!(
                    "protocol version mismatch: client {PROTOCOL_VERSION}, server {version}"
                )))
            }
            other => return Err(unexpected("Hello", &other)),
        }
        let schema = match ask(&Request::Schema)? {
            Response::Schema(s) => s,
            other => return Err(unexpected("Schema", &other)),
        };
        let len = match ask(&Request::Len)? {
            Response::Len(n) => usize::try_from(n)
                .map_err(|_| HdbError::Transport("corpus size overflows usize".into()))?,
            other => return Err(unexpected("Len", &other)),
        };
        let (want_schema, want_len) = self.corpus.get_or_init(|| (schema.clone(), len));
        if *want_schema != schema || *want_len != len {
            return Err(HdbError::Transport(format!(
                "replica {addr} serves a different corpus ({len} rows vs the expected {want_len})"
            )));
        }
        Ok(())
    }

    /// A connection to a checked replica, with its generation: a pooled
    /// one when there is one, else one sweep of the rotation from its
    /// current replica for one that connects — and passes the handshake,
    /// when it has not passed it in this generation.
    fn checkout(&self) -> Result<(u64, TcpStream)> {
        let mut tried = 0;
        let mut last = None;
        loop {
            let (generation, addr, checked) = {
                let mut rot = self.lock();
                if let Some(stream) = rot.idle.pop() {
                    return Ok((rot.generation, stream));
                }
                if tried == rot.replicas.len() {
                    break;
                }
                let Some(addr) = rot.replicas.get(rot.current) else { break };
                (rot.generation, addr.clone(), rot.checked)
            };
            tried += 1;
            let connected = self.open(&addr).and_then(|mut stream| {
                if !checked {
                    self.check(&mut stream, &addr)?;
                }
                Ok(stream)
            });
            match connected {
                Ok(stream) => {
                    if !checked {
                        let mut rot = self.lock();
                        rot.checked |= rot.generation == generation;
                    }
                    return Ok((generation, stream));
                }
                Err(e) => {
                    self.fail(generation);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| HdbError::Transport("no replica to connect to".into())))
    }

    /// Pools a connection that answered, unless the rotation has moved on
    /// since it was checked out.
    fn checkin(&self, generation: u64, stream: TcpStream) {
        let mut rot = self.lock();
        if rot.generation == generation && rot.idle.len() < DEFAULT_MAX_IDLE {
            rot.idle.push(stream);
        } // else: drop (close) the connection
    }

    /// A connection of `generation` failed: moves the rotation on if that
    /// generation is still current, so concurrent failures against one
    /// dead replica count as one failover.
    fn fail(&self, generation: u64) {
        let mut rot = self.lock();
        if rot.generation == generation && rot.advance() {
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one retry loop. Each attempt checks out a connection
    /// ([`ClientCore::checkout`]: the pool, or one sweep of the rotation)
    /// and runs one `exchange` on it. An attempt is retried only when no
    /// reply frame came back or the reply did not decode: a failed
    /// connect, write or read, a timeout, a mid-frame close, or a broken
    /// frame boundary. A decoded reply, an error frame included, is the
    /// server's answer and returns at once. A failed exchange moves the
    /// rotation on ([`ClientCore::fail`]). Up to [`FleetConfig::retries`]
    /// retries follow the first attempt, after a wait of
    /// [`FleetConfig::backoff`] that doubles up to
    /// [`FleetConfig::backoff_cap`]; when `replayable` is false, nothing is
    /// tried again once `exchange` has run. Returns the answer and the
    /// generation of the replica that gave it, or the first failure — the
    /// cause, which later attempts only meet the consequences of.
    fn retry<T>(
        &self,
        replayable: bool,
        mut exchange: impl FnMut(&mut TcpStream) -> Result<T>,
    ) -> Result<(u64, T)> {
        let mut delay = self.cfg.backoff;
        let mut first = None;
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2).min(self.cfg.backoff_cap);
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            let failed = match self.checkout() {
                Ok((generation, mut stream)) => match exchange(&mut stream) {
                    Ok(answer) => {
                        self.checkin(generation, stream);
                        return Ok((generation, answer));
                    }
                    Err(e) => {
                        self.fail(generation);
                        if !replayable {
                            return Err(e);
                        }
                        e
                    }
                },
                Err(e) => e,
            };
            first.get_or_insert(failed);
        }
        Err(first.unwrap_or_else(|| HdbError::Transport("no attempt made".into())))
    }

    /// Sends `req` through the retry loop, encoded once before the first
    /// attempt (so an encoding error returns having sent nothing).
    fn request(&self, req: &Request) -> Result<(u64, Response)> {
        let frame = framed(req)?;
        self.retry(req.replayable(), |stream| self.exchange(stream, &frame))
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
    /// The generation of the replica that opened the session.
    generation: u64,
}

impl Drop for RemoteSessionHandle {
    fn drop(&mut self) {
        // Close only over an already-idle connection to the replica that
        // opened the session: a drop must never block on a dead server,
        // must never close a session another replica handed out under the
        // same sid, and an unclosed session just ages out of the server's
        // LRU table.
        let pooled = {
            let mut rot = self.core.lock();
            (rot.generation == self.generation).then(|| rot.idle.pop()).flatten()
        };
        let close = framed(&Request::WalkClose { sid: self.sid });
        if let (Some(mut stream), Ok(frame)) = (pooled, close) {
            if self.core.exchange(&mut stream, &frame).is_ok() {
                self.core.checkin(self.generation, stream);
            }
        }
    }
}

/// Where one walk node stands with respect to the server.
enum NodeState {
    /// The server knows this node: `(sid, level)` in a live session.
    Committed { session: Arc<RemoteSessionHandle>, level: u32 },
    /// The extend that created this node has not crossed the wire yet —
    /// it will piggyback on the next probe, whose query names its
    /// predicate.
    Pending,
}

/// One node of the client-side walk tree. Children keep their parent
/// chain alive (`Arc`), so a pending node can always resolve upward to
/// the nearest committed ancestor.
struct RemoteNode {
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
/// the pending nodes on the way down to the probed one, shallowest first
/// — as many as the probe's extends.
struct Anchor {
    session: Arc<RemoteSessionHandle>,
    level: u32,
    pendings: Vec<Arc<RemoteNode>>,
}

/// Walks from `node` up to the nearest committed ancestor, collecting
/// pending nodes along the way; `None` when no ancestor is committed.
fn anchor_of(node: &Arc<RemoteNode>) -> Option<Anchor> {
    let mut pendings = Vec::new();
    let mut cur = Arc::clone(node);
    loop {
        if let NodeState::Committed { session, level } =
            &*cur.state.lock().unwrap_or_else(|p| p.into_inner())
        {
            pendings.reverse();
            return Some(Anchor { session: Arc::clone(session), level: *level, pendings });
        }
        let parent = cur.parent.clone()?;
        pendings.push(std::mem::replace(&mut cur, parent));
    }
}

/// A [`SearchBackend`] speaking the hidden-DB wire protocol to an
/// `hdb-server`, or to a rotation of replicas of one corpus, over pooled
/// TCP connections.
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
            .field("addr", &self.addr())
            .field("len", &self.len)
            .finish()
    }
}

impl RemoteBackend {
    /// Connects to an `hdb-server` at `addr` (e.g. `"127.0.0.1:7171"`)
    /// with the default [`FleetConfig`], performs the version handshake,
    /// and fetches the schema and corpus size.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if the server is unreachable, speaks a
    /// different protocol version, or answers malformed frames.
    pub fn connect(addr: impl Into<String>) -> Result<Self> {
        Self::connect_with([addr], FleetConfig::default())
    }

    /// Connects to the first of `replicas` (addresses of servers holding
    /// the same corpus, preferred first) that passes the handshake, with
    /// `cfg`'s retry policy and socket timeout. The schema and corpus
    /// size learned here are what every later failover replica must
    /// serve.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when `replicas` is empty or no replica
    /// passes the handshake within the retry budget.
    pub fn connect_with<I, S>(replicas: I, cfg: FleetConfig) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let replicas: Vec<String> = replicas.into_iter().map(Into::into).collect();
        if replicas.is_empty() {
            return Err(HdbError::Transport("no replica addresses to connect to".into()));
        }
        let core = Arc::new(ClientCore {
            rotation: Mutex::new(Rotation {
                replicas,
                current: 0,
                generation: 0,
                checked: false,
                idle: Vec::new(),
            }),
            cfg,
            corpus: OnceLock::new(),
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        });
        // The checkout's handshake is the whole of connecting.
        core.retry(true, |_| Ok(()))?;
        let Some((schema, len)) = core.corpus.get().cloned() else {
            return Err(HdbError::Transport("connected without a handshake".into()));
        };
        Ok(Self { core, schema, len })
    }

    /// The address of the replica requests go to.
    #[must_use]
    pub fn addr(&self) -> String {
        let rot = self.core.lock();
        rot.replicas.get(rot.current).cloned().unwrap_or_default()
    }

    /// Wire exchanges performed so far (one per frame sent — a probe
    /// carrying an extend chain counts once). This is the round-trip
    /// economics evidence: with pipelined extends, a drill-down step
    /// adds exactly one.
    #[must_use]
    pub fn requests_sent(&self) -> u64 {
        self.core.requests.load(Ordering::Relaxed)
    }

    /// Attempts the retry loop made after a failed one (see the module
    /// docs). Every re-sent exchange is also counted in
    /// [`RemoteBackend::requests_sent`].
    #[must_use]
    pub fn retries_sent(&self) -> u64 {
        self.core.retries.load(Ordering::Relaxed)
    }

    /// Serving replicas abandoned so far, after a failed exchange or a
    /// drain of the replica in use.
    #[must_use]
    pub fn failover_count(&self) -> u64 {
        self.core.failovers.load(Ordering::Relaxed)
    }

    /// Whether the replica in use has passed its handshake since the last
    /// failover (`false` from a failure until the retry loop checks a
    /// survivor).
    #[must_use]
    pub fn serving(&self) -> bool {
        self.core.lock().checked
    }

    /// Registers `addr` as one more replica, last in the rotation.
    pub fn add_replica(&self, addr: impl Into<String>) {
        let addr = addr.into();
        let mut rot = self.core.lock();
        if !rot.replicas.contains(&addr) {
            rot.replicas.push(addr);
        }
    }

    /// Removes `addr` from the rotation. If it was the replica in use,
    /// the next request goes to the next replica, after its handshake.
    /// Returns whether the address was present.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when `addr` is the last replica left.
    pub fn drain(&self, addr: &str) -> Result<bool> {
        let mut rot = self.core.lock();
        let Some(at) = rot.replicas.iter().position(|a| a == addr) else { return Ok(false) };
        if rot.replicas.len() == 1 {
            return Err(HdbError::Transport(format!("cannot drain {addr}, the last replica")));
        }
        if at == rot.current && rot.advance() {
            self.core.failovers.fetch_add(1, Ordering::Relaxed);
        }
        rot.replicas.remove(at);
        if at < rot.current {
            rot.current -= 1;
        }
        Ok(true)
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
        match self.ask(&Request::Stats)? {
            Response::Stats(snap) => Ok(snap),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// One request through the retry loop, with an error frame turned
    /// into `Err`.
    fn ask(&self, req: &Request) -> Result<Response> {
        ok_or_err(self.core.request(req)?.1)
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

    /// Opens a server-side session rooted at `root`; `None` when the
    /// open failed (callers then evaluate fresh).
    fn open_session(&self, root: &Query) -> Option<Arc<RemoteSessionHandle>> {
        match self.core.request(&Request::WalkOpen { root: root.clone() }) {
            Ok((generation, Response::Session { sid })) => {
                let core = Arc::clone(&self.core);
                Some(Arc::new(RemoteSessionHandle { core, sid, generation }))
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
        match self.ask(&req)? {
            Response::Evaluation(ev) => Ok(ev),
            other => Err(unexpected("Evaluation", &other)),
        }
    }

    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counters.insert("hdb_remote_requests_total".into(), self.requests_sent());
        snap.counters.insert("hdb_remote_retries_total".into(), self.retries_sent());
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        match self.ask(&Request::ExactCount { query: q.clone() })? {
            Response::Count(n) => usize::try_from(n)
                .map_err(|_| HdbError::Transport("count overflows usize".into())),
            other => Err(unexpected("Count", &other)),
        }
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        match self.ask(&Request::ExactSum { attr: attr as u64, query: q.clone() })? {
            Response::Sum(x) => Ok(x),
            other => Err(unexpected("Sum", &other)),
        }
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        // A failed open falls back to fresh evaluation: correctness is
        // preserved and a genuinely dead server will surface a Transport
        // error on the next charged probe.
        match self.open_session(q) {
            Some(session) => WalkState::with_payload(RemoteWalk {
                node: Arc::new(RemoteNode {
                    parent: None,
                    state: Mutex::new(NodeState::Committed { session, level: 0 }),
                }),
            }),
            None => WalkState::fallback(),
        }
    }

    /// Zero round trips: the branch commitment is recorded client-side
    /// and piggybacks onto the next probe (see the module docs).
    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        _pred: Predicate,
        _recycled: WalkState,
    ) -> WalkState {
        let Some(walk) = parent.payload::<RemoteWalk>() else {
            // No server session behind the parent: open one rooted at
            // the child so the subtree below is still incremental.
            return self.walk_state(child);
        };
        WalkState::with_payload(RemoteWalk {
            node: Arc::new(RemoteNode {
                parent: Some(Arc::clone(&walk.node)),
                state: Mutex::new(NodeState::Pending),
            }),
        })
    }

    /// Sends one `WalkClassify` of `child` (= the parent's query ∧ `pred`)
    /// from the parent's node, counting the pending chain above it as its
    /// extends, and commits each pending node once the answer arrives.
    /// When the chain cannot commit (`SessionGone`), the node re-roots at
    /// a fresh session rooted at `child` without `pred` and the probe goes
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
        let Some(Anchor { session, level, pendings }) = anchor_of(&walk.node) else {
            return fresh();
        };
        let send = |sid: u64, level: u32, extends: u32| -> Result<Option<Classified>> {
            let req = Request::WalkClassify {
                sid,
                parent_level: level,
                extends,
                child: child.clone(),
                k: k as u64,
            };
            match self.ask(&req)? {
                Response::SessionGone => Ok(None),
                Response::Classified(c) => Ok(Some(c)),
                other => Err(unexpected("Classified", &other)),
            }
        };
        // Saturates only when `child` is itself too long to encode.
        let extends = u32::try_from(pendings.len()).unwrap_or(u32::MAX);
        if let Some(answer) = send(session.sid, level, extends)? {
            for (node, level) in pendings.iter().zip(level + 1..) {
                node.set_state(NodeState::Committed { session: Arc::clone(&session), level });
            }
            return Ok(answer);
        }
        if !pendings.is_empty() {
            if let Some(session) = self.open_session(&child.without(pred.attr)) {
                let root = NodeState::Committed { session: Arc::clone(&session), level: 0 };
                walk.node.set_state(root);
                if let Some(answer) = send(session.sid, 0, 0)? {
                    return Ok(answer);
                }
            }
        }
        fresh()
    }
}
