//! Federation: one logical hidden database over a **fleet** of
//! `hdb-server`s.
//!
//! [`FederatedBackend`] is [`ShardedDb`](crate::ShardedDb) with the
//! shards moved out of the process: the corpus is hash-partitioned by the
//! same stable FNV-1a assignment ([`ShardPartBackend::partition`] and
//! `ShardedDb::new` share one partitioning function), but each shard
//! lives behind its own server and is reached through a
//! [`RemoteBackend`]. Every probe fans out across the fleet on the
//! persistent [`WorkerPool`] and the per-shard partial results are merged
//! with the same order-independent `(score, id)` semantics the local
//! sharded backend uses — so a federated evaluation is **bit-identical**
//! to a local `ShardedDb` over the same table, which is itself
//! bit-identical to a single [`TableBackend`](crate::TableBackend). The
//! estimators cannot tell how many machines they are talking to.
//!
//! ## Fleet layer: topology, health, failover
//!
//! A [`Topology`] maps each shard to an ordered list of replica
//! addresses. Servers can be added ([`FederatedBackend::add_replica`])
//! and drained ([`FederatedBackend::drain`]) while the backend is
//! serving: draining the active replica invalidates its connection and
//! the next probe fails over to the survivors. Each shard's client moves
//! through a small state machine:
//!
//! ```text
//!        connect ok                 Transport error
//! (down) ──────────► (serving) ───────────────────► (down, generation+1)
//!    ▲                                                    │
//!    └──────── retry sweep over replicas, bounded ◄───────┘
//!              exponential backoff between attempts
//! ```
//!
//! A probe that exhausts its retry budget surfaces as
//! [`HdbError::Transport`]; the owning
//! [`HiddenDb`](crate::HiddenDb) then tallies the charged query as
//! `Errored`, keeping the accounting partition
//! `issued == underflow + valid + overflow + errored` exact. An optional
//! background health checker ([`FleetConfig::health_interval`]) pings
//! serving shards and pre-warms reconnects for dark ones; it paces on a
//! condition-variable timed wait (woken instantly at shutdown) and never
//! reads a clock, so results can never depend on timing.
//!
//! ## Why failover cannot change results
//!
//! Three invariants make the failover paths bit-identical rather than
//! merely "close":
//!
//! 1. every replica of shard `i` serves the **same** shard (validated at
//!    connect time: schema equality and shard corpus size);
//! 2. incremental walk probes and fresh evaluation return identical
//!    bits for the same query (the [`SearchBackend`] contract), so a
//!    failed-over shard answering "fresh" merges with siblings that
//!    answered incrementally;
//! 3. walk states are tagged with the **generation** of the shard
//!    connection that produced them. After a failover the generation has
//!    moved on, so a stale state can never be replayed against a new
//!    server (where its session id might coincidentally exist) — the
//!    probe simply evaluates fresh on the new connection.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::backend::{checked_numeric, Classified, Evaluation, SearchBackend, SelState, WalkState};
use crate::error::{HdbError, Result};
use crate::interface::ReturnedTuple;
use crate::obs::MetricsSnapshot;
use crate::par::WorkerPool;
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RowIdRanking};
use crate::remote::RemoteBackend;
use crate::schema::{AttrId, Schema};
use crate::sharded::{merge_partials, split, Shard};
use crate::table::Table;
use crate::tuple::TupleId;

// ---------------------------------------------------------------------------
// ShardPartBackend: one shard of a partitioned corpus, served standalone.

/// A [`SearchBackend`] over **one shard** of a hash-partitioned corpus,
/// answering with *global* tuple ids.
///
/// This is what each server in a federation serves. It evaluates exactly
/// like one shard inside a [`ShardedDb`](crate::ShardedDb) — same
/// partitioning, same per-shard candidate selection, same ascending
/// global ids — so a [`FederatedBackend`] merging the fleet's partials
/// reproduces the local sharded (and single-table) bits exactly.
#[derive(Debug)]
pub struct ShardPartBackend {
    schema: Schema,
    shard: Shard,
    index: usize,
    parts: usize,
}

/// The walk payload of a [`ShardPartBackend`]: the shard-local match-set
/// state (a newtype so it can never be confused with another backend's
/// payload).
#[derive(Default)]
struct PartWalk(SelState);

impl ShardPartBackend {
    /// Hash-partitions `table` into `parts` shard backends (`parts` is
    /// clamped to at least 1), each holding its slice of the corpus with
    /// global tuple ids. The assignment is identical to
    /// [`ShardedDb::new`](crate::ShardedDb::new) with the same count —
    /// serve these and a [`FederatedBackend`] over them is bit-identical
    /// to the local sharded backend.
    #[must_use]
    pub fn partition(table: &Table, parts: usize) -> Vec<Self> {
        let parts = parts.max(1);
        let schema = table.schema().clone();
        split(table, parts)
            .into_iter()
            .enumerate()
            .map(|(index, shard)| Self { schema: schema.clone(), shard, index, parts })
            .collect()
    }

    /// Which part of the partition this backend serves (0-based).
    #[must_use]
    pub fn part_index(&self) -> usize {
        self.index
    }

    /// How many parts the corpus was partitioned into.
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.parts
    }
}

impl SearchBackend for ShardPartBackend {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.shard.table.len()
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        let (count, top) = self.shard.partial(q, k, &self.schema, ranking);
        Ok(Evaluation { count, top })
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        Ok(self.shard.table.exact_count(q))
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let a = checked_numeric(&self.schema, attr)?;
        // Shard ids ascend, so iterating local rows in order folds the
        // shard's contribution in ascending global id order.
        let mut sum = 0.0;
        for row in self.shard.table.index().selection(q).iter_ones() {
            let v = self.shard.table.tuple(row as TupleId).value(attr);
            sum += a.numeric_value(v).ok_or_else(|| {
                HdbError::InvalidTuple(format!("value {v} of attribute {attr} is not numeric"))
            })?;
        }
        Ok(sum)
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        WalkState::with_payload(PartWalk(SelState::from_selection(
            self.shard.table.index().selection(q),
        )))
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        let Some(walk) = parent.payload::<PartWalk>() else {
            return self.walk_state(child);
        };
        let posting = self.shard.table.index().posting(pred.attr, pred.value as usize);
        recycled.rebuild(|spare: PartWalk| PartWalk(walk.0.child(posting, spare.0)))
    }

    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        let Some(walk) = parent.payload::<PartWalk>() else {
            return self.evaluate(child, k, ranking);
        };
        let (count, top) = self.shard.partial_from(&walk.0, pred, k, &self.schema, ranking);
        Ok(Evaluation { count, top })
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let Some(walk) = parent.payload::<PartWalk>() else {
            return Ok(Classified::from_evaluation(
                self.evaluate(child, k, &RowIdRanking)?,
                k,
            ));
        };
        let posting = self.shard.table.index().posting(pred.attr, pred.value as usize);
        let count = walk.0.and_count(posting);
        let page = if (1..=k).contains(&count) {
            walk.0
                .iter_and(posting)
                .map(|row| ReturnedTuple {
                    id: self.shard.ids[row],
                    tuple: self.shard.table.tuple(row as TupleId).clone(),
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Classified { count, page })
    }
}

// ---------------------------------------------------------------------------
// Topology

/// The fleet map: for each shard, an ordered list of replica addresses
/// (`host:port`), preferred first. Built once and handed to
/// [`FederatedBackend::connect`]; afterwards the live backend mutates its
/// own copy through [`FederatedBackend::add_replica`] /
/// [`FederatedBackend::drain`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Topology {
    shards: Vec<Vec<String>>,
}

impl Topology {
    /// An empty topology; grow it with [`Topology::add_replica`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A topology with one primary per shard: address `i` serves shard
    /// `i` of `addrs.len()`.
    pub fn from_primaries<I, S>(addrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self { shards: addrs.into_iter().map(|a| vec![a.into()]).collect() }
    }

    /// Registers `addr` as a replica of `shard`, extending the shard list
    /// as needed (so shards can be declared in any order).
    pub fn add_replica(&mut self, shard: usize, addr: impl Into<String>) -> &mut Self {
        if self.shards.len() <= shard {
            self.shards.resize_with(shard + 1, Vec::new);
        }
        self.shards[shard].push(addr.into());
        self
    }

    /// Number of shards in the map.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The replica addresses of `shard` (empty when out of range).
    #[must_use]
    pub fn replicas(&self, shard: usize) -> &[String] {
        self.shards.get(shard).map_or(&[], Vec::as_slice)
    }
}

// ---------------------------------------------------------------------------
// FleetConfig

/// Tuning for a [`FederatedBackend`]: fan-out width, failover budget,
/// backoff pacing, socket limits, and the optional health checker.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Threads evaluating shards concurrently (as
    /// [`ShardedDb::with_workers`](crate::ShardedDb::with_workers):
    /// `workers - 1` persistent pool threads plus the caller).
    pub workers: usize,
    /// Extra connect-and-probe attempts after the first before a probe
    /// gives up with [`HdbError::Transport`]. Each attempt sweeps the
    /// shard's replica rotation once.
    pub retries: usize,
    /// Delay before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Ceiling for the doubled backoff delay.
    pub backoff_cap: Duration,
    /// Per-operation socket timeout for every shard connection.
    pub io_timeout: Duration,
    /// Idle pooled connections kept per shard client.
    pub max_idle: usize,
    /// When set, a background thread pings serving shards and
    /// pre-reconnects dark ones at this cadence. `None` (the default)
    /// leaves failure detection entirely to the probe path.
    pub health_interval: Option<Duration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            retries: 3,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            io_timeout: Duration::from_secs(30),
            max_idle: 8,
            health_interval: None,
        }
    }
}

impl FleetConfig {
    /// Applies one command-line flag to this config. Returns `Ok(true)`
    /// when the flag was recognised and consumed, `Ok(false)` when it is
    /// not a fleet flag (so the caller keeps parsing), and `Err` with a
    /// user-facing message when the flag is known but its value does not
    /// parse. The flag vocabulary is shared verbatim between `hdb-server
    /// --federate` and the federation benches — see [`FleetConfig::cli_help`].
    ///
    /// # Errors
    /// A human-readable message naming the flag and the expected value
    /// shape.
    pub fn apply_cli(&mut self, flag: &str, value: &str) -> std::result::Result<bool, String> {
        fn millis(flag: &str, value: &str) -> std::result::Result<Duration, String> {
            value
                .parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|_| format!("{flag} expects milliseconds, got {value:?}"))
        }
        match flag {
            "--retries" => {
                self.retries = value
                    .parse()
                    .map_err(|_| format!("--retries expects a count, got {value:?}"))?;
            }
            "--backoff-ms" => self.backoff = millis(flag, value)?,
            "--backoff-cap-ms" => {
                self.backoff_cap = millis(flag, value)?;
                if self.backoff_cap < self.backoff {
                    return Err(format!(
                        "--backoff-cap-ms ({}) must be >= --backoff-ms ({})",
                        self.backoff_cap.as_millis(),
                        self.backoff.as_millis()
                    ));
                }
            }
            "--io-timeout-ms" => {
                let t = millis(flag, value)?;
                if t.is_zero() {
                    return Err("--io-timeout-ms must be positive".to_string());
                }
                self.io_timeout = t;
            }
            "--health-interval-ms" => {
                let t = millis(flag, value)?;
                self.health_interval = if t.is_zero() { None } else { Some(t) };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The `--help` lines for the flags [`FleetConfig::apply_cli`]
    /// understands, one flag per line, indented to match a typical usage
    /// block.
    #[must_use]
    pub fn cli_help() -> &'static str {
        "  --retries N             extra failover attempts per probe (default 3)\n  \
         --backoff-ms MS         delay before the first retry, doubling per attempt (default 10)\n  \
         --backoff-cap-ms MS     ceiling for the doubled backoff delay (default 200)\n  \
         --io-timeout-ms MS      per-operation socket timeout (default 30000)\n  \
         --health-interval-ms MS background health-check cadence; 0 disables (default off)"
    }
}

// ---------------------------------------------------------------------------
// Per-shard client: connection slot + generation + failover sweep.

/// The connection slot of one shard: the current client (if any) and a
/// monotonically increasing generation. Every reconnect and every
/// invalidation bumps the generation, so walk states tagged with an old
/// generation can never be replayed against a newer connection.
struct Slot {
    client: Option<Arc<RemoteBackend>>,
    generation: u64,
}

/// One shard of the fleet: replica rotation, connection slot, and the
/// typed-error retry/failover sweep.
struct ShardClient {
    index: usize,
    /// Shard corpus size learned at bring-up; every replica must agree.
    expected_len: usize,
    /// Full corpus schema; every replica must agree.
    schema: Schema,
    replicas: Mutex<Vec<String>>,
    /// Start index of the next reconnect sweep (bumped on failover so the
    /// sweep begins at the next replica, not the one that just died).
    cursor: AtomicUsize,
    slot: Mutex<Slot>,
    failovers: AtomicU64,
    cfg: Arc<FleetConfig>,
}

impl ShardClient {
    /// The current client and its generation, without touching the
    /// network.
    fn snapshot(&self) -> Option<(u64, Arc<RemoteBackend>)> {
        let slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        slot.client.as_ref().map(|c| (slot.generation, Arc::clone(c)))
    }

    /// Drops the connection of `generation` (if still current) so the
    /// next acquire reconnects — possibly to a different replica. The
    /// generation guard makes concurrent invalidations of the same dead
    /// client count as one failover.
    fn invalidate(&self, generation: u64) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        if slot.generation == generation && slot.client.is_some() {
            slot.client = None;
            slot.generation += 1;
            self.failovers.fetch_add(1, Ordering::Relaxed);
            self.cursor.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The current client, connecting if the slot is empty: one sweep
    /// over the replica rotation, validating that the replica serves
    /// this shard (schema + shard corpus size) before installing it.
    fn acquire(&self) -> Result<(u64, Arc<RemoteBackend>)> {
        if let Some(got) = self.snapshot() {
            return Ok(got);
        }
        let replicas = self.replicas.lock().unwrap_or_else(|p| p.into_inner()).clone();
        if replicas.is_empty() {
            return Err(HdbError::Transport(format!(
                "shard {}: no replicas configured",
                self.index
            )));
        }
        let n = replicas.len();
        let start = self.cursor.load(Ordering::Relaxed);
        let mut last: Option<HdbError> = None;
        for off in 0..n {
            let idx = (start + off) % n;
            let addr = replicas[idx].clone();
            match RemoteBackend::connect_with(addr.clone(), self.cfg.max_idle, self.cfg.io_timeout)
            {
                Ok(client) => {
                    if client.schema() != &self.schema || client.len() != self.expected_len {
                        last = Some(HdbError::Transport(format!(
                            "shard {} replica {addr} serves a different corpus \
                             ({} rows vs the expected {})",
                            self.index,
                            client.len(),
                            self.expected_len,
                        )));
                        continue;
                    }
                    self.cursor.store(idx, Ordering::Relaxed);
                    let client = Arc::new(client);
                    let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
                    if let Some(existing) = &slot.client {
                        // A concurrent acquire won the race; use its client.
                        return Ok((slot.generation, Arc::clone(existing)));
                    }
                    slot.generation += 1;
                    slot.client = Some(Arc::clone(&client));
                    return Ok((slot.generation, client));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            HdbError::Transport(format!("shard {}: no replica reachable", self.index))
        }))
    }

    /// Runs `op` against a live client with the shard's full failover
    /// budget: on a Transport error the connection is invalidated and the
    /// next attempt (after bounded exponential backoff) sweeps the
    /// replica rotation for a survivor. Non-transport errors are typed
    /// answers, not connectivity, and surface immediately. Exhausting the
    /// budget surfaces the last Transport error — the owning `HiddenDb`
    /// tallies that probe as `Errored`.
    fn with_client<T>(&self, op: impl Fn(&RemoteBackend) -> Result<T>) -> Result<T> {
        let mut delay = self.cfg.backoff;
        let mut last = HdbError::Transport(format!("shard {}: never attempted", self.index));
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(self.cfg.backoff_cap);
            }
            let (generation, client) = match self.acquire() {
                Ok(got) => got,
                Err(e) => {
                    last = e;
                    continue;
                }
            };
            match op(&client) {
                Ok(v) => return Ok(v),
                Err(HdbError::Transport(e)) => {
                    self.invalidate(generation);
                    last = HdbError::Transport(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// The address currently serving this shard, if any.
    fn current_addr(&self) -> Option<String> {
        self.snapshot().map(|(_, c)| c.addr().to_string())
    }
}

// ---------------------------------------------------------------------------
// Walk states

/// One shard's slice of a federated walk state: the remote state plus the
/// connection generation that produced it. A generation mismatch at probe
/// time means the shard failed over since — the state is ignored and the
/// probe evaluates fresh (bit-identical), because a stale session id must
/// never be presented to a different server.
struct ShardWalk {
    generation: u64,
    state: WalkState,
}

/// The payload a [`FederatedBackend`] stores in a [`WalkState`]: one
/// [`ShardWalk`] per shard, in shard order.
struct FedWalk {
    shards: Vec<ShardWalk>,
}

// ---------------------------------------------------------------------------
// Health checker

/// Background health checks: a thread that pings serving shards and
/// pre-warms reconnects for dark ones. Pacing is a condition-variable
/// timed wait — the thread is parked for the whole interval and woken
/// instantly at shutdown, instead of polling a stop flag in sleep
/// slices — and it never reads a clock or touches results, only
/// connection slots.
struct HealthChecker {
    /// `(stopped, wakeup)`: Drop sets the flag and notifies, ending the
    /// thread's timed wait immediately.
    state: Arc<(Mutex<bool>, Condvar)>,
    /// Shards visited by the sweep loop so far (one per shard per tick),
    /// exported as `hdb_fed_health_probe_total`.
    probes: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HealthChecker {
    fn spawn(shards: Vec<Arc<ShardClient>>, interval: Duration) -> Option<Self> {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let probes = Arc::new(AtomicU64::new(0));
        let shared = Arc::clone(&state);
        let tally = Arc::clone(&probes);
        let handle = std::thread::Builder::new()
            .name("hdb-fleet-health".into())
            .spawn(move || loop {
                for shard in &shards {
                    tally.fetch_add(1, Ordering::Relaxed);
                    match shard.snapshot() {
                        Some((generation, client)) => {
                            if client.ping().is_err() {
                                shard.invalidate(generation);
                            }
                        }
                        None => {
                            // Dark shard: try to restore coverage so the
                            // next probe doesn't pay the reconnect.
                            let _ = shard.acquire();
                        }
                    }
                }
                let (stopped, wakeup) = &*shared;
                let guard = stopped.lock().unwrap_or_else(|p| p.into_inner());
                let (guard, _) = wakeup
                    .wait_timeout_while(guard, interval, |stop| !*stop)
                    .unwrap_or_else(|p| p.into_inner());
                if *guard {
                    return;
                }
            })
            .ok()?;
        Some(Self { state, probes, handle: Some(handle) })
    }

    /// Shards visited by the health sweep so far.
    fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

impl Drop for HealthChecker {
    fn drop(&mut self) {
        {
            let (stopped, wakeup) = &*self.state;
            *stopped.lock().unwrap_or_else(|p| p.into_inner()) = true;
            wakeup.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// FederatedBackend

/// A [`SearchBackend`] over a fleet of shard servers: hash-partitioned
/// like [`ShardedDb`](crate::ShardedDb), with each shard behind a
/// [`RemoteBackend`], fanned out in parallel and merged
/// order-independently. See the module docs for the fleet layer and the
/// bit-identicality argument.
pub struct FederatedBackend {
    schema: Schema,
    len: usize,
    shards: Vec<Arc<ShardClient>>,
    workers: usize,
    /// Persistent helper threads for per-probe shard fan-out; `None` when
    /// `workers == 1`.
    pool: Option<Arc<WorkerPool>>,
    /// The optional background health thread (joined on drop).
    health: Option<HealthChecker>,
}

impl std::fmt::Debug for FederatedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedBackend")
            .field("shards", &self.shards.len())
            .field("len", &self.len)
            .field("workers", &self.workers)
            .finish()
    }
}

impl FederatedBackend {
    /// Connects to every shard of `topology` with the default
    /// [`FleetConfig`].
    ///
    /// # Errors
    /// [`HdbError::Transport`] when the topology is empty, a shard has no
    /// reachable replica, or the shards disagree on the corpus schema.
    pub fn connect(topology: Topology) -> Result<Self> {
        Self::connect_with(topology, FleetConfig::default())
    }

    /// [`FederatedBackend::connect`] with explicit tuning. Bring-up
    /// requires every shard reachable once (the fleet's schema and the
    /// per-shard corpus sizes are learned here and re-validated on every
    /// failover); afterwards shards may come and go.
    ///
    /// # Errors
    /// Same as [`FederatedBackend::connect`].
    pub fn connect_with(topology: Topology, cfg: FleetConfig) -> Result<Self> {
        if topology.shards.is_empty() {
            return Err(HdbError::Transport("federated topology has no shards".into()));
        }
        let workers = cfg.workers.max(1);
        let cfg = Arc::new(cfg);
        let mut shards: Vec<Arc<ShardClient>> = Vec::with_capacity(topology.shards.len());
        let mut schema: Option<Schema> = None;
        for (index, replicas) in topology.shards.into_iter().enumerate() {
            if replicas.is_empty() {
                return Err(HdbError::Transport(format!("shard {index} has no replicas")));
            }
            let mut connected: Option<(usize, RemoteBackend)> = None;
            let mut last: Option<HdbError> = None;
            for (idx, addr) in replicas.iter().enumerate() {
                match RemoteBackend::connect_with(addr.clone(), cfg.max_idle, cfg.io_timeout) {
                    Ok(client) => {
                        connected = Some((idx, client));
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            let Some((idx, client)) = connected else {
                return Err(last.unwrap_or_else(|| {
                    HdbError::Transport(format!("shard {index}: no replica reachable"))
                }));
            };
            match &schema {
                None => schema = Some(client.schema().clone()),
                Some(s) if s == client.schema() => {}
                Some(_) => {
                    return Err(HdbError::Transport(format!(
                        "shard {index} replica {} disagrees on the corpus schema",
                        client.addr(),
                    )))
                }
            }
            shards.push(Arc::new(ShardClient {
                index,
                expected_len: client.len(),
                schema: client.schema().clone(),
                replicas: Mutex::new(replicas),
                cursor: AtomicUsize::new(idx),
                slot: Mutex::new(Slot { client: Some(Arc::new(client)), generation: 1 }),
                failovers: AtomicU64::new(0),
                cfg: Arc::clone(&cfg),
            }));
        }
        let Some(schema) = schema else {
            return Err(HdbError::Transport("federated topology has no shards".into()));
        };
        let len = shards.iter().map(|s| s.expected_len).sum();
        let pool = (workers > 1 && shards.len() > 1)
            .then(|| Arc::new(WorkerPool::new(workers - 1)));
        let health = cfg
            .health_interval
            .and_then(|interval| HealthChecker::spawn(shards.clone(), interval));
        Ok(Self { schema, len, shards, workers, pool, health })
    }

    /// Number of shards in the fleet.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows held by shard `i` (0 when out of range).
    #[must_use]
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards.get(i).map_or(0, |s| s.expected_len)
    }

    /// The configured evaluation worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total failovers so far (connections invalidated after a Transport
    /// error or a drain of the serving replica).
    #[must_use]
    pub fn failover_count(&self) -> u64 {
        self.shards.iter().map(|s| s.failovers.load(Ordering::Relaxed)).sum()
    }

    /// Per-shard serving state: `true` when the shard currently holds a
    /// live connection (a `false` shard reconnects on the next probe or
    /// health tick).
    #[must_use]
    pub fn shard_health(&self) -> Vec<bool> {
        self.shards.iter().map(|s| s.snapshot().is_some()).collect()
    }

    /// Shards visited by the background health checker so far (0 when
    /// [`FleetConfig::health_interval`] is off). One sweep over an
    /// `n`-shard fleet adds `n`.
    #[must_use]
    pub fn health_probe_count(&self) -> u64 {
        self.health.as_ref().map_or(0, HealthChecker::probe_count)
    }

    /// The address currently serving shard `i`, if any.
    #[must_use]
    pub fn shard_addr(&self, i: usize) -> Option<String> {
        self.shards.get(i).and_then(|s| s.current_addr())
    }

    /// Registers `addr` as an additional replica of `shard` — the live
    /// half of a topology handoff: add the new server, then
    /// [`FederatedBackend::drain`] the old one.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when `shard` is out of range.
    pub fn add_replica(&self, shard: usize, addr: impl Into<String>) -> Result<()> {
        let Some(client) = self.shards.get(shard) else {
            return Err(HdbError::Transport(format!("no such shard: {shard}")));
        };
        let addr = addr.into();
        let mut replicas = client.replicas.lock().unwrap_or_else(|p| p.into_inner());
        if !replicas.iter().any(|a| a == &addr) {
            replicas.push(addr);
        }
        Ok(())
    }

    /// Removes `addr` from `shard`'s rotation. If it was the serving
    /// replica its connection is invalidated, so the next probe fails
    /// over to the survivors — the drain half of a topology handoff.
    /// Returns whether the address was present.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when `shard` is out of range.
    pub fn drain(&self, shard: usize, addr: &str) -> Result<bool> {
        let Some(client) = self.shards.get(shard) else {
            return Err(HdbError::Transport(format!("no such shard: {shard}")));
        };
        let removed = {
            let mut replicas = client.replicas.lock().unwrap_or_else(|p| p.into_inner());
            let before = replicas.len();
            replicas.retain(|a| a != addr);
            replicas.len() != before
        };
        if removed {
            if let Some((generation, current)) = client.snapshot() {
                if current.addr() == addr {
                    client.invalidate(generation);
                }
            }
        }
        Ok(removed)
    }

    /// Runs one closure per shard — on the persistent pool when one is
    /// configured, serially otherwise — and returns the results in shard
    /// order. (Ordering the results is free determinism; the merges are
    /// order-independent anyway.)
    fn per_shard<R: Send>(&self, run: impl Fn(usize) -> R + Sync) -> Vec<R> {
        match &self.pool {
            None => (0..self.shards.len()).map(run).collect(),
            Some(pool) => {
                let mut results = pool
                    .fan_out(self.shards.len() as u64, |i| Ok::<_, Infallible>(run(i as usize)))
                    .results;
                results.sort_unstable_by_key(|&(i, _)| i);
                results.into_iter().map(|(_, r)| r).collect()
            }
        }
    }

    /// Fallible [`FederatedBackend::per_shard`]: the first shard error
    /// stops the fan-out and surfaces (the probe then tallies as
    /// `Errored` in the owning `HiddenDb`).
    fn try_per_shard<R: Send>(&self, run: impl Fn(usize) -> Result<R> + Sync) -> Result<Vec<R>> {
        match &self.pool {
            None => (0..self.shards.len()).map(run).collect(),
            Some(pool) => {
                let out = pool.fan_out(self.shards.len() as u64, |i| run(i as usize));
                if let Some(e) = out.error {
                    return Err(e);
                }
                let mut results = out.results;
                if results.len() != self.shards.len() {
                    return Err(HdbError::Transport("shard fan-out stopped early".into()));
                }
                results.sort_unstable_by_key(|&(i, _)| i);
                Ok(results.into_iter().map(|(_, r)| r).collect())
            }
        }
    }

    /// The walk slice for shard `i` from a federated parent state, if the
    /// parent has one for this shard and its generation is still current.
    fn usable_walk<'a>(&self, fed: Option<&'a FedWalk>, i: usize) -> Option<&'a ShardWalk> {
        let fed = fed?;
        let sw = fed.shards.get(i)?;
        (sw.generation > 0).then_some(sw)
    }

    /// One shard's partial for an incremental evaluate probe: the walk
    /// fast path when the shard connection still matches the state's
    /// generation, failover + fresh evaluation otherwise.
    fn shard_eval_from(
        &self,
        i: usize,
        fed: Option<&FedWalk>,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<(usize, Vec<ReturnedTuple>)> {
        let Some(shard) = self.shards.get(i) else {
            return Err(HdbError::Transport(format!("no such shard: {i}")));
        };
        if let Some(sw) = self.usable_walk(fed, i) {
            if let Some((generation, client)) = shard.snapshot() {
                if generation == sw.generation {
                    match client.evaluate_from(&sw.state, child, pred, k, ranking) {
                        Ok(ev) => return Ok((ev.count, ev.top)),
                        Err(HdbError::Transport(_)) => shard.invalidate(generation),
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        let ev = shard.with_client(|c| c.evaluate(child, k, ranking))?;
        Ok((ev.count, ev.top))
    }

    /// One shard's classification for an incremental probe (see
    /// [`FederatedBackend::shard_eval_from`]).
    fn shard_classify_from(
        &self,
        i: usize,
        fed: Option<&FedWalk>,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let Some(shard) = self.shards.get(i) else {
            return Err(HdbError::Transport(format!("no such shard: {i}")));
        };
        if let Some(sw) = self.usable_walk(fed, i) {
            if let Some((generation, client)) = shard.snapshot() {
                if generation == sw.generation {
                    match client.classify_from(&sw.state, child, pred, k) {
                        Ok(c) => return Ok(c),
                        Err(HdbError::Transport(_)) => shard.invalidate(generation),
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        let ev = shard.with_client(|c| c.evaluate(child, k, &RowIdRanking))?;
        Ok(Classified::from_evaluation(ev, k))
    }
}

impl SearchBackend for FederatedBackend {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.len
    }

    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counters.insert("hdb_fed_failovers_total".into(), self.failover_count());
        snap.counters.insert("hdb_fed_health_probe_total".into(), self.health_probe_count());
        for (i, healthy) in self.shard_health().iter().enumerate() {
            snap.gauges
                .insert(format!("hdb_fed_shard_state{{shard=\"{i}\"}}"), u64::from(*healthy));
        }
        if let Some(pool) = &self.pool {
            snap.counters.insert("hdb_pool_jobs_enqueued_total".into(), pool.jobs_enqueued());
            snap.gauges
                .insert("hdb_pool_queue_depth_high_water".into(), pool.queue_depth_high_water());
        }
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        let partials = self.try_per_shard(|i| {
            let Some(shard) = self.shards.get(i) else {
                return Err(HdbError::Transport(format!("no such shard: {i}")));
            };
            let ev = shard.with_client(|c| c.evaluate(q, k, ranking))?;
            Ok((ev.count, ev.top))
        })?;
        Ok(merge_partials(&self.schema, partials, k, ranking))
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        let counts = self.try_per_shard(|i| {
            let Some(shard) = self.shards.get(i) else {
                return Err(HdbError::Transport(format!("no such shard: {i}")));
            };
            shard.with_client(|c| c.exact_count(q))
        })?;
        Ok(counts.into_iter().sum())
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let a = checked_numeric(&self.schema, attr)?;
        // Per shard, fetch ALL matches (k = shard corpus size forces a
        // valid outcome, i.e. the full match page in ascending global id
        // order), then fold the union in ascending global id order —
        // float addition is not associative and this sum must be
        // bit-identical to the single-table (and local-sharded) one.
        let pages = self.try_per_shard(|i| {
            let Some(shard) = self.shards.get(i) else {
                return Err(HdbError::Transport(format!("no such shard: {i}")));
            };
            let all = shard.expected_len.max(1);
            let ev = shard.with_client(|c| c.evaluate(q, all, &RowIdRanking))?;
            if ev.count != ev.top.len() {
                return Err(HdbError::Transport(format!(
                    "shard {i} returned {} of {} matches for an exact sum",
                    ev.top.len(),
                    ev.count,
                )));
            }
            let mut pairs: Vec<(TupleId, f64)> = Vec::with_capacity(ev.top.len());
            for t in ev.top {
                let Some(&v) = t.tuple.values().get(attr) else {
                    return Err(HdbError::Transport(format!(
                        "shard {i} returned a tuple without attribute {attr}"
                    )));
                };
                let x = a.numeric_value(v).ok_or_else(|| {
                    HdbError::Transport(format!(
                        "shard {i} returned non-numeric value {v} for attribute {attr}"
                    ))
                })?;
                pairs.push((t.id, x));
            }
            Ok(pairs)
        })?;
        let mut values: Vec<(TupleId, f64)> = pages.into_iter().flatten().collect();
        values.sort_unstable_by_key(|&(id, _)| id);
        Ok(values.into_iter().map(|(_, v)| v).sum())
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        let shards = self.per_shard(|i| match self.shards.get(i).and_then(|s| s.snapshot()) {
            Some((generation, client)) => {
                ShardWalk { generation, state: client.walk_state(q) }
            }
            // Dark shard: no session; probes through this slice fail over
            // and evaluate fresh (generation 0 never matches a slot).
            None => ShardWalk { generation: 0, state: WalkState::fallback() },
        });
        WalkState::with_payload(FedWalk { shards })
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        _recycled: WalkState,
    ) -> WalkState {
        let Some(fed) = parent.payload::<FedWalk>() else {
            return self.walk_state(child);
        };
        let shards = self.per_shard(|i| {
            let parent_walk = fed.shards.get(i);
            match self.shards.get(i).and_then(|s| s.snapshot()) {
                Some((generation, client)) => match parent_walk {
                    // Still the connection that produced the parent state:
                    // zero-RTT lazy extend (the RemoteBackend pends it).
                    Some(sw) if sw.generation == generation => ShardWalk {
                        generation,
                        state: client.extend_state(
                            &sw.state,
                            child,
                            pred,
                            WalkState::fallback(),
                        ),
                    },
                    // The shard failed over since: re-root a session at
                    // the child on the new connection so the subtree
                    // below stays incremental.
                    _ => ShardWalk { generation, state: client.walk_state(child) },
                },
                None => ShardWalk { generation: 0, state: WalkState::fallback() },
            }
        });
        WalkState::with_payload(FedWalk { shards })
    }

    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        let fed = parent.payload::<FedWalk>();
        let partials =
            self.try_per_shard(|i| self.shard_eval_from(i, fed, child, pred, k, ranking))?;
        Ok(merge_partials(&self.schema, partials, k, ranking))
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let fed = parent.payload::<FedWalk>();
        let parts =
            self.try_per_shard(|i| self.shard_classify_from(i, fed, child, pred, k))?;
        let count: usize = parts.iter().map(|c| c.count).sum();
        let page = if (1..=k).contains(&count) {
            // Valid globally ⇒ every shard count ≤ k, so every non-empty
            // shard page is populated; their union is all matches, in
            // ascending global id order after the sort.
            let mut page: Vec<ReturnedTuple> =
                parts.into_iter().flat_map(|c| c.page).collect();
            page.sort_unstable_by_key(|t| t.id);
            page
        } else {
            Vec::new()
        };
        Ok(Classified { count, page })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TableBackend;

    #[test]
    fn fleet_flags_parse_and_reject_typed() {
        let mut cfg = FleetConfig::default();
        assert_eq!(cfg.apply_cli("--retries", "7"), Ok(true));
        assert_eq!(cfg.retries, 7);
        assert_eq!(cfg.apply_cli("--backoff-ms", "25"), Ok(true));
        assert_eq!(cfg.apply_cli("--backoff-cap-ms", "400"), Ok(true));
        assert_eq!(cfg.apply_cli("--io-timeout-ms", "1500"), Ok(true));
        assert_eq!(cfg.apply_cli("--health-interval-ms", "50"), Ok(true));
        assert_eq!(cfg.backoff, Duration::from_millis(25));
        assert_eq!(cfg.backoff_cap, Duration::from_millis(400));
        assert_eq!(cfg.io_timeout, Duration::from_millis(1500));
        assert_eq!(cfg.health_interval, Some(Duration::from_millis(50)));
        // 0 disables the health checker rather than busy-spinning it.
        assert_eq!(cfg.apply_cli("--health-interval-ms", "0"), Ok(true));
        assert_eq!(cfg.health_interval, None);
        // Unknown flags are left for the caller; bad values are typed.
        assert_eq!(cfg.apply_cli("--listen", "0.0.0.0:1"), Ok(false));
        assert!(cfg.apply_cli("--retries", "many").is_err());
        assert!(cfg.apply_cli("--io-timeout-ms", "0").is_err());
        assert!(cfg.apply_cli("--backoff-cap-ms", "1").is_err(), "cap below base");
        // Every flag in apply_cli appears in the shared help text.
        for flag in
            ["--retries", "--backoff-ms", "--backoff-cap-ms", "--io-timeout-ms", "--health-interval-ms"]
        {
            assert!(FleetConfig::cli_help().contains(flag), "{flag} missing from help");
        }
    }
    use crate::ranking::{AttributeRanking, RowIdRanking, SeededRandomRanking};
    use crate::schema::Attribute;
    use crate::sharded::ShardedDb;
    use crate::tuple::Tuple;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::boolean("a"),
            Attribute::boolean("b"),
            Attribute::categorical("p", ["1", "2", "3", "4"])
                .unwrap()
                .with_numeric(vec![1.0, 2.0, 3.0, 4.0])
                .unwrap(),
        ])
        .unwrap();
        let tuples: Vec<Tuple> = (0..16u16)
            .map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, i >> 2]))
            .collect();
        Table::new(schema, tuples).unwrap()
    }

    fn all_queries(schema: &Schema) -> Vec<Query> {
        let mut queries = vec![Query::all()];
        for attr in 0..schema.len() {
            for v in 0..schema.fanout(attr) {
                queries.push(Query::all().and(attr, v as u16).unwrap());
            }
        }
        queries.push(Query::all().and(0, 1).unwrap().and(2, 3).unwrap());
        queries
    }

    /// The partition places every tuple exactly once and mirrors
    /// `ShardedDb::new`'s assignment (same shard sizes).
    #[test]
    fn partition_matches_sharded_db_assignment() {
        let t = table();
        for parts in [1usize, 2, 3, 7] {
            let backends = ShardPartBackend::partition(&t, parts);
            let sharded = ShardedDb::new(&t, parts);
            assert_eq!(backends.len(), parts);
            let total: usize = backends.iter().map(|b| b.len()).sum();
            assert_eq!(total, t.len());
            for (i, b) in backends.iter().enumerate() {
                assert_eq!(b.len(), sharded.shard_len(i), "parts={parts} shard={i}");
                assert_eq!(b.part_index(), i);
                assert_eq!(b.part_count(), parts);
            }
        }
    }

    /// Per-part evaluations, merged with the shared merge, reproduce the
    /// single-table backend bitwise — for trivial and non-trivial
    /// rankings.
    #[test]
    fn merged_part_evaluations_match_single_table() {
        let t = table();
        let reference = TableBackend::new(t.clone());
        let rankings: [&dyn RankingFunction; 3] = [
            &RowIdRanking,
            &AttributeRanking { attr: 2, descending: true },
            &SeededRandomRanking { seed: 7 },
        ];
        for parts in [1usize, 3, 5] {
            let backends = ShardPartBackend::partition(&t, parts);
            for ranking in rankings {
                for q in all_queries(t.schema()) {
                    for k in [1usize, 3, 20] {
                        let partials: Vec<(usize, Vec<ReturnedTuple>)> = backends
                            .iter()
                            .map(|b| {
                                let ev = b.evaluate(&q, k, ranking).unwrap();
                                (ev.count, ev.top)
                            })
                            .collect();
                        let merged = merge_partials(t.schema(), partials, k, ranking);
                        assert_eq!(
                            reference.evaluate(&q, k, ranking).unwrap(),
                            merged,
                            "parts={parts} q={q:?} k={k}"
                        );
                    }
                }
            }
        }
    }

    /// The incremental walk fast path of a part backend is bit-identical
    /// to its fresh evaluation, and per-part sums/counts add up to the
    /// whole.
    #[test]
    fn part_walk_fast_path_and_ground_truth() {
        let t = table();
        let reference = TableBackend::new(t.clone());
        let backends = ShardPartBackend::partition(&t, 3);
        let root = Query::all();
        let child = root.and(0, 1).unwrap();
        let pred = Predicate::new(0, 1);
        for b in &backends {
            let walk = b.walk_state(&root);
            let fresh = b.evaluate(&child, 3, &RowIdRanking).unwrap();
            let incr = b.evaluate_from(&walk, &child, pred, 3, &RowIdRanking).unwrap();
            assert_eq!(fresh, incr);
            let classified = b.classify_from(&walk, &child, pred, 3).unwrap();
            assert_eq!(classified.count, fresh.count);
            // One level deeper through extend_state.
            let grand = child.and(1, 0).unwrap();
            let gpred = Predicate::new(1, 0);
            let ext = b.extend_state(&walk, &child, pred, WalkState::fallback());
            assert_eq!(
                b.evaluate_from(&ext, &grand, gpred, 2, &RowIdRanking).unwrap(),
                b.evaluate(&grand, 2, &RowIdRanking).unwrap()
            );
        }
        let q = Query::all().and(1, 1).unwrap();
        let count: usize = backends.iter().map(|b| b.exact_count(&q).unwrap()).sum();
        assert_eq!(count, reference.exact_count(&q).unwrap());
        assert!(backends[0].exact_sum(9, &q).is_err(), "bad attr is typed");
    }

    #[test]
    fn topology_construction_and_accessors() {
        let mut topo = Topology::new();
        topo.add_replica(1, "b:1").add_replica(0, "a:1").add_replica(1, "b:2");
        assert_eq!(topo.shard_count(), 2);
        assert_eq!(topo.replicas(0), ["a:1".to_string()]);
        assert_eq!(topo.replicas(1), ["b:1".to_string(), "b:2".to_string()]);
        assert!(topo.replicas(9).is_empty());
        let primaries = Topology::from_primaries(["x:1", "y:1"]);
        assert_eq!(primaries.shard_count(), 2);
        assert_eq!(primaries.replicas(1), ["y:1".to_string()]);
    }

    #[test]
    fn connect_to_empty_or_unreachable_topology_is_typed() {
        assert!(matches!(
            FederatedBackend::connect(Topology::new()),
            Err(HdbError::Transport(_))
        ));
        let mut topo = Topology::new();
        topo.add_replica(0, "127.0.0.1:1");
        let cfg = FleetConfig {
            io_timeout: Duration::from_millis(200),
            retries: 0,
            ..FleetConfig::default()
        };
        assert!(matches!(
            FederatedBackend::connect_with(topo, cfg),
            Err(HdbError::Transport(_))
        ));
    }
}
