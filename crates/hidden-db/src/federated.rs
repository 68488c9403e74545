//! Federation: one logical hidden database over a **fleet** of
//! `hdb-server`s.
//!
//! [`FederatedBackend`] is [`ShardedDb`](crate::ShardedDb) with the
//! shards moved out of the process: the corpus is hash-partitioned by the
//! same stable FNV-1a assignment
//! ([`ShardedDb::partition`](crate::ShardedDb::partition) cuts it into
//! one-shard databases, one per server), but each shard lives behind its
//! own server and is reached through a [`RemoteBackend`]. Every probe
//! fans out across the fleet on the persistent [`WorkerPool`] and the
//! per-shard partial results are merged with the same order-independent
//! `(score, id)` semantics the local sharded backend uses — so a
//! federated evaluation is **bit-identical**
//! to a local `ShardedDb` over the same table, which is itself
//! bit-identical to a single [`TableBackend`](crate::TableBackend). The
//! estimators cannot tell how many machines they are talking to.
//!
//! ## Fleet layer: topology, failover
//!
//! A [`Topology`] maps each shard to an ordered list of replica
//! addresses, and each shard's [`RemoteBackend`] holds that list as its
//! rotation: the shard client owns the one retry loop and decides when,
//! and to which replica, a request is sent again (see the
//! [`remote`](crate::remote) module docs). This module only fans out and
//! merges. Servers can be added ([`FederatedBackend::add_replica`]) and
//! drained ([`FederatedBackend::drain`]) while the backend is serving:
//! draining the replica in use moves the rotation on, and the next probe
//! goes to a survivor. Each shard client moves through a small state
//! machine:
//!
//! ```text
//!        handshake ok                  exchange fails
//! (unchecked) ──────────► (serving) ─────────────────► (next replica, unchecked)
//!    ▲                                                        │
//!    └──── next attempt, after a doubling backoff, ◄──────────┘
//!          at most FleetConfig::retries of them
//! ```
//!
//! A probe that exhausts its retry budget surfaces as
//! [`HdbError::Transport`]; the owning
//! [`HiddenDb`](crate::HiddenDb) then tallies the charged query as
//! `Errored`, keeping the accounting partition
//! `issued == underflow + valid + overflow + errored` exact. An error
//! frame is the server's answer: it surfaces at once, sent once. Failure
//! detection is the probe path's alone: a dead replica is noticed, and
//! failed over, by the next request sent to it.
//!
//! ## Why failover cannot change results
//!
//! Three invariants make the failover paths bit-identical rather than
//! merely "close":
//!
//! 1. every replica of shard `i` serves the **same** shard (validated by
//!    the handshake before a replica serves: schema equality and shard
//!    corpus size);
//! 2. incremental walk probes and fresh evaluation return identical
//!    bits for the same query (the [`SearchBackend`] contract), so a
//!    failed-over shard answering "fresh" merges with siblings that
//!    answered incrementally;
//! 3. the server checks every walk probe against the level it names: a
//!    probe's query must be that level's query plus the probe's
//!    predicate. After a failover, a session id the new server handed
//!    out to some other walk therefore cannot answer — the probe
//!    evaluates fresh or, carrying extends, gets `SessionGone` and the
//!    shard client re-roots on the new server.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Duration;

use crate::backend::{checked_numeric, Classified, Evaluation, SearchBackend, WalkState};
use crate::error::{HdbError, Result};
use crate::interface::ReturnedTuple;
use crate::obs::MetricsSnapshot;
use crate::par::WorkerPool;
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RowIdRanking};
use crate::remote::RemoteBackend;
use crate::schema::{AttrId, Schema};
use crate::sharded::merge_partials;
use crate::tuple::TupleId;

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

/// Tuning for a fleet client: fan-out width, failover budget, backoff
/// pacing and socket limits. Every [`RemoteBackend`] runs its retry loop
/// by `retries`, `backoff`, `backoff_cap` and `io_timeout`
/// ([`RemoteBackend::connect`] uses the defaults); a [`FederatedBackend`]
/// hands them to each shard's client and reads `workers` itself.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Threads evaluating shards concurrently (as
    /// [`ShardedDb::with_workers`](crate::ShardedDb::with_workers):
    /// `workers - 1` persistent pool threads plus the caller).
    pub workers: usize,
    /// Attempts after the first before a request gives up with
    /// [`HdbError::Transport`]. Each attempt sweeps the replica rotation
    /// once for a replica that connects, then sends the request once.
    /// Only an attempt that got no reply is retried.
    pub retries: usize,
    /// Wait before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Ceiling for the doubled backoff wait.
    pub backoff_cap: Duration,
    /// Per-operation socket timeout for every connection.
    pub io_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            retries: 3,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            io_timeout: Duration::from_secs(30),
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
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The `--help` lines for the flags [`FleetConfig::apply_cli`]
    /// understands, one flag per line, indented to match a typical usage
    /// block.
    #[must_use]
    pub fn cli_help() -> &'static str {
        "  --retries N             extra failover attempts per request (default 3)\n  \
         --backoff-ms MS         delay before the first retry, doubling per attempt (default 10)\n  \
         --backoff-cap-ms MS     ceiling for the doubled backoff delay (default 200)\n  \
         --io-timeout-ms MS      per-operation socket timeout (default 30000)"
    }
}

// ---------------------------------------------------------------------------
// Walk states

/// The payload a [`FederatedBackend`] stores in a [`WalkState`]: one
/// shard walk per shard, in shard order.
struct FedWalk {
    shards: Vec<WalkState>,
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
    /// One client per shard, each holding that shard's replica rotation.
    shards: Vec<RemoteBackend>,
    workers: usize,
    /// Persistent helper threads for per-probe shard fan-out; `None` when
    /// `workers == 1`.
    pool: Option<Arc<WorkerPool>>,
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
        let workers = cfg.workers.max(1);
        let mut shards: Vec<RemoteBackend> = Vec::with_capacity(topology.shards.len());
        for (index, replicas) in topology.shards.into_iter().enumerate() {
            let client = RemoteBackend::connect_with(replicas, cfg.clone())?;
            if shards.first().is_some_and(|first| first.schema() != client.schema()) {
                return Err(HdbError::Transport(format!(
                    "shard {index} replica {} disagrees on the corpus schema",
                    client.addr(),
                )));
            }
            shards.push(client);
        }
        let Some(schema) = shards.first().map(|s| s.schema().clone()) else {
            return Err(HdbError::Transport("federated topology has no shards".into()));
        };
        let len = shards.iter().map(|s| s.len()).sum();
        let pool = (workers > 1 && shards.len() > 1)
            .then(|| Arc::new(WorkerPool::new(workers - 1)));
        Ok(Self { schema, len, shards, workers, pool })
    }

    /// Number of shards in the fleet.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows held by shard `i` (0 when out of range).
    #[must_use]
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards.get(i).map_or(0, |s| s.len())
    }

    /// The configured evaluation worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total failovers so far: serving replicas abandoned after a failed
    /// exchange or a drain ([`RemoteBackend::failover_count`] summed over
    /// the shards).
    #[must_use]
    pub fn failover_count(&self) -> u64 {
        self.shards.iter().map(|s| s.failover_count()).sum()
    }

    /// Per-shard serving state ([`RemoteBackend::serving`]): `false`
    /// from a failure until the shard's next request has checked a
    /// survivor.
    #[must_use]
    pub fn shard_health(&self) -> Vec<bool> {
        self.shards.iter().map(|s| s.serving()).collect()
    }

    /// The address shard `i`'s requests go to (`None` when out of range).
    #[must_use]
    pub fn shard_addr(&self, i: usize) -> Option<String> {
        self.shards.get(i).map(|s| s.addr())
    }

    fn shard(&self, i: usize) -> Result<&RemoteBackend> {
        self.shards.get(i).ok_or_else(|| HdbError::Transport(format!("no such shard: {i}")))
    }

    /// Registers `addr` as an additional replica of `shard` — the live
    /// half of a topology handoff: add the new server, then
    /// [`FederatedBackend::drain`] the old one.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when `shard` is out of range.
    pub fn add_replica(&self, shard: usize, addr: impl Into<String>) -> Result<()> {
        self.shard(shard)?.add_replica(addr);
        Ok(())
    }

    /// Removes `addr` from `shard`'s rotation ([`RemoteBackend::drain`]):
    /// if it was the serving replica, the next probe fails over to the
    /// survivors — the drain half of a topology handoff. Returns whether
    /// the address was present.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when `shard` is out of range or `addr` is
    /// its last replica.
    pub fn drain(&self, shard: usize, addr: &str) -> Result<bool> {
        self.shard(shard)?.drain(addr)
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
            let ev = self.shard(i)?.evaluate(q, k, ranking)?;
            Ok((ev.count, ev.top))
        })?;
        Ok(merge_partials(&self.schema, partials, k, ranking))
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        let counts = self.try_per_shard(|i| self.shard(i)?.exact_count(q))?;
        Ok(counts.into_iter().sum())
    }

    /// Fetches every shard's matching rows and sums them in ascending
    /// global id order. Each shard's rows come back as one reply frame,
    /// so they have to fit in
    /// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) (64 MiB): a tuple
    /// costs 8 bytes (its `u32` id and `u32` arity) plus 2 per value, so
    /// at 40 attributes (88 bytes) that is about 760k matching tuples
    /// per shard; past that the sum fails with a typed
    /// [`HdbError::Transport`].
    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let a = checked_numeric(&self.schema, attr)?;
        // Per shard, fetch ALL matches (k = shard corpus size forces a
        // valid outcome, i.e. the full match page in ascending global id
        // order), then fold the union in ascending global id order —
        // float addition is not associative and this sum must be
        // bit-identical to the single-table (and local-sharded) one.
        let pages = self.try_per_shard(|i| {
            let shard = self.shard(i)?;
            let ev = shard.evaluate(q, shard.len().max(1), &RowIdRanking)?;
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
        let shards = self.per_shard(|i| {
            self.shards.get(i).map_or_else(WalkState::fallback, |s| s.walk_state(q))
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
        let shards = self.per_shard(|i| match (self.shards.get(i), fed.shards.get(i)) {
            (Some(shard), Some(walk)) => {
                shard.extend_state(walk, child, pred, WalkState::fallback())
            }
            _ => WalkState::fallback(),
        });
        WalkState::with_payload(FedWalk { shards })
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let fed = parent.payload::<FedWalk>();
        let parts = self.try_per_shard(|i| {
            let walk = fed.and_then(|f| f.shards.get(i));
            self.shard(i)?.classify_from(walk.unwrap_or(&WalkState::fallback()), child, pred, k)
        })?;
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
        assert_eq!(cfg.backoff, Duration::from_millis(25));
        assert_eq!(cfg.backoff_cap, Duration::from_millis(400));
        assert_eq!(cfg.io_timeout, Duration::from_millis(1500));
        // Unknown flags are left for the caller; bad values are typed.
        assert_eq!(cfg.apply_cli("--listen", "0.0.0.0:1"), Ok(false));
        assert!(cfg.apply_cli("--retries", "many").is_err());
        assert!(cfg.apply_cli("--io-timeout-ms", "0").is_err());
        assert!(cfg.apply_cli("--backoff-cap-ms", "1").is_err(), "cap below base");
        // Every flag in apply_cli appears in the shared help text.
        for flag in ["--retries", "--backoff-ms", "--backoff-cap-ms", "--io-timeout-ms"] {
            assert!(FleetConfig::cli_help().contains(flag), "{flag} missing from help");
        }
    }
    use crate::ranking::{AttributeRanking, RowIdRanking, SeededRandomRanking};
    use crate::schema::Attribute;
    use crate::sharded::ShardedDb;
    use crate::table::Table;
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
            let backends = ShardedDb::partition(&t, parts);
            let sharded = ShardedDb::new(&t, parts);
            assert_eq!(backends.len(), parts);
            let total: usize = backends.iter().map(|b| b.len()).sum();
            assert_eq!(total, t.len());
            for (i, b) in backends.iter().enumerate() {
                assert_eq!(b.len(), sharded.shard_len(i), "parts={parts} shard={i}");
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
            let backends = ShardedDb::partition(&t, parts);
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
        let backends = ShardedDb::partition(&t, 3);
        let root = Query::all();
        let child = root.and(0, 1).unwrap();
        let pred = Predicate::new(0, 1);
        for b in &backends {
            let walk = b.walk_state(&root);
            let fresh = b.evaluate(&child, 3, &RowIdRanking).unwrap();
            let classified = b.classify_from(&walk, &child, pred, 3).unwrap();
            assert_eq!(classified, Classified::from_evaluation(fresh, 3));
            // One level deeper through extend_state.
            let grand = child.and(1, 0).unwrap();
            let gpred = Predicate::new(1, 0);
            let ext = b.extend_state(&walk, &child, pred, WalkState::fallback());
            assert_eq!(
                b.classify_from(&ext, &grand, gpred, 2).unwrap(),
                Classified::from_evaluation(b.evaluate(&grand, 2, &RowIdRanking).unwrap(), 2)
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
