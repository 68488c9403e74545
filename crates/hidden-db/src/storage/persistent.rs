//! [`PersistentBackend`]: a crash-safe [`SearchBackend`] wrapping
//! [`TableBackend`] with a write-ahead log and snapshot/restore.
//!
//! ## Write path
//!
//! [`PersistentBackend::ingest`] validates the tuple, appends one WAL
//! record, fsyncs per the configured [`SyncPolicy`], and only then
//! applies the tuple to the in-memory table — so anything the in-memory
//! state serves is at least as durable as the policy promises. A failed
//! append or fsync poisons the store into typed read-only mode: once
//! durability is unknown, refusing further writes is the only honest
//! answer.
//!
//! ## Recovery state machine
//!
//! ```text
//! open ──► pick newest snapshot that decodes (skip damaged ones)
//!      ──► scan WAL, apply records with seq ≥ snapshot.next_seq
//!      ──► classify the tail:
//!            Clean            → read-write
//!            Torn             → truncate tail, read-write
//!            Corrupt mid-log  → serve valid prefix, READ-ONLY
//! ```
//!
//! Estimates over the recovered store are **bit-identical** to an
//! uninterrupted in-memory run over the same surviving prefix: recovery
//! rebuilds the exact [`Table`] the uninterrupted run would hold, and
//! every probe delegates to the same [`TableBackend`] kernels.
//!
//! ## Walk states across ingest
//!
//! Incremental walk states are bitmap selections over a frozen corpus.
//! The wrapper tags every state it hands out with the store's ingest
//! *generation*; a state from an older generation is never fed to the
//! inner backend — the probe falls back to fresh evaluation, which is
//! bit-identical by the [`SearchBackend`] contract.
//!
//! ## WAL compaction
//!
//! A successful snapshot **compacts** the WAL: every record is covered
//! by the snapshot just published, so the log restarts empty and
//! snapshots older than the new base are pruned. Every crash window in
//! that sequence recovers: before the rename publishes the snapshot,
//! the old snapshot + full WAL still replay to the same state; between
//! the rename and the WAL reset, recovery replays only records with
//! `seq ≥` the new base (zero of them — all covered); and a WAL left
//! fully covered but unreset is reset idempotently on the next open.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::backend::{Classified, Evaluation, SearchBackend, TableBackend, WalkState};
use crate::error::{HdbError, Result};
use crate::obs::{Clock, Histogram, MetricsSnapshot};
use crate::query::{Predicate, Query};
use crate::ranking::RankingFunction;
use crate::schema::{AttrId, Schema};
use crate::table::Table;
use crate::tuple::Tuple;

use super::io::{StdIo, StorageIo, SyncPolicy};
use super::snapshot::{
    decode_snapshot, encode_snapshot, parse_snapshot_name, snapshot_file_name, SNAPSHOT_TMP,
};
use super::wal::{self, WalOp, WalTail, WAL_FILE, WAL_MAGIC};

/// What recovery found and did while opening a store.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The snapshot file recovery restored from.
    pub snapshot: Option<String>,
    /// The restored snapshot's replay base (`next_seq`).
    pub base_seq: u64,
    /// Valid records found in the WAL (including ones the snapshot
    /// already covered).
    pub wal_records_seen: u64,
    /// WAL records actually replayed on top of the snapshot.
    pub wal_records_applied: u64,
    /// New WAL byte length after a torn tail was truncated.
    pub truncated_tail_to: Option<u64>,
    /// Whether a stale WAL (fully covered by the snapshot but ending
    /// short of it) was reset to empty.
    pub wal_reset: bool,
    /// Snapshot candidates that failed validation and were skipped.
    pub skipped_snapshots: Vec<String>,
    /// Why the store came up read-only, if it did.
    pub read_only: Option<String>,
}

/// Payload wrapped around the inner backend's walk state, tagging the
/// ingest generation it was built against.
struct GenState {
    generation: u64,
    inner: WalkState,
}

/// The mutable half of a [`PersistentBackend`], behind one `RwLock`:
/// probes share read access; ingest and snapshotting take write access.
struct StoreState {
    backend: TableBackend,
    /// Mirror of the table's rows for O(log m) duplicate checks.
    seen: BTreeSet<Tuple>,
    /// Sequence number of the next WAL record.
    next_seq: u64,
    /// Appends since the last fsync (drives [`SyncPolicy::EveryN`]).
    unsynced: u64,
    /// Bumped on every applied ingest; stale walk states are detected by
    /// comparing their tag against this.
    generation: u64,
    /// `Some(reason)` once the store has degraded to read-only.
    read_only: Option<String>,
}

/// Deterministic storage observability: standalone series (a store may
/// outlive any registry) exported through
/// [`SearchBackend::fill_metrics`]. The latency histograms record only
/// when a [`Clock`] is installed ([`PersistentBackend::with_clock`] /
/// [`PersistentBackend::open_with_clock`]); without one the store never
/// reads a clock, so by default nothing time-derived exists to leak into
/// results.
struct StorageObs {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    compactions: AtomicU64,
    reclaimed_bytes: AtomicU64,
    recovery_nanos: AtomicU64,
    append_nanos: Histogram,
    fsync_nanos: Histogram,
    clock: Option<Arc<dyn Clock>>,
}

impl StorageObs {
    fn new() -> Self {
        Self {
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            recovery_nanos: AtomicU64::new(0),
            append_nanos: Histogram::standalone(),
            fsync_nanos: Histogram::standalone(),
            clock: None,
        }
    }

    /// The installed clock's reading, or `None` (record no timing).
    fn now(&self) -> Option<u64> {
        self.clock.as_ref().map(|c| c.now_nanos())
    }

    /// Observes `now - started` into `series` when a start reading was
    /// taken (i.e. a clock is installed).
    fn elapsed_into(&self, series: &Histogram, started: Option<u64>) {
        if let Some(t0) = started {
            series.observe(self.now().unwrap_or(t0).saturating_sub(t0));
        }
    }
}

/// A crash-safe, WAL-backed [`SearchBackend`] over an injectable
/// [`StorageIo`].
pub struct PersistentBackend {
    io: Box<dyn StorageIo>,
    policy: SyncPolicy,
    obs: StorageObs,
    /// Immutable for the store's lifetime (the WAL has no schema-change
    /// record), so it can be served by reference per the
    /// [`SearchBackend::schema`] contract.
    schema: Schema,
    recovery: RecoveryReport,
    state: RwLock<StoreState>,
}

impl std::fmt::Debug for PersistentBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentBackend")
            .field("policy", &self.policy)
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

fn read_only_err(reason: &str) -> HdbError {
    HdbError::ReadOnly(reason.to_string())
}

impl PersistentBackend {
    /// Whether `dir` already holds a store (any snapshot file).
    #[must_use]
    pub fn exists(dir: &Path) -> bool {
        std::fs::read_dir(dir).is_ok_and(|entries| {
            entries.flatten().any(|e| {
                e.file_name().to_str().and_then(parse_snapshot_name).is_some()
            })
        })
    }

    /// Creates a fresh store in `dir` seeded with `table` (which may be
    /// empty) and opens it.
    ///
    /// # Errors
    /// [`HdbError::Storage`] if the initial WAL or snapshot cannot be
    /// written.
    pub fn create(dir: &Path, policy: SyncPolicy, table: Table) -> Result<Self> {
        Self::create_with(Box::new(StdIo::new(dir)?), policy, table)
    }

    /// Opens an existing store in `dir`, running recovery.
    ///
    /// # Errors
    /// [`HdbError::Storage`] on I/O failure; [`HdbError::Corrupt`] if no
    /// snapshot in the store validates.
    pub fn open(dir: &Path, policy: SyncPolicy) -> Result<Self> {
        Self::open_with(Box::new(StdIo::new(dir)?), policy)
    }

    /// [`PersistentBackend::create`] over an injected I/O layer.
    ///
    /// # Errors
    /// As [`PersistentBackend::create`].
    pub fn create_with(io: Box<dyn StorageIo>, policy: SyncPolicy, table: Table) -> Result<Self> {
        io.write(WAL_FILE, &WAL_MAGIC)?;
        io.sync(WAL_FILE)?;
        write_snapshot(io.as_ref(), 0, &table)?;
        let schema = table.schema().clone();
        let seen: BTreeSet<Tuple> = table.tuples().iter().cloned().collect();
        Ok(Self {
            io,
            policy,
            obs: StorageObs::new(),
            schema,
            recovery: RecoveryReport::default(),
            state: RwLock::new(StoreState {
                backend: TableBackend::new(table),
                seen,
                next_seq: 0,
                unsynced: 0,
                generation: 0,
                read_only: None,
            }),
        })
    }

    /// [`PersistentBackend::open`] over an injected I/O layer.
    ///
    /// # Errors
    /// As [`PersistentBackend::open`].
    pub fn open_with(io: Box<dyn StorageIo>, policy: SyncPolicy) -> Result<Self> {
        let mut report = RecoveryReport::default();

        // Newest snapshot that validates wins; damaged ones are skipped,
        // not fatal — until the first compaction prunes them, an older
        // snapshot plus the not-yet-compacted WAL reaches the same state.
        let mut candidates: Vec<(u64, String)> = io
            .list()?
            .into_iter()
            .filter_map(|name| parse_snapshot_name(&name).map(|seq| (seq, name)))
            .collect();
        candidates.sort();
        let mut snap = None;
        for (_, name) in candidates.into_iter().rev() {
            let Some(bytes) = io.read(&name)? else {
                report.skipped_snapshots.push(format!("{name}: disappeared during open"));
                continue;
            };
            match decode_snapshot(&bytes) {
                Ok(data) => {
                    report.snapshot = Some(name);
                    snap = Some(data);
                    break;
                }
                Err(e) => report.skipped_snapshots.push(format!("{name}: {e}")),
            }
        }
        let Some(snap) = snap else {
            return Err(HdbError::Corrupt(format!(
                "no valid snapshot in store ({} damaged candidate(s): {})",
                report.skipped_snapshots.len(),
                report.skipped_snapshots.join("; ")
            )));
        };
        report.base_seq = snap.next_seq;

        let mut table = snap.table;
        let schema = table.schema().clone();
        let mut seen: BTreeSet<Tuple> = table.tuples().iter().cloned().collect();
        let mut read_only: Option<String> = None;
        let mut next_seq = snap.next_seq;

        match io.read(WAL_FILE)? {
            None => {
                // A store always carries a WAL from creation; absence
                // means bytes were lost outside this layer's control.
                read_only = Some("wal.log is missing".to_string());
            }
            Some(bytes) => {
                let scanned = wal::scan(&bytes);
                report.wal_records_seen = scanned.records.len() as u64;
                let wal_next = scanned.next_seq();

                // Gap check: records the snapshot does not cover must
                // start exactly at its replay base.
                let first_uncovered =
                    scanned.records.iter().find(|r| r.seq >= snap.next_seq).map(|r| r.seq);
                if let Some(first) = first_uncovered {
                    if first > snap.next_seq {
                        read_only = Some(format!(
                            "wal resumes at seq {first} but the snapshot covers only up to \
                             {base}: records in between are lost",
                            base = snap.next_seq
                        ));
                    }
                }

                if read_only.is_none() {
                    for rec in
                        scanned.records.iter().filter(|r| r.seq >= snap.next_seq)
                    {
                        let WalOp::Ingest(tuple) = &rec.op;
                        if !tuple.conforms_to(&schema) {
                            read_only = Some(format!(
                                "wal record seq {} does not conform to the schema",
                                rec.seq
                            ));
                            break;
                        }
                        if !seen.insert(tuple.clone()) {
                            read_only = Some(format!(
                                "wal record seq {} duplicates an existing tuple",
                                rec.seq
                            ));
                            break;
                        }
                        table.push_validated(tuple.clone());
                        report.wal_records_applied += 1;
                        next_seq = rec.seq + 1;
                    }
                }

                if read_only.is_none() {
                    match scanned.tail {
                        WalTail::Clean => {}
                        WalTail::Torn => {
                            if scanned.valid_len < WAL_MAGIC.len() as u64 {
                                io.write(WAL_FILE, &WAL_MAGIC)?;
                            } else {
                                io.truncate(WAL_FILE, scanned.valid_len)?;
                            }
                            io.sync(WAL_FILE)?;
                            report.truncated_tail_to = Some(scanned.valid_len);
                        }
                        WalTail::Corrupt { reason } => {
                            read_only = Some(format!("wal corruption: {reason}"));
                        }
                    }
                }

                // A WAL that ends before the snapshot's base (its tail
                // was lost, but every surviving record is already in the
                // snapshot) cannot be appended to — new records would
                // break in-file seq continuity. Reset it to empty; the
                // snapshot is the authoritative base.
                if read_only.is_none() && wal_next.unwrap_or(0) < snap.next_seq {
                    io.write(WAL_FILE, &WAL_MAGIC)?;
                    io.sync(WAL_FILE)?;
                    report.wal_reset = true;
                    next_seq = snap.next_seq;
                }
            }
        }

        report.read_only.clone_from(&read_only);
        Ok(Self {
            io,
            policy,
            obs: StorageObs::new(),
            schema,
            recovery: report,
            state: RwLock::new(StoreState {
                backend: TableBackend::new(table),
                seen,
                next_seq,
                unsynced: 0,
                generation: 0,
                read_only,
            }),
        })
    }

    /// [`PersistentBackend::open_with`], timing recovery on `clock` and
    /// installing it for WAL latency histograms. The clock feeds only
    /// the metrics surface; recovered state is bit-identical either way.
    ///
    /// # Errors
    /// As [`PersistentBackend::open_with`].
    pub fn open_with_clock(
        io: Box<dyn StorageIo>,
        policy: SyncPolicy,
        clock: Arc<dyn Clock>,
    ) -> Result<Self> {
        let t0 = clock.now_nanos();
        let store = Self::open_with(io, policy)?;
        let elapsed = clock.now_nanos().saturating_sub(t0);
        store.obs.recovery_nanos.store(elapsed, Ordering::Relaxed);
        Ok(store.with_clock(clock))
    }

    /// Installs a [`Clock`] so WAL append/fsync latency histograms are
    /// recorded. Without one, the store never reads any clock.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.obs.clock = Some(clock);
        self
    }

    /// Opens `dir` if it already holds a store, otherwise creates one
    /// seeded with `seed()`.
    ///
    /// # Errors
    /// As [`PersistentBackend::open`] / [`PersistentBackend::create`].
    pub fn open_or_create(
        dir: &Path,
        policy: SyncPolicy,
        seed: impl FnOnce() -> Result<Table>,
    ) -> Result<Self> {
        if Self::exists(dir) {
            Self::open(dir, policy)
        } else {
            Self::create(dir, policy, seed()?)
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, StoreState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, StoreState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// What recovery found and did while opening this store.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Why the store is read-only, if it is.
    #[must_use]
    pub fn read_only(&self) -> Option<String> {
        self.read().read_only.clone()
    }

    /// Durably ingests one tuple: WAL append → fsync per policy → apply.
    ///
    /// # Errors
    /// * [`HdbError::ReadOnly`] if the store has degraded;
    /// * [`HdbError::InvalidTuple`] if the tuple does not conform or
    ///   duplicates an existing row (store unchanged, still writable);
    /// * [`HdbError::Storage`] if the append or fsync fails — the store
    ///   poisons itself read-only, because the on-disk state is no
    ///   longer known.
    pub fn ingest(&self, tuple: Tuple) -> Result<()> {
        let mut g = self.write();
        if let Some(reason) = &g.read_only {
            return Err(read_only_err(reason));
        }
        if !tuple.conforms_to(&self.schema) {
            return Err(HdbError::InvalidTuple(format!(
                "tuple {:?} does not conform to the stored schema",
                tuple.values()
            )));
        }
        if g.seen.contains(&tuple) {
            return Err(HdbError::InvalidTuple(format!(
                "duplicate tuple {:?}",
                tuple.values()
            )));
        }
        let record = wal::encode_record(g.next_seq, &tuple)?;
        let t_append = self.obs.now();
        if let Err(e) = self.io.append(WAL_FILE, &record) {
            let reason = format!("poisoned by failed append: {e}");
            g.read_only = Some(reason.clone());
            return Err(HdbError::Storage(reason));
        }
        self.obs.appends.fetch_add(1, Ordering::Relaxed);
        self.obs.elapsed_into(&self.obs.append_nanos, t_append);
        g.unsynced += 1;
        if self.policy.due(g.unsynced) {
            let t_fsync = self.obs.now();
            if let Err(e) = self.io.sync(WAL_FILE) {
                let reason = format!("poisoned by failed fsync: {e}");
                g.read_only = Some(reason.clone());
                return Err(HdbError::Storage(reason));
            }
            self.obs.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.obs.elapsed_into(&self.obs.fsync_nanos, t_fsync);
            g.unsynced = 0;
        }
        g.next_seq += 1;
        g.seen.insert(tuple.clone());
        g.backend.table_mut().push_validated(tuple);
        g.generation += 1;
        Ok(())
    }

    /// Writes a snapshot of the current corpus, then compacts the WAL
    /// and prunes snapshots older than the new base. Returns the
    /// snapshot's file name.
    ///
    /// # Errors
    /// [`HdbError::Storage`] if any write in the atomic
    /// tmp → fsync → rename sequence fails — a failed *snapshot* never
    /// poisons the store, the WAL remains the durable log. A failure
    /// *compacting* the WAL after the snapshot published does poison
    /// (the log's on-disk state is no longer known); the snapshot
    /// itself survives either way.
    pub fn snapshot(&self) -> Result<String> {
        // Write lock: the snapshot must be a point-in-time cut with no
        // concurrent ingest between reading next_seq and the table, and
        // no append may land between the publish and the WAL reset.
        let mut g = self.write();
        let name = write_snapshot(self.io.as_ref(), g.next_seq, g.backend.table())?;

        // Compact: every WAL record is now covered by the snapshot just
        // published, so the log restarts empty. A crash before the reset
        // lands leaves a fully-covered WAL, which the next open resets
        // idempotently.
        let old_len = self.io.read(WAL_FILE)?.map_or(0, |b| b.len() as u64);
        let reset = self
            .io
            .write(WAL_FILE, &WAL_MAGIC)
            .and_then(|()| self.io.sync(WAL_FILE));
        if let Err(e) = reset {
            let reason = format!("poisoned by failed wal compaction: {e}");
            g.read_only = Some(reason.clone());
            return Err(HdbError::Storage(reason));
        }
        g.unsynced = 0;
        self.obs.compactions.fetch_add(1, Ordering::Relaxed);
        self.obs.reclaimed_bytes.fetch_add(
            old_len.saturating_sub(WAL_MAGIC.len() as u64),
            Ordering::Relaxed,
        );

        // Older snapshots are fully superseded: the new one covers every
        // record they do. Prune them so the store holds one snapshot.
        for stale in self.io.list()? {
            if parse_snapshot_name(&stale).is_some_and(|seq| seq < g.next_seq) {
                self.io.remove(&stale)?;
            }
        }
        Ok(name)
    }

    /// Flushes any unsynced WAL tail (the end of an ingest stream under a
    /// lazy sync policy).
    ///
    /// # Errors
    /// [`HdbError::Storage`] if the fsync fails (the store poisons
    /// itself, as on the ingest path).
    pub fn sync(&self) -> Result<()> {
        let mut g = self.write();
        if g.unsynced == 0 {
            return Ok(());
        }
        let t_fsync = self.obs.now();
        if let Err(e) = self.io.sync(WAL_FILE) {
            let reason = format!("poisoned by failed fsync: {e}");
            g.read_only = Some(reason.clone());
            return Err(HdbError::Storage(reason));
        }
        self.obs.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.obs.elapsed_into(&self.obs.fsync_nanos, t_fsync);
        g.unsynced = 0;
        Ok(())
    }
}

/// Stages, fsyncs, and atomically publishes one snapshot file.
fn write_snapshot(io: &dyn StorageIo, next_seq: u64, table: &Table) -> Result<String> {
    let bytes = encode_snapshot(next_seq, table)?;
    let name = snapshot_file_name(next_seq);
    io.write(SNAPSHOT_TMP, &bytes)?;
    io.sync(SNAPSHOT_TMP)?;
    io.rename(SNAPSHOT_TMP, &name)?;
    io.sync_dir()?;
    Ok(name)
}

impl SearchBackend for PersistentBackend {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        let obs = &self.obs;
        snap.counters.insert(
            "hdb_wal_appends_total".to_string(),
            obs.appends.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            "hdb_wal_fsyncs_total".to_string(),
            obs.fsyncs.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            "hdb_wal_compactions_total".to_string(),
            obs.compactions.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            "hdb_wal_reclaimed_bytes_total".to_string(),
            obs.reclaimed_bytes.load(Ordering::Relaxed),
        );
        snap.gauges.insert(
            "hdb_recovery_wal_records_seen".to_string(),
            self.recovery.wal_records_seen,
        );
        snap.gauges.insert(
            "hdb_recovery_wal_records_applied".to_string(),
            self.recovery.wal_records_applied,
        );
        snap.gauges.insert(
            "hdb_recovery_nanos".to_string(),
            obs.recovery_nanos.load(Ordering::Relaxed),
        );
        if let Some(h) = obs.append_nanos.snapshot() {
            snap.histograms.insert("hdb_wal_append_nanos".to_string(), h);
        }
        if let Some(h) = obs.fsync_nanos.snapshot() {
            snap.histograms.insert("hdb_wal_fsync_nanos".to_string(), h);
        }
    }

    fn len(&self) -> usize {
        self.read().backend.len()
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        self.read().backend.evaluate(q, k, ranking)
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        self.read().backend.exact_count(q)
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        self.read().backend.exact_sum(attr, q)
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        let g = self.read();
        WalkState::with_payload(GenState {
            generation: g.generation,
            inner: g.backend.walk_state(q),
        })
    }

    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        recycled: WalkState,
    ) -> WalkState {
        let g = self.read();
        let inner = match parent.payload::<GenState>() {
            Some(p) if p.generation == g.generation => {
                let buf = recycled
                    .take_payload::<GenState>()
                    .map_or_else(WalkState::fallback, |p| p.inner);
                g.backend.extend_state(&p.inner, child, pred, buf)
            }
            // Stale generation (the corpus grew since this state was
            // built) or foreign payload: rebuild from scratch —
            // bit-identical, just not incremental.
            _ => g.backend.walk_state(child),
        };
        WalkState::with_payload(GenState { generation: g.generation, inner })
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let g = self.read();
        match parent.payload::<GenState>() {
            Some(p) if p.generation == g.generation => {
                g.backend.classify_from(&p.inner, child, pred, k)
            }
            _ => g.backend.classify_from(&WalkState::fallback(), child, pred, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::io::MemIo;
    use super::*;
    use crate::ranking::RowIdRanking;
    use crate::schema::Schema;
    use crate::{ClassifiedOutcome, HiddenDb, TopKInterface};

    fn boxed(io: &MemIo) -> Box<dyn StorageIo> {
        Box::new(io.clone())
    }

    fn tuples(n: u16) -> Vec<Tuple> {
        // Bit-decomposition: unique for n ≤ 16 under `Schema::boolean(4)`.
        (0..n)
            .map(|i| Tuple::new(vec![i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1]))
            .collect()
    }

    fn assert_same_estimates(a: &dyn SearchBackend, b: &dyn SearchBackend) {
        let q = Query::all();
        let ra = a.evaluate(&q, 5, &RowIdRanking).unwrap();
        let rb = b.evaluate(&q, 5, &RowIdRanking).unwrap();
        assert_eq!(ra, rb);
        let q1 = q.and(0, 1).unwrap();
        assert_eq!(a.exact_count(&q1).unwrap(), b.exact_count(&q1).unwrap());
    }

    #[test]
    fn create_reopen_round_trip() {
        let mem = MemIo::new();
        let schema = Schema::boolean(4);
        let store =
            PersistentBackend::create_with(boxed(&mem), SyncPolicy::Always, Table::empty(schema))
                .unwrap();
        for t in tuples(10) {
            store.ingest(t).unwrap();
        }
        assert_eq!(store.len(), 10);
        drop(store);

        let reopened = PersistentBackend::open_with(boxed(&mem), SyncPolicy::Always).unwrap();
        assert_eq!(reopened.len(), 10);
        assert!(reopened.read_only().is_none());
        assert_eq!(reopened.recovery().wal_records_applied, 10);

        let reference = TableBackend::new(
            Table::new(Schema::boolean(4), tuples(10)).unwrap(),
        );
        assert_same_estimates(&reopened, &reference);
    }

    #[test]
    fn ingest_rejects_duplicates_and_nonconforming() {
        let mem = MemIo::new();
        let store = PersistentBackend::create_with(
            boxed(&mem),
            SyncPolicy::Always,
            Table::empty(Schema::boolean(2)),
        )
        .unwrap();
        store.ingest(Tuple::new(vec![0, 1])).unwrap();
        assert!(matches!(
            store.ingest(Tuple::new(vec![0, 1])),
            Err(HdbError::InvalidTuple(_))
        ));
        assert!(matches!(
            store.ingest(Tuple::new(vec![0, 9])),
            Err(HdbError::InvalidTuple(_))
        ));
        // Rejections leave the store writable.
        store.ingest(Tuple::new(vec![1, 1])).unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn snapshot_moves_the_replay_base() {
        let mem = MemIo::new();
        let store = PersistentBackend::create_with(
            boxed(&mem),
            SyncPolicy::Always,
            Table::empty(Schema::boolean(4)),
        )
        .unwrap();
        let all = tuples(12);
        for t in &all[..8] {
            store.ingest(t.clone()).unwrap();
        }
        let name = store.snapshot().unwrap();
        assert_eq!(parse_snapshot_name(&name), Some(8));
        for t in &all[8..] {
            store.ingest(t.clone()).unwrap();
        }
        drop(store);

        let reopened = PersistentBackend::open_with(boxed(&mem), SyncPolicy::Always).unwrap();
        assert_eq!(reopened.recovery().base_seq, 8);
        assert_eq!(reopened.recovery().wal_records_applied, 4);
        assert_eq!(reopened.len(), 12);
    }

    #[test]
    fn stale_walk_states_fall_back_bit_identically() {
        let mem = MemIo::new();
        let store = PersistentBackend::create_with(
            boxed(&mem),
            SyncPolicy::Always,
            Table::empty(Schema::boolean(4)),
        )
        .unwrap();
        for t in tuples(8) {
            store.ingest(t).unwrap();
        }
        let root = Query::all();
        let state = store.walk_state(&root);
        let child = root.and(0, 1).unwrap();
        let before = store
            .classify_from(&state, &child, Predicate::new(0, 1), 3)
            .unwrap();

        // Ingest invalidates the state; the probe must still answer, and
        // answer exactly like a fresh evaluation.
        store.ingest(Tuple::new(vec![1, 0, 0, 1])).unwrap();
        let after = store
            .classify_from(&state, &child, Predicate::new(0, 1), 3)
            .unwrap();
        let fresh = store
            .classify_from(&store.walk_state(&root), &child, Predicate::new(0, 1), 3)
            .unwrap();
        assert_eq!(after, fresh);
        assert_ne!(before, after, "the ingest matched the probe, count must move");

        // A session re-commits the level it just retracted even when the
        // corpus grew in between; the level keeps its older generation,
        // and a probe below it answers like a fresh interface.
        let store = Arc::new(store);
        let db = HiddenDb::over(Arc::clone(&store), 3);
        let mut walk = db.walk_session(root).unwrap();
        walk.extend(0, 1);
        walk.retract();
        store.ingest(Tuple::new(vec![1, 1, 0, 1])).unwrap();
        walk.extend(0, 1);
        let got = walk.classify(1, 1).unwrap();
        let grown = HiddenDb::over(Arc::clone(&store), 3);
        let want = grown.query(&child.and(1, 1).unwrap()).unwrap();
        assert_eq!(got, ClassifiedOutcome::from_outcome(want));
        assert_eq!(got.tuples().len(), 3, "the ingested tuple matches the probe");
    }

    /// A store whose only snapshot is damaged, or is a checksum-valid
    /// version-1 file, fails to open typed, naming why.
    #[test]
    fn corrupt_only_snapshot_is_a_typed_open_error() {
        let name = snapshot_file_name(0);
        let cases = [(None, "checksum mismatch"), (Some(1u32), "unsupported format version 1")];
        for (version, why) in cases {
            let mem = MemIo::new();
            let table = Table::empty(Schema::boolean(2));
            drop(PersistentBackend::create_with(boxed(&mem), SyncPolicy::Always, table).unwrap());
            let mut bytes = mem.read(&name).unwrap().unwrap();
            let crc_at = bytes.len() - 4;
            match version {
                // A flipped version byte the checksum catches.
                None => bytes[10] ^= 0xFF,
                // A well-formed file of another version: fresh checksum.
                Some(v) => {
                    bytes[8..12].copy_from_slice(&v.to_le_bytes());
                    let crc = super::super::wal::crc32(&bytes[8..crc_at]);
                    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
                }
            }
            mem.write(&name, &bytes).unwrap();
            match PersistentBackend::open_with(boxed(&mem), SyncPolicy::Always) {
                Err(HdbError::Corrupt(m)) => assert!(m.contains(why), "{m}"),
                other => panic!("expected a typed Corrupt, got {other:?}"),
            }
        }
    }
}
