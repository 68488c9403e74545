//! Crash-matrix recovery tests for the durability layer: at every
//! scripted crash site, the recovered store's estimates must be
//! **bit-identical** to an uninterrupted in-memory run over the same
//! surviving WAL prefix, and damage past the last checkpoint must
//! degrade to **typed read-only** — never a panic, never a silently
//! wrong answer.
//!
//! The disk is simulated: a shared [`MemIo`] holds the surviving bytes,
//! a [`FaultyStorageIo`] schedule decides exactly which mutation tears,
//! flips, or crashes, and reopening a clean backend over the same
//! [`MemIo`] plays the part of the post-crash restart.

use std::sync::Arc;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::storage::wal::{self, WalOp, WalTail, WAL_FILE, WAL_MAGIC};
use hdb_interface::{
    HdbError, HiddenDb, MemIo, MetricsSnapshot, PersistentBackend, Schema, SearchBackend,
    StorageIo, SyncPolicy, Table, TableBackend, Tuple,
};
use hdb_repro::testkit::{DiskFault, FaultSchedule, FaultyStorageIo};
use proptest::prelude::*;

/// Estimator seed — fixed so every equivalence is exact, not statistical.
const SEED: u64 = 20_260_808;
/// Interface constant for the estimator probes.
const K: usize = 5;
/// Estimator passes per fingerprint (cheap on the tiny corpora here).
const PASSES: u64 = 12;

/// The `i`-th distinct boolean tuple (bit decomposition).
fn tuple(i: u16, attrs: usize) -> Tuple {
    Tuple::new((0..attrs).map(|b| (i >> b) & 1).collect())
}

/// A deterministic boolean corpus of the first `rows` tuples.
fn table(rows: u16, attrs: usize) -> Table {
    Table::new(Schema::boolean(attrs), (0..rows).map(|i| tuple(i, attrs)).collect()).unwrap()
}

/// The estimator fingerprint of a backend: estimate bits and query
/// count of a fixed seeded run. Two backends with equal fingerprints
/// answered every probe of the run identically.
fn fingerprint(backend: impl SearchBackend + 'static) -> (u64, u64) {
    let db = HiddenDb::over(backend, K);
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let s = est.run(&db, PASSES).expect("unlimited interface");
    (s.estimate.to_bits(), s.queries)
}

/// The uninterrupted in-memory reference for whatever survived on disk:
/// the seed corpus plus every WAL record the scanner accepts, in order.
fn disk_reference(mem: &MemIo, base: &Table) -> TableBackend {
    let bytes = mem.read(WAL_FILE).expect("mem io").expect("wal present");
    let mut tuples: Vec<Tuple> = base.tuples().to_vec();
    for rec in wal::scan(&bytes).records {
        let WalOp::Ingest(t) = rec.op;
        tuples.push(t);
    }
    TableBackend::new(Table::new(base.schema().clone(), tuples).expect("valid reference"))
}

/// Creates a store over `mem` seeded with `base`, without faults.
fn create_clean(mem: &MemIo, base: &Table) {
    PersistentBackend::create_with(Box::new(mem.clone()), SyncPolicy::Always, base.clone())
        .expect("create");
}

// ---------------------------------------------------------------------------
// WAL format properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → scan is the identity on clean logs at any base sequence,
    /// and *truncation anywhere* — mid-header, mid-payload, mid-magic —
    /// yields a strict record prefix classified Torn or Clean, never
    /// Corrupt and never an error.
    #[test]
    fn wal_scan_inverts_encode_under_arbitrary_truncation(
        vals in prop::collection::vec(prop::collection::vec(0u16..2, 4), 1..12),
        base in 0u64..1_000,
        cut_num in 0usize..10_000,
    ) {
        let tuples: Vec<Tuple> = vals.into_iter().map(Tuple::new).collect();
        let mut bytes = WAL_MAGIC.to_vec();
        for (i, t) in tuples.iter().enumerate() {
            bytes.extend_from_slice(&wal::encode_record(base + i as u64, t).unwrap());
        }
        // Clean round trip.
        let s = wal::scan(&bytes);
        prop_assert_eq!(&s.tail, &WalTail::Clean);
        prop_assert_eq!(s.valid_len as usize, bytes.len());
        prop_assert_eq!(s.records.len(), tuples.len());
        prop_assert_eq!(s.next_seq(), Some(base + tuples.len() as u64));
        for (i, (rec, t)) in s.records.iter().zip(&tuples).enumerate() {
            prop_assert_eq!(rec.seq, base + i as u64);
            let WalOp::Ingest(got) = &rec.op;
            prop_assert_eq!(got, t);
        }
        // Truncation at an arbitrary point.
        let cut = cut_num % (bytes.len() + 1);
        let s = wal::scan(&bytes[..cut]);
        prop_assert!(
            !matches!(s.tail, WalTail::Corrupt { .. }),
            "cut at {} classified as corruption", cut
        );
        prop_assert!(s.valid_len as usize <= cut);
        prop_assert!(s.records.len() <= tuples.len());
        for (i, (rec, t)) in s.records.iter().zip(&tuples).enumerate() {
            prop_assert_eq!(rec.seq, base + i as u64);
            let WalOp::Ingest(got) = &rec.op;
            prop_assert_eq!(got, t);
        }
    }
}

// ---------------------------------------------------------------------------
// Crash matrix

/// Power-cut matrix: the disk goes away after exactly `n` mutations, for
/// every `n` that can land inside the ingest stream. Recovery must come
/// up read-write and bit-identical to the in-memory run over whatever
/// the WAL durably holds.
#[test]
fn crash_at_every_write_recovers_bit_identically() {
    let attrs = 6;
    let base = table(16, attrs);
    let extra = 8u16;
    // With SyncPolicy::Always each ingest is two mutations (append +
    // fsync), so 0..=2·extra sweeps every boundary plus the no-crash run.
    for crash_after in 0..=(2 * extra as usize) {
        let mem = MemIo::new();
        create_clean(&mem, &base);
        let faulty = FaultyStorageIo::new(mem.clone(), FaultSchedule::crash_after_writes(crash_after));
        let store = PersistentBackend::open_with(Box::new(faulty), SyncPolicy::Always)
            .expect("pre-crash open");
        let mut acknowledged = 0u16;
        for i in 0..extra {
            match store.ingest(tuple(16 + i, attrs)) {
                Ok(()) => acknowledged += 1,
                Err(HdbError::Storage(_) | HdbError::ReadOnly(_)) => break,
                Err(e) => panic!("crash site {crash_after}: untyped failure {e}"),
            }
        }
        if acknowledged < extra {
            // The crash poisoned the store: further writes are typed
            // refusals, and probes still answer from memory.
            assert!(store.read_only().is_some(), "crash site {crash_after} did not poison");
            assert!(matches!(store.ingest(tuple(99, attrs)), Err(HdbError::ReadOnly(_))));
            assert_eq!(store.len(), base.len() + acknowledged as usize);
        }
        drop(store);

        // Restart over the surviving bytes: clean recovery, bit-identical
        // to the in-memory run over the durable prefix. Every
        // acknowledged ingest must have survived (append-before-apply);
        // one unacknowledged record may legitimately also be durable.
        let recovered = PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always)
            .expect("post-crash open");
        assert_eq!(recovered.read_only(), None, "a power cut is never corruption");
        let reference = disk_reference(&mem, &base);
        assert!(reference.len() >= base.len() + acknowledged as usize);
        assert_eq!(recovered.len(), reference.len());
        assert_eq!(
            fingerprint(Arc::new(recovered)),
            fingerprint(reference),
            "crash site {crash_after} diverged from the in-memory reference"
        );
    }
}

/// Torn-write matrix: the `n`-th mutation persists only half its bytes.
/// A torn append is the expected crash shape — recovery truncates the
/// tail and stays read-write.
#[test]
fn torn_write_at_every_site_truncates_and_recovers() {
    let attrs = 6;
    let base = table(12, attrs);
    let extra = 6u16;
    let mut saw_truncation = false;
    for site in 0..(2 * extra as usize) {
        let mem = MemIo::new();
        create_clean(&mem, &base);
        let schedule =
            FaultSchedule::script_then(vec![DiskFault::Forward; site], DiskFault::TornWrite);
        let faulty = FaultyStorageIo::new(mem.clone(), schedule);
        let store = PersistentBackend::open_with(Box::new(faulty), SyncPolicy::Always)
            .expect("pre-crash open");
        for i in 0..extra {
            if store.ingest(tuple(12 + i, attrs)).is_err() {
                break;
            }
        }
        drop(store);

        let recovered = PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always)
            .expect("post-crash open");
        assert_eq!(recovered.read_only(), None, "a torn tail is never corruption");
        if recovered.recovery().truncated_tail_to.is_some() {
            saw_truncation = true;
        }
        let reference = disk_reference(&mem, &base);
        assert_eq!(
            fingerprint(Arc::new(recovered)),
            fingerprint(reference),
            "torn site {site} diverged from the in-memory reference"
        );
    }
    assert!(saw_truncation, "the matrix must exercise actual tail truncation");
}

/// A failed fsync leaves durability unknowable: the ingest must fail
/// typed, the store must poison itself read-only, and a restart (the
/// bytes did reach the simulated disk) must recover read-write.
#[test]
fn failed_fsync_poisons_read_only_typed() {
    let attrs = 5;
    let base = table(8, attrs);
    let mem = MemIo::new();
    create_clean(&mem, &base);
    // First ingest clean (append + fsync forward), second ingest's fsync
    // fails.
    let schedule = FaultSchedule::script_then(
        vec![DiskFault::Forward, DiskFault::Forward, DiskFault::Forward],
        DiskFault::FailFsync,
    );
    let store =
        PersistentBackend::open_with(Box::new(FaultyStorageIo::new(mem.clone(), schedule)), SyncPolicy::Always)
            .expect("open");
    store.ingest(tuple(8, attrs)).expect("clean ingest");
    let err = store.ingest(tuple(9, attrs)).expect_err("fsync must fail");
    assert!(matches!(err, HdbError::Storage(_)), "got {err:?}");
    assert!(store.read_only().expect("poisoned").contains("fsync"));
    assert!(matches!(store.ingest(tuple(10, attrs)), Err(HdbError::ReadOnly(_))));
    drop(store);

    let recovered = PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always)
        .expect("restart");
    assert_eq!(recovered.read_only(), None);
    assert_eq!(fingerprint(Arc::new(recovered)), fingerprint(disk_reference(&mem, &base)));
}

/// Corruption *before* the end of the log (a flipped bit inside an
/// acknowledged record, with intact records after it) must degrade the
/// store to typed read-only over the surviving prefix — still
/// bit-identical to the in-memory run over that prefix, never a panic.
#[test]
fn mid_log_corruption_degrades_to_typed_read_only() {
    let attrs = 5;
    let base = table(8, attrs);
    let mem = MemIo::new();
    create_clean(&mem, &base);
    {
        let store = PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always)
            .expect("open");
        for i in 0..6u16 {
            store.ingest(tuple(8 + i, attrs)).expect("clean ingest");
        }
    }
    // Flip one payload bit inside the *first* record: five intact
    // records follow, so the scanner must classify corruption, not a
    // torn tail.
    mem.poke(WAL_FILE, WAL_MAGIC.len() + wal::RECORD_HEADER_LEN, 0xFF);

    let store = PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always)
        .expect("recovery itself must not error");
    let reason = store.read_only().expect("corruption must poison");
    assert!(reason.contains("corruption"), "untyped reason: {reason}");
    assert_eq!(store.recovery().wal_records_applied, 0, "nothing past the damage applies");
    assert!(matches!(store.ingest(tuple(20, attrs)), Err(HdbError::ReadOnly(_))));
    // The surviving prefix still serves, bit-identically.
    assert_eq!(store.len(), base.len());
    assert_eq!(fingerprint(Arc::new(store)), fingerprint(TableBackend::new(base)));
}

// ---------------------------------------------------------------------------
// Snapshot cadence equivalence

/// The three-way equivalence at every snapshot cadence: recovering from
/// (newest snapshot + WAL tail) ≡ recovering from (seed snapshot + the
/// whole WAL) ≡ the uninterrupted in-memory run. Snapshots move the
/// replay base; they must never move the answer.
#[test]
fn snapshot_plus_tail_equals_pure_replay_equals_in_memory() {
    let attrs = 6;
    let base = table(10, attrs);
    let extra = 12u16;
    let mut all = base.tuples().to_vec();
    all.extend((0..extra).map(|i| tuple(10 + i, attrs)));
    let in_memory =
        TableBackend::new(Table::new(base.schema().clone(), all).expect("valid corpus"));
    let expected = fingerprint(in_memory);

    for cadence in [1usize, 3, 5, 100] {
        // Store A snapshots every `cadence` ingests; store B never
        // snapshots after creation (pure WAL replay).
        let mem_a = MemIo::new();
        let mem_b = MemIo::new();
        create_clean(&mem_a, &base);
        create_clean(&mem_b, &base);
        {
            let a = PersistentBackend::open_with(Box::new(mem_a.clone()), SyncPolicy::Always)
                .expect("open a");
            let b = PersistentBackend::open_with(Box::new(mem_b.clone()), SyncPolicy::Always)
                .expect("open b");
            for i in 0..extra {
                a.ingest(tuple(10 + i, attrs)).expect("ingest a");
                b.ingest(tuple(10 + i, attrs)).expect("ingest b");
                if (i as usize + 1).is_multiple_of(cadence) {
                    a.snapshot().expect("snapshot a");
                }
            }
        } // crash both

        let a = PersistentBackend::open_with(Box::new(mem_a.clone()), SyncPolicy::Always)
            .expect("recover a");
        let b = PersistentBackend::open_with(Box::new(mem_b.clone()), SyncPolicy::Always)
            .expect("recover b");
        if cadence <= extra as usize {
            assert!(a.recovery().base_seq > 0, "cadence {cadence}: snapshot must move the base");
            assert!(
                a.recovery().wal_records_applied < u64::from(extra),
                "cadence {cadence}: the snapshot must shorten replay"
            );
        }
        assert_eq!(b.recovery().base_seq, 0);
        assert_eq!(b.recovery().wal_records_applied, u64::from(extra));
        assert_eq!(fingerprint(Arc::new(a)), expected, "snapshot+tail diverged at cadence {cadence}");
        assert_eq!(fingerprint(Arc::new(b)), expected, "pure replay diverged at cadence {cadence}");
    }
}

// ---------------------------------------------------------------------------
// WAL compaction

/// A successful snapshot compacts the WAL back to the bare magic, prunes
/// the superseded snapshot, accounts the reclaimed bytes, and the store
/// keeps accepting ingests that replay from the new base after a restart.
#[test]
fn snapshot_compacts_the_wal_and_accounts_reclaimed_bytes() {
    let attrs = 5;
    let base = table(8, attrs);
    let mem = MemIo::new();
    create_clean(&mem, &base);
    let store =
        PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always).expect("open");
    for i in 0..6u16 {
        store.ingest(tuple(8 + i, attrs)).expect("ingest");
    }
    let wal_before = mem.read(WAL_FILE).expect("mem io").expect("wal present").len();
    assert!(wal_before > WAL_MAGIC.len(), "ingests must have grown the log");
    let files_before = mem.list().expect("mem io").len();

    store.snapshot().expect("snapshot");

    // The log restarts empty and the metrics ledger records what the
    // compaction reclaimed.
    assert_eq!(mem.read(WAL_FILE).expect("mem io").expect("wal present"), WAL_MAGIC.to_vec());
    let mut snap = MetricsSnapshot::default();
    store.fill_metrics(&mut snap);
    assert_eq!(snap.counters.get("hdb_wal_compactions_total"), Some(&1));
    assert_eq!(
        snap.counters.get("hdb_wal_reclaimed_bytes_total"),
        Some(&((wal_before - WAL_MAGIC.len()) as u64))
    );
    // The superseded seed snapshot is pruned: same file count as before
    // (one snapshot replaced the other, the WAL name persists).
    assert_eq!(mem.list().expect("mem io").len(), files_before);

    // Post-compaction ingests land in the reset log and replay on top of
    // the new base after a crash.
    store.ingest(tuple(14, attrs)).expect("post-compaction ingest");
    drop(store);
    let recovered = PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always)
        .expect("recover");
    assert_eq!(recovered.read_only(), None);
    assert_eq!(recovered.recovery().wal_records_applied, 1);
    assert_eq!(recovered.len(), base.len() + 7);
    // The compacted WAL no longer holds the pre-snapshot records, so the
    // reference is the full corpus, not `disk_reference`.
    let mut all = base.tuples().to_vec();
    all.extend((0..7u16).map(|i| tuple(8 + i, attrs)));
    let reference =
        TableBackend::new(Table::new(base.schema().clone(), all).expect("valid corpus"));
    assert_eq!(fingerprint(Arc::new(recovered)), fingerprint(reference));
}

/// Crash-site sweep over the entire snapshot + compaction sequence:
/// tmp write, tmp fsync, rename (publish), WAL reset write, WAL reset
/// fsync, stale-snapshot prune. Every site must recover read-write and
/// bit-identical to the uninterrupted in-memory run; the site between
/// the snapshot publish and the WAL reset is the one the idempotent
/// stale-WAL reset on reopen exists for.
#[test]
fn crash_between_snapshot_publish_and_wal_reset_recovers() {
    let attrs = 6;
    let base = table(10, attrs);
    let extra = 4u16;
    let mut all = base.tuples().to_vec();
    all.extend((0..extra).map(|i| tuple(10 + i, attrs)));
    let expected = fingerprint(TableBackend::new(
        Table::new(base.schema().clone(), all).expect("valid corpus"),
    ));
    // Under SyncPolicy::Always each ingest consumes two mutations; the
    // snapshot path then consumes, in order: tmp write, tmp fsync,
    // rename, WAL reset write, WAL reset fsync, stale prune. Site `s`
    // forwards the first `s` of those six and crashes on the next;
    // site 6 is the uninterrupted control run.
    let ingest_mutations = 2 * extra as usize;
    for site in 0..=6usize {
        let mem = MemIo::new();
        create_clean(&mem, &base);
        let faulty = FaultyStorageIo::new(
            mem.clone(),
            FaultSchedule::crash_after_writes(ingest_mutations + site),
        );
        let store = PersistentBackend::open_with(Box::new(faulty), SyncPolicy::Always)
            .expect("pre-crash open");
        for i in 0..extra {
            store.ingest(tuple(10 + i, attrs)).expect("pre-crash ingest");
        }
        let published = site >= 3; // the rename is the third snapshot-path mutation
        match store.snapshot() {
            Ok(_) => assert_eq!(site, 6, "only the control run may succeed"),
            Err(HdbError::Storage(_)) => assert!(site < 6, "control run must not fail"),
            Err(e) => panic!("site {site}: untyped failure {e}"),
        }
        if site == 3 || site == 4 {
            // The snapshot published but the WAL reset did not land: the
            // log's on-disk state is unknown, so the store must poison.
            let reason = store.read_only().expect("publish+failed-reset must poison");
            assert!(reason.contains("wal compaction"), "site {site}: {reason}");
        } else if site < 3 {
            // A failed snapshot write never poisons — the WAL is still
            // the authoritative log.
            assert_eq!(store.read_only(), None, "site {site}: failed snapshot must not poison");
        }
        drop(store);

        // Restart over the surviving bytes: always read-write, always
        // bit-identical to the uninterrupted in-memory corpus.
        let recovered = PersistentBackend::open_with(Box::new(mem.clone()), SyncPolicy::Always)
            .expect("post-crash open");
        assert_eq!(recovered.read_only(), None, "site {site} must recover read-write");
        if published {
            // Every WAL record is covered by the published snapshot:
            // recovery applies zero of them and resets the stale log.
            assert_eq!(
                recovered.recovery().wal_records_applied,
                0,
                "site {site}: the published snapshot covers every record"
            );
            // At site 3 the untouched log ends exactly at the new base,
            // so appends stay seq-continuous and no reset is needed;
            // from site 4 on the log ends short of the base (the reset
            // write landed) and reopen must reset it idempotently.
            assert_eq!(
                recovered.recovery().wal_reset,
                site >= 4,
                "site {site}: stale-wal reset fired at the wrong window"
            );
        } else {
            assert_eq!(recovered.recovery().wal_records_applied, u64::from(extra));
        }
        assert_eq!(
            fingerprint(Arc::new(recovered)),
            expected,
            "site {site} diverged from the in-memory reference"
        );
    }
}
