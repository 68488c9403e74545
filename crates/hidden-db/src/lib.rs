//! # hdb-interface — the hidden-web-database substrate
//!
//! This crate implements the *environment* of Dasgupta et al., "Unbiased
//! Estimation of Size and Other Aggregates Over Hidden Web Databases"
//! (SIGMOD 2010): an in-memory categorical table hidden behind a
//! restrictive **top-k form interface**.
//!
//! A hidden database exposes only this interaction (paper §2.1): a client
//! fills in values for a subset of attributes and receives
//!
//! * **underflow** — nothing matches,
//! * **valid** — *all* matching tuples (at most `k`), or
//! * **overflow** — the `k` top-ranked matches plus an overflow flag,
//!   with no way to page further or learn the true count.
//!
//! The estimators in `hdb-core` are generic over [`TopKInterface`], so
//! the simulator here stands in for a live website; the query accounting
//! in [`QueryCounter`] plays the role of the site's per-IP limits.
//!
//! The *logical* interface is further split from the *physical*
//! evaluation substrate: [`HiddenDb`] is generic over [`SearchBackend`],
//! with several substrates shipped — the default bitmap-indexed
//! [`TableBackend`], the hash-partitioned [`ShardedDb`] (per-shard
//! evaluation fanned across threads, merged order-independently), the
//! networked [`RemoteBackend`] client, the fleet-spanning
//! [`FederatedBackend`] (every shard behind its own server, with
//! replica failover), and the crash-safe
//! [`PersistentBackend`]. All backends return
//! bit-identical outcomes for the same corpus, so estimator runs are
//! reproducible across substrates (see `docs/ARCHITECTURE.md`).
//!
//! ## Quick example
//!
//! ```
//! use hdb_interface::{Attribute, HiddenDb, Query, Schema, Table, TopKInterface, Tuple};
//!
//! let schema = Schema::new(vec![
//!     Attribute::boolean("sunroof"),
//!     Attribute::categorical("color", ["red", "blue", "green"]).unwrap(),
//! ]).unwrap();
//! let table = Table::new(schema, vec![
//!     Tuple::new(vec![0, 0]),
//!     Tuple::new(vec![1, 0]),
//!     Tuple::new(vec![1, 2]),
//! ]).unwrap();
//! let db = HiddenDb::new(table, 2);
//!
//! // Too broad: three matches against k = 2 → overflow.
//! assert!(db.query(&Query::all()).unwrap().is_overflow());
//! // Narrow enough → valid, all matches returned.
//! let q = Query::all().and(0, 1).unwrap();
//! assert_eq!(db.query(&q).unwrap().returned_count(), 2);
//! assert_eq!(db.queries_issued(), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod bitmap;
mod cache;
pub mod counter;
pub mod error;
pub mod federated;
pub mod index;
pub mod interface;
pub mod obs;
pub mod par;
pub mod query;
pub mod ranking;
pub mod reactor;
pub mod remote;
pub mod schema;
pub mod session;
pub mod sharded;
pub mod storage;
pub mod table;
pub mod tuple;
pub mod wire;

pub use backend::{Classified, EvalMode, Evaluation, SearchBackend, TableBackend, WalkState};
pub use counter::QueryCounter;
pub use error::{HdbError, Result};
pub use federated::{FederatedBackend, FleetConfig, Topology};
pub use index::{Selection, TableIndex};
pub use interface::{HiddenDb, QueryOutcome, ReturnedTuple, TopKInterface};
pub use session::{ClassifiedOutcome, SessionMode, WalkSession};
pub use obs::{
    Clock, Counter, Gauge, Histogram, HistogramSnapshot, ManualClock, MetricsRegistry,
    MetricsSnapshot, SpanEvent, SpanPhase, TraceRing, WallClock,
};
pub use par::WorkerPool;
pub use query::{Predicate, Query};
pub use ranking::{AttributeRanking, RankingFunction, RankingSpec, RowIdRanking, SeededRandomRanking};
pub use remote::RemoteBackend;
pub use schema::{AttrId, Attribute, Schema, ValueId};
pub use sharded::ShardedDb;
pub use storage::{MemIo, PersistentBackend, RecoveryReport, StdIo, StorageIo, SyncPolicy};
pub use table::Table;
pub use tuple::{Tuple, TupleId};
