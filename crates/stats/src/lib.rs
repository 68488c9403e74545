//! # hdb-stats — estimator-evaluation statistics
//!
//! The measurement substrate for the experiment harness: numerically
//! stable running moments ([`RunningStats`]), accuracy summaries matching
//! the paper's reported measures — MSE, relative error, error bars
//! (§6.1.4) — and the trial/checkpoint plumbing that turns many estimator
//! runs into accuracy-vs-query-cost curves ([`Trace`], [`summarize_at`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiment;
pub mod running;
pub mod series;
pub mod summary;

pub use experiment::{checkpoints, summarize_at, CheckpointAccuracy, Trace};
pub use running::RunningStats;
pub use series::{Figure, Series};
pub use summary::{Accuracy, ConfidenceInterval, ErrorBar};
