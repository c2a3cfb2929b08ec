//! Study orchestrator: generate the world, draw the datasets, run the
//! full static + dynamic + circumvention pipeline, and compute every
//! table and figure of the paper from the measurements.
//!
//! ```
//! use pinning_core::{Study, StudyConfig};
//!
//! let results = Study::new(StudyConfig::tiny(7)).run();
//! assert_eq!(results.datasets.len(), 6);
//! let report = results.render_table3();
//! assert!(report.contains("Dynamic"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod accum;
pub mod journal;
pub mod record;
pub mod stream;
pub mod study;
mod supervise;
pub mod tables;

pub use accum::StreamAccum;
pub use journal::{
    AppOutcome, EncodedEntry, JournalEntry, JournalError, MeasuredApp, Replay, ResultJournal,
};
pub use record::AppRecord;
pub use stream::{StreamConfig, StreamEngine, StreamHealth, StreamOutcome, StreamResults};
pub use study::{RunHealth, Study, StudyConfig, StudyOutcome, StudyResults, SupervisorConfig};
