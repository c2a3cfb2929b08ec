//! The app-store ecosystem: world generation, store listings and dataset
//! construction.
//!
//! This crate plays the role of §3 ("Datasets") plus the invisible hand
//! behind it — the actual population of apps the stores contain. The
//! [`world::World`] generator plants *ground truth* (which apps pin what,
//! where the artifacts live, which destinations serve which chains) with
//! distributions calibrated to the paper's findings; the
//! [`datasets`] module then draws the paper's six datasets (Common /
//! Popular / Random × Android / iOS) from store listings the same way the
//! authors did (AlternativeTo cross-listing, top-free charts, random ids).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod datasets;
pub mod intern;
pub mod shard;
pub mod whois;
pub mod world;

pub use config::WorldConfig;
pub use datasets::{Dataset, DatasetKind};
pub use whois::{Party, WhoisRegistry};
pub use world::{HostileKind, World};
