//! # app-tls-pinning
//!
//! A full Rust reproduction of **“A Comparative Analysis of Certificate
//! Pinning in Android & iOS”** (Pradeep et al., ACM IMC 2022).
//!
//! This facade crate re-exports every workspace crate under one roof so the
//! examples and integration tests can use a single dependency:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`crypto`] | `pinning-crypto` | SHA-1/SHA-256/HMAC, base64/hex, simulated signatures |
//! | [`pki`] | `pinning-pki` | certificates, chains, validation, root stores, SPKI pins |
//! | [`ctlog`] | `pinning-ctlog` | verifiable CT ecosystem: Merkle log shards, STHs, auditor, pin resolver |
//! | [`tls`] | `pinning-tls` | record-level TLS simulator with pin verifiers |
//! | [`app`] | `pinning-app` | Android/iOS app-package model + SDK registry |
//! | [`store`] | `pinning-store` | app-store ecosystem, world generation, dataset sampling |
//! | [`netsim`] | `pinning-netsim` | DNS, origin servers, MITM proxy, device runtime |
//! | [`analysis`] | `pinning-analysis` | the paper's static & dynamic detection methodology |
//! | [`report`] | `pinning-report` | renderers for every paper table and figure |
//! | [`core`] | `pinning-core` | end-to-end study orchestrator |
//! | [`epoch`] | `pinning-epoch` | longitudinal store evolution + incremental re-study engine |
//! | [`resilience`] | `pinning-resilience` | breakers, deadlines, retries, durable-media fault model + journal recovery |
//!
//! ## Quickstart
//!
//! ```
//! use app_tls_pinning::core::{Study, StudyConfig};
//!
//! // A miniature world (fast enough for doctests); examples/full_study.rs
//! // runs the paper-scale configuration.
//! let config = StudyConfig::tiny(0xC0FFEE);
//! let results = Study::new(config).run();
//! assert!(results.datasets.len() == 6);
//! ```

#![forbid(unsafe_code)]

pub use pinning_analysis as analysis;
pub use pinning_app as app;
pub use pinning_core as core;
pub use pinning_crypto as crypto;
pub use pinning_ctlog as ctlog;
pub use pinning_epoch as epoch;
pub use pinning_netsim as netsim;
pub use pinning_pki as pki;
pub use pinning_report as report;
pub use pinning_resilience as resilience;
pub use pinning_store as store;
pub use pinning_tls as tls;
