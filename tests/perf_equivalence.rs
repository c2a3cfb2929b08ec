//! The caching layer must be invisible in every measured byte.
//!
//! The derived-value caches (certificate artifacts, chain-validation memo,
//! batched Merkle proofs) exist purely for speed; these tests pin down the
//! contract that running without a validation memo, with a memo another
//! run already warmed, or at another thread count (which changes cache
//! interleaving) never changes a study's results, on the monolithic study
//! or on the incremental epoch engine.
//!
//! Each run owns its memo and reports that memo's traffic, so these tests
//! share no state and run in parallel without a lock.

use app_tls_pinning::core::{Study, StudyConfig, StudyResults};
use app_tls_pinning::epoch::{EpochConfig, Evolution};
use app_tls_pinning::pki::cache::CacheStat;
use app_tls_pinning::pki::ValidationMemo;
use std::sync::Arc;

#[test]
fn cached_and_uncached_studies_render_identically() {
    let cached = Study::new(StudyConfig::tiny(0xAB01)).run().render_all();
    let uncached = Study::new(StudyConfig::tiny(0xAB01))
        .with_memo(None)
        .run()
        .render_all();
    assert_eq!(
        cached, uncached,
        "the validation memo changed a report byte"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let mut single = StudyConfig::tiny(0xAB02);
    single.threads = 1;
    let mut pooled = StudyConfig::tiny(0xAB02);
    pooled.threads = 4;
    assert_eq!(
        Study::new(single).run().render_all(),
        Study::new(pooled).run().render_all(),
        "cache interleaving across worker threads changed a report byte"
    );
}

/// Two runs of `config` sharing one memo: the second starts with every
/// verdict the first stored.
fn twice_on_one_memo(config: StudyConfig) -> (StudyResults, StudyResults) {
    let memo = Arc::new(ValidationMemo::default());
    let run = || {
        Study::new(config.clone())
            .with_memo(Some(Arc::clone(&memo)))
            .run()
    };
    (run(), run())
}

#[test]
fn warm_global_caches_do_not_leak_into_results() {
    // At the default two workers the MITM proxy's forged-leaf serials
    // follow scheduling, so the warm memo is only partly hit: memo hits
    // and fresh validations mix under concurrency, and the report must
    // not show which is which.
    let (first, second) = twice_on_one_memo(StudyConfig::tiny(0xAB03));
    assert_eq!(first.render_all(), second.render_all());
}

#[test]
fn a_warm_memo_serves_an_identical_single_worker_run_entirely() {
    // One worker issues forged leaves in the same order in both runs, so
    // the second run asks only for verdicts the first one stored.
    let mut config = StudyConfig::tiny(0xAB03);
    config.threads = 1;
    let (first, second) = twice_on_one_memo(config);
    assert_eq!(first.render_all(), second.render_all());
    let warm = second.health.validation_memo.expect("the run had a memo");
    assert!(
        warm.hits > 0 && warm.misses == 0,
        "second run must be served entirely by the warm memo: {warm:?}"
    );
}

/// The run-health chain-validation counts of a tiny study.
fn memo_counts(seed: u64) -> CacheStat {
    Study::new(StudyConfig::tiny(seed))
        .run()
        .health
        .validation_memo
        .expect("the run had a memo")
}

#[test]
fn concurrent_studies_count_only_their_own_validations() {
    let (a, b) = (0xAB05, 0xAB06);
    let alone = (memo_counts(a), memo_counts(b));
    assert!(alone.0.total() > 0 && alone.1.total() > 0);
    let together = std::thread::scope(|s| {
        let run_a = s.spawn(|| memo_counts(a));
        let run_b = s.spawn(|| memo_counts(b));
        (run_a.join().unwrap(), run_b.join().unwrap())
    });
    assert_eq!(together, alone, "a concurrent run leaked into the counts");
    assert_eq!(memo_counts(a), alone.0, "identical runs must count alike");
}

/// Every epoch's `full_report` of an incremental evolution.
fn epoch_reports(mut evolution: Evolution) -> Vec<String> {
    (0..evolution.epochs_total())
        .map(|_| {
            evolution.next_epoch().expect("epoch runs");
            evolution.full_report()
        })
        .collect()
}

#[test]
fn cached_and_uncached_epochs_report_identically() {
    // The validation memo and the CT proof batches stay warm from one
    // epoch to the next here, which a single study never exercises.
    let config = EpochConfig::tiny(0xAB04);
    let cached = epoch_reports(Evolution::new(config.clone(), true));
    let uncached = epoch_reports(Evolution::new(config, true).with_memo(None));
    assert_eq!(cached.len(), uncached.len());
    for (k, (c, u)) in cached.iter().zip(&uncached).enumerate() {
        assert_eq!(c, u, "the validation memo changed epoch {k}'s report");
    }
}
