//! The caching layer must be invisible in every measured byte.
//!
//! The derived-value caches (certificate artifacts, chain-validation memo,
//! batched Merkle proofs) exist purely for speed; these tests pin down the
//! contract that turning them off — or changing the thread count, which
//! changes cache interleaving — never changes a study's results, on the
//! monolithic study or on the incremental epoch engine.
//!
//! The kill-switch is process-global, so the tests here serialize around a
//! single mutex instead of toggling it concurrently with each other.

use app_tls_pinning::core::{Study, StudyConfig};
use app_tls_pinning::epoch::{EpochConfig, Evolution};
use app_tls_pinning::pki::cache::caching_disabled_scope;
use std::sync::{Mutex, MutexGuard};

/// Serializes every test that flips the global caching switch.
fn switch_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn render(config: StudyConfig) -> String {
    app_tls_pinning::pki::validate::clear_validation_cache();
    Study::new(config).run().render_all()
}

#[test]
fn cached_and_uncached_studies_render_identically() {
    let _serial = switch_lock();
    let cached = render(StudyConfig::tiny(0xAB01));
    let uncached = {
        let _off = caching_disabled_scope();
        render(StudyConfig::tiny(0xAB01))
    };
    assert_eq!(
        cached, uncached,
        "derived-value caching changed a report byte"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let _serial = switch_lock();
    let mut single = StudyConfig::tiny(0xAB02);
    single.threads = 1;
    let mut pooled = StudyConfig::tiny(0xAB02);
    pooled.threads = 4;
    assert_eq!(
        render(single),
        render(pooled),
        "cache interleaving across worker threads changed a report byte"
    );
}

#[test]
fn warm_global_caches_do_not_leak_into_results() {
    let _serial = switch_lock();
    // First run warms the process-global memos; the second run of the same
    // configuration must render identically with everything already hot
    // (no cache clearing in between).
    let first = Study::new(StudyConfig::tiny(0xAB03)).run().render_all();
    let second = Study::new(StudyConfig::tiny(0xAB03)).run().render_all();
    assert_eq!(first, second);
}

/// Every epoch's `full_report` of an incremental evolution.
fn epoch_reports(config: EpochConfig) -> Vec<String> {
    app_tls_pinning::pki::validate::clear_validation_cache();
    let mut evolution = Evolution::new(config, true);
    (0..evolution.epochs_total())
        .map(|_| {
            evolution.next_epoch().expect("epoch runs");
            evolution.full_report()
        })
        .collect()
}

#[test]
fn cached_and_uncached_epochs_report_identically() {
    let _serial = switch_lock();
    // The validation memo and the CT proof batches stay warm from one
    // epoch to the next here, which a single study never exercises.
    let cached = epoch_reports(EpochConfig::tiny(0xAB04));
    let uncached = {
        let _off = caching_disabled_scope();
        epoch_reports(EpochConfig::tiny(0xAB04))
    };
    assert_eq!(cached.len(), uncached.len());
    for (k, (c, u)) in cached.iter().zip(&uncached).enumerate() {
        assert_eq!(c, u, "derived-value caching changed epoch {k}'s report");
    }
}
