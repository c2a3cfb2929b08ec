//! Reproducibility: the same seed must reproduce every measured number
//! (DESIGN.md §6), and different seeds must explore different worlds.

use app_tls_pinning::core::{Study, StudyConfig};

#[test]
fn same_seed_same_tables() {
    let a = Study::new(StudyConfig::tiny(0xD37)).run();
    let b = Study::new(StudyConfig::tiny(0xD37)).run();

    assert_eq!(a.render_table3(), b.render_table3());
    assert_eq!(a.render_table6(), b.render_table6());
    assert_eq!(a.render_table8(), b.render_table8());
    assert_eq!(a.render_table9(), b.render_table9());
    assert_eq!(a.render_figure2(), b.render_figure2());
    assert_eq!(a.render_all(), b.render_all());
}

#[test]
fn same_seed_same_records() {
    let a = Study::new(StudyConfig::tiny(0xD38)).run();
    let b = Study::new(StudyConfig::tiny(0xD38)).run();
    assert_eq!(a.records.len(), b.records.len());
    for (idx, ra) in &a.records {
        let rb = &b.records[idx];
        assert_eq!(ra.pinned_destinations, rb.pinned_destinations);
        assert_eq!(ra.used_destinations, rb.used_destinations);
        assert_eq!(ra.pinned_bodies, rb.pinned_bodies);
        assert_eq!(ra.weak_overall, rb.weak_overall);
    }
}

#[test]
fn different_seeds_differ() {
    let a = Study::new(StudyConfig::tiny(1)).run();
    let b = Study::new(StudyConfig::tiny(2)).run();
    assert_ne!(
        a.render_table3(),
        b.render_table3(),
        "different seeds should produce different measurements"
    );
}

// Frozen streamed reports. The expected SHA-256s were computed when MITM
// proxies still numbered forged leaves with a counter, on the streamed
// world recipe of the repository benchmark's small `stream` run (about
// 120 apps, shard size 25). A change that moves one streamed-report byte,
// at either thread count, fails here.

use app_tls_pinning::core::{StreamConfig, StreamEngine, StreamOutcome};
use app_tls_pinning::crypto::{hex_encode, sha256};
use app_tls_pinning::store::config::WorldConfig;

/// The streamed report of the small benchmark world at `threads`.
fn small_streamed_report(seed: u64, threads: usize) -> String {
    let store_size = 60;
    let world = WorldConfig {
        store_size,
        n_cross_products: (store_size / 12).max(8),
        ..WorldConfig::paper_scale(seed)
    };
    let mut config = StreamConfig::new(world, 25);
    config.threads = threads;
    let StreamOutcome::Completed(results) = StreamEngine::new(config).run() else {
        unreachable!("no kill hook is set");
    };
    results.render_report()
}

#[test]
fn streamed_reports_hash_as_frozen() {
    for (seed, frozen) in [
        (
            101,
            "1612c0eec0ccbf6b5de4b39153a2fb46c209c52ae8fc4839077a9dd55907f053",
        ),
        (
            90017,
            "b45f1c9cfd8aa325342aaa4df01b8f44e4f510c41288889194f27c082198940b",
        ),
    ] {
        for threads in [1, 2] {
            let report = small_streamed_report(seed, threads);
            assert_eq!(
                hex_encode(&sha256(report.as_bytes())),
                frozen,
                "streamed report moved (seed {seed}, {threads} threads):\n{report}"
            );
        }
    }
}
