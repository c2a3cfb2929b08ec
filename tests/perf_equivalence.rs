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

use app_tls_pinning::analysis::dynamics::pipeline::DynamicEnv;
use app_tls_pinning::core::{Study, StudyConfig, StudyResults};
use app_tls_pinning::epoch::{EpochConfig, Evolution};
use app_tls_pinning::pki::cache::CacheStat;
use app_tls_pinning::pki::ValidationMemo;
use app_tls_pinning::store::config::WorldConfig;
use app_tls_pinning::store::world::World;
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
    let (single, pooled) = (Study::new(single).run(), Study::new(pooled).run());
    assert_eq!(
        single.render_all(),
        pooled.render_all(),
        "cache interleaving across worker threads changed a report byte"
    );
    // Run health too is the same at any thread count, and the same as
    // the engine rendered it before its one run-health record.
    for run in [&single, &pooled] {
        assert_eq!(
            run.render_run_health(),
            "\
Run health (supervision & journal telemetry)
Event                              Count
---------------------------------------------------
worker panics recovered                           0
circuit-breaker trips                             0
watchdog breaches                                 0
journal truncations                               0
quarantined bytes                                 0
quarantined records                               0
journal repairs                                   0
checkpoints recovered                             0
apps resumed from journal                         0
apps measured fresh                              74
apps replayed from prior epoch                    0
apps reanalyzed (dirty)                           0
peak RSS (KiB)                                    —
throughput (apps/sec)                             —
cache chain-validation (hit/miss)  3616/393 (90.2%)
"
        );
    }
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
    let (first, second) = twice_on_one_memo(StudyConfig::tiny(0xAB03));
    assert_eq!(first.render_all(), second.render_all());
}

/// Asserts that the second of two identical runs on one memo asked only
/// for verdicts the first one stored.
fn assert_served_by_warm_memo(config: StudyConfig) {
    let (first, second) = twice_on_one_memo(config);
    assert_eq!(first.render_all(), second.render_all());
    let warm = second.health.validation_memo.expect("the run had a memo");
    assert!(
        warm.hits > 0 && warm.misses == 0,
        "second run must be served entirely by the warm memo: {warm:?}"
    );
}

#[test]
fn a_warm_memo_serves_an_identical_single_worker_run_entirely() {
    let mut config = StudyConfig::tiny(0xAB03);
    config.threads = 1;
    assert_served_by_warm_memo(config);
}

#[test]
fn a_warm_memo_serves_an_identical_two_worker_run_entirely() {
    // Forged chains are a pure function of the proxy and the host, so the
    // validations two workers ask for do not depend on which of them
    // reaches a host first.
    let mut config = StudyConfig::tiny(0xAB03);
    config.threads = 2;
    assert_served_by_warm_memo(config);
}

/// `hosts` forged by `env`'s proxy from their servers in `world`, as DER.
fn forged_ders(env: &DynamicEnv<'_>, world: &World, hosts: &[String]) -> Vec<Vec<Vec<u8>>> {
    hosts
        .iter()
        .map(|host| {
            let upstream = &world.network.resolve(host).expect("registered").chain;
            let forged = env.proxy().forge_chain(host, upstream);
            forged
                .certs()
                .iter()
                .map(|c| c.der_bytes().to_vec())
                .collect()
        })
        .collect()
}

#[test]
fn forged_chains_are_equal_across_environments_and_thread_counts() {
    let world = World::generate(WorldConfig::tiny(0xAB07));
    let env = || {
        DynamicEnv::new(
            &world.network,
            world.universe.aosp_oem.clone(),
            world.universe.ios.clone(),
            world.now,
            world.config.seed,
        )
    };
    let mut hosts: Vec<String> = world
        .network
        .servers()
        .iter()
        .flat_map(|s| s.hostnames.iter().cloned())
        .collect();
    hosts.sort();
    hosts.dedup();
    assert!(hosts.len() > 10, "a tiny world serves many hosts");

    let sequential = forged_ders(&env(), &world, &hosts);
    // Two workers forging disjoint halves on one proxy, one of them in
    // reverse order and under uppercased names.
    let shared = env();
    let forge = |host: &str| {
        let upstream = &world.network.resolve(host).expect("registered").chain;
        shared.proxy().forge_chain(host, upstream);
    };
    let evens: Vec<&String> = hosts.iter().step_by(2).collect();
    let odds: Vec<&String> = hosts.iter().skip(1).step_by(2).collect();
    std::thread::scope(|s| {
        s.spawn(|| {
            evens
                .iter()
                .rev()
                .for_each(|h| forge(&h.to_ascii_uppercase()))
        });
        s.spawn(|| odds.iter().for_each(|h| forge(h)));
    });
    assert_eq!(shared.proxy().forged_count(), hosts.len());
    assert_eq!(forged_ders(&shared, &world, &hosts), sequential);
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
