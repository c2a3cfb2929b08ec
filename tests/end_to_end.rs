//! End-to-end integration: the full study pipeline, from world generation
//! through every table and figure, at test scale.

use app_tls_pinning::app::platform::Platform;
use app_tls_pinning::core::{Study, StudyConfig, StudyResults};
use app_tls_pinning::store::datasets::DatasetKind;
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn results() -> &'static StudyResults {
    static RESULTS: OnceLock<StudyResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let mut config = StudyConfig::tiny(0xE2E);
        // A bit larger than tiny so every table has rows.
        // Bench scale: large enough that Table 7's ≥5-app attribution
        // threshold is met and percentages are stable.
        config.world.store_size = 1200;
        config.world.n_cross_products = 200;
        config.world.common_size = 140;
        config.world.popular_size = 250;
        config.world.random_size = 250;
        Study::new(config).run()
    })
}

#[test]
fn six_datasets_at_requested_sizes() {
    let r = results();
    assert_eq!(r.datasets.len(), 6);
    for kind in DatasetKind::ALL {
        for platform in Platform::BOTH {
            let d = r.dataset(kind, platform);
            let expected = match kind {
                DatasetKind::Common => 140,
                _ => 250,
            };
            assert_eq!(d.len(), expected, "{kind} {platform}");
        }
    }
}

#[test]
fn headline_shape_static_exceeds_dynamic_exceeds_nsc() {
    // The paper's central claim (Table 3): static "potential" pinning
    // exceeds dynamic ground truth, which in turn exceeds what the
    // NSC-only technique of prior work can see.
    let r = results();
    let rows = r.table3();
    let sum = |f: fn(&app_tls_pinning::report::tables::Table3Row) -> usize| -> usize {
        rows.iter().map(f).sum()
    };
    let dynamic = sum(|x| x.dynamic);
    let embedded = sum(|x| x.static_embedded);
    let nsc = sum(|x| x.nsc.unwrap_or(0));
    assert!(dynamic > 0);
    assert!(
        embedded > dynamic,
        "embedded {embedded} vs dynamic {dynamic}"
    );
    assert!(dynamic > nsc, "dynamic {dynamic} vs nsc {nsc}");
}

#[test]
fn detection_never_hallucinates() {
    let r = results();
    for rec in r.records.values() {
        let app = &r.world.apps[rec.app_index];
        let truth: BTreeSet<&str> = app.runtime_pinned_domains().into_iter().collect();
        for d in &rec.pinned_destinations {
            assert!(truth.contains(d.as_str()), "{}: hallucinated {d}", app.id);
        }
    }
}

#[test]
fn detection_recall_is_high() {
    let r = results();
    let mut truth_apps = 0;
    let mut found_apps = 0;
    for rec in r.records.values() {
        let app = &r.world.apps[rec.app_index];
        if app.pins_at_runtime() {
            truth_apps += 1;
            if rec.pins() {
                found_apps += 1;
            }
        }
    }
    assert!(truth_apps > 0);
    assert!(
        found_apps * 10 >= truth_apps * 7,
        "recall too low: {found_apps}/{truth_apps}"
    );
}

#[test]
fn weak_cipher_gap_between_platforms() {
    let r = results();
    let rows = r.table8();
    let avg = |platform: Platform| -> f64 {
        let xs: Vec<f64> = rows
            .iter()
            .filter(|x| x.platform == platform)
            .map(|x| x.row.overall_pct)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    assert!(avg(Platform::Ios) > avg(Platform::Android) + 30.0);
}

#[test]
fn circumvention_partial_on_both_platforms() {
    let r = results();
    for platform in Platform::BOTH {
        let (succeeded, attempted) = r.circumvention_rate(platform);
        assert!(attempted > 0, "{platform}: no circumvention attempted");
        assert!(succeeded > 0, "{platform}: nothing circumvented");
        assert!(
            succeeded < attempted,
            "{platform}: circumvention must be partial"
        );
    }
}

#[test]
fn majority_of_pinned_certs_are_cas() {
    let r = results();
    let pl = r.pin_level();
    assert!(pl.ca + pl.leaf > 0);
    assert!(pl.ca > pl.leaf, "{pl:?}");
}

#[test]
fn pinned_destinations_serve_no_expired_certificates() {
    // §5.3.4: no pinned destination serves a certificate outside its
    // validity window, so no app accepts an expired chain because it pins.
    let r = results();
    let mut pinned = 0;
    for rec in r.records.values() {
        for dest in &rec.pinned_destinations {
            let Some(server) = r.world.network.resolve(dest) else {
                continue;
            };
            pinned += 1;
            for cert in server.chain.certs() {
                assert!(cert.tbs.validity.contains(r.world.now), "{dest}");
            }
        }
    }
    assert!(pinned > 0);
}

#[test]
fn table6_shapes() {
    let r = results();
    for row in r.table6() {
        let total = row.default_pki + row.custom_pki + row.unavailable;
        if total >= 10 {
            assert!(
                row.default_pki * 2 > total,
                "default PKI must dominate: {row:?}"
            );
        }
    }
}

#[test]
fn common_dataset_pairs_are_products() {
    let r = results();
    let ca = r.dataset(DatasetKind::Common, Platform::Android);
    let ci = r.dataset(DatasetKind::Common, Platform::Ios);
    for (&a, &i) in ca.app_indices.iter().zip(&ci.app_indices) {
        assert_eq!(r.world.apps[a].product_key, r.world.apps[i].product_key);
    }
}

#[test]
fn full_report_renders() {
    let r = results();
    let report = r.render_all();
    assert!(report.len() > 2_000);
    for needle in [
        "Table 3",
        "Table 9",
        "Figure 5",
        "pins resolved via CT",
        "CT resolution & log coverage",
    ] {
        assert!(report.contains(needle), "missing {needle}");
    }
}

#[test]
fn ct_coverage_partial_at_bench_scale_with_clean_auditor() {
    // The §4.1.3 acceptance shape: 0 < resolved < total overall, partial
    // per-shard coverage reported, and an honestly generated ecosystem
    // audits clean.
    let r = results();
    let s = r.ct_coverage();
    let resolved: usize = s.datasets.iter().map(|d| d.resolved).sum();
    let total: usize = s.datasets.iter().map(|d| d.total).sum();
    assert!(resolved > 0, "some pins must resolve via CT");
    assert!(resolved < total, "CT coverage must stay partial");
    assert!(s.shards.iter().all(|sh| sh.entries > 0));
    assert!(s.cache.hit_rate() > 0.0, "{:?}", s.cache);
    assert!(s.findings.is_empty(), "{:?}", s.findings);
}

#[test]
fn table7_attributes_known_sdks() {
    let r = results();
    let (android, ios) = r.table7();
    let android_names: BTreeSet<&str> = android.iter().map(|f| f.framework.as_str()).collect();
    let ios_names: BTreeSet<&str> = ios.iter().map(|f| f.framework.as_str()).collect();
    // At this scale at least one Table 7 SDK must recur ≥5 apps on some
    // platform; both platforms' attributions must stay within the registry.
    // Per-SDK adoption is ~1% of apps, so the ≥5-app review threshold needs
    // thousands of apps per platform to trigger for *both* platforms; at
    // this test scale at least one side must clear it (the paper-scale run
    // in EXPERIMENTS.md shows both).
    assert!(
        !android_names.is_empty() || !ios_names.is_empty(),
        "no frameworks attributed on either platform"
    );
    let known = [
        "Twitter",
        "Braintree",
        "Paypal",
        "Stripe",
        "Amplitude",
        "Weibo",
        "FraudForce",
        "Adobe Creative Cloud",
        "MParticle",
        "Perimeterx",
        "Sensibill",
        "Firestore",
    ];
    assert!(
        android_names.iter().all(|n| known.contains(n)),
        "{android_names:?}"
    );
    assert!(ios_names.iter().all(|n| known.contains(n)), "{ios_names:?}");
}
