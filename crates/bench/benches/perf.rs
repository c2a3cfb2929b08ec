//! With-vs-without-cache A/B benchmarks and the `BENCH_pr4.json` artifact.
//!
//! A cache that can be left out is timed both ways inside one process:
//! the chain-validation memo (`validate_with` a [`ValidationMemo`] against
//! without one), batched Merkle proofs (an authenticator against the
//! tree's own per-proof walk), and a full end-to-end study run without a
//! validation memo and with one. Alongside: SHA-256 throughput of the
//! default and the portable kernels, and the per-table regeneration
//! benches with mean/median/p95. The numbers go to `BENCH_pr4.json` at the
//! workspace root.
//!
//! The end-to-end A/B is also a correctness gate: if the two study
//! reports differ in a single byte, the bench exits non-zero (CI runs it
//! in smoke mode).
//!
//! ```sh
//! cargo bench -p pinning-bench --bench perf --offline            # full
//! cargo bench -p pinning-bench --bench perf --offline -- smoke   # CI gate
//! ```

use pinning_app::platform::Platform;
use pinning_bench::{
    bench_threads, bench_world_config, shared_results, time_bench_stats, BenchStats,
};
use pinning_core::{Study, StudyConfig};
use pinning_crypto::sha256::portable;
use pinning_crypto::sig::KeyPair;
use pinning_crypto::{sha256, sha256_many, SplitMix64};
use pinning_ctlog::merkle::MerkleTree;
use pinning_pki::authority::CertificateAuthority;
use pinning_pki::name::DistinguishedName;
use pinning_pki::store::RootStore;
use pinning_pki::time::{SimTime, Validity, YEAR};
use pinning_pki::validate::{validate_with, RevocationList, ValidationMemo, ValidationOptions};
use pinning_pki::Certificate;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One with-vs-without-cache measurement.
struct AbPair {
    cached: BenchStats,
    uncached: BenchStats,
}

impl AbPair {
    /// Times `cached` and `uncached`, which must do the same work.
    fn measure(name: &str, iters: u32, cached: impl FnMut(), uncached: impl FnMut()) -> AbPair {
        AbPair {
            cached: time_bench_stats(&format!("{name} (cached)"), iters, cached),
            uncached: time_bench_stats(&format!("{name} (uncached)"), iters, uncached),
        }
    }

    fn speedup(&self) -> f64 {
        if self.cached.mean_ns == 0.0 {
            0.0
        } else {
            self.uncached.mean_ns / self.cached.mean_ns
        }
    }

    fn to_json(&self, name: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cached\":{},\"uncached\":{},\"speedup\":{:.2}}}",
            self.cached.to_json(),
            self.uncached.to_json(),
            self.speedup()
        )
    }
}

/// Fixture: a root store holding a root CA, and `n_leaves` two-certificate
/// chains (leaf, root) laid end to end.
fn pki_fixture(n_leaves: usize) -> (RootStore, Vec<Certificate>) {
    let mut rng = SplitMix64::new(0xbe7c);
    let mut root = CertificateAuthority::new_root(
        DistinguishedName::new("Bench Root", "Sim", "US"),
        &mut rng,
        SimTime(0),
    );
    let mut store = RootStore::new("bench");
    store.add(root.cert.clone());
    let mut chains = Vec::new();
    for i in 0..n_leaves {
        let key = KeyPair::generate(&mut rng);
        let leaf = root.issue_leaf(
            &[format!("h{i}.bench.example")],
            "Bench Org",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        chains.push(leaf);
        chains.push(root.cert.clone());
    }
    (store, chains)
}

fn micro_benches(smoke: bool) -> Vec<(String, AbPair)> {
    let iters: u32 = if smoke { 5 } else { 30 };
    let mut out = Vec::new();

    // Chain validation: memoized verdict vs full signature/hostname/expiry
    // walk. One iteration validates each fixture chain once.
    let (store, chain_pool) = pki_fixture(4);
    let chains: Vec<&[Certificate]> = chain_pool.chunks(2).collect();
    let crl = RevocationList::empty();
    let opts = ValidationOptions::default();
    let memo = ValidationMemo::default();
    let validate_each = |memo: Option<&ValidationMemo>| {
        for (i, chain) in chains.iter().enumerate() {
            let host = format!("h{i}.bench.example");
            let verdict = validate_with(memo, chain, &store, &host, SimTime(100), &crl, &opts);
            black_box(verdict.is_ok());
        }
    };
    out.push((
        "chain-validation".to_string(),
        AbPair::measure(
            "chain_validation",
            iters,
            || validate_each(Some(&memo)),
            || validate_each(None),
        ),
    ));

    // Batched Merkle proofs: one authenticator (a copy of the tree's stored
    // subtree hashes) + hash-free lookups per proof vs the tree's own
    // per-proof walk, which hashes O(log n) nodes on the right edge. Both
    // paths are O(log n) per proof since the tree stores its completed
    // subtrees, so the ratio is small; it shows what the authenticator
    // still saves a monitor or resolver proving many entries of one
    // state. The trees are not powers of two, as real logs are not: on a
    // perfect tree the walk hashes no right-edge node, so neither path
    // would do its real work. Nothing gates on it.
    for n in [100u64, 1_000] {
        let mut tree = MerkleTree::new();
        for i in 0..n {
            tree.push(format!("entry-{i}").as_bytes());
        }
        out.push((
            format!("merkle-proof-batch-{n}"),
            AbPair::measure(
                &format!("merkle_proof_batch_{n}"),
                iters.min(10),
                || {
                    let auth = tree.authenticator(n).expect("size in range");
                    for i in 0..n {
                        black_box(auth.inclusion_proof(i));
                    }
                },
                || {
                    for i in 0..n {
                        black_box(tree.inclusion_proof(i, n));
                    }
                },
            ),
        ));
    }
    out
}

/// Plain (non-A/B) throughput benches for the SHA-256 kernels.
fn hash_benches(smoke: bool) -> Vec<BenchStats> {
    let iters: u32 = if smoke { 5 } else { 50 };
    let big: Vec<u8> = (0..65_536u32).map(|i| (i % 251) as u8).collect();
    let many: Vec<Vec<u8>> = (0..256u32)
        .map(|i| (0..128u32).map(|j| ((i * 31 + j) % 251) as u8).collect())
        .collect();
    let stats = vec![
        time_bench_stats("sha256_64kib", iters, || {
            black_box(sha256(&big));
        }),
        time_bench_stats("sha256_many_256x128", iters, || {
            black_box(sha256_many(many.iter().map(Vec::as_slice)));
        }),
        time_bench_stats("sha256_seq_256x128", iters, || {
            for m in &many {
                black_box(sha256(m));
            }
        }),
        time_bench_stats("portable_sha256_64kib", iters, || {
            black_box(portable::sha256(&big));
        }),
        time_bench_stats("portable_sha256_many_256x128", iters, || {
            black_box(portable::sha256_many(many.iter().map(Vec::as_slice)));
        }),
        time_bench_stats("portable_sha256_seq_256x128", iters, || {
            for m in &many {
                black_box(portable::sha256(m));
            }
        }),
    ];
    // The interleaved multi-buffer compressor must actually win against
    // the scalar software kernel it replaces on portable builds: the 4-wide
    // lockstep path has to beat hashing the same batch one message at a
    // time by ≥1.5x (it runs four compression states per pass).
    let many_ns = stats[4].median_ns;
    let seq_ns = stats[5].median_ns;
    let speedup = seq_ns / many_ns.max(1.0);
    println!("portable sha256_many speedup over sequential: {speedup:.2}x");
    assert!(
        speedup >= 1.5,
        "portable sha256_many must beat sequential portable hashing by >=1.5x, got \
         {speedup:.2}x ({seq_ns} ns sequential vs {many_ns} ns batched)"
    );
    // A SHA-NI build must earn its `unsafe` call: the hardware kernel has
    // to beat the scalar software kernel by ≥3x on a long message.
    if pinning_crypto::sha256::SHA_NI {
        let ni_ns = stats[0].median_ns;
        let soft_ns = stats[3].median_ns;
        let speedup = soft_ns / ni_ns.max(1.0);
        println!("SHA-NI sha256 speedup over portable: {speedup:.2}x");
        assert!(
            speedup >= 3.0,
            "SHA-NI sha256 must beat portable sha256 by >=3x on 64 KiB, got \
             {speedup:.2}x ({soft_ns} ns portable vs {ni_ns} ns SHA-NI)"
        );
    }
    stats
}

/// Regenerates every paper table from the shared bench-scale study.
fn table_benches(smoke: bool) -> Vec<BenchStats> {
    let results = shared_results();
    let iters: u32 = if smoke { 5 } else { 20 };
    vec![
        time_bench_stats("table1_datasets", iters, || {
            black_box(results.table1());
        }),
        time_bench_stats("table2_prior_work", iters, || {
            black_box(results.table2_rows());
        }),
        time_bench_stats("table3_prevalence", iters, || {
            black_box(results.table3());
        }),
        time_bench_stats("table4_categories_android", iters, || {
            black_box(results.category_rows(Platform::Android));
        }),
        time_bench_stats("table5_categories_ios", iters, || {
            black_box(results.category_rows(Platform::Ios));
        }),
        time_bench_stats("table6_pki", iters, || {
            black_box(results.table6());
        }),
        time_bench_stats("table7_frameworks", iters, || {
            black_box(results.table7());
        }),
        time_bench_stats("table8_ciphers", iters, || {
            black_box(results.table8());
        }),
        time_bench_stats("table9_pii", iters, || {
            black_box(results.table9());
        }),
    ]
}

/// Pre-change per-table numbers (ns/iter, release, same harness) measured
/// on the seed tree before the caching layer landed — the "before" column.
const SEED_BASELINE_NS: [(&str, u64); 9] = [
    ("table1_datasets", 77_670),
    ("table2_prior_work", 23_627),
    ("table3_prevalence", 56_490),
    ("table4_categories_android", 16_868),
    ("table5_categories_ios", 20_581),
    ("table6_pki", 857_086),
    ("table7_frameworks", 50_673),
    ("table8_ciphers", 68_926),
    ("table9_pii", 5_735_194),
];

struct EndToEnd {
    scale: &'static str,
    apps: usize,
    threads: usize,
    uncached_ms: f64,
    cached_ms: f64,
    identical: bool,
}

impl EndToEnd {
    fn speedup(&self) -> f64 {
        if self.cached_ms == 0.0 {
            0.0
        } else {
            self.uncached_ms / self.cached_ms
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"scale\":\"{}\",\"apps\":{},\"threads\":{},\"uncached_ms\":{:.1},\"cached_ms\":{:.1},\"speedup\":{:.2},\"reports_identical\":{}}}",
            self.scale,
            self.apps,
            self.threads,
            self.uncached_ms,
            self.cached_ms,
            self.speedup(),
            self.identical
        )
    }
}

/// Runs one full study + report render, cold: the study's validation
/// memo (if any) is its own and starts empty, and each leg generates its
/// own world, so per-certificate caches start empty either way.
fn study_leg(study: Study) -> (String, f64, usize) {
    let t0 = Instant::now();
    let results = study.run();
    let report = results.render_all();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (report, ms, results.records.len())
}

/// The headline A/B: the same end-to-end study (world generation →
/// static/dynamic/circumvention pipeline → all report tables) without a
/// validation memo, then with one.
fn end_to_end(smoke: bool) -> EndToEnd {
    let threads = bench_threads();
    let (scale, config) = if smoke {
        let mut c = StudyConfig::tiny(2022);
        c.threads = threads;
        ("tiny", c)
    } else {
        let mut c = StudyConfig::paper_scale(2022);
        c.world = bench_world_config(2022);
        c.threads = threads;
        ("bench", c)
    };

    let (uncached_report, uncached_ms, apps) =
        study_leg(Study::new(config.clone()).with_memo(None));
    let (cached_report, cached_ms, _) = study_leg(Study::new(config));

    let identical = uncached_report == cached_report;
    println!(
        "bench end_to_end_study ({scale})                    uncached {uncached_ms:>10.1} ms   cached {cached_ms:>10.1} ms   speedup {:.2}x   reports identical: {identical}",
        uncached_ms / cached_ms.max(1e-9),
    );
    EndToEnd {
        scale,
        apps,
        threads,
        uncached_ms,
        cached_ms,
        identical,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke")
        || std::env::var("PINNING_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mode = if smoke { "smoke" } else { "full" };
    println!("perf bench mode: {mode}");

    let e2e = end_to_end(smoke);
    let micro = micro_benches(smoke);
    let hashes = hash_benches(smoke);
    let tables = table_benches(smoke);

    let json = format!(
        "{{\n  \"schema\": \"pinning-bench/pr4\",\n  \"mode\": \"{mode}\",\n  \"micro_ab\": [\n    {}\n  ],\n  \"hash\": [\n    {}\n  ],\n  \"tables\": [\n    {}\n  ],\n  \"seed_baseline_ns_per_iter\": {{\n    {}\n  }},\n  \"end_to_end\": {}\n}}\n",
        micro
            .iter()
            .map(|(name, ab)| ab.to_json(name))
            .collect::<Vec<_>>()
            .join(",\n    "),
        hashes
            .iter()
            .map(BenchStats::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        tables
            .iter()
            .map(BenchStats::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        SEED_BASELINE_NS
            .iter()
            .map(|(name, ns)| format!("\"{name}\": {ns}"))
            .collect::<Vec<_>>()
            .join(",\n    "),
        e2e.to_json()
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr4.json");
    std::fs::write(&path, &json).expect("write BENCH_pr4.json");
    println!("wrote {}", path.display());

    if !e2e.identical {
        eprintln!("FAIL: study reports with and without a validation memo diverge");
        std::process::exit(1);
    }
}
