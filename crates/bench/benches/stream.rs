//! Streaming-engine bench and the `BENCH_stream.json` artifact.
//!
//! Four gates, then a throughput headline:
//!
//! - **Byte identity** — the streamed report renders the same bytes at
//!   every (shard size × thread count) schedule tried (the tentpole
//!   invariant of the streaming refactor);
//! - **Kill-and-resume identity** — a run killed mid-study and resumed
//!   under a *different* schedule renders the same bytes as an
//!   uninterrupted run;
//! - **Scrub overhead** — the self-healing journal reader costs ≤2%
//!   over the strict direct read path on a clean shard journal shaped
//!   like the headline run's;
//! - **Flat memory** — the big run's peak RSS (VmHWM) stays under a
//!   configured ceiling that does not scale with the app count.
//!
//! The headline run streams a large world (1,000,000 apps in full mode)
//! shard by shard and reports measured apps/sec. Results go to
//! `BENCH_stream.json` at the workspace root.
//!
//! ```sh
//! cargo bench -p pinning-bench --bench stream --offline            # full (1M apps)
//! cargo bench -p pinning-bench --bench stream --offline -- smoke   # CI gate
//! ```
//!
//! Env overrides: `PINNING_STREAM_APPS` (headline app count),
//! `PINNING_STREAM_CEILING_KIB` (RSS ceiling), `PINNING_BENCH_THREADS`.

use pinning_core::stream::{peak_rss_kib, StreamOutcome};
use pinning_core::{StreamConfig, StreamEngine, StreamResults};
use pinning_resilience::{append_frame, read_frames_strict, scrub_frames};
use pinning_store::config::WorldConfig;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 0x57E3;

/// A streamed world sized to roughly `apps` apps (one per platform per
/// product, cross products carrying both). Dataset expectations stay at
/// paper scale — prevalence percentages, not dataset sizes, are what the
/// streamed report cares about.
fn world_for(apps: usize) -> WorldConfig {
    let store_size = (apps / 2).max(30);
    WorldConfig {
        store_size,
        n_cross_products: (store_size / 12).max(8),
        ..WorldConfig::paper_scale(SEED)
    }
}

fn run(config: StreamConfig) -> StreamResults {
    match StreamEngine::new(config).run() {
        StreamOutcome::Completed(results) => *results,
        StreamOutcome::Interrupted { .. } => panic!("run interrupted without a kill hook"),
    }
}

fn config(world: &WorldConfig, shard_size: usize, threads: usize) -> StreamConfig {
    StreamConfig {
        world: world.clone(),
        shard_size,
        threads,
        max_inflight_shards: 2,
        kill_after_shards: None,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke")
        || std::env::var("PINNING_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mode = if smoke { "smoke" } else { "full" };
    println!("stream bench mode: {mode}");

    let mut failures: Vec<String> = Vec::new();

    // --- Gate 1: byte identity across schedules. ---
    let identity_world = world_for(if smoke { 160 } else { 800 });
    let baseline = run(config(&identity_world, 11, 1));
    let baseline_report = baseline.render_report();
    let schedules = [(11usize, 4usize), (37, 1), (37, 3)];
    let mut byte_identical = true;
    for (shard_size, threads) in schedules {
        let report = run(config(&identity_world, shard_size, threads)).render_report();
        if report != baseline_report {
            byte_identical = false;
            failures.push(format!(
                "report diverged at shard_size={shard_size} threads={threads}"
            ));
        }
    }
    println!(
        "identity: {} schedules byte-identical over {} apps",
        schedules.len() + 1,
        baseline.accum.apps
    );

    // --- Gate 2: kill-and-resume under a different schedule. ---
    let mut killed_cfg = config(&identity_world, 11, 2);
    killed_cfg.kill_after_shards = Some(3);
    let resume_identical = match StreamEngine::new(killed_cfg).run() {
        StreamOutcome::Interrupted { journal, .. } => {
            let resumed = StreamEngine::new(config(&identity_world, 11, 3))
                .resume(journal.as_bytes())
                .expect("journal resumes");
            match resumed {
                StreamOutcome::Completed(results) => results.render_report() == baseline_report,
                StreamOutcome::Interrupted { .. } => false,
            }
        }
        StreamOutcome::Completed(_) => false,
    };
    if !resume_identical {
        failures.push("kill-and-resume did not reproduce the uninterrupted report".into());
    }

    // --- Gate 3: scrubbing a clean journal costs ≤2% over the strict
    // direct read. The journal is shaped like the 1M-app headline run's
    // shard journal: one ~4 KiB accumulator frame per 500-app shard
    // (2,000 frames in full mode). Each round times one read by each
    // reader, rounds alternate which goes first, and the overhead is the
    // median of the per-round ratios: the two reads of a round run back
    // to back, so drift between rounds cancels instead of landing on one
    // reader's median. ---
    let scrub_frames_n: usize = if smoke { 256 } else { 2_000 };
    let mut clean_image = Vec::new();
    let mut payload = vec![0u8; 4096];
    for i in 0..scrub_frames_n {
        // Vary every payload so no two consecutive frames are identical
        // (consecutive duplicates are a fault signature the scrubber
        // repairs by dropping).
        payload[i % 4096] = payload[i % 4096].wrapping_add(1 + (i % 7) as u8);
        append_frame(&mut clean_image, &payload);
    }
    let strict = read_frames_strict(&clean_image, 0);
    let scrubbed = scrub_frames(&clean_image, 0);
    assert_eq!(strict.frames.len(), scrub_frames_n);
    assert_eq!(
        strict.frames, scrubbed.frames,
        "readers must agree on clean input"
    );
    assert!(scrubbed.stats.is_clean(), "clean journal must scrub clean");
    let timing_rounds = if smoke { 125 } else { 31 };
    let time_strict = || {
        let t = Instant::now();
        std::hint::black_box(read_frames_strict(&clean_image, 0));
        t.elapsed().as_secs_f64()
    };
    let time_scrub = || {
        let t = Instant::now();
        std::hint::black_box(scrub_frames(&clean_image, 0));
        t.elapsed().as_secs_f64()
    };
    let mut strict_times = Vec::with_capacity(timing_rounds);
    let mut scrub_times = Vec::with_capacity(timing_rounds);
    for round in 0..timing_rounds {
        if round % 2 == 0 {
            strict_times.push(time_strict());
            scrub_times.push(time_scrub());
        } else {
            scrub_times.push(time_scrub());
            strict_times.push(time_strict());
        }
    }
    let mut ratios: Vec<f64> = scrub_times
        .iter()
        .zip(&strict_times)
        .map(|(scrub, strict)| scrub / strict)
        .collect();
    let median = |times: &mut Vec<f64>| -> f64 {
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        times[times.len() / 2]
    };
    let scrub_overhead_pct = (median(&mut ratios) - 1.0) * 100.0;
    let strict_median = median(&mut strict_times);
    let scrub_median = median(&mut scrub_times);
    let scrub_within_bound = scrub_overhead_pct <= 2.0;
    if !scrub_within_bound {
        failures.push(format!(
            "scrub overhead {scrub_overhead_pct:.2}% exceeds the 2% bound \
             (strict {strict_median:.6}s, scrub {scrub_median:.6}s)"
        ));
    }
    println!(
        "scrub overhead: {scrub_overhead_pct:.2}% over {scrub_frames_n} clean frames \
         (strict {:.3}ms, scrub {:.3}ms)",
        strict_median * 1e3,
        scrub_median * 1e3
    );

    // --- Headline: the big streamed run under a flat-memory ceiling. ---
    let headline_apps: usize = std::env::var("PINNING_STREAM_APPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2_000 } else { 1_000_000 });
    let ceiling_kib: u64 = std::env::var("PINNING_STREAM_CEILING_KIB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6 * 1024 * 1024); // 6 GiB — independent of app count
    let rss_before = peak_rss_kib();

    let big_world = world_for(headline_apps);
    let big = run(StreamConfig {
        world: big_world,
        shard_size: 500,
        threads: pinning_bench::bench_threads(),
        max_inflight_shards: 2,
        kill_after_shards: None,
    });
    let apps_per_sec = big.health.apps_per_sec.unwrap_or(0.0);
    let peak = big.health.peak_rss_kib;
    let rss_within_ceiling = peak.is_none_or(|k| k <= ceiling_kib);
    if !rss_within_ceiling {
        failures.push(format!(
            "peak RSS {} KiB exceeded the {} KiB flat-memory ceiling",
            peak.unwrap_or(0),
            ceiling_kib
        ));
    }
    println!(
        "headline: {} apps in {:.1}s ({:.0} apps/sec), peak RSS {} KiB (before: {} KiB)",
        big.health.apps_measured,
        big.health.elapsed_secs,
        apps_per_sec,
        peak.map_or_else(|| "?".into(), |k| k.to_string()),
        rss_before.map_or_else(|| "?".into(), |k| k.to_string()),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"pinning-bench/stream\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seed\": {seed},\n",
            "  \"byte_identical\": {identical},\n",
            "  \"resume_identical\": {resume},\n",
            "  \"scrub_overhead_pct\": {scrub:.2},\n",
            "  \"scrub_within_bound\": {scrub_ok},\n",
            "  \"apps\": {apps},\n",
            "  \"shards\": {shards},\n",
            "  \"threads\": {threads},\n",
            "  \"elapsed_secs\": {elapsed:.2},\n",
            "  \"apps_per_sec\": {aps:.1},\n",
            "  \"peak_rss_kib\": {peak},\n",
            "  \"ceiling_kib\": {ceiling},\n",
            "  \"rss_within_ceiling\": {within}\n",
            "}}\n"
        ),
        mode = mode,
        seed = SEED,
        identical = byte_identical,
        resume = resume_identical,
        scrub = scrub_overhead_pct,
        scrub_ok = scrub_within_bound,
        apps = big.health.apps_measured,
        shards = big.health.shards_total,
        threads = pinning_bench::bench_threads(),
        elapsed = big.health.elapsed_secs,
        aps = apps_per_sec,
        peak = peak.map_or_else(|| "null".into(), |k| k.to_string()),
        ceiling = ceiling_kib,
        within = rss_within_ceiling,
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_stream.json");
    std::fs::write(&path, &json).expect("write BENCH_stream.json");
    println!("wrote {}", path.display());

    let back = std::fs::read_to_string(&path).expect("re-read BENCH_stream.json");
    if back.matches('{').count() != back.matches('}').count() {
        failures.push("BENCH_stream.json has unbalanced braces".into());
    }
    for key in [
        "\"schema\"",
        "\"byte_identical\"",
        "\"resume_identical\"",
        "\"scrub_overhead_pct\"",
        "\"scrub_within_bound\"",
        "\"apps_per_sec\"",
        "\"peak_rss_kib\"",
        "\"rss_within_ceiling\"",
    ] {
        if !back.contains(key) {
            failures.push(format!("BENCH_stream.json missing {key}"));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("stream bench OK");
}
