//! Shared fixtures for the benchmark harness.
//!
//! Every table/figure bench needs a completed study; running the pipeline
//! inside the timing loop would measure the pipeline, not the table. The
//! fixtures here run one **bench-scale** study (between tiny and paper
//! scale) exactly once per process and hand out references.
//!
//! The harness itself is a dependency-free [`time_bench`] loop (the
//! workspace builds fully offline, so criterion is out); each bench target
//! sets `harness = false` and drives it from a plain `main`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod load;

use pinning_core::{Study, StudyConfig, StudyResults};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::sync::OnceLock;

/// Bench-scale world configuration ([`WorldConfig::bench`]): large enough
/// that every table has non-trivial rows, small enough for criterion's
/// iteration counts.
pub fn bench_world_config(seed: u64) -> WorldConfig {
    WorldConfig::bench(seed)
}

/// Worker threads for the shared bench study: `PINNING_BENCH_THREADS` when
/// set to a positive integer, otherwise 1 (the deterministic default —
/// results are identical either way, only wall-clock changes).
pub fn bench_threads() -> usize {
    std::env::var("PINNING_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The shared study results (run once).
pub fn shared_results() -> &'static StudyResults {
    static RESULTS: OnceLock<StudyResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let mut config = StudyConfig::paper_scale(2022);
        config.world = bench_world_config(2022);
        config.threads = bench_threads();
        Study::new(config).run()
    })
}

/// A shared tiny world for pipeline micro-benches and ablations.
pub fn shared_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::tiny(2022)))
}

/// Summary statistics for one timed benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Benchmark name.
    pub name: String,
    /// Timed iterations (excluding the warm-up call).
    pub iters: u32,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// 95th-percentile nanoseconds per iteration.
    pub p95_ns: f64,
}

impl BenchStats {
    /// The stats as a JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"iters\":{},\"mean_ns\":{:.0},\"median_ns\":{:.0},\"p95_ns\":{:.0}}}",
            self.name, self.iters, self.mean_ns, self.median_ns, self.p95_ns
        )
    }
}

/// Times `f` per iteration (after one untimed warm-up call), prints a
/// one-line summary, and returns mean/median/p95 nanoseconds.
pub fn time_bench_stats(name: &str, iters: u32, mut f: impl FnMut()) -> BenchStats {
    f();
    let iters = iters.max(1);
    let mut samples: Vec<f64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = std::time::Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let mean_ns = samples.iter().sum::<f64>() / samples.len() as f64;
    let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    let stats = BenchStats {
        name: name.to_string(),
        iters,
        mean_ns,
        median_ns: pick(0.50),
        p95_ns: pick(0.95),
    };
    println!(
        "bench {name:<42} {iters:>6} iters   mean {mean_ns:>12.0}   median {:>12.0}   p95 {:>12.0} ns/iter",
        stats.median_ns, stats.p95_ns
    );
    stats
}

/// Times `f` over `iters` iterations (after one untimed warm-up call) and
/// prints a one-line summary. Returns the mean nanoseconds per iteration.
pub fn time_bench(name: &str, iters: u32, f: impl FnMut()) -> f64 {
    time_bench_stats(name, iters, f).mean_ns
}

/// Prints a regenerated artifact once per bench target (the timing loop runs
/// the closure many times; the table itself should print once).
pub fn print_once(tag: &str, render: impl FnOnce() -> String) {
    use std::collections::HashSet;
    use std::sync::Mutex;
    static PRINTED: Mutex<Option<HashSet<String>>> = Mutex::new(None);
    let mut guard = PRINTED.lock().expect("print-once lock");
    let set = guard.get_or_insert_with(HashSet::new);
    if set.insert(tag.to_string()) {
        println!("\n===== regenerated: {tag} =====\n{}", render());
    }
}
