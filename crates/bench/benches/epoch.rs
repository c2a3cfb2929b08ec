//! Longitudinal incremental-re-study bench and the `BENCH_epoch.json`
//! artifact.
//!
//! Runs the same seeded [`pinning_epoch::EpochPlan`] twice — once cold
//! (every epoch re-measures every app) and once incremental (clean apps
//! replay their journaled verdict) — and gates on the engine's contract:
//!
//! - after every epoch, the incremental run's full report is
//!   **byte-identical** to the cold run's;
//! - the incremental run replays a nonzero number of clean apps;
//! - across the evolution epochs (the baseline is identical work in both
//!   modes) the incremental run is at least [`MIN_SPEEDUP`]× faster in
//!   wall clock.
//!
//! The speedup is measured over [`PAIRS`] pairs of whole-mode runs. Each
//! pair runs both modes back to back, alternating which goes first, and
//! times every `next_epoch` in nanoseconds; the gate reads the median of
//! the per-pair ratios, so one noisy run or a warm-up advantage for the
//! mode that runs second cannot decide it. The byte-identity and
//! nonzero-replay checks apply to every pair.
//!
//! Each mode's `Evolution` owns a fresh validation memo, so neither arm
//! inherits the other's warm cache. Results go
//! to `BENCH_epoch.json` at the workspace root, which is re-read and
//! structurally checked before the bench reports success.
//!
//! ```sh
//! cargo bench -p pinning-bench --bench epoch --offline            # full
//! cargo bench -p pinning-bench --bench epoch --offline -- smoke   # CI gate
//! ```

use pinning_epoch::{EpochConfig, Evolution};
use pinning_store::config::WorldConfig;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 0xE90C;
const MIN_SPEEDUP: f64 = 3.0;
/// Pairs of whole-mode runs the speedup gate takes its median over.
const PAIRS: usize = 9;

fn epoch_config(smoke: bool) -> EpochConfig {
    if smoke {
        // 3 evolution epochs over a small-but-not-tiny store: big enough
        // that per-app measurement (not fingerprinting/rendering
        // overhead) dominates the wall clock, so the speedup gate is
        // meaningful even in CI.
        EpochConfig {
            world: WorldConfig {
                store_size: 150,
                n_cross_products: 30,
                common_size: 20,
                popular_size: 40,
                random_size: 40,
                ..WorldConfig::paper_scale(SEED)
            },
            epochs: 3,
            seed: SEED ^ 0xE70C,
            days_per_epoch: 14,
            app_events_per_epoch: 4,
            threads: pinning_bench::bench_threads(),
        }
    } else {
        // 5 evolution epochs over a mid-size store: large enough that
        // per-app measurement dominates and the dirty fraction is small,
        // small enough to finish in CI-adjacent time.
        EpochConfig {
            world: WorldConfig {
                store_size: 400,
                n_cross_products: 60,
                common_size: 40,
                popular_size: 80,
                random_size: 80,
                ..WorldConfig::paper_scale(SEED)
            },
            epochs: 5,
            seed: SEED ^ 0xE70C,
            days_per_epoch: 14,
            app_events_per_epoch: 6,
            threads: pinning_bench::bench_threads(),
        }
    }
}

/// One mode's run over every epoch.
struct ModeRun {
    engine: Evolution,
    /// `full_report()` after every epoch, for the per-epoch byte check.
    reports: Vec<String>,
    /// Wall clock of the evolution epochs' `next_epoch` calls, summed.
    evolution_ns: u128,
}

/// Runs all epochs in one mode. The engine's validation memo is new, so
/// the mode starts genuinely cold.
fn run_mode(config: &EpochConfig, incremental: bool) -> ModeRun {
    let mut engine = Evolution::new(config.clone(), incremental);
    let mut reports = Vec::new();
    let mut evolution_ns = 0;
    for k in 0..engine.epochs_total() {
        let started = Instant::now();
        engine.next_epoch().expect("epoch run");
        // The baseline epoch does identical work in both modes and would
        // dilute the signal.
        if k > 0 {
            evolution_ns += started.elapsed().as_nanos();
        }
        reports.push(engine.full_report());
    }
    ModeRun {
        engine,
        reports,
        evolution_ns,
    }
}

/// The middle value ([`PAIRS`] is odd).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke")
        || std::env::var("PINNING_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mode = if smoke { "smoke" } else { "full" };
    println!("epoch bench mode: {mode}");

    let config = epoch_config(smoke);
    let epochs_total = config.epochs + 1;

    let mut failures: Vec<String> = Vec::new();
    let mut identical = true;
    let mut speedups = Vec::new();
    let (mut cold_ms, mut incr_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for pair in 0..PAIRS {
        let cold_first = pair % 2 == 0;
        let (cold, incr) = if cold_first {
            let cold = run_mode(&config, false);
            (cold, run_mode(&config, true))
        } else {
            let incr = run_mode(&config, true);
            (run_mode(&config, false), incr)
        };
        for (k, (c, i)) in cold.reports.iter().zip(&incr.reports).enumerate() {
            if c != i {
                identical = false;
                failures.push(format!(
                    "pair {pair}, epoch {k}: incremental report is not byte-identical \
                     to the cold re-run"
                ));
            }
        }
        if incr.engine.total_replayed() == 0 {
            failures.push(format!(
                "pair {pair}: incremental run replayed zero apps — dirty tracking is inert"
            ));
        }
        let speedup = cold.evolution_ns as f64 / incr.evolution_ns.max(1) as f64;
        println!(
            "pair {pair} ({} first): cold {:.1} ms, incremental {:.1} ms, speedup {speedup:.2}x",
            if cold_first { "cold" } else { "incremental" },
            cold.evolution_ns as f64 / 1e6,
            incr.evolution_ns as f64 / 1e6,
        );
        speedups.push(speedup);
        cold_ms.push(cold.evolution_ns as f64 / 1e6);
        incr_ms.push(incr.evolution_ns as f64 / 1e6);
        last = Some((cold, incr));
    }
    let (cold, incr) = last.expect("at least one pair");
    println!(
        "cold: {} epochs, {} apps/epoch re-measured",
        epochs_total,
        cold.engine
            .costs()
            .first()
            .map(|c| c.reanalyzed)
            .unwrap_or(0)
    );

    let replayed_total = incr.engine.total_replayed();
    let speedup = median(&speedups);
    let (cold_evo_ms, incr_evo_ms) = (median(&cold_ms), median(&incr_ms));
    if speedup < MIN_SPEEDUP {
        failures.push(format!(
            "median incremental speedup {speedup:.2}x < required {MIN_SPEEDUP}x \
             over {PAIRS} pairs {speedups:.2?}"
        ));
    }

    let per_epoch = incr
        .engine
        .costs()
        .iter()
        .zip(cold.engine.costs())
        .map(|(i, c)| {
            format!(
                "{{\"epoch\": {}, \"replayed\": {}, \"reanalyzed\": {}, \
                 \"cold_ms\": {}, \"incremental_ms\": {}}}",
                i.epoch, i.replayed, i.reanalyzed, c.wall_ms, i.wall_ms
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let pair_speedups = speedups
        .iter()
        .map(|s| format!("{s:.2}"))
        .collect::<Vec<_>>()
        .join(", ");

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"pinning-bench/epoch\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seed\": {seed},\n",
            "  \"epochs\": {epochs},\n",
            "  \"byte_identical\": {identical},\n",
            "  \"replayed_total\": {replayed},\n",
            "  \"per_epoch\": [{per_epoch}],\n",
            "  \"pairs\": {pairs},\n",
            "  \"pair_speedups\": [{pair_speedups}],\n",
            "  \"cold_evolution_ms\": {cold_ms:.1},\n",
            "  \"incremental_evolution_ms\": {incr_ms:.1},\n",
            "  \"speedup\": {speedup:.2},\n",
            "  \"min_speedup\": {min_speedup:.1}\n",
            "}}\n"
        ),
        mode = mode,
        seed = SEED,
        epochs = epochs_total,
        identical = identical,
        replayed = replayed_total,
        per_epoch = per_epoch,
        pairs = PAIRS,
        pair_speedups = pair_speedups,
        cold_ms = cold_evo_ms,
        incr_ms = incr_evo_ms,
        speedup = speedup,
        min_speedup = MIN_SPEEDUP,
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_epoch.json");
    std::fs::write(&path, &json).expect("write BENCH_epoch.json");
    println!("wrote {}", path.display());

    // Parseability gate: re-read the artifact and check its structure.
    let back = std::fs::read_to_string(&path).expect("re-read BENCH_epoch.json");
    if back.matches('{').count() != back.matches('}').count()
        || back.matches('[').count() != back.matches(']').count()
    {
        failures.push("BENCH_epoch.json has unbalanced braces/brackets".into());
    }
    for key in [
        "\"schema\"",
        "\"byte_identical\"",
        "\"replayed_total\"",
        "\"per_epoch\"",
        "\"pair_speedups\"",
        "\"speedup\"",
    ] {
        if !back.contains(key) {
            failures.push(format!("BENCH_epoch.json missing {key}"));
        }
    }

    println!("{}", incr.engine.cost_report());
    println!(
        "epoch bench: {epochs_total} epochs, {replayed_total} apps replayed, median speedup \
         {speedup:.2}x over {PAIRS} pairs (median cold {cold_evo_ms:.1} ms vs incremental \
         {incr_evo_ms:.1} ms over evolution epochs)"
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("epoch bench OK");
}
