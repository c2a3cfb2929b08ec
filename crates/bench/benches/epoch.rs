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
//! The validation memo, the only process-global memo, is cleared before
//! each mode so neither arm inherits the other's warm cache. Results go
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

const SEED: u64 = 0xE90C;
const MIN_SPEEDUP: f64 = 3.0;

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

/// Runs all epochs in one mode, returning the engine plus the report
/// rendered after every epoch (for the per-epoch byte comparison). The
/// validation memo is cleared first, so the mode starts genuinely cold.
fn run_mode(config: &EpochConfig, incremental: bool) -> (Evolution, Vec<String>) {
    pinning_pki::validate::clear_validation_cache();
    let mut engine = Evolution::new(config.clone(), incremental);
    let mut reports = Vec::new();
    for _ in 0..engine.epochs_total() {
        engine.next_epoch().expect("epoch run");
        reports.push(engine.full_report());
    }
    (engine, reports)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke")
        || std::env::var("PINNING_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mode = if smoke { "smoke" } else { "full" };
    println!("epoch bench mode: {mode}");

    let config = epoch_config(smoke);
    let epochs_total = config.epochs + 1;

    let (cold, cold_reports) = run_mode(&config, false);
    println!(
        "cold: {} epochs, {} apps/epoch re-measured",
        epochs_total,
        cold.costs().first().map(|c| c.reanalyzed).unwrap_or(0)
    );
    let (incr, incr_reports) = run_mode(&config, true);

    let mut failures: Vec<String> = Vec::new();

    for (k, (c, i)) in cold_reports.iter().zip(&incr_reports).enumerate() {
        if c != i {
            failures.push(format!(
                "epoch {k}: incremental report is not byte-identical to the cold re-run"
            ));
        }
    }

    let replayed_total = incr.total_replayed();
    if replayed_total == 0 {
        failures.push("incremental run replayed zero apps — dirty tracking is inert".into());
    }

    // Speedup over the evolution epochs only: the baseline epoch does
    // identical work in both modes and would dilute the signal.
    let cold_evo_ms: u64 = cold.costs().iter().skip(1).map(|c| c.wall_ms).sum();
    let incr_evo_ms: u64 = incr.costs().iter().skip(1).map(|c| c.wall_ms).sum();
    let speedup = cold_evo_ms as f64 / incr_evo_ms.max(1) as f64;
    if speedup < MIN_SPEEDUP {
        failures.push(format!(
            "incremental speedup {speedup:.2}x < required {MIN_SPEEDUP}x \
             (cold {cold_evo_ms} ms vs incremental {incr_evo_ms} ms over evolution epochs)"
        ));
    }

    let per_epoch = incr
        .costs()
        .iter()
        .zip(cold.costs())
        .map(|(i, c)| {
            format!(
                "{{\"epoch\": {}, \"replayed\": {}, \"reanalyzed\": {}, \
                 \"cold_ms\": {}, \"incremental_ms\": {}}}",
                i.epoch, i.replayed, i.reanalyzed, c.wall_ms, i.wall_ms
            )
        })
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
            "  \"cold_evolution_ms\": {cold_ms},\n",
            "  \"incremental_evolution_ms\": {incr_ms},\n",
            "  \"speedup\": {speedup:.2},\n",
            "  \"min_speedup\": {min_speedup:.1}\n",
            "}}\n"
        ),
        mode = mode,
        seed = SEED,
        epochs = epochs_total,
        identical = cold_reports == incr_reports,
        replayed = replayed_total,
        per_epoch = per_epoch,
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
        "\"speedup\"",
    ] {
        if !back.contains(key) {
            failures.push(format!("BENCH_epoch.json missing {key}"));
        }
    }

    println!("{}", incr.cost_report());
    println!(
        "epoch bench: {} epochs, {} apps replayed, speedup {:.2}x \
         (cold {} ms vs incremental {} ms)",
        epochs_total, replayed_total, speedup, cold_evo_ms, incr_evo_ms
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("epoch bench OK");
}
