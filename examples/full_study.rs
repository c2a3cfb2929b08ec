//! The full study: regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release --example full_study              # paper scale
//! cargo run --example full_study -- tiny                # smoke scale
//! cargo run --release --example full_study -- paper 42  # custom seed
//! cargo run --example full_study -- chaos 7             # fault injection on
//! ```
//!
//! Paper scale generates two 10,000-app stores, draws the six datasets
//! (Common 575×2, Popular 1,000×2, Random 1,000×2), runs the complete
//! static + dynamic + circumvention pipeline on every unique app, and
//! prints Tables 1–9 and Figures 1–5 as measured. Stage wall times (world
//! generation, measurement, `render_all`) go to stderr.

use app_tls_pinning::core::{Study, StudyConfig, StudyOutcome};
use app_tls_pinning::netsim::faults::FaultConfig;
use app_tls_pinning::store::world::World;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args.get(1).map(String::as_str).unwrap_or("paper");
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2022);

    let config = match scale {
        "tiny" => StudyConfig::tiny(seed),
        "paper" => StudyConfig::paper_scale(seed),
        // Tiny world under the chaos fault schedule: exercises retries,
        // Unobserved exclusions, and the degraded-apps table end to end.
        "chaos" => {
            let mut cfg = StudyConfig::tiny(seed);
            cfg.faults = FaultConfig::chaos();
            cfg
        }
        other => {
            eprintln!("unknown scale {other:?}; use `tiny`, `paper`, or `chaos`");
            std::process::exit(2);
        }
    };

    eprintln!(
        "running {scale}-scale study (seed {seed}, {} threads)…",
        config.threads
    );
    // Stage wall times go to stderr with the rest of the telemetry, so
    // stdout stays exactly the paper's tables and figures.
    let t0 = Instant::now();
    let world = World::generate(config.world.clone());
    let generated = t0.elapsed();
    eprintln!("world generated in {generated:.1?}");

    let t1 = Instant::now();
    let outcome = Study::new(config.clone())
        .run_on_world(world, config.journal(), config.fingerprint())
        .expect("a fresh journal matches its own config");
    let StudyOutcome::Completed(results) = outcome else {
        unreachable!("no kill is configured");
    };
    let measured = t1.elapsed();
    eprintln!(
        "measurement finished in {:.1?}: {} unique apps analyzed ({:.1} apps/sec)",
        measured,
        results.records.len(),
        results.records.len() as f64 / measured.as_secs_f64().max(1e-9)
    );

    let t2 = Instant::now();
    let report = results.render_all();
    let rendered = t2.elapsed();
    eprintln!(
        "render_all finished in {rendered:.1?}; total {:.1?}\n",
        t0.elapsed()
    );

    println!("{report}");
    eprintln!("{}", results.render_run_health());

    // Freeing the results would walk every certificate, server, log entry
    // and app of the world one allocation at a time, most of it in the
    // PKI universe and the CT logs: a visible share of a paper-scale run
    // (EXPERIMENTS.md, "Per-connection work off the dynamic path"). The
    // process is about to exit and the OS reclaims the memory at once,
    // so flush what was printed and skip the walk.
    std::io::Write::flush(&mut std::io::stdout()).expect("stdout flushes");
    std::mem::forget(results);
}
