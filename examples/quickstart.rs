//! Quickstart: detect certificate pinning in one app, both ways.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Generates a miniature ecosystem, picks an app that pins, and shows the
//! two detection paths of the paper side by side: the static scan of its
//! package and the differential (MITM vs non-MITM) dynamic analysis.

use app_tls_pinning::analysis::dynamics::pipeline::{analyze_app, DynamicEnv};
use app_tls_pinning::analysis::statics;
use app_tls_pinning::store::config::WorldConfig;
use app_tls_pinning::store::world::World;

fn main() {
    println!("== app-tls-pinning quickstart ==\n");

    // 1. A small simulated ecosystem (stores, servers, PKI, apps).
    let world = World::generate(WorldConfig::tiny(0xC0FFEE));
    println!(
        "world: {} apps across two stores, {} reachable hostnames, {} CT-log entries\n",
        world.apps.len(),
        world.network.n_hostnames(),
        world.ctlog.len()
    );

    // 2. Pick an app that actually pins at run time (ground truth).
    let app = world
        .apps
        .iter()
        .find(|a| a.pins_at_runtime())
        .expect("the tiny world always contains pinning apps");
    println!(
        "app under test: {} ({}, {:?})",
        app.name, app.id, app.category
    );

    // 3. Static analysis: scan the package (decrypting first on iOS).
    let findings = statics::analyze_app(app, world.config.ios_encryption_seed);
    println!("\n-- static analysis (§4.1) --");
    println!("  embedded certificates: {}", findings.embedded_certs.len());
    for c in findings.embedded_certs.iter().take(3) {
        println!("    {} (CN={})", c.path, c.value.tbs.subject.common_name);
    }
    println!("  pin strings:           {}", findings.pin_strings.len());
    for p in findings.pin_strings.iter().take(3) {
        println!("    {} in {}", p.value.raw, p.path);
    }
    println!("  NSC declares pins:     {}", findings.nsc_declares_pins);

    // 4. Dynamic analysis: run on a device with and without interception.
    let env = DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        world.config.seed,
    );
    let result = analyze_app(&env, app);
    println!("\n-- dynamic analysis (§4.2) --");
    for v in &result.verdicts {
        let status = if v.pinned {
            "PINNED"
        } else if v.excluded.is_some() {
            "excluded"
        } else {
            "not pinned"
        };
        println!(
            "  {:<34} used-baseline={:<5} all-failed-mitm={:<5} → {status}",
            v.destination, v.used_baseline, v.all_failed_mitm
        );
    }

    // 5. Compare with ground truth.
    println!(
        "\nground-truth pinned domains: {:?}",
        app.runtime_pinned_domains()
    );
    println!(
        "detected pinned domains:     {:?}",
        result.pinned_destinations()
    );
}
