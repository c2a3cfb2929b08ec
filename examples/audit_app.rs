//! Single-app pinning audit — the `objection`/Frida-script workflow as one
//! command.
//!
//! ```sh
//! cargo run --example audit_app -- [seed] [store-rank] [android|ios]
//! ```
//!
//! Audits the app at the given store rank: static artifacts, NSC
//! configuration, per-destination dynamic verdicts, circumvention attempt,
//! and a tcpdump-style transcript of the pinned connections.

use app_tls_pinning::analysis::circumvent::circumvent_app;
use app_tls_pinning::analysis::dynamics::pipeline::{analyze_app, DynamicEnv};
use app_tls_pinning::analysis::statics;
use app_tls_pinning::app::platform::Platform;
use app_tls_pinning::store::config::WorldConfig;
use app_tls_pinning::store::world::World;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0xA0D17);
    let rank: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let platform = match args.get(3).map(String::as_str) {
        Some("ios") => Platform::Ios,
        _ => Platform::Android,
    };

    let world = World::generate(WorldConfig::tiny(seed));
    let Some(app) = world.app_at_rank(platform, rank) else {
        eprintln!("no app at rank {rank} on {platform}");
        std::process::exit(1);
    };

    println!("=== audit: {} ===", app.id);
    println!(
        "name: {} | developer: {} | category: {:?} | rank: #{}",
        app.name, app.developer_org, app.category, app.popularity_rank
    );
    println!("bundled SDKs: {:?}", app.sdk_names);
    println!(
        "package: {} files, {} bytes, encrypted={}",
        app.package.files.len(),
        app.package.total_size(),
        app.package.encrypted
    );

    // --- static pass ---
    let findings = statics::analyze_app(app, world.config.ios_encryption_seed);
    println!("\n[static] certificate material");
    if findings.embedded_certs.is_empty() && findings.pin_strings.is_empty() {
        println!("  (none found)");
    }
    for c in &findings.embedded_certs {
        println!(
            "  cert  {}  CN={}  ca={}",
            c.path, c.value.tbs.subject.common_name, c.value.tbs.is_ca
        );
    }
    for p in &findings.pin_strings {
        let ok = if p.value.parsed.is_some() {
            "valid"
        } else {
            "unparseable"
        };
        println!("  pin   {}  {}  ({ok})", p.path, p.value.raw);
    }
    println!(
        "  NSC: present={} declares-pins={} effective={}",
        findings.has_nsc, findings.nsc_declares_pins, findings.nsc_pins_effectively
    );

    // --- dynamic pass ---
    let env = DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        seed,
    );
    let result = analyze_app(&env, app);
    println!("\n[dynamic] per-destination verdicts (30s window, differential)");
    for v in &result.verdicts {
        println!(
            "  {:<36} {}",
            v.destination,
            if v.pinned {
                "PINNED".to_string()
            } else {
                format!("{:?}", v.excluded)
            }
        );
    }

    let pinned = result.pinned_destinations();
    if pinned.is_empty() {
        println!("\nverdict: app does not pin (dynamically).");
        return;
    }

    // --- transcripts of the pinned failures ---
    println!("\n[capture] MITM-run transcripts for pinned destinations");
    for flow in &result.mitm.flows {
        if flow
            .transcript
            .sni
            .as_deref()
            .is_some_and(|s| pinned.contains(&s))
        {
            print!("{}", flow.transcript.dump());
        }
    }

    // --- circumvention ---
    println!("[frida] attempting to disable pinning…");
    let circ = circumvent_app(&env, app, &pinned);
    for d in &circ.destinations {
        if d.succeeded {
            println!("  {} → OPENED; first request body:", d.destination);
            if let Some(body) = d.plaintexts.first() {
                println!("    {body}");
            }
        } else {
            println!("  {} → resisted (custom TLS stack?)", d.destination);
        }
    }
    println!(
        "\nverdict: app pins {} destination(s); circumvented {}/{}.",
        pinned.len(),
        circ.succeeded(),
        circ.attempted()
    );
}
