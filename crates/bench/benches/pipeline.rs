//! Pipeline micro-benchmarks: the hot paths of the methodology.

use pinning_analysis::dynamics::pipeline::{analyze_app, DynamicEnv};
use pinning_analysis::statics::{analyze_package, scanner};
use pinning_app::platform::Platform;
use pinning_bench::{shared_world, time_bench};
use pinning_crypto::sha256;
use pinning_netsim::device::RunConfig;
use pinning_pki::validate::{validate_chain, RevocationList, ValidationMemo, ValidationOptions};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use pinning_tls::{establish, ClientConfig, ServerEndpoint, TlsLibrary};
use std::hint::black_box;

fn main() {
    let world = shared_world();
    const ITERS: u32 = 10;

    // --- crypto floor ---
    let blob = vec![0xabu8; 64 * 1024];
    time_bench("crypto/sha256_64k", 100, || {
        black_box(sha256(&blob));
    });

    // --- pin scanner throughput ---
    let hay = {
        let mut s = "x".repeat(200_000);
        s.push_str("sha256/");
        s.push_str(&"A".repeat(44));
        s
    };
    time_bench("scanner/scan_pins_200k", 100, || {
        black_box(scanner::scan_pins(&hay));
    });

    // --- chain validation ---
    let server = world
        .network
        .resolve("api.twitter.com")
        .expect("infra server");
    time_bench("validate_chain", 100, || {
        black_box(validate_chain(
            server.chain.certs(),
            &world.universe.mozilla,
            "api.twitter.com",
            world.now,
            &RevocationList::empty(),
            &ValidationOptions::default(),
        ))
        .ok();
    });

    // --- one TLS handshake ---
    let client = ClientConfig::modern(TlsLibrary::OkHttp);
    let endpoint = ServerEndpoint::modern(&server.chain);
    let memo = ValidationMemo::default();
    time_bench("tls_handshake", 100, || {
        black_box(establish(
            &client,
            &endpoint,
            "api.twitter.com",
            world.now,
            &world.universe.aosp_oem,
            &world.network.crl,
            Some(&memo),
        ));
    });

    // --- static scan of one package ---
    let app = world
        .apps
        .iter()
        .find(|a| a.id.platform == Platform::Android && a.has_static_pin_artifacts())
        .expect("android app with artifacts");
    time_bench("static_scan_android_package", ITERS, || {
        black_box(analyze_package(&app.package, None));
    });
    let ios_app = world
        .apps
        .iter()
        .find(|a| a.id.platform == Platform::Ios)
        .expect("ios app");
    time_bench("static_scan_ios_encrypted", ITERS, || {
        black_box(analyze_package(
            &ios_app.package,
            Some(world.config.ios_encryption_seed),
        ));
    });

    // --- one device run + full differential analysis ---
    let env = DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        3,
    );
    let device = env.device(Platform::Android);
    time_bench("device_run_baseline", ITERS, || {
        black_box(device.run_app(app, &RunConfig::baseline()));
    });
    time_bench("differential_analysis_one_app", ITERS, || {
        black_box(analyze_app(&env, app));
    });

    // --- world generation (tiny) ---
    time_bench("world_generate_tiny", ITERS, || {
        black_box(World::generate(WorldConfig::tiny(9)));
    });
}
