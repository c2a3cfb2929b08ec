//! `stream`: `StreamEngine` over a streamed world, shard size 500, one
//! thread — the million-app path, scaled down.
//!
//! Statics and PII run uncached here and the validation memo is cleared
//! per shard, so per-app analysis cost shows undiluted and memo changes
//! should leave this workload unchanged.

use crate::out::{self, digest, median, CacheMark, Outcome, Rounds};
use crate::trace::Tracer;
use crate::{secs, until, Run};
use pinning_analysis::circumvent::circumvent_app;
use pinning_analysis::dynamics::pipeline::{try_analyze_app, DynamicEnv};
use pinning_analysis::statics::analyze_package;
use pinning_app::app::MobileApp;
use pinning_app::platform::Platform;
use pinning_core::stream::StreamJournal;
use pinning_core::{AppRecord, StreamAccum, StreamConfig, StreamEngine, StreamOutcome};
use pinning_netsim::faults::MeasurementError;
use pinning_pki::validate::clear_validation_cache;
use pinning_store::config::WorldConfig;
use pinning_store::shard::StreamWorld;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const SHARD_SIZE: usize = 500;
/// Warm-up runs per untraced run; `setup_s` is their median.
const WARM_UPS: usize = 3;
/// Apps per timed round (about 2 per product, so four shards).
const APPS: usize = 4_000;

/// A streamed world of about `apps` apps, prevalence at paper scale.
fn world(seed: u64, apps: usize) -> WorldConfig {
    let store_size = (apps / 2).max(30);
    WorldConfig {
        store_size,
        n_cross_products: (store_size / 12).max(8),
        ..WorldConfig::paper_scale(seed)
    }
}

fn config(run: &Run) -> StreamConfig {
    if run.small {
        StreamConfig::new(world(run.seed, 120), 25)
    } else {
        StreamConfig::new(world(run.seed, APPS), SHARD_SIZE)
    }
}

/// One engine round: the streamed report, apps measured, degraded apps.
fn engine_round(config: &StreamConfig) -> (String, u64, u64) {
    let StreamOutcome::Completed(results) = StreamEngine::new(config.clone()).run() else {
        unreachable!("no kill hook is set");
    };
    let degraded = results.accum.errors.values().sum();
    (results.render_report(), results.accum.apps, degraded)
}

pub fn run(run: &Run) -> Outcome {
    let config = config(run);
    let mut out = Outcome::default();

    if !run.trace {
        // Set-up: untimed warm-up rounds over a one-shard world, the
        // engine's whole start-up path (universe, shard, environment).
        let warm = StreamConfig::new(world(run.seed, 2 * config.shard_size), config.shard_size);
        let setups: Vec<f64> = (0..WARM_UPS)
            .map(|_| {
                let t = Instant::now();
                engine_round(&warm);
                secs(t)
            })
            .collect();

        let mut rates = Vec::new();
        let mut digests = Vec::new();
        until(run.seconds, || {
            let t = Instant::now();
            let (report, apps, degraded) = engine_round(&config);
            let dt = secs(t);
            rates.push(apps as f64 / dt);
            digests.push(digest(report.as_bytes()));
            out.attempted += apps;
            out.failed += degraded;
            dt
        });
        out::check_digests(&mut out, "streamed report", &digests);
        out.set("setup_s", median(&setups));
        out.set("items_per_s", median(&rates));
        out.set("peak_rss_mib", out::peak_rss_mib());
        return out;
    }

    // Traced: untraced engine rounds alternate with traced replica
    // rounds; every replica report must equal the engine's byte for byte.
    let mut rounds = Rounds::default();
    let mut engine_times = Vec::new();
    let mut replica_times = Vec::new();
    let mut digests = Vec::new();
    until(run.seconds, || {
        let t = Instant::now();
        let (report, _, _) = engine_round(&config);
        engine_times.push(secs(t));
        digests.push(digest(report.as_bytes()));

        let mut tracer = Tracer::default();
        let mark = CacheMark::now();
        let t = Instant::now();
        let (report, counts) = replica(&config, &mut tracer);
        let dt = secs(t);
        replica_times.push(dt);
        digests.push(digest(report.as_bytes()));
        rounds.extend(mark.delta());
        rounds.spans(&tracer);
        rounds.extend(counts.pairs());
        out.attempted += counts.apps;
        out.failed += counts.degraded;
        dt + engine_times.last().expect("engine round ran")
    });
    out::check_digests(&mut out, "streamed report (engine vs replica)", &digests);
    rounds.finish(&mut out, true);
    out::set_overhead(&mut out, &replica_times, &engine_times);
    out
}

/// What one replica round counted.
#[derive(Default)]
struct Counts {
    shards: u64,
    apps: u64,
    degraded: u64,
    handshakes: u64,
    settled_reruns: u64,
    packages: u64,
    circumvented: u64,
    bodies: u64,
    journal_bytes: u64,
}

impl Counts {
    fn pairs(&self) -> Vec<(String, f64)> {
        [
            ("store.shard.shards", self.shards),
            ("analysis.dynamics.apps", self.apps),
            ("analysis.dynamics.handshakes", self.handshakes),
            ("analysis.dynamics.settled_reruns", self.settled_reruns),
            ("analysis.statics.packages", self.packages),
            ("analysis.circumvent.apps", self.circumvented),
            ("core.accum.bodies_scanned", self.bodies),
            ("core.stream.journal.bytes", self.journal_bytes),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v as f64))
        .collect()
    }
}

/// `StreamEngine::run` at one thread, call for call, with a span around
/// each layer call. Returns the streamed report.
fn replica(config: &StreamConfig, t: &mut Tracer) -> (String, Counts) {
    let mut c = Counts::default();
    let world = t.span("store.shard", || {
        StreamWorld::new(config.world.clone(), config.shard_size.max(1))
    });
    let universe = world.universe();
    let decrypt_key = config.world.ios_encryption_seed;
    let seed = config.world.seed;
    let mut journal = StreamJournal::create(config.fingerprint());
    let mut partial = StreamAccum::default();

    for k in 0..world.n_shards() {
        let s = t.enter("store.shard");
        let shard = world.generate_shard(k);
        let env = DynamicEnv::new(
            &shard.network,
            universe.aosp_oem.clone(),
            universe.ios.clone(),
            shard.now,
            seed,
        );
        let identity = env.identity.clone();
        t.exit(s);
        c.shards += 1;

        let mut acc = StreamAccum {
            shards: 1,
            ..Default::default()
        };
        for sa in &shard.apps {
            let depth = t.depth();
            let record = catch_unwind(AssertUnwindSafe(|| {
                measure_one(t, &mut c, &env, sa.product_index, &sa.app, decrypt_key)
            }))
            .unwrap_or_else(|_| {
                t.unwind_to(depth);
                AppRecord::failed(
                    sa.product_index,
                    sa.app.id.clone(),
                    Default::default(),
                    MeasurementError::WorkerPanic,
                )
            });
            c.degraded += record.degraded() as u64;
            c.bodies += (record.pinned_bodies.len() + record.unpinned_bodies.len()) as u64;
            t.span("core.accum", || {
                acc.add_app(
                    &sa.datasets,
                    sa.app.category.label_on(sa.app.id.platform),
                    &record,
                    &identity,
                )
            });
        }
        t.span("core.stream.journal", || {
            journal.append_shard(k as u64, &acc)
        });
        t.span("core.accum", || partial.merge(&acc));
        let s = t.enter("store.shard");
        drop(env);
        drop(shard);
        t.exit(s);
        clear_validation_cache();
    }

    let accum = t.span("core.accum", || {
        let mut accum = StreamAccum::default();
        accum.merge(&partial);
        accum
    });
    c.journal_bytes = journal.as_bytes().len() as u64;
    let report = t.span("core.accum", || accum.render());
    (report, c)
}

/// The engine's per-app measurement (uncached statics, dynamics,
/// circumvention of pinned destinations, record assembly).
fn measure_one(
    t: &mut Tracer,
    c: &mut Counts,
    env: &DynamicEnv<'_>,
    product_index: usize,
    app: &MobileApp,
    decrypt_key: u64,
) -> AppRecord {
    let static_findings = t.span("analysis.statics", || {
        analyze_package(
            &app.package,
            (app.id.platform == Platform::Ios).then_some(decrypt_key),
        )
    });
    c.packages += 1;
    c.apps += 1;
    match t.span("analysis.dynamics", || try_analyze_app(env, app)) {
        Ok(dynamic) => {
            let pinned = dynamic.pinned_destinations();
            let circ = (!pinned.is_empty()).then(|| {
                c.circumvented += 1;
                t.span("analysis.circumvent", || circumvent_app(env, app, &pinned))
            });
            let record = t.span("core.record", || {
                AppRecord::assemble(
                    product_index,
                    app.id.clone(),
                    static_findings,
                    &dynamic,
                    circ.as_ref(),
                )
            });
            t.span("analysis.dynamics", || drop(dynamic));
            c.handshakes += record.n_handshakes_baseline as u64;
            c.settled_reruns += record.settled_rerun as u64;
            record
        }
        Err(error) => t.span("core.record", || {
            AppRecord::failed(product_index, app.id.clone(), static_findings, error)
        }),
    }
}
