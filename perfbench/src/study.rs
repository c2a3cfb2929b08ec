//! `study`: the monolithic `Study::run_on_world` followed by `render_all`,
//! one thread, every round cold.
//!
//! Each round generates a fresh `World` and clears every process-global
//! memo first, so it pays what a fresh `full_study` process pays. This
//! is the only workload that runs the whole memo stack, the per-app
//! PINJRNL1 journal and table rendering.

use crate::out::{self, clear_memos, digest, median, CacheMark, Outcome, Rounds};
use crate::trace::Tracer;
use crate::{secs, until, Run};
use pinning_analysis::circumvent::circumvent_app;
use pinning_analysis::dynamics::pipeline::{try_analyze_app, DynamicEnv};
use pinning_analysis::statics::analyze_package_cached;
use pinning_app::platform::Platform;
use pinning_core::journal::{AppOutcome, JournalEntry, ResultJournal};
use pinning_core::study::RunHealth;
use pinning_core::{AppRecord, Study, StudyConfig, StudyOutcome, StudyResults};
use pinning_netsim::faults::MeasurementError;
use pinning_report::{figures, tables};
use pinning_store::config::WorldConfig;
use pinning_store::datasets::{build_datasets, collision_report};
use pinning_store::world::World;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

fn config(run: &Run) -> StudyConfig {
    let mut config = StudyConfig::paper_scale(run.seed);
    config.world = if run.small {
        WorldConfig::tiny(run.seed)
    } else {
        pinning_bench::bench_world_config(run.seed)
    };
    config.threads = 1;
    config
}

/// The round's set-up: cold memos and a freshly generated world.
fn fresh_world(config: &StudyConfig) -> World {
    clear_memos();
    World::generate(config.world.clone())
}

/// The engine: `run_on_world` over a fresh journal.
fn engine(config: &StudyConfig, world: World) -> StudyResults {
    let outcome = Study::new(config.clone())
        .run_on_world(world, config.journal(), config.fingerprint())
        .expect("a fresh journal matches its own config");
    let StudyOutcome::Completed(results) = outcome else {
        unreachable!("no kill hook is set");
    };
    *results
}

pub fn run(run: &Run) -> Outcome {
    let config = config(run);
    let mut out = Outcome::default();
    let mut digests = Vec::new();
    let mut cache_deltas: Vec<Vec<(String, f64)>> = Vec::new();

    if !run.trace {
        let mut setups = Vec::new();
        let mut rates = Vec::new();
        until(run.seconds, || {
            let t = Instant::now();
            let world = fresh_world(&config);
            setups.push(secs(t));

            let mark = CacheMark::now();
            let t = Instant::now();
            let results = engine(&config, world);
            let report = results.render_all();
            let dt = secs(t);
            cache_deltas.push(mark.delta());
            digests.push(digest(report.as_bytes()));
            let apps = results.records.len() as u64;
            rates.push(apps as f64 / dt);
            out.attempted += apps;
            out.failed += results.degraded_apps().len() as u64;
            dt
        });
        out::check_digests(&mut out, "render_all", &digests);
        out.check(cache_deltas.iter().all(|d| d == &cache_deltas[0]), || {
            "memo hit/miss deltas differ between cold rounds".into()
        });
        out.set("setup_s", median(&setups));
        out.set("items_per_s", median(&rates));
        out.set("peak_rss_mib", out::peak_rss_mib());
        return out;
    }

    // Traced: untraced engine rounds alternate with traced replica
    // rounds, both cold. The replica must render the engine's bytes and
    // make the engine's memo traffic.
    let mut rounds = Rounds::default();
    let mut engine_times = Vec::new();
    let mut replica_times = Vec::new();
    until(run.seconds, || {
        let world = fresh_world(&config);
        let mark = CacheMark::now();
        let t = Instant::now();
        let results = engine(&config, world);
        let run_s = secs(t);
        let report = results.render_all();
        engine_times.push(secs(t));
        rounds.push("core.study.run_s", run_s);
        cache_deltas.push(mark.delta());
        digests.push(digest(report.as_bytes()));
        drop(results);

        let mut tracer = Tracer::default();
        clear_memos();
        let world = tracer.span("store.world", || World::generate(config.world.clone()));
        let mark = CacheMark::now();
        let t = Instant::now();
        let (results, journal_bytes) = replica(&config, world, &mut tracer);
        let report = render_all(&results, &mut tracer);
        let dt = secs(t);
        replica_times.push(dt);
        let delta = mark.delta();
        cache_deltas.push(delta.clone());
        digests.push(digest(report.as_bytes()));
        rounds.extend(delta);
        rounds.spans(&tracer);
        let mut counts = Counts {
            journal_bytes,
            ..Counts::default()
        };
        for r in results.records.values() {
            counts.apps += 1;
            counts.degraded += r.degraded() as u64;
            counts.handshakes += r.n_handshakes_baseline as u64;
            counts.settled_reruns += r.settled_rerun as u64;
            counts.circumvented += r.circumvention.is_some() as u64;
        }
        rounds.extend(counts.pairs());
        out.attempted += counts.apps;
        out.failed += counts.degraded;
        dt + engine_times.last().expect("engine round ran")
    });
    out::check_digests(&mut out, "render_all (engine vs replica)", &digests);
    out.check(cache_deltas.iter().all(|d| d == &cache_deltas[0]), || {
        "memo hit/miss deltas differ between the engine and the replica or between rounds".into()
    });
    rounds.finish(&mut out, true);
    out::set_overhead(&mut out, &replica_times, &engine_times);
    out
}

#[derive(Default)]
struct Counts {
    apps: u64,
    degraded: u64,
    handshakes: u64,
    settled_reruns: u64,
    circumvented: u64,
    journal_bytes: u64,
}

impl Counts {
    fn pairs(&self) -> Vec<(String, f64)> {
        [
            ("analysis.dynamics.apps", self.apps),
            ("analysis.dynamics.handshakes", self.handshakes),
            ("analysis.dynamics.settled_reruns", self.settled_reruns),
            ("analysis.circumvent.apps", self.circumvented),
            ("core.journal.bytes", self.journal_bytes),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v as f64))
        .collect()
    }
}

/// `Study::run_on_world` at one thread, call for call, with a span around
/// each layer call. Returns the results and the journal's size.
fn replica(config: &StudyConfig, world: World, t: &mut Tracer) -> (StudyResults, u64) {
    let fingerprint = config.fingerprint();
    let mut journal = t.span("core.journal", || {
        let journal = ResultJournal::create(fingerprint);
        ResultJournal::open(journal.as_bytes()).expect("fresh journal opens");
        journal
    });
    let (datasets, collisions) = t.span("core.datasets", || {
        let datasets = build_datasets(&world);
        let collisions = collision_report(&datasets);
        (datasets, collisions)
    });
    let unique: BTreeSet<usize> = datasets
        .iter()
        .flat_map(|d| d.app_indices.iter().copied())
        .chain(world.hostile_apps.iter().copied())
        .collect();

    let mut env = DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        config.world.seed,
    )
    .with_faults(config.faults)
    .with_retry(config.retry);
    if let Some(b) = config.breaker {
        env = env.with_breaker(b);
    }
    let identity = env.identity.clone();
    let decrypt_key = config.world.ios_encryption_seed;

    for &app_index in &unique {
        let app = &world.apps[app_index];
        let depth = t.depth();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match t.span("analysis.dynamics", || try_analyze_app(&env, app)) {
                Ok(dynamic) => {
                    let pinned = dynamic.pinned_destinations();
                    let circ = (!pinned.is_empty()).then(|| {
                        t.span("analysis.circumvent", || circumvent_app(&env, app, &pinned))
                    });
                    let measured = t.span("core.record", || {
                        AppRecord::assemble(
                            app_index,
                            app.id.clone(),
                            Default::default(),
                            &dynamic,
                            circ.as_ref(),
                        )
                        .to_measured()
                    });
                    t.span("analysis.dynamics", || drop(dynamic));
                    AppOutcome::Measured(Box::new(measured))
                }
                Err(error) => AppOutcome::Failed(error),
            }
        }))
        .unwrap_or_else(|_| {
            t.unwind_to(depth);
            AppOutcome::Failed(MeasurementError::WorkerPanic)
        });
        t.span("core.journal", || {
            journal.append(&JournalEntry {
                app_index: app_index as u64,
                outcome,
            })
        });
    }
    drop(env);

    let mut health = RunHealth {
        fresh_apps: unique.len(),
        ..RunHealth::default()
    };
    let replay = t.span("core.journal", || {
        ResultJournal::open(journal.as_bytes()).expect("journal written here is intact")
    });
    let mut records: BTreeMap<usize, AppRecord> = BTreeMap::new();
    for entry in &replay.entries {
        let app_index = entry.app_index as usize;
        let app = &world.apps[app_index];
        let static_findings = t.span("analysis.statics_cached", || {
            analyze_package_cached(
                &app.package,
                (app.id.platform == Platform::Ios).then_some(decrypt_key),
            )
        });
        let record = t.span("core.record", || match &entry.outcome {
            AppOutcome::Measured(m) => {
                health.breaker_trips += m.breaker_trips;
                AppRecord::from_measured(app_index, app.id.clone(), static_findings, m)
            }
            AppOutcome::Failed(error) => {
                if *error == MeasurementError::WorkerPanic {
                    health.panics_recovered += 1;
                }
                AppRecord::failed(app_index, app.id.clone(), static_findings, *error)
            }
        });
        records.insert(app_index, record);
    }
    let journal_bytes = journal.as_bytes().len() as u64;
    let results = StudyResults {
        world,
        datasets,
        collisions,
        records,
        identity,
        health,
    };
    (results, journal_bytes)
}

/// `StudyResults::render_all`, section for section, with spans around the
/// tables a change is most likely to move.
fn render_all(r: &StudyResults, t: &mut Tracer) -> String {
    let root = t.enter("report.render_all");
    let mut out = String::new();
    out.push_str(&figures::figure1_ascii());
    out.push('\n');
    let sections = [
        r.render_table1(),
        r.render_table2(),
        t.span("report.table3", || r.render_table3()),
        r.render_table_categories(Platform::Android),
        r.render_table_categories(Platform::Ios),
        t.span("report.table6", || r.render_table6()),
        r.render_table7(),
        r.render_table8(),
        t.span("report.table9", || r.render_table9()),
        r.render_figure2(),
        r.render_figure3(),
        r.render_figure4(),
        r.render_figure5(Platform::Android),
        r.render_figure5(Platform::Ios),
    ];
    for section in sections {
        out.push_str(&section);
        out.push('\n');
    }
    let (sa, aa) = r.circumvention_rate(Platform::Android);
    let (si, ai) = r.circumvention_rate(Platform::Ios);
    out.push_str(&tables::share_bar("circumvented (Android)", sa, aa, 20));
    out.push('\n');
    out.push_str(&tables::share_bar("circumvented (iOS)", si, ai, 20));
    out.push('\n');
    let pl = r.pin_level();
    out.push_str(&format!(
        "pin level: {} CA vs {} leaf (matched apps: {}/{})\n",
        pl.ca, pl.leaf, pl.apps_matched, pl.pinning_apps
    ));
    let sr = r.spki_vs_raw();
    out.push_str(&format!(
        "leaf pins: {} via SPKI, {} raw ({} raw survive key-reusing renewal)\n",
        sr.leaf_via_spki, sr.leaf_via_raw, sr.raw_surviving_renewal
    ));
    let (resolved, total) = r.ct_resolution();
    out.push_str(&tables::share_bar(
        "pins resolved via CT",
        resolved,
        total,
        20,
    ));
    out.push('\n');
    out.push_str(&t.span("report.ct", || r.render_ct()));
    out.push_str(&format!(
        "dataset collisions: Common∩Popular = {:?}, unique apps = {} (Android) + {} (iOS) = {}\n",
        r.collisions.common_popular,
        r.collisions.unique_android,
        r.collisions.unique_ios,
        r.collisions.total_unique,
    ));
    out.push('\n');
    out.push_str(&r.render_degraded());
    out.push('\n');
    out.push_str(&r.render_resilience());
    out.push('\n');
    out.push_str(&r.summary());
    out.push('\n');
    t.exit(root);
    out
}
