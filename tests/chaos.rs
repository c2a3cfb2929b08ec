//! Chaos suite: the measurement pipeline under seeded fault injection.
//!
//! Three guarantees, checked end-to-end rather than per-crate:
//!
//! 1. **Determinism** — the same (seed, fault config) produces the same
//!    fault schedule, the same retries, and bit-identical study results.
//! 2. **No panics** — `Study::run` and `try_analyze_app` survive every
//!    fault schedule in a seed sweep; degraded apps become
//!    [`pinning_core::AppRecord::failed`] records, never crashes.
//! 3. **Soundness** — injected faults look exactly like pin failures on
//!    the wire, so the detector must exclude faulted destinations as
//!    `Unobserved` (§5.6) instead of mis-classifying them. Zero pinning
//!    false positives, under every schedule.

use pinning_analysis::dynamics::pipeline::{try_analyze_app, DynamicEnv, RetryPolicy};
use pinning_core::{Study, StudyConfig, StudyOutcome};
use pinning_netsim::faults::{FaultConfig, FaultPlan, MeasurementError};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::collections::BTreeSet;

fn env_with_faults(world: &World, config: FaultConfig) -> DynamicEnv<'_> {
    DynamicEnv::new(
        &world.network,
        world.universe.aosp_oem.clone(),
        world.universe.ios.clone(),
        world.now,
        world.config.seed,
    )
    .with_faults(config)
    .with_retry(RetryPolicy::default())
}

/// Per-app false-positive check against generator ground truth.
fn assert_no_false_positives(world: &World, app_index: usize, pinned: &[&str]) {
    let app = &world.apps[app_index];
    let truth: BTreeSet<&str> = app.runtime_pinned_domains().into_iter().collect();
    for d in pinned {
        assert!(
            truth.contains(d),
            "{}: fault schedule fabricated pinning for {d}",
            app.id
        );
    }
}

#[test]
fn fault_plans_are_pure_functions_of_seed_and_config() {
    let a = FaultPlan::new(0xC0FFEE, FaultConfig::chaos());
    let b = FaultPlan::new(0xC0FFEE, FaultConfig::chaos());
    let c = FaultPlan::new(0xC0FFED, FaultConfig::chaos());
    let mut diverged = false;
    for run in ["app1/baseline", "app1/mitm", "app2/baseline#r1"] {
        for domain in ["api.example.com", "cdn.example.com", "t.example.net"] {
            for attempt in 0..3 {
                let fa = a.connection_fault(run, domain, attempt);
                assert_eq!(fa, b.connection_fault(run, domain, attempt));
                diverged |= fa != c.connection_fault(run, domain, attempt);
            }
        }
        assert_eq!(a.run_abort(run, true, 30), b.run_abort(run, true, 30));
    }
    assert!(diverged, "different seeds must yield different schedules");
}

#[test]
fn same_seed_same_faulted_study() {
    let run = || {
        let mut cfg = StudyConfig::tiny(0xD1CE);
        cfg.faults = FaultConfig::chaos();
        cfg.threads = 1;
        Study::new(cfg).run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.records.len(), b.records.len());
    for (idx, ra) in &a.records {
        let rb = &b.records[idx];
        assert_eq!(ra.pinned_destinations, rb.pinned_destinations, "app {idx}");
        assert_eq!(ra.used_destinations, rb.used_destinations, "app {idx}");
        assert_eq!(ra.error, rb.error, "app {idx}");
    }
    assert_eq!(a.degraded_summary(), b.degraded_summary());
}

#[test]
fn sequential_and_parallel_faulted_studies_agree() {
    let run = |threads: usize| {
        let mut cfg = StudyConfig::tiny(0xBEEF);
        cfg.faults = FaultConfig::chaos();
        cfg.threads = threads;
        Study::new(cfg).run()
    };
    let (a, b) = (run(1), run(4));
    for (idx, ra) in &a.records {
        let rb = &b.records[idx];
        assert_eq!(ra.pinned_destinations, rb.pinned_destinations, "app {idx}");
        assert_eq!(ra.error, rb.error, "app {idx}");
    }
}

#[test]
fn no_panic_sweep_across_fault_schedules() {
    // Two dozen schedules: varying world seed varies both the app world
    // and the derived fault schedule; three fault regimes per seed.
    let regimes = [
        FaultConfig::uniform(0.3),
        FaultConfig::uniform(0.9),
        FaultConfig::chaos(),
    ];
    for seed in 0..8u64 {
        let world = World::generate(WorldConfig::tiny(0x5EED + seed));
        for config in regimes {
            let env = env_with_faults(&world, config);
            for (app_index, app) in world.apps.iter().enumerate().take(12) {
                match try_analyze_app(&env, app) {
                    Ok(dynamic) => {
                        assert_no_false_positives(
                            &world,
                            app_index,
                            &dynamic.pinned_destinations(),
                        );
                    }
                    Err(_) => {
                        // Degradation is an acceptable outcome; panicking
                        // or mis-classifying is not.
                    }
                }
            }
        }
    }
}

#[test]
fn faulted_studies_never_fabricate_pinning() {
    for seed in [0xFA_u64, 0xFB, 0xFC] {
        let mut cfg = StudyConfig::tiny(seed);
        cfg.faults = FaultConfig::chaos();
        let r = Study::new(cfg).run();
        let mut false_positives = 0;
        for record in r.records.values() {
            let app = &r.world.apps[record.app_index];
            let truth: BTreeSet<&str> = app.runtime_pinned_domains().into_iter().collect();
            false_positives += record
                .pinned_destinations
                .iter()
                .filter(|d| !truth.contains(d.as_str()))
                .count();
        }
        assert_eq!(false_positives, 0, "seed {seed:#x} fabricated pinning");
    }
}

#[test]
fn high_fault_rates_produce_a_nonempty_degraded_summary() {
    let mut cfg = StudyConfig::tiny(0xDE6);
    cfg.faults = FaultConfig::uniform(0.95);
    cfg.retry = RetryPolicy {
        max_attempts: 2,
        backoff_secs: 30,
        jitter_pct: 50,
        deadline_secs: 900,
    };
    let r = Study::new(cfg).run();
    let summary = r.degraded_summary();
    assert!(
        !summary.is_empty(),
        "near-certain faults with a tight retry budget must degrade some apps"
    );
    assert_eq!(summary.values().sum::<usize>(), r.degraded_apps().len());
    for (rec, _) in r.degraded_apps() {
        assert!(rec.degraded());
        assert!(rec.pinned_destinations.is_empty());
        assert_eq!(rec.n_handshakes_baseline, 0);
    }
    // The report renders the degradation instead of hiding it.
    let rendered = r.render_degraded();
    assert!(
        rendered.contains("unobserved"),
        "summary table must admit the loss:\n{rendered}"
    );
}

#[test]
fn killed_faulted_study_resumes_byte_identically() {
    // A faulted study, killed after 6 committed apps, then resumed from
    // its journal, must reproduce the uninterrupted same-seed run exactly
    // — proven on the serialized report (every table and figure) and on
    // the degraded-app table, the two places a divergence could hide.
    let config = || {
        let mut cfg = StudyConfig::tiny(0x0D1E);
        cfg.faults = FaultConfig::chaos();
        cfg
    };

    let mut killed_cfg = config();
    killed_cfg.supervisor.kill_after_apps = Some(6);
    let journal = killed_cfg.journal();
    let StudyOutcome::Interrupted {
        journal,
        apps_committed,
    } = Study::new(killed_cfg).run_with_journal(journal).unwrap()
    else {
        panic!("kill_after_apps must interrupt the run")
    };
    assert_eq!(apps_committed, 6);

    // Simulate process death + restart: only the journal bytes survive.
    let disk_image = journal.into_bytes();
    let resumed = match Study::new(config()).resume(&disk_image).unwrap() {
        StudyOutcome::Completed(r) => *r,
        StudyOutcome::Interrupted { .. } => panic!("resume without a kill must complete"),
    };
    let uninterrupted = Study::new(config()).run();

    assert_eq!(resumed.health.resumed_apps, 6);
    assert!(resumed.health.fresh_apps > 0, "tiny world has > 6 apps");
    assert_eq!(
        resumed.render_all(),
        uninterrupted.render_all(),
        "resumed report must be byte-identical"
    );
    assert_eq!(
        resumed.render_degraded(),
        uninterrupted.render_degraded(),
        "degraded-app table must be byte-identical"
    );
}

#[test]
fn injected_worker_panic_degrades_one_app_not_the_study() {
    let seed = 0xBAD_u64;
    let clean = Study::new(StudyConfig::tiny(seed)).run();
    let victim = *clean.records.keys().nth(2).expect("tiny world has apps");

    let mut cfg = StudyConfig::tiny(seed);
    cfg.supervisor.inject_panic_app = Some(victim);
    let r = Study::new(cfg).run();

    assert_eq!(r.records.len(), clean.records.len(), "study completed");
    assert_eq!(
        r.records[&victim].error,
        Some(MeasurementError::WorkerPanic)
    );
    assert_eq!(r.health.panics_recovered, 1);
    // Every other app is untouched by the neighbour's crash.
    for (idx, rec) in &r.records {
        if *idx == victim {
            continue;
        }
        assert_eq!(
            rec.pinned_destinations, clean.records[idx].pinned_destinations,
            "app {idx} must not be affected"
        );
        assert_eq!(rec.error, None, "app {idx} must not degrade");
    }
    // The run-health table admits the recovery.
    let health = r.render_run_health();
    assert!(
        health.contains("worker panics recovered"),
        "run-health table missing:\n{health}"
    );
}

#[test]
fn breaker_trips_are_deterministic_and_surfaced() {
    let run = || {
        let mut cfg = StudyConfig::tiny(0x8EA6);
        cfg.faults = FaultConfig::uniform(0.9);
        cfg.retry = RetryPolicy {
            max_attempts: 4,
            backoff_secs: 10,
            jitter_pct: 50,
            deadline_secs: 3600,
        };
        Study::new(cfg).run()
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.health.breaker_trips, b.health.breaker_trips,
        "breaker state must be a pure function of the fault schedule"
    );
    for (idx, ra) in &a.records {
        assert_eq!(ra.breaker_trips, b.records[idx].breaker_trips, "app {idx}");
    }
    assert!(
        a.health.breaker_trips > 0,
        "90% fault rates across 4 attempts must trip at least one breaker"
    );
}

#[test]
fn quiet_fault_config_reproduces_the_clean_study() {
    let clean = Study::new(StudyConfig::tiny(0xCAFE)).run();
    let mut cfg = StudyConfig::tiny(0xCAFE);
    cfg.faults = FaultConfig::none();
    cfg.retry = RetryPolicy {
        max_attempts: 5,
        backoff_secs: 10,
        jitter_pct: 25,
        deadline_secs: 3600,
    };
    let quiet = Study::new(cfg).run();
    assert!(quiet.degraded_apps().is_empty());
    for (idx, rc) in &clean.records {
        let rq = &quiet.records[idx];
        assert_eq!(rc.pinned_destinations, rq.pinned_destinations, "app {idx}");
        assert_eq!(
            rc.n_handshakes_baseline, rq.n_handshakes_baseline,
            "app {idx}"
        );
    }
}

#[test]
fn adversarial_cohort_survives_kill_and_resume_byte_identically() {
    // The hostile-input cohort under the crash-safety machinery: a study
    // measuring adversarial apps (pathological chains, garbage assets) is
    // killed mid-run, resumed from its journal, and must render every
    // report byte — including the malformed-input resilience table —
    // identically to the uninterrupted run. This proves the structured
    // MalformedInput errors round-trip through the journal's sentinel
    // encoding under real interruption, not just in unit tests.
    let config = || {
        let mut cfg = StudyConfig::tiny(0xADE5);
        cfg.world.adversarial_apps = 8;
        cfg
    };

    let mut killed_cfg = config();
    killed_cfg.supervisor.kill_after_apps = Some(5);
    let journal = killed_cfg.journal();
    let StudyOutcome::Interrupted { journal, .. } =
        Study::new(killed_cfg).run_with_journal(journal).unwrap()
    else {
        panic!("kill_after_apps must interrupt the run")
    };

    let disk_image = journal.into_bytes();
    let resumed = match Study::new(config()).resume(&disk_image).unwrap() {
        StudyOutcome::Completed(r) => *r,
        StudyOutcome::Interrupted { .. } => panic!("resume without a kill must complete"),
    };
    let uninterrupted = Study::new(config()).run();

    // Every hostile app surfaced as a structured MalformedInput failure in
    // both runs, and zero worker panics were recorded.
    for r in [&resumed, &uninterrupted] {
        assert_eq!(r.world.hostile_apps.len(), 8);
        for &i in &r.world.hostile_apps {
            assert!(
                matches!(
                    r.records[&i].error,
                    Some(MeasurementError::MalformedInput { .. })
                ),
                "hostile app {i}: {:?}",
                r.records[&i].error
            );
        }
        assert_eq!(r.health.panics_recovered, 0);
    }
    assert_eq!(
        resumed.render_all(),
        uninterrupted.render_all(),
        "resumed report (incl. resilience table) must be byte-identical"
    );
    assert_eq!(
        resumed.render_resilience(),
        uninterrupted.render_resilience()
    );
}

// ---------------------------------------------------------------------
// Overload: the pin-validation service under a hostile burst.

use pinning_bench::load::{generate_load, LoadConfig};
use pinning_pki::validate::{validate_chain, RevocationList, ValidationMemo, ValidationOptions};
use pinning_pki::Certificate;
use pinning_serve::{
    Backend, Outcome, Payload, PinService, RequestBody, ServeConfig, ServeSummary, TimeoutStage,
};

fn serve_backend(world: &World) -> Backend<'_> {
    Backend {
        roots: &world.universe.aosp_oem,
        logs: &world.ctlog,
        crl: RevocationList::empty(),
        options: ValidationOptions::default(),
        now: world.now,
    }
}

fn run_service(
    config: &ServeConfig,
    world: &World,
    requests: &[pinning_serve::ServeRequest],
    memo: Option<&ValidationMemo>,
) -> (Vec<pinning_serve::Response>, ServeSummary) {
    let mut service = PinService::new(config.clone(), serve_backend(world)).with_memo(memo);
    let responses = service.run(requests);
    let summary = service.summary(&responses);
    (responses, summary)
}

/// Acceptance scenario for the serving front end: a seeded burst whose
/// arrival rate is several times the service rate, with ~25% hostile
/// bodies. The service must shed and degrade instead of queueing
/// unboundedly, stay panic-free, answer deterministically, and every
/// fresh chain verdict must be byte-identical to the offline library's.
#[test]
fn overload_sheds_and_degrades_instead_of_queueing_unboundedly() {
    let world = World::generate(WorldConfig::tiny(0xC8A0));
    let load = generate_load(&world, &LoadConfig::overload_smoke(0xC8A0));
    let config = ServeConfig {
        seed: 0xC8A0,
        workers: 2,
        queue_capacity: 16,
        brownout_high: 16,
        brownout_low: 4,
        backend_flakiness: 0.3,
        ..ServeConfig::default()
    };

    // Warm a validation memo of this test's own to a complete state over
    // this trace first: the serving path then cannot insert anything new,
    // so two same-seed runs must be byte-identical. No other test can
    // clear, bypass or add to a memo it does not hold, so this holds
    // however the test harness interleaves the tests in this binary.
    let memo = ValidationMemo::default();
    let crl = RevocationList::empty();
    let options = ValidationOptions::default();
    for req in &load.requests {
        let RequestBody::ValidateChain {
            hostname,
            chain_der,
        } = &req.body
        else {
            continue;
        };
        if let Ok(chain) = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<Vec<Certificate>, _>>()
        {
            let _ = memo.validate(
                &chain,
                &world.universe.aosp_oem,
                hostname,
                world.now,
                &crl,
                &options,
            );
        }
    }

    let (responses, summary) = run_service(&config, &world, &load.requests, Some(&memo));
    let (responses_b, summary_b) = run_service(&config, &world, &load.requests, Some(&memo));
    assert_eq!(responses, responses_b, "same-seed runs must be identical");
    assert_eq!(summary, summary_b);

    // Overload is absorbed by shedding and cache-only degradation; the
    // queue never exceeds its bound and nothing is dropped silently.
    assert!(summary.peak_queue_depth <= config.queue_capacity as u64);
    assert!(summary.shed_total() > 0, "burst must shed");
    assert!(summary.degraded > 0, "brownout must serve from cache");
    assert!(summary.brownout_entries > 0);
    assert!(
        summary.breaker_trips > 0,
        "flaky backend must trip breakers"
    );
    assert_eq!(summary.total, load.requests.len() as u64);
    assert_eq!(
        summary.served_ok
            + summary.degraded
            + summary.shed_total()
            + summary.timed_out
            + summary.backend_failed,
        summary.total,
        "every request reaches exactly one terminal state"
    );

    // Byte-identity: each fresh verdict equals the offline library's for
    // the same bytes.
    let by_id: std::collections::HashMap<u64, &pinning_serve::ServeRequest> =
        load.requests.iter().map(|r| (r.id, r)).collect();
    let mut checked = 0u32;
    for resp in &responses {
        let Outcome::Ok(Payload::ChainVerdict(served)) = &resp.outcome else {
            continue;
        };
        let RequestBody::ValidateChain {
            hostname,
            chain_der,
        } = &by_id[&resp.id].body
        else {
            panic!("chain verdict for a non-validate request {}", resp.id);
        };
        let chain: Vec<Certificate> = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<_, _>>()
            .expect("verdicts are only served for decodable chains");
        let offline = validate_chain(
            &chain,
            &world.universe.aosp_oem,
            hostname,
            world.now,
            &crl,
            &options,
        );
        assert_eq!(&offline, served, "request {}", resp.id);
        checked += 1;
    }
    assert!(checked > 0, "overload run must still serve fresh verdicts");
}

/// Deadline propagation under overload: with no validation memo (every
/// validation pays the full verification walk) and a budget smaller than
/// that walk, deadlines expire mid-chain-verification. The result must be
/// a structured timeout at a named stage — never a partial verdict — and
/// the run must stay deterministic without any cache pre-warming.
#[test]
fn tight_deadlines_time_out_structurally_never_partially() {
    let world = World::generate(WorldConfig::tiny(0x7157));
    let load = generate_load(&world, &LoadConfig::overload_smoke(0x7157));
    let config = ServeConfig {
        seed: 0x7157,
        workers: 2,
        queue_capacity: 16,
        brownout_high: 16,
        brownout_low: 4,
        // Smaller than one full 3-certificate verification walk.
        deadline_validate: 100,
        ..ServeConfig::default()
    };

    let (responses, summary) = run_service(&config, &world, &load.requests, None);
    let (responses_b, summary_b) = run_service(&config, &world, &load.requests, None);
    assert_eq!(responses, responses_b, "uncached runs must be identical");
    assert_eq!(summary, summary_b);

    assert!(summary.timed_out > 0, "tight deadlines must expire");
    let mut mid_validation = 0u32;
    for resp in &responses {
        if let Outcome::TimedOut(stage) = &resp.outcome {
            // A timed-out response carries a stage and nothing else: no
            // payload field exists on the variant, so a partial verdict
            // is unrepresentable. Here every expiry is in the queue or
            // mid-validation (resolve/proof deadlines stay generous).
            assert!(
                matches!(stage, TimeoutStage::Queue | TimeoutStage::ChainValidation),
                "unexpected stage {stage:?} for request {}",
                resp.id
            );
            if matches!(stage, TimeoutStage::ChainValidation) {
                mid_validation += 1;
            }
        }
    }
    assert!(
        mid_validation > 0,
        "some deadlines must expire mid-chain-verification"
    );
}

// ---------------------------------------------------------------------
// Durable-media fault matrix: every journal writer (PINJRNL1, STRMJRN1,
// EpochState checkpoints) × every seeded MediaFaultPlan × kill point.
// The invariant under test is the PR's contract: a resume is either
// byte-identical to the uninterrupted run (when a clean prefix
// survives) or a structured error — never a panic, never silently
// wrong data.

use pinning_core::journal::{AppOutcome, JournalEntry, JournalError, MeasuredApp, ResultJournal};
use pinning_core::stream::{StreamConfig, StreamEngine, StreamOutcome};
use pinning_epoch::plan::EpochConfig;
use pinning_epoch::study::Evolution;
use pinning_resilience::{CheckpointStore, FaultMedia, Media, MediaError, MediaFaultPlan};

/// The fault regimes swept by every matrix test. `tight` is the ENOSPC
/// regime; the rest exercise torn tails, lying flushes, read-back rot,
/// and duplicated segments.
fn fault_plans(seed: u64) -> Vec<(&'static str, MediaFaultPlan)> {
    vec![
        ("none", MediaFaultPlan::none(seed)),
        ("torn", MediaFaultPlan::torn(seed)),
        ("lossy-flush", MediaFaultPlan::lossy_flush(seed)),
        ("bit-rot", MediaFaultPlan::bit_rot(seed)),
        ("duplicating", MediaFaultPlan::duplicating(seed)),
        ("tight", MediaFaultPlan::tight(seed, 700)),
        ("chaos", MediaFaultPlan::chaos(seed)),
    ]
}

/// Synthetic but representative per-app journal entries with unique app
/// indices, so any recovered record can be checked against exactly what
/// was written for that app.
fn matrix_entries() -> Vec<JournalEntry> {
    (0..10u64)
        .map(|i| JournalEntry {
            app_index: i,
            outcome: if i % 3 == 0 {
                AppOutcome::Failed(MeasurementError::WorkerPanic)
            } else {
                AppOutcome::Measured(Box::new(MeasuredApp {
                    pinned_destinations: vec![format!("api{i}.example.com")],
                    used_destinations: vec![
                        format!("api{i}.example.com"),
                        "cdn.example.net".into(),
                    ],
                    weak_overall: i % 2 == 0,
                    weak_pinned: false,
                    pinned_bodies: vec![],
                    unpinned_bodies: vec![format!("telemetry-{i}")],
                    circumvention: None,
                    n_handshakes_baseline: 3 + i,
                    settled_rerun: false,
                    breaker_trips: 0,
                }))
            },
        })
        .collect()
}

#[test]
fn pinjrnl_fault_matrix_is_byte_identical_or_structurally_degraded() {
    let fingerprint = [0x42; 32];
    let entries = matrix_entries();
    let (mut cells, mut exact, mut degraded, mut refused) = (0u32, 0u32, 0u32, 0u32);
    for (name, base) in fault_plans(0x10A7) {
        for kill_after in [0usize, 3, 7, 10] {
            cells += 1;
            // A distinct fault stream per matrix cell.
            let plan = MediaFaultPlan {
                seed: base.seed ^ ((kill_after as u64 + 1) << 32),
                ..base
            };
            let mut journal = match ResultJournal::create_on(FaultMedia::new(plan), fingerprint) {
                Ok(j) => j,
                Err(MediaError::NoSpace) => {
                    assert_eq!(name, "tight", "{name}: only ENOSPC may refuse the header");
                    continue;
                }
            };
            let mut committed = 0;
            for entry in entries.iter().take(kill_after) {
                match journal.try_append(entry) {
                    Ok(()) => committed += 1,
                    Err(MediaError::NoSpace) => {
                        assert_eq!(name, "tight", "{name}: only ENOSPC may refuse an append");
                        break;
                    }
                }
            }
            let mut media = journal.into_media();
            media.crash();
            let image = media.read_back();

            match ResultJournal::open(&image) {
                Ok(replay) => {
                    // Soundness: every recovered record is exactly what
                    // was written for that app index — rot is caught by
                    // the checksum and quarantined, never half-parsed.
                    assert!(replay.entries.len() <= committed, "{name}/kill{kill_after}");
                    for e in &replay.entries {
                        assert_eq!(
                            e, &entries[e.app_index as usize],
                            "{name}/kill{kill_after}: recovered record differs from what was written"
                        );
                    }
                    // Plans that cannot lose flushed data or rot reads
                    // must recover the committed prefix byte-exactly.
                    if plan.lost_flush == 0.0 && plan.read_rot == 0.0 {
                        assert_eq!(
                            replay.entries,
                            entries[..committed],
                            "{name}/kill{kill_after}: clean prefix must survive intact"
                        );
                        assert_eq!(replay.fingerprint, fingerprint);
                    }
                    if replay.entries == entries[..committed] {
                        exact += 1;
                    } else {
                        degraded += 1;
                    }
                }
                // Only read-back rot can damage the 40-byte header, and
                // only a lying flush can lose it outright; every other
                // plan leaves the flushed header intact.
                Err(e) => {
                    assert!(
                        plan.read_rot > 0.0 || plan.lost_flush > 0.0,
                        "{name}/kill{kill_after}: unexpected structured error {e:?}"
                    );
                    refused += 1;
                }
            }
        }
    }
    println!(
        "PINJRNL1 matrix: {cells} cells — {exact} exact committed prefix, \
         {degraded} degraded-but-sound, {refused} structured errors"
    );
}

#[test]
fn stream_fault_matrix_resumes_byte_identically_or_errors_structurally() {
    let make = |kill: Option<usize>| {
        let mut cfg = StreamConfig::new(WorldConfig::tiny(0x57A6), 4);
        cfg.kill_after_shards = kill;
        cfg
    };
    let reference = match StreamEngine::new(make(None)).run() {
        StreamOutcome::Completed(r) => r.render_report(),
        StreamOutcome::Interrupted { .. } => panic!("no kill configured"),
    };

    let (mut cells, mut identical, mut structured) = (0u32, 0u32, 0u32);
    for (name, base) in fault_plans(0x57A6) {
        for kill_after in [1usize, 3] {
            cells += 1;
            let plan = MediaFaultPlan {
                seed: base.seed ^ ((kill_after as u64 + 1) << 40),
                ..base
            };
            // Phase 1: run to the kill point over faulty media. A medium
            // that fills up is a structured Media error, never a panic.
            let engine = StreamEngine::new(make(Some(kill_after)));
            let mut media = match engine.run_on_media(FaultMedia::new(plan)) {
                Ok(StreamOutcome::Interrupted { journal, .. }) => journal.into_media(),
                Ok(StreamOutcome::Completed(_)) => panic!("{name}: kill hook must interrupt"),
                Err(JournalError::Media(MediaError::NoSpace)) => {
                    assert_eq!(name, "tight", "{name}: only ENOSPC may abort the run");
                    structured += 1;
                    continue;
                }
                Err(e) => panic!("{name}/kill{kill_after}: unexpected {e:?}"),
            };
            // Phase 2: the process dies; only what the medium made
            // durable survives. Resume over the same medium.
            media.crash();
            match StreamEngine::new(make(None)).resume_media(media) {
                Ok(StreamOutcome::Completed(results)) => {
                    assert_eq!(
                        results.render_report(),
                        reference,
                        "{name}/kill{kill_after}: resumed report must be byte-identical"
                    );
                    // Lost shards were re-measured, not invented: plans
                    // that lose or damage data must show up in the
                    // run-health accounting or in re-measured shards.
                    let health = results.render_health();
                    assert!(health.contains("quarantined"), "{health}");
                    identical += 1;
                }
                Ok(StreamOutcome::Interrupted { .. }) => {
                    panic!("{name}/kill{kill_after}: resume without a kill must complete")
                }
                // Header rot or a lying header-flush can make the
                // surviving image unopenable — a structured error,
                // never a panic or a wrong report.
                Err(e) => {
                    assert!(
                        plan.read_rot > 0.0
                            || plan.lost_flush > 0.0
                            || matches!(e, JournalError::Media(MediaError::NoSpace)),
                        "{name}/kill{kill_after}: unexpected {e:?}"
                    );
                    structured += 1;
                }
            }
        }
    }
    println!(
        "STRMJRN1 matrix: {cells} cells — {identical} byte-identical resumes, \
         {structured} structured errors"
    );
}

#[test]
fn epoch_checkpoint_fault_matrix_restores_a_completed_epoch_or_errors() {
    // Reference: snapshots of the cumulative report after each epoch.
    let config = || EpochConfig::tiny(0xE9);
    let mut reference = Evolution::new(config(), true);
    let mut snapshots = Vec::new();
    for _ in 0..2 {
        reference.next_epoch().unwrap();
        snapshots.push(reference.full_report());
    }

    let (mut plans, mut newest, mut fell_back, mut errored) = (0u32, 0u32, 0u32, 0u32);
    for (name, base) in fault_plans(0xE9) {
        plans += 1;
        let slot = |tag: u64| {
            FaultMedia::new(MediaFaultPlan {
                seed: base.seed ^ (tag << 48),
                ..base
            })
        };
        let mut store = CheckpointStore::new(slot(1), slot(2));
        let mut ev = Evolution::new(config(), true);
        let mut saved = 0;
        for _ in 0..2 {
            ev.next_epoch().unwrap();
            match ev.checkpoint(&mut store) {
                Ok(_) => saved += 1,
                Err(MediaError::NoSpace) => {
                    assert_eq!(name, "tight", "{name}: only ENOSPC may refuse a checkpoint")
                }
            }
        }
        store.crash();

        match Evolution::from_checkpoint(config(), &mut store) {
            Ok(restored) => {
                // Whatever generation survived, the restored engine is a
                // bit-exact past state — never a blend of two epochs.
                let done = restored.completed();
                assert!(
                    (1..=2).contains(&done),
                    "{name}: restored {done} completed epochs"
                );
                assert_eq!(
                    restored.full_report(),
                    snapshots[done - 1],
                    "{name}: restored report must match the epoch-{done} snapshot"
                );
                if done == 2 {
                    newest += 1;
                } else {
                    fell_back += 1;
                }
            }
            // Both slots unreadable (rot) or never written (ENOSPC):
            // a structured error names the degradation.
            Err(e) => {
                assert!(
                    base.read_rot > 0.0 || base.lost_flush > 0.0 || saved == 0,
                    "{name}: unexpected {e:?}"
                );
                errored += 1;
            }
        }

        // The no-fault column must always restore the newest generation.
        if name == "none" {
            let restored = Evolution::from_checkpoint(config(), &mut store)
                .expect("faultless checkpoints must load");
            assert_eq!(restored.completed(), 2);
            assert_eq!(restored.recovery().checkpoints_recovered, 0);
        }
    }
    println!(
        "EpochState matrix: {plans} plans — {newest} newest generation restored, \
         {fell_back} stale-but-consistent fallbacks, {errored} structured errors"
    );
}
