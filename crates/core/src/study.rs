//! The study driver: a supervised, journaled, resumable measurement run.
//!
//! [`Study::run`] still presents the original all-in-one interface, but
//! underneath every run is supervised: the shared supervisor
//! (`core::supervise`, also under the streaming engine) hands app
//! indices to workers that measure each app under panic isolation,
//! each completed app is committed to a write-ahead [`ResultJournal`],
//! and [`StudyResults`] is materialized by *replaying* that journal
//! against the regenerated world. Because an uninterrupted run and a
//! [`Study::resume`] from a partial journal materialize through the same
//! replay path, their results are identical byte for byte. At one thread
//! apps are measured in ascending index order.

use crate::journal::{JournalError, ResultJournal};
use crate::record::{isolated, measure_app, AppRecord};
use crate::supervise::Pool;
use pinning_analysis::dynamics::pipeline::{DynamicEnv, RetryPolicy};
use pinning_analysis::statics::{analyze_app, StaticFindings};
use pinning_app::pii::DeviceIdentity;
use pinning_app::platform::Platform;
use pinning_crypto::sha256;
use pinning_netsim::breaker::BreakerConfig;
use pinning_netsim::faults::{FaultConfig, MeasurementError};
use pinning_pki::cache::CacheStat;
use pinning_pki::validate::ValidationMemo;
use pinning_report::text::{Align, TextTable};
use pinning_resilience::ScrubStats;
use pinning_store::config::WorldConfig;
use pinning_store::datasets::{
    build_datasets, collision_report, CollisionReport, Dataset, DatasetKind,
};
use pinning_store::world::World;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Supervision knobs: watchdog telemetry plus the crash/kill test hooks.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Wall-clock watchdog per app, seconds (0 = disabled). Telemetry
    /// only: a breach is counted in [`RunHealth`] — it never aborts the
    /// app or alters results, because wall-clock time must not influence
    /// the deterministic measurement.
    pub watchdog_secs: u64,
    /// Test hook: stop committing after exactly this many *fresh* apps,
    /// simulating the process dying mid-run. The run returns
    /// [`StudyOutcome::Interrupted`] with the journal as written so far.
    pub kill_after_apps: Option<usize>,
    /// Test hook: panic the worker measuring this app index, exercising
    /// the supervisor's panic isolation.
    pub inject_panic_app: Option<usize>,
}

impl SupervisorConfig {
    /// Production defaults: 5-minute watchdog, no injected failures.
    pub fn standard() -> Self {
        SupervisorConfig {
            watchdog_secs: 300,
            kill_after_apps: None,
            inject_panic_app: None,
        }
    }
}

/// Study configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// World-generation knobs.
    pub world: WorldConfig,
    /// Worker threads for the per-app pipeline (1 = sequential).
    pub threads: usize,
    /// Test-bed fault rates (all zero by default).
    pub faults: FaultConfig,
    /// Retry policy for faulted run pairs.
    pub retry: RetryPolicy,
    /// Per-endpoint circuit-breaker tuning (`None` = disabled). Breakers
    /// only feed on injected faults, so a fault-free study is unaffected
    /// either way.
    pub breaker: Option<BreakerConfig>,
    /// Supervision knobs (watchdog + test hooks). Deliberately excluded
    /// from [`StudyConfig::fingerprint`]: killing or panicking a run must
    /// not change what journal its survivors belong to.
    pub supervisor: SupervisorConfig,
}

impl StudyConfig {
    /// Paper-scale study.
    pub fn paper_scale(seed: u64) -> Self {
        let world = WorldConfig::paper_scale(seed);
        // Unique apps never exceed both platforms' dataset draws; more
        // workers than that would just idle.
        let max_useful = 2 * (world.common_size + world.popular_size + world.random_size);
        StudyConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(max_useful.max(1)),
            world,
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            supervisor: SupervisorConfig::standard(),
        }
    }

    /// Miniature study for tests/doctests.
    pub fn tiny(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::tiny(seed),
            threads: 2,
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            breaker: Some(BreakerConfig::default()),
            supervisor: SupervisorConfig::standard(),
        }
    }

    /// Fingerprint of everything that determines measurement *results*:
    /// world, faults, retry, breaker. Threads and supervision are excluded
    /// — they change scheduling and survival, never observables — so a
    /// journal written by a killed 8-worker run resumes cleanly on 1.
    pub fn fingerprint(&self) -> [u8; 32] {
        let repr = format!(
            "{:?}|{:?}|{:?}|{:?}",
            self.world, self.faults, self.retry, self.breaker
        );
        sha256(repr.as_bytes())
    }

    /// A fresh write-ahead journal bound to this configuration.
    pub fn journal(&self) -> ResultJournal {
        ResultJournal::create(self.fingerprint())
    }
}

/// Run-health telemetry: what the supervision layer absorbed so a run
/// could finish. Every engine keeps one ([`StudyResults::health`],
/// [`crate::StreamResults::health`], the epoch engine's running total)
/// and renders it with [`table_run_health`], deliberately *outside* the
/// deterministic report tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHealth {
    /// Worker panics converted into degraded records.
    pub panics_recovered: u32,
    /// Circuit-breaker trips summed over all apps.
    pub breaker_trips: u32,
    /// Apps whose wall-clock measurement exceeded the watchdog deadline.
    pub watchdog_breaches: u32,
    /// What the journal scrubber quarantined and repaired when this run
    /// resumed, plus checkpoint loads that fell back past a damaged slot
    /// (all zero when everything read back as written).
    pub recovery: ScrubStats,
    /// Apps recovered from the journal instead of re-measured.
    pub resumed_apps: usize,
    /// Apps measured by this process.
    pub fresh_apps: usize,
    /// Epoch engine only: apps whose verdict was replayed from the prior
    /// epoch because their fingerprint was clean (0 outside epoch runs).
    pub replayed_prior_epoch: usize,
    /// Epoch engine only: apps re-measured because an epoch event dirtied
    /// their fingerprint (0 outside epoch runs).
    pub reanalyzed_dirty: usize,
    /// This run's chain-validation traffic through its memo (`None` when
    /// the run had no memo).
    pub validation_memo: Option<CacheStat>,
    /// Peak resident-set size of the process, KiB (`None` for runs that
    /// do not read it, or where the platform exposes no high-water mark).
    pub peak_rss_kib: Option<u64>,
    /// Fresh apps per second of wall-clock measuring time (`None` for
    /// runs that do not time themselves).
    pub apps_per_sec: Option<f64>,
}

impl RunHealth {
    /// Counts what one measured or replayed record cost the supervision
    /// layer: its breaker trips, and the panic that degraded it, if any.
    pub(crate) fn count(&mut self, record: &AppRecord) {
        self.breaker_trips += record.breaker_trips;
        if record.error == Some(MeasurementError::WorkerPanic) {
            self.panics_recovered += 1;
        }
    }

    /// Adds another run's counters into this one. The memo traffic, peak
    /// RSS and throughput describe a single run and are left as they are.
    pub fn absorb(&mut self, other: &RunHealth) {
        self.panics_recovered += other.panics_recovered;
        self.breaker_trips += other.breaker_trips;
        self.watchdog_breaches += other.watchdog_breaches;
        self.recovery.absorb(other.recovery);
        self.resumed_apps += other.resumed_apps;
        self.fresh_apps += other.fresh_apps;
        self.replayed_prior_epoch += other.replayed_prior_epoch;
        self.reanalyzed_dirty += other.reanalyzed_dirty;
    }
}

/// Renders the "Run health" table: what the supervision layer absorbed so
/// the run could finish. "journal truncations" reads 1 when any journal
/// or checkpoint read back damaged, and untimed runs show a dash for
/// peak RSS and throughput.
pub fn table_run_health(h: &RunHealth) -> String {
    let dash = || "—".to_string();
    let mut t = TextTable::new(
        "Run health (supervision & journal telemetry)",
        &["Event", "Count"],
    )
    .aligns(&[Align::Left, Align::Right]);
    t.row(&["worker panics recovered", &h.panics_recovered.to_string()]);
    t.row(&["circuit-breaker trips", &h.breaker_trips.to_string()]);
    t.row(&["watchdog breaches", &h.watchdog_breaches.to_string()]);
    t.row(&[
        "journal truncations",
        &u32::from(!h.recovery.is_clean()).to_string(),
    ]);
    t.row(&[
        "quarantined bytes",
        &h.recovery.quarantined_bytes.to_string(),
    ]);
    t.row(&[
        "quarantined records",
        &h.recovery.quarantined_records.to_string(),
    ]);
    t.row(&["journal repairs", &h.recovery.repairs.to_string()]);
    t.row(&[
        "checkpoints recovered",
        &h.recovery.checkpoints_recovered.to_string(),
    ]);
    t.row(&["apps resumed from journal", &h.resumed_apps.to_string()]);
    t.row(&["apps measured fresh", &h.fresh_apps.to_string()]);
    t.row(&[
        "apps replayed from prior epoch",
        &h.replayed_prior_epoch.to_string(),
    ]);
    t.row(&["apps reanalyzed (dirty)", &h.reanalyzed_dirty.to_string()]);
    t.row(&[
        "peak RSS (KiB)",
        &h.peak_rss_kib.map_or_else(dash, |k| k.to_string()),
    ]);
    t.row(&[
        "throughput (apps/sec)",
        &h.apps_per_sec.map_or_else(dash, |v| format!("{v:.1}")),
    ]);
    if let Some(c) = &h.validation_memo {
        let rate = if c.total() == 0 {
            0.0
        } else {
            100.0 * c.hits as f64 / c.total() as f64
        };
        t.row(&[
            &format!("cache {} (hit/miss)", c.name),
            &format!("{}/{} ({rate:.1}%)", c.hits, c.misses),
        ]);
    }
    t.render()
}

/// How a journaled run ended.
#[derive(Debug)]
pub enum StudyOutcome {
    /// Every app committed; the full results.
    Completed(Box<StudyResults>),
    /// The run was killed (via [`SupervisorConfig::kill_after_apps`])
    /// before finishing; the journal holds every committed app and can be
    /// fed to [`Study::resume`].
    Interrupted {
        /// The journal as written up to the kill.
        journal: ResultJournal,
        /// Total committed apps (resumed + fresh).
        apps_committed: usize,
    },
}

/// The study: configuration, its run's validation memo, and the run methods.
#[derive(Debug)]
pub struct Study {
    config: StudyConfig,
    memo: Option<Arc<ValidationMemo>>,
}

impl Study {
    /// Creates a study with a fresh validation memo of its own.
    pub fn new(config: StudyConfig) -> Self {
        Study {
            config,
            memo: Some(Arc::default()),
        }
    }

    /// Runs with `memo` instead (`None` = none; results are identical). The
    /// epoch engine hands every epoch's study the same memo.
    pub fn with_memo(mut self, memo: Option<Arc<ValidationMemo>>) -> Self {
        self.memo = memo;
        self
    }

    /// Runs everything: world → datasets → per-app static/dynamic/
    /// circumvention → compact records.
    ///
    /// Never panics under fault injection: an app whose measurement keeps
    /// degrading past the retry budget becomes an [`AppRecord::failed`]
    /// record (static findings kept, dynamic observables empty) and shows
    /// up in [`StudyResults::degraded_apps`]. A worker that *panics* is
    /// likewise contained: the app degrades with
    /// [`MeasurementError::WorkerPanic`] and the study completes.
    ///
    /// Panics if the configuration requests a kill
    /// ([`SupervisorConfig::kill_after_apps`]) — interruptible runs must
    /// use [`Study::run_with_journal`] to keep the journal.
    pub fn run(self) -> StudyResults {
        let journal = self.config.journal();
        match self.run_with_journal(journal) {
            Ok(StudyOutcome::Completed(results)) => *results,
            Ok(StudyOutcome::Interrupted { .. }) => {
                panic!("kill_after_apps set; use run_with_journal to keep the journal")
            }
            Err(e) => unreachable!("fresh journal always matches its own config: {e}"),
        }
    }

    /// Runs the study against an existing journal, committing each app as
    /// it completes and skipping apps the journal already holds.
    ///
    /// Errors if the journal's fingerprint belongs to a different
    /// configuration. Returns [`StudyOutcome::Interrupted`] only when
    /// [`SupervisorConfig::kill_after_apps`] fires.
    pub fn run_with_journal(self, journal: ResultJournal) -> Result<StudyOutcome, JournalError> {
        self.execute(journal, RunHealth::default())
    }

    /// Resumes a study from a journal image (e.g. read back from disk
    /// after a crash): recovers every intact record, re-measures only the
    /// missing apps, and materializes results identical to an
    /// uninterrupted run of the same configuration.
    ///
    /// Damaged records are quarantined (their apps are simply
    /// re-measured) and counted in [`RunHealth`]; a damaged *header* or a
    /// fingerprint from a different configuration is an error.
    pub fn resume(self, journal_bytes: &[u8]) -> Result<StudyOutcome, JournalError> {
        let (journal, health) = reopen(journal_bytes, self.config.fingerprint())?;
        self.execute(journal, health)
    }

    /// Runs the study against a *pre-built* world instead of regenerating
    /// one from the configuration — the epoch engine's entry point, where
    /// the world has been evolved past what `World::generate` would
    /// produce. `fingerprint` identifies the (world, epoch) the journal
    /// belongs to; the journal may already hold entries (replayed clean
    /// apps, or a resumed partial epoch), which are kept verbatim.
    pub fn run_on_world(
        self,
        world: World,
        journal: ResultJournal,
        fingerprint: [u8; 32],
    ) -> Result<StudyOutcome, JournalError> {
        self.run_on_world_with_statics(world, journal, fingerprint, BTreeMap::new())
    }

    /// [`Study::run_on_world`], handed the static findings of some apps
    /// so only the others are scanned. The caller vouches that each
    /// handed finding is what [`analyze_app`] returns for that app in
    /// `world` — the epoch engine hands over a clean app's
    /// prior findings, whose fingerprint covers the package content.
    pub fn run_on_world_with_statics(
        self,
        world: World,
        journal: ResultJournal,
        fingerprint: [u8; 32],
        statics: BTreeMap<usize, StaticFindings>,
    ) -> Result<StudyOutcome, JournalError> {
        self.execute_on(world, journal, RunHealth::default(), fingerprint, statics)
    }

    /// [`Study::resume`] for a pre-built world: recovers the journal's
    /// intact records and re-measures only the missing apps.
    pub fn resume_on_world(
        self,
        world: World,
        journal_bytes: &[u8],
        fingerprint: [u8; 32],
    ) -> Result<StudyOutcome, JournalError> {
        let (journal, health) = reopen(journal_bytes, fingerprint)?;
        self.execute_on(world, journal, health, fingerprint, BTreeMap::new())
    }

    fn execute(
        self,
        journal: ResultJournal,
        health: RunHealth,
    ) -> Result<StudyOutcome, JournalError> {
        let fingerprint = self.config.fingerprint();
        let world = World::generate(self.config.world.clone());
        self.execute_on(world, journal, health, fingerprint, BTreeMap::new())
    }

    fn execute_on(
        self,
        world: World,
        journal: ResultJournal,
        mut health: RunHealth,
        fingerprint: [u8; 32],
        mut statics: BTreeMap<usize, StaticFindings>,
    ) -> Result<StudyOutcome, JournalError> {
        let memo_base = self.memo.as_ref().map(|memo| (memo, memo.stats()));
        let handed = ResultJournal::open_expecting(journal.as_bytes(), fingerprint)?;
        let handed_len = journal.as_bytes().len();
        let done: BTreeSet<usize> = handed
            .entries
            .iter()
            .map(|e| e.app_index as usize)
            .collect();
        health.resumed_apps = done.len();

        let datasets = build_datasets(&world);
        let collisions = collision_report(&datasets);

        // Unique apps across all datasets; only the not-yet-committed ones
        // go on the work queue. The adversarial cohort lives
        // outside the store listings (so dataset sampling is untouched) but
        // is measured alongside them: every hostile app must surface as a
        // structured `MalformedInput` failure, never a crash.
        let unique: BTreeSet<usize> = datasets
            .iter()
            .flat_map(|d| d.app_indices.iter().copied())
            .chain(world.hostile_apps.iter().copied())
            .collect();
        let pending: Vec<usize> = unique
            .iter()
            .copied()
            .filter(|i| !done.contains(i))
            .collect();

        let mut env = DynamicEnv::new(
            &world.network,
            world.universe.aosp_oem.clone(),
            world.universe.ios.clone(),
            world.now,
            self.config.world.seed,
        )
        .with_faults(self.config.faults)
        .with_retry(self.config.retry)
        .with_memo(self.memo.as_deref());
        if let Some(b) = self.config.breaker {
            env = env.with_breaker(b);
        }
        let env = env;
        let identity = env.device(Platform::Android).identity.clone();
        let decrypt_key = self.config.world.ios_encryption_seed;

        // One app, measured under panic isolation to its journal entry.
        // Static findings are *not* measured here — they are handed in or
        // recomputed deterministically at materialization, so the journal
        // stays small.
        let measure = |app_index: usize| {
            let app = &world.apps[app_index];
            isolated(app_index, app, || {
                if self.config.supervisor.inject_panic_app == Some(app_index) {
                    panic!("injected worker panic (supervisor test hook)");
                }
                measure_app(&env, app_index, app, StaticFindings::default())
            })
            .to_entry()
        };
        let pool = Pool {
            threads: self.config.threads,
            max_inflight: None,
            kill_after: self.config.supervisor.kill_after_apps,
            watchdog: Duration::from_secs(self.config.supervisor.watchdog_secs),
        };
        let run = pool.run(
            &pending,
            journal,
            measure,
            |journal: &mut ResultJournal, _, entry| journal.try_append(&entry),
        )?;
        health.watchdog_breaches = run.watchdog_breaches;
        health.fresh_apps = run.fresh;
        health.validation_memo = memo_base.map(|(memo, base)| memo.stats().delta_since(&base));
        let journal = run.journal;
        if run.killed {
            return Ok(StudyOutcome::Interrupted {
                apps_committed: journal.len(),
                journal,
            });
        }

        // Materialize results by replaying the finished journal: records
        // come from committed observables plus world-derived statics
        // (handed in, or scanned here), so an uninterrupted run and a
        // resume produce identical results. The handed-in records were
        // scrubbed and decoded above; only this run's commits are read
        // back.
        let mut records: BTreeMap<usize, AppRecord> = BTreeMap::new();
        for entry in handed
            .entries
            .iter()
            .chain(&journal.entries_since(handed_len))
        {
            let app_index = entry.app_index as usize;
            let app = &world.apps[app_index];
            let static_findings = statics
                .remove(&app_index)
                .unwrap_or_else(|| analyze_app(app, decrypt_key));
            let record = AppRecord::replay(entry, app, static_findings);
            health.count(&record);
            records.insert(app_index, record);
        }

        Ok(StudyOutcome::Completed(Box::new(StudyResults {
            world,
            datasets,
            collisions,
            records,
            identity,
            health,
        })))
    }
}

/// A clean journal rebuilt from the intact records of a journal image,
/// plus the run health that accounts for whatever damage was dropped.
/// Encoding is deterministic, so the rebuild both self-heals the damage
/// and keeps append working.
fn reopen(
    journal_bytes: &[u8],
    fingerprint: [u8; 32],
) -> Result<(ResultJournal, RunHealth), JournalError> {
    let replay = ResultJournal::open_expecting(journal_bytes, fingerprint)?;
    let mut journal = ResultJournal::create(fingerprint);
    for entry in &replay.entries {
        journal.append(entry);
    }
    let health = RunHealth {
        recovery: replay.stats,
        ..RunHealth::default()
    };
    Ok((journal, health))
}

/// All study outputs.
#[derive(Debug)]
pub struct StudyResults {
    /// The generated world (ground truth + infrastructure).
    pub world: World,
    /// The six datasets.
    pub datasets: Vec<Dataset>,
    /// §3's collision accounting.
    pub collisions: CollisionReport,
    /// Per-app measurement records, keyed by app index.
    pub records: BTreeMap<usize, AppRecord>,
    /// The test-device identity used for PII detection.
    pub identity: DeviceIdentity,
    /// Supervision telemetry for this run (not part of the deterministic
    /// report tables: a resumed run legitimately differs here).
    pub health: RunHealth,
}

impl StudyResults {
    /// The dataset of a given kind/platform.
    pub fn dataset(&self, kind: DatasetKind, platform: Platform) -> &Dataset {
        self.datasets
            .iter()
            .find(|d| d.kind == kind && d.platform == platform)
            .expect("all six datasets exist")
    }

    /// Records of one dataset, in dataset order.
    pub fn dataset_records(&self, kind: DatasetKind, platform: Platform) -> Vec<&AppRecord> {
        self.dataset(kind, platform)
            .app_indices
            .iter()
            .map(|i| &self.records[i])
            .collect()
    }

    /// Unique records for a platform across all datasets.
    pub fn platform_records(&self, platform: Platform) -> Vec<&AppRecord> {
        self.records
            .values()
            .filter(|r| r.id.platform == platform)
            .collect()
    }

    /// Apps whose dynamic measurement degraded, with the responsible
    /// error, in app-index order.
    pub fn degraded_apps(&self) -> Vec<(&AppRecord, MeasurementError)> {
        self.records
            .values()
            .filter_map(|r| r.error.map(|e| (r, e)))
            .collect()
    }

    /// Error-class histogram over degraded apps (the summary table's
    /// input). Empty when every measurement completed.
    pub fn degraded_summary(&self) -> BTreeMap<MeasurementError, usize> {
        let mut counts = BTreeMap::new();
        for (_, e) in self.degraded_apps() {
            *counts.entry(e).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results() -> StudyResults {
        Study::new(StudyConfig::tiny(0x57D7)).run()
    }

    fn completed(outcome: StudyOutcome) -> StudyResults {
        match outcome {
            StudyOutcome::Completed(r) => *r,
            StudyOutcome::Interrupted { apps_committed, .. } => {
                panic!("expected completion, interrupted after {apps_committed}")
            }
        }
    }

    #[test]
    fn run_health_renders_every_counter() {
        let s = table_run_health(&RunHealth {
            panics_recovered: 1,
            breaker_trips: 7,
            watchdog_breaches: 0,
            recovery: ScrubStats {
                quarantined_bytes: 58,
                quarantined_records: 2,
                repairs: 3,
                checkpoints_recovered: 1,
            },
            resumed_apps: 4,
            fresh_apps: 46,
            replayed_prior_epoch: 39,
            reanalyzed_dirty: 11,
            validation_memo: Some(CacheStat {
                name: "chain-validation".into(),
                hits: 900,
                misses: 100,
            }),
            peak_rss_kib: Some(123_456),
            apps_per_sec: Some(87.5),
        });
        for row in [
            "worker panics recovered      1",
            "circuit-breaker trips        7",
            "journal truncations          1",
            "quarantined bytes           58",
            "quarantined records          2",
            "journal repairs              3",
            "checkpoints recovered        1",
            "apps resumed from journal    4",
            "apps measured fresh         46",
            "apps replayed from prior epoch  39",
            "apps reanalyzed (dirty)     11",
            "peak RSS (KiB)          123456",
            "throughput (apps/sec)     87.5",
            "cache chain-validation (hit/miss)  900/100 (90.0%)",
        ] {
            let words: Vec<&str> = row.split_whitespace().collect();
            assert!(
                s.lines()
                    .any(|l| l.split_whitespace().collect::<Vec<_>>() == words),
                "missing {row:?} in:\n{s}"
            );
        }
        // Untimed runs render a dash, not a bogus zero, and a run without
        // a memo has no cache row.
        let dashes = table_run_health(&RunHealth::default());
        assert!(dashes.contains("peak RSS (KiB)") && dashes.contains("—"));
        assert!(dashes.contains("journal truncations") && !dashes.contains("cache"));
    }

    #[test]
    fn absorb_sums_counters_and_keeps_run_scoped_values() {
        let epoch = RunHealth {
            panics_recovered: 1,
            breaker_trips: 2,
            watchdog_breaches: 3,
            recovery: ScrubStats {
                quarantined_bytes: 4,
                ..ScrubStats::default()
            },
            resumed_apps: 5,
            fresh_apps: 6,
            replayed_prior_epoch: 7,
            reanalyzed_dirty: 8,
            validation_memo: Some(CacheStat::default()),
            peak_rss_kib: Some(9),
            apps_per_sec: Some(10.0),
        };
        let mut total = RunHealth::default();
        total.absorb(&epoch);
        total.absorb(&epoch);
        assert_eq!(
            total,
            RunHealth {
                panics_recovered: 2,
                breaker_trips: 4,
                watchdog_breaches: 6,
                recovery: ScrubStats {
                    quarantined_bytes: 8,
                    ..ScrubStats::default()
                },
                resumed_apps: 10,
                fresh_apps: 12,
                replayed_prior_epoch: 14,
                reanalyzed_dirty: 16,
                ..RunHealth::default()
            }
        );
    }

    #[test]
    fn run_produces_all_datasets_and_records() {
        let r = results();
        assert_eq!(r.datasets.len(), 6);
        for d in &r.datasets {
            for idx in &d.app_indices {
                assert!(r.records.contains_key(idx), "missing record for app {idx}");
            }
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let mut cfg_seq = StudyConfig::tiny(0xAA);
        cfg_seq.threads = 1;
        let mut cfg_par = StudyConfig::tiny(0xAA);
        cfg_par.threads = 4;
        let a = Study::new(cfg_seq).run();
        let b = Study::new(cfg_par).run();
        assert_eq!(a.records.len(), b.records.len());
        for (idx, ra) in &a.records {
            let rb = &b.records[idx];
            assert_eq!(ra.pinned_destinations, rb.pinned_destinations, "app {idx}");
            assert_eq!(ra.weak_overall, rb.weak_overall);
            assert_eq!(ra.n_handshakes_baseline, rb.n_handshakes_baseline);
        }
    }

    #[test]
    fn pinning_detected_in_some_dataset() {
        let r = results();
        let total: usize = DatasetKind::ALL
            .iter()
            .flat_map(|k| Platform::BOTH.map(|p| r.dataset_records(*k, p)))
            .flatten()
            .filter(|rec| rec.pins())
            .count();
        assert!(
            total > 0,
            "a study that finds no pinning reproduces nothing"
        );
    }

    #[test]
    fn detection_is_sound_wrt_ground_truth() {
        let r = results();
        for record in r.records.values() {
            let app = &r.world.apps[record.app_index];
            let truth: BTreeSet<&str> = app.runtime_pinned_domains().into_iter().collect();
            for d in &record.pinned_destinations {
                assert!(truth.contains(d.as_str()), "{}: false positive {d}", app.id);
            }
        }
    }

    #[test]
    fn faulted_study_degrades_gracefully_and_stays_sound() {
        let mut cfg = StudyConfig::tiny(0xFA);
        cfg.faults = FaultConfig::chaos();
        let r = Study::new(cfg).run();
        // Degraded records keep static findings but no dynamic observables.
        for (rec, err) in r.degraded_apps() {
            assert!(rec.pinned_destinations.is_empty());
            assert!(rec.used_destinations.is_empty());
            assert_eq!(rec.error, Some(err));
        }
        assert_eq!(
            r.degraded_summary().values().sum::<usize>(),
            r.degraded_apps().len()
        );
        // Faults must never create pinning false positives.
        for record in r.records.values() {
            let app = &r.world.apps[record.app_index];
            let truth: BTreeSet<&str> = app.runtime_pinned_domains().into_iter().collect();
            for d in &record.pinned_destinations {
                assert!(truth.contains(d.as_str()), "{}: false positive {d}", app.id);
            }
        }
    }

    #[test]
    fn adversarial_cohort_degrades_to_structured_errors() {
        let mut cfg = StudyConfig::tiny(0xAD7);
        cfg.world.adversarial_apps = 8;
        let r = Study::new(cfg).run();
        assert_eq!(r.world.hostile_apps.len(), 8);
        // Every hostile app is measured and classified as malformed input —
        // never a fabricated verdict, never a crash.
        for &i in &r.world.hostile_apps {
            let rec = r.records.get(&i).expect("hostile app measured");
            match rec.error {
                Some(MeasurementError::MalformedInput { .. }) => {}
                other => panic!("hostile app {i} not classified MalformedInput: {other:?}"),
            }
            assert!(rec.pinned_destinations.is_empty());
        }
        let rows = r.resilience_summary();
        let rejected: usize = rows.iter().map(|x| x.rejected).sum();
        let trips: usize = rows.iter().map(|x| x.budget_trips).sum();
        assert_eq!(rejected, 8);
        assert!(
            trips >= 3,
            "deep chains / giant SANs / stacked wildcards must trip budgets, got {trips}"
        );
        assert!(
            rows.iter().filter(|x| x.rejected > 0).count() >= 3,
            "rejections should span multiple layers: {rows:?}"
        );
        assert_eq!(r.health.panics_recovered, 0);
        // The hostile cohort never leaks into the sampled datasets.
        for d in &r.datasets {
            for i in &d.app_indices {
                assert!(!r.world.hostile_apps.contains(i));
            }
        }
        // Deterministic: a rerun renders byte-identically.
        let mut cfg2 = StudyConfig::tiny(0xAD7);
        cfg2.world.adversarial_apps = 8;
        let r2 = Study::new(cfg2).run();
        assert_eq!(r.render_all(), r2.render_all());
    }

    #[test]
    fn clean_study_reports_no_degradation() {
        let r = results();
        assert!(r.degraded_apps().is_empty());
        assert!(r.degraded_summary().is_empty());
        assert_eq!(r.health.panics_recovered, 0);
        assert_eq!(r.health.breaker_trips, 0);
        assert_eq!(r.health.resumed_apps, 0);
        assert_eq!(r.health.fresh_apps, r.records.len());
    }

    #[test]
    fn ios_records_have_static_findings_despite_encryption() {
        let r = results();
        let ios_with_findings = r
            .platform_records(Platform::Ios)
            .iter()
            .filter(|rec| rec.static_findings.has_pin_material())
            .count();
        assert!(
            ios_with_findings > 0,
            "decryption-by-key must unlock iOS scanning"
        );
        assert!(r
            .platform_records(Platform::Ios)
            .iter()
            .all(|rec| !rec.static_findings.scan_blocked_encrypted));
    }

    #[test]
    fn kill_leaves_exactly_n_committed_records() {
        let mut cfg = StudyConfig::tiny(0x4B);
        cfg.supervisor.kill_after_apps = Some(5);
        let journal = cfg.journal();
        match Study::new(cfg).run_with_journal(journal).unwrap() {
            StudyOutcome::Interrupted {
                journal,
                apps_committed,
            } => {
                assert_eq!(apps_committed, 5);
                assert_eq!(journal.len(), 5);
            }
            StudyOutcome::Completed(_) => panic!("kill_after_apps must interrupt"),
        }
    }

    #[test]
    fn resume_completes_a_killed_run() {
        let mut cfg = StudyConfig::tiny(0x4C);
        cfg.supervisor.kill_after_apps = Some(4);
        let journal = cfg.journal();
        let StudyOutcome::Interrupted { journal, .. } =
            Study::new(cfg.clone()).run_with_journal(journal).unwrap()
        else {
            panic!("expected interruption")
        };

        cfg.supervisor.kill_after_apps = None;
        let resumed = completed(Study::new(cfg.clone()).resume(journal.as_bytes()).unwrap());
        let uninterrupted = Study::new(cfg).run();
        assert_eq!(resumed.records.len(), uninterrupted.records.len());
        assert_eq!(resumed.health.resumed_apps, 4);
        assert_eq!(
            resumed.health.resumed_apps + resumed.health.fresh_apps,
            resumed.records.len()
        );
    }

    #[test]
    fn one_thread_commits_apps_in_ascending_index_order() {
        let mut cfg = StudyConfig::tiny(0x4E);
        cfg.threads = 1;
        cfg.supervisor.kill_after_apps = Some(12);
        let StudyOutcome::Interrupted { journal, .. } = Study::new(cfg.clone())
            .run_with_journal(cfg.journal())
            .unwrap()
        else {
            panic!("expected interruption")
        };
        let order: Vec<u64> = ResultJournal::open(journal.as_bytes())
            .unwrap()
            .entries
            .iter()
            .map(|e| e.app_index)
            .collect();
        assert_eq!(order.len(), 12);
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "one worker must measure apps in ascending index order: {order:?}"
        );
    }

    #[test]
    fn pooled_kill_resumed_on_one_thread_renders_identically() {
        let mut cfg = StudyConfig::tiny(0x4F);
        cfg.threads = 4;
        cfg.supervisor.kill_after_apps = Some(10);
        let StudyOutcome::Interrupted { journal, .. } = Study::new(cfg.clone())
            .run_with_journal(cfg.journal())
            .unwrap()
        else {
            panic!("expected interruption")
        };
        cfg.threads = 1;
        cfg.supervisor.kill_after_apps = None;
        let resumed = completed(Study::new(cfg.clone()).resume(journal.as_bytes()).unwrap());
        assert_eq!(resumed.health.resumed_apps, 10);
        assert_eq!(resumed.render_all(), Study::new(cfg).run().render_all());
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let journal = StudyConfig::tiny(1).journal();
        let err = Study::new(StudyConfig::tiny(2))
            .resume(journal.as_bytes())
            .unwrap_err();
        assert_eq!(err, JournalError::FingerprintMismatch);
    }

    #[test]
    fn threads_do_not_change_the_fingerprint_but_seeds_do() {
        let mut a = StudyConfig::tiny(7);
        let mut b = StudyConfig::tiny(7);
        b.threads = 64;
        b.supervisor.kill_after_apps = Some(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.world.seed = 8;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn injected_panic_degrades_exactly_that_app() {
        let probe = StudyConfig::tiny(0x9A);
        let victim = *Study::new(probe.clone())
            .run()
            .records
            .keys()
            .next()
            .expect("tiny world has apps");

        let mut cfg = probe;
        cfg.supervisor.inject_panic_app = Some(victim);
        let r = Study::new(cfg).run();
        assert_eq!(
            r.records[&victim].error,
            Some(MeasurementError::WorkerPanic)
        );
        assert_eq!(r.health.panics_recovered, 1);
        let other_degraded = r
            .degraded_apps()
            .iter()
            .filter(|(rec, _)| rec.app_index != victim)
            .count();
        assert_eq!(other_degraded, 0, "panic must degrade exactly one app");
    }
}
