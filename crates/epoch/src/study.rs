//! The incremental re-study engine: runs one journaled study per epoch,
//! replaying clean apps' verdicts from the previous epoch and
//! re-measuring only the apps whose content fingerprint changed.
//!
//! The engine's invariant (gated by `benches/epoch.rs` and the
//! proptests): an incremental epoch run renders **byte-identically** to
//! a cold full re-run of the same epoch, while re-measuring only the
//! dirty apps. That holds because replayed verdicts come from the same
//! journal format fresh measurements commit to, and materialization
//! replays the journal either way.

use crate::fingerprint::{app_fingerprints_with, ServedState};
use crate::plan::{apply_epoch, EpochConfig, EpochPlan};
use crate::state::{EpochState, StateError};
use pinning_analysis::dynamics::pipeline::RetryPolicy;
use pinning_analysis::statics::{analyze_package, StaticFindings};
use pinning_app::platform::Platform;
use pinning_core::journal::{AppOutcome, EncodedEntry, JournalEntry, JournalError, ResultJournal};
use pinning_core::record::AppRecord;
use pinning_core::study::{Study, StudyConfig, StudyOutcome, StudyResults, SupervisorConfig};
use pinning_crypto::Sha256;
use pinning_netsim::faults::FaultConfig;
use pinning_pki::validate::ValidationMemo;
use pinning_report::evolution::{
    self, AdoptionPoint, CtDriftPoint, DistrustRow, EpochCostRow, EventCountRow, RotationRow,
};
use pinning_report::tables::{table_run_health, RunHealthReport};
use pinning_resilience::media::{Media, MediaError};
use pinning_resilience::recovery::{CheckpointStore, ScrubStats};
use pinning_store::datasets::build_datasets;
use pinning_store::world::World;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How one epoch run ended.
#[derive(Debug)]
pub enum EpochOutcome {
    /// The epoch committed fully; [`Evolution::completed`] advanced.
    Completed,
    /// The run was killed mid-epoch (via the kill hook); the journal
    /// bytes feed [`Evolution::resume_epoch`] — or
    /// [`Evolution::state_bytes`] plus the journal survive a process
    /// death.
    Interrupted(Vec<u8>),
}

/// A longitudinal study: the baseline epoch plus `config.epochs`
/// evolution epochs, driven one [`Evolution::next_epoch`] at a time.
#[derive(Debug)]
pub struct Evolution {
    config: EpochConfig,
    plan: EpochPlan,
    incremental: bool,
    /// The evolved world, if this process still holds it. `None` after
    /// an interruption (the study consumed it); rebuilt on demand.
    world: Option<World>,
    /// How many epochs' events `world` has absorbed (0 = baseline).
    evolved_for: Option<usize>,
    /// Completed epochs (baseline counts as 1).
    done: usize,
    /// Per-app fingerprints at the last completed epoch.
    fingerprints: Vec<[u8; 32]>,
    /// Records of the last completed epoch (they stay in `unrendered`
    /// until that epoch is settled).
    records: BTreeMap<usize, AppRecord>,
    /// Incremental mode only: each record's journal frame, refreshed when
    /// the app is re-measured, so replaying a clean app copies its frame
    /// instead of encoding and checksumming it again.
    frames: BTreeMap<usize, EncodedEntry>,
    /// The last completed epoch's study results, kept until its report
    /// is rendered. [`Evolution::full_report`] renders it on first use;
    /// the next epoch and [`Evolution::state_bytes`] render it first if
    /// nobody asked. Either way each epoch's report is rendered once,
    /// before the next epoch measures anything.
    unrendered: Option<StudyResults>,
    /// `render_all()` of the last completed epoch, once rendered.
    last_render: OnceLock<String>,
    adoption: Vec<AdoptionPoint>,
    distrust: Vec<DistrustRow>,
    rotation: Vec<RotationRow>,
    ct_drift: Vec<CtDriftPoint>,
    event_mix: Vec<EventCountRow>,
    costs: Vec<EpochCostRow>,
    /// Journal-scrub and checkpoint-fallback accounting accumulated over
    /// this engine's lifetime (resumes, checkpoint recoveries).
    recovery: ScrubStats,
    /// The validation memo every epoch's study shares, warm across epochs.
    memo: Option<Arc<ValidationMemo>>,
}

impl Evolution {
    /// Creates the engine. `incremental = false` is the cold baseline
    /// mode: every epoch re-measures every app (the control arm the
    /// byte-identity gate compares against).
    pub fn new(config: EpochConfig, incremental: bool) -> Self {
        let plan = EpochPlan::generate(&config);
        Evolution {
            config,
            plan,
            incremental,
            world: None,
            evolved_for: None,
            done: 0,
            fingerprints: Vec::new(),
            records: BTreeMap::new(),
            frames: BTreeMap::new(),
            unrendered: None,
            last_render: OnceLock::new(),
            adoption: Vec::new(),
            distrust: Vec::new(),
            rotation: Vec::new(),
            ct_drift: Vec::new(),
            event_mix: Vec::new(),
            costs: Vec::new(),
            recovery: ScrubStats::default(),
            memo: Some(Arc::default()),
        }
    }

    /// Runs every epoch with `memo` instead of the engine's own (`None` =
    /// validate every chain from scratch; the reports are identical).
    pub fn with_memo(mut self, memo: Option<Arc<ValidationMemo>>) -> Self {
        self.memo = memo;
        self
    }

    /// Total epochs (baseline + evolution).
    pub fn epochs_total(&self) -> usize {
        self.config.epochs + 1
    }

    /// Epochs completed so far.
    pub fn completed(&self) -> usize {
        self.done
    }

    /// The generated plan (for inspection/tests).
    pub fn plan(&self) -> &EpochPlan {
        &self.plan
    }

    /// Per-app fingerprints at the last completed epoch.
    pub fn fingerprints(&self) -> &[[u8; 32]] {
        &self.fingerprints
    }

    /// The study configuration an epoch runs under: same world knobs
    /// every epoch, no faults, no breaker — epoch deltas must come from
    /// epoch events, never from injected chaos.
    fn study_config(&self, kill_after: Option<usize>) -> StudyConfig {
        StudyConfig {
            world: self.config.world.clone(),
            threads: self.config.threads,
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            breaker: None,
            supervisor: SupervisorConfig {
                watchdog_secs: 300,
                kill_after_apps: kill_after,
                inject_panic_app: None,
            },
        }
    }

    /// Journal fingerprint of epoch `k`: the study fingerprint extended
    /// with the plan identity and the epoch number, so an epoch-2
    /// journal can never resume epoch 3.
    fn epoch_fp(&self, k: usize) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.study_config(None).fingerprint());
        h.update(&self.config.identity());
        h.update(&(k as u64).to_le_bytes());
        h.finalize()
    }

    /// Ensures `self.world` holds the world evolved through epoch `k`'s
    /// events, returning the per-event touched sets of epoch `k` (empty
    /// for the baseline). Rebuilding from scratch is deterministic:
    /// every event's sub-rng derives from `(seed, epoch, index)`.
    fn evolve_to(&mut self, k: usize) -> Vec<BTreeSet<usize>> {
        let mut from = match self.evolved_for {
            Some(n) if n <= k && self.world.is_some() => n,
            _ => {
                self.world = Some(World::generate(self.config.world.clone()));
                0
            }
        };
        let world = self.world.as_mut().expect("just ensured");
        let mut touched = Vec::new();
        while from < k {
            let epoch = from + 1;
            touched = apply_epoch(world, &self.plan.epochs[epoch - 1], self.config.seed, epoch);
            from = epoch;
        }
        self.evolved_for = Some(k);
        if k == 0 {
            Vec::new()
        } else {
            touched
        }
    }

    /// Runs epoch `completed()` to completion. The epoch's study report
    /// is rendered by the first [`Evolution::full_report`] after it, or
    /// before the next epoch starts if nobody asked.
    pub fn next_epoch(&mut self) -> Result<(), JournalError> {
        match self.run_epoch(None, None)? {
            EpochOutcome::Completed => Ok(()),
            EpochOutcome::Interrupted(_) => unreachable!("no kill hook set"),
        }
    }

    /// Runs epoch `completed()` with the kill hook armed: the study
    /// stops after `kill_after` freshly measured apps, simulating the
    /// process dying mid-epoch.
    pub fn next_epoch_with_kill(
        &mut self,
        kill_after: usize,
    ) -> Result<EpochOutcome, JournalError> {
        self.run_epoch(Some(kill_after), None)
    }

    /// Resumes the current epoch from an interrupted journal image.
    pub fn resume_epoch(&mut self, journal_bytes: &[u8]) -> Result<(), JournalError> {
        match self.run_epoch(None, Some(journal_bytes))? {
            EpochOutcome::Completed => Ok(()),
            EpochOutcome::Interrupted(_) => unreachable!("no kill hook set"),
        }
    }

    fn run_epoch(
        &mut self,
        kill_after: Option<usize>,
        partial: Option<&[u8]>,
    ) -> Result<EpochOutcome, JournalError> {
        let k = self.done;
        assert!(k < self.epochs_total(), "all epochs already completed");
        let started = Instant::now();

        self.settle();
        let touched = self.evolve_to(k);
        let world = self.world.take().expect("evolve_to populates the world");
        let fingerprint = self.epoch_fp(k);

        // The measured population: every dataset member plus the hostile
        // cohort (listings are event-invariant, so this matches what the
        // study itself will enumerate).
        let datasets = build_datasets(&world);
        let measured: BTreeSet<usize> = datasets
            .iter()
            .flat_map(|d| d.app_indices.iter().copied())
            .chain(world.hostile_apps.iter().copied())
            .collect();

        // Only measured apps need fingerprints; unlisted store apps can
        // never be dirty or clean — they are simply never measured.
        let mut new_fps = vec![[0u8; 32]; world.apps.len()];
        let fps = app_fingerprints_with(
            measured.iter().map(|&i| &world.apps[i]),
            &mut ServedState::of_world(&world),
        );
        for (&i, fp) in measured.iter().zip(fps) {
            new_fps[i] = fp;
        }

        // Dirty = fingerprint changed (or no prior verdict). The
        // baseline and the cold mode re-measure everything.
        let dirty: BTreeSet<usize> = if k == 0 || !self.incremental {
            measured.clone()
        } else {
            measured
                .iter()
                .copied()
                .filter(|&i| {
                    self.fingerprints.get(i) != Some(&new_fps[i]) || !self.records.contains_key(&i)
                })
                .collect()
        };
        let replayed = measured.len() - dirty.len();

        // Pre-seed the journal with the clean apps' prior-epoch verdicts
        // (app-index order), and hand the study their static findings: a
        // clean app's fingerprint covers its package's content hash, so
        // its findings cannot have changed. A resumed epoch brings its
        // own journal, which already holds these plus whatever fresh apps
        // committed, and scans every app as a fresh process does.
        let study = Study::new(self.study_config(kill_after)).with_memo(self.memo.clone());
        let outcome = match partial {
            Some(bytes) => study.resume_on_world(world, bytes, fingerprint)?,
            None => {
                let mut journal = ResultJournal::create(fingerprint);
                let mut statics = BTreeMap::new();
                for &i in &measured {
                    if dirty.contains(&i) {
                        continue;
                    }
                    let frame = &self.frames[&i];
                    let record = &self.records[&i];
                    debug_assert_eq!(*frame, encode_record(i, record));
                    journal.append_encoded(frame);
                    debug_assert_eq!(
                        record.static_findings,
                        scan(&world, i, self.config.world.ios_encryption_seed)
                    );
                    statics.insert(i, record.static_findings.clone());
                }
                study.run_on_world_with_statics(world, journal, fingerprint, statics)?
            }
        };

        let mut results = match outcome {
            StudyOutcome::Completed(results) => *results,
            StudyOutcome::Interrupted { journal, .. } => {
                // The study consumed the world; a resume rebuilds it
                // deterministically from the plan.
                self.evolved_for = None;
                return Ok(EpochOutcome::Interrupted(journal.into_bytes()));
            }
        };
        if self.incremental {
            for &i in &dirty {
                self.frames
                    .insert(i, encode_record(i, &results.records[&i]));
            }
        }
        if self.incremental && k > 0 {
            results.health.replayed_prior_epoch = replayed;
            results.health.reanalyzed_dirty = dirty.len();
        }
        // Keep the journal-scrub accounting past the epoch: the study's
        // RunHealth dies with its results, the evolution's does not.
        self.recovery.quarantined_bytes += results.health.quarantined_bytes;
        self.recovery.quarantined_records += results.health.quarantined_records;
        self.recovery.repairs += results.health.journal_repairs;
        self.recovery.checkpoints_recovered += results.health.checkpoints_recovered;

        self.collect_rows(k, &results, &touched);
        self.costs.push(EpochCostRow {
            epoch: k,
            replayed: if self.incremental && k > 0 {
                replayed
            } else {
                0
            },
            reanalyzed: dirty.len(),
            wall_ms: started.elapsed().as_millis() as u64,
        });
        self.evolved_for = Some(k);
        self.fingerprints = new_fps;
        self.last_render = OnceLock::new();
        self.unrendered = Some(results);
        self.done = k + 1;
        Ok(EpochOutcome::Completed)
    }

    /// Renders the last epoch's report if nobody has yet, then takes
    /// back that epoch's world and records for the next epoch.
    fn settle(&mut self) {
        if let Some(results) = self.unrendered.take() {
            self.last_render.get_or_init(|| results.render_all());
            let StudyResults { world, records, .. } = results;
            self.world = Some(world);
            self.records = records;
        }
    }

    /// `render_all()` of the last completed epoch, rendered on first use
    /// (empty before the first epoch).
    fn last_render(&self) -> &str {
        match &self.unrendered {
            Some(results) => self.last_render.get_or_init(|| results.render_all()),
            None => self.last_render.get().map_or("", String::as_str),
        }
    }

    /// Derives the delta-report rows for a completed epoch `k`.
    fn collect_rows(&mut self, k: usize, results: &StudyResults, touched: &[BTreeSet<usize>]) {
        for d in &results.datasets {
            let pinning = d
                .app_indices
                .iter()
                .filter(|i| results.records[i].pins())
                .count();
            self.adoption.push(AdoptionPoint {
                epoch: k,
                dataset: format!("{}/{}", d.platform, d.kind.label()),
                apps: d.app_indices.len(),
                pinning,
            });
        }

        let events: &[crate::event::EpochEvent] = if k == 0 {
            &[]
        } else {
            &self.plan.epochs[k - 1]
        };
        for (ev, touch) in events.iter().zip(touched) {
            match ev {
                crate::event::EpochEvent::RootDistrust { root_cn } => {
                    let newly_broken = touch
                        .iter()
                        .filter(|i| {
                            let (Some(prior), Some(now)) =
                                (self.records.get(i), results.records.get(i))
                            else {
                                return false;
                            };
                            prior
                                .used_destinations
                                .iter()
                                .any(|d| !now.used_destinations.contains(d))
                        })
                        .count();
                    self.distrust.push(DistrustRow {
                        epoch: k,
                        root: root_cn.clone(),
                        apps_touched: touch.len(),
                        newly_broken,
                    });
                }
                crate::event::EpochEvent::PinRotation { hostname } => {
                    let surviving = touch
                        .iter()
                        .filter(|i| {
                            results.records.get(i).is_some_and(|r| {
                                r.pinned_destinations.iter().any(|d| d == hostname)
                            })
                        })
                        .count();
                    self.rotation.push(RotationRow {
                        epoch: k,
                        hostname: hostname.clone(),
                        pinned_before: touch.len(),
                        surviving,
                    });
                }
                _ => {}
            }
        }

        let servers = results.world.network.servers();
        let covered = servers
            .iter()
            .filter(|s| {
                s.chain.leaf().is_some_and(|leaf| {
                    results
                        .world
                        .ctlog
                        .search_by_fingerprint(&leaf.fingerprint_sha256())
                        .is_some()
                })
            })
            .count();
        self.ct_drift.push(CtDriftPoint {
            epoch: k,
            covered_hosts: covered,
            total_hosts: servers.len(),
            unique_certs: results.world.ctlog.n_unique_certs(),
        });

        let mut mix: BTreeMap<&'static str, usize> = BTreeMap::new();
        for ev in events {
            *mix.entry(ev.label()).or_insert(0) += 1;
        }
        for (label, count) in mix {
            self.event_mix.push(EventCountRow {
                epoch: k,
                label: label.to_string(),
                count,
            });
        }
    }

    /// The "store evolution" delta report: every accumulated trend table
    /// except the cost accounting (which is wall-clock telemetry and
    /// therefore excluded from byte comparison).
    pub fn delta_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&evolution::table_adoption_trend(&self.adoption));
        out.push('\n');
        out.push_str(&evolution::table_distrust_breakage(&self.distrust));
        out.push('\n');
        out.push_str(&evolution::table_rotation_survival(&self.rotation));
        out.push('\n');
        out.push_str(&evolution::table_ct_drift(&self.ct_drift));
        out.push('\n');
        out.push_str(&evolution::table_epoch_events(&self.event_mix));
        out
    }

    /// The byte-compared artifact: the last epoch's full study report
    /// plus the accumulated delta report.
    pub fn full_report(&self) -> String {
        let mut out = self.last_render().to_owned();
        out.push('\n');
        out.push_str(&self.delta_report());
        out
    }

    /// Incremental-cost accounting (replayed vs reanalyzed, wall time).
    pub fn cost_report(&self) -> String {
        evolution::table_epoch_costs(&self.costs)
    }

    /// Raw per-epoch cost rows (the bench reads wall times from here).
    pub fn costs(&self) -> &[EpochCostRow] {
        &self.costs
    }

    /// Sum of apps replayed from a prior epoch across all epochs so far.
    pub fn total_replayed(&self) -> usize {
        self.costs.iter().map(|c| c.replayed).sum()
    }

    /// Serializes everything a fresh process needs to continue this run
    /// after the last completed epoch. The journal inside is rebuilt
    /// canonically (app-index order) from the records, so two processes
    /// that completed the same epochs persist identical state.
    pub fn state_bytes(&self) -> Vec<u8> {
        assert!(self.done > 0, "no completed epoch to persist");
        let mut journal = ResultJournal::create(self.epoch_fp(self.done - 1));
        let records = self
            .unrendered
            .as_ref()
            .map_or(&self.records, |r| &r.records);
        for (&i, rec) in records {
            journal.append_encoded(&encode_record(i, rec));
        }
        EpochState {
            identity: self.config.identity(),
            done: self.done as u64,
            incremental: self.incremental,
            fingerprints: self.fingerprints.clone(),
            journal: journal.into_bytes(),
            last_render: self.last_render().to_owned(),
            adoption: self.adoption.clone(),
            distrust: self.distrust.clone(),
            rotation: self.rotation.clone(),
            ct_drift: self.ct_drift.clone(),
            event_mix: self.event_mix.clone(),
            costs: self.costs.clone(),
        }
        .to_bytes()
    }

    /// Saves the engine's state into a double-buffered
    /// [`CheckpointStore`], returning the new generation stamp.
    ///
    /// A failed save (crash, ENOSPC, torn write) can only damage the
    /// slot holding the *older* image — the last good checkpoint
    /// survives in the other slot and [`Evolution::from_checkpoint`]
    /// falls back to it.
    pub fn checkpoint<M: Media>(&self, store: &mut CheckpointStore<M>) -> Result<u64, MediaError> {
        store.save(&self.state_bytes())
    }

    /// Rebuilds an engine from the newest loadable checkpoint in a
    /// [`CheckpointStore`].
    ///
    /// Returns [`StateError::NoCheckpoint`] when neither slot holds a
    /// loadable image. When the newest slot was damaged and the load
    /// fell back to the older generation, the recovery is counted in
    /// this engine's [`recovery`](Evolution::recovery) stats (the
    /// "checkpoints recovered" run-health row) — explicitly degraded to
    /// an older-but-consistent state, never silently wrong.
    pub fn from_checkpoint<M: Media>(
        config: EpochConfig,
        store: &mut CheckpointStore<M>,
    ) -> Result<Self, StateError> {
        let recovered = store.load().ok_or(StateError::NoCheckpoint)?;
        let mut engine = Evolution::from_state(config, &recovered.payload)?;
        if recovered.fell_back {
            engine.recovery.checkpoints_recovered += 1;
        }
        Ok(engine)
    }

    /// Journal-scrub and checkpoint-fallback accounting accumulated over
    /// this engine's lifetime.
    pub fn recovery(&self) -> ScrubStats {
        self.recovery
    }

    /// Renders the run-health table for this evolution: replay/reanalyze
    /// totals plus the accumulated journal-repair and
    /// checkpoint-recovery accounting.
    pub fn render_run_health(&self) -> String {
        table_run_health(&RunHealthReport {
            journal_truncations: u32::from(!self.recovery.is_clean()),
            quarantined_bytes: self.recovery.quarantined_bytes,
            quarantined_records: self.recovery.quarantined_records,
            journal_repairs: self.recovery.repairs,
            checkpoints_recovered: self.recovery.checkpoints_recovered,
            replayed_prior_epoch: self.total_replayed(),
            reanalyzed_dirty: self.costs.iter().map(|c| c.reanalyzed).sum(),
            ..Default::default()
        })
    }

    /// Rebuilds an engine from a [`EpochState`] image: regenerates the
    /// world, replays the plan through the last completed epoch, and
    /// materializes the records from the persisted journal.
    pub fn from_state(config: EpochConfig, bytes: &[u8]) -> Result<Self, StateError> {
        let state = EpochState::from_bytes(bytes)?;
        if state.identity != config.identity() {
            return Err(StateError::IdentityMismatch);
        }
        let mut engine = Evolution::new(config, state.incremental);
        engine.done = state.done as usize;
        engine.fingerprints = state.fingerprints;
        engine.last_render = OnceLock::from(state.last_render);
        engine.adoption = state.adoption;
        engine.distrust = state.distrust;
        engine.rotation = state.rotation;
        engine.ct_drift = state.ct_drift;
        engine.event_mix = state.event_mix;
        engine.costs = state.costs;

        // Rebuild the last completed epoch's world and materialize the
        // journal against it (statics are recomputed, same as the study's
        // own materialization path).
        engine.evolve_to(engine.done.saturating_sub(1));
        let world = engine.world.as_ref().expect("evolve_to populates");
        let replay = ResultJournal::open(&state.journal).map_err(|_| StateError::BadHeader)?;
        if replay.fingerprint != engine.epoch_fp(engine.done - 1) || replay.truncated() {
            return Err(StateError::IdentityMismatch);
        }
        let decrypt_key = engine.config.world.ios_encryption_seed;
        let mut records = BTreeMap::new();
        for entry in &replay.entries {
            let i = entry.app_index as usize;
            let app = &world.apps[i];
            let statics = scan(world, i, decrypt_key);
            let record = match &entry.outcome {
                AppOutcome::Measured(m) => AppRecord::from_measured(i, app.id.clone(), statics, m),
                AppOutcome::Failed(e) => AppRecord::failed(i, app.id.clone(), statics, *e),
            };
            if engine.incremental {
                engine.frames.insert(i, EncodedEntry::new(entry));
            }
            records.insert(i, record);
        }
        engine.records = records;
        Ok(engine)
    }
}

/// The static scan of app `i` in `world`, as the study materializes it.
fn scan(world: &World, i: usize, decrypt_key: u64) -> StaticFindings {
    let app = &world.apps[i];
    analyze_package(
        &app.package,
        (app.id.platform == Platform::Ios).then_some(decrypt_key),
    )
}

/// A completed record, re-encoded as the journal record it came from.
fn encode_record(app_index: usize, rec: &AppRecord) -> EncodedEntry {
    let outcome = match rec.error {
        Some(e) => AppOutcome::Failed(e),
        None => AppOutcome::Measured(Box::new(rec.to_measured())),
    };
    EncodedEntry::new(&JournalEntry {
        app_index: app_index as u64,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_epoch_measures_everything() {
        let mut ev = Evolution::new(EpochConfig::tiny(0xB0), true);
        ev.next_epoch().unwrap();
        assert_eq!(ev.completed(), 1);
        assert_eq!(ev.costs[0].replayed, 0);
        assert!(ev.costs[0].reanalyzed > 0);
        assert!(!ev.full_report().is_empty());
    }

    #[test]
    fn incremental_replays_clean_apps_and_matches_cold() {
        let mut warm = Evolution::new(EpochConfig::tiny(0xB1), true);
        let mut cold = Evolution::new(EpochConfig::tiny(0xB1), false);
        for _ in 0..warm.epochs_total() {
            warm.next_epoch().unwrap();
            cold.next_epoch().unwrap();
            assert_eq!(
                warm.full_report(),
                cold.full_report(),
                "incremental epoch {} diverged from cold re-run",
                warm.completed() - 1
            );
        }
        assert!(
            warm.total_replayed() > 0,
            "evolution epochs must replay clean apps"
        );
        assert_eq!(cold.total_replayed(), 0);
    }

    #[test]
    fn carried_static_findings_match_a_fresh_scan() {
        use pinning_app::package::AppFile;
        use pinning_crypto::{b64encode, sha256};

        let config = EpochConfig::tiny(0xB6);
        let key = config.world.ios_encryption_seed;
        let mut ev = Evolution::new(config, true);
        ev.next_epoch().unwrap();
        ev.settle();
        for k in 1..ev.epochs_total() {
            // No plan event changes package bytes, so update two packages
            // by hand: an Android app gains a pin string, and an iOS app
            // with pin material loses every file.
            let world = ev
                .world
                .as_mut()
                .expect("a completed epoch keeps its world");
            let platform = |i: usize| world.apps[i].id.platform;
            let gains = ev
                .records
                .keys()
                .copied()
                .filter(|&i| platform(i) == Platform::Android)
                .nth(k)
                .expect("an Android app");
            let loses = ev
                .records
                .iter()
                .find(|(&i, r)| {
                    platform(i) == Platform::Ios && r.static_findings.has_pin_material()
                })
                .map(|(&i, _)| i)
                .expect("an iOS app with pin material");
            let pin = format!("sha256/{}", b64encode(&sha256(&k.to_le_bytes())));
            let package = &mut world.apps[gains].package;
            package
                .files
                .push(AppFile::text(format!("assets/pin_{k}.txt"), pin));
            package.invalidate_content_hash();
            let package = &mut world.apps[loses].package;
            package.files.clear();
            package.invalidate_content_hash();

            ev.next_epoch().unwrap();
            ev.settle();
            assert!(ev.costs[k].replayed > 0, "epoch {k} carries clean apps");
            let world = ev
                .world
                .as_ref()
                .expect("a completed epoch keeps its world");
            for (&i, record) in &ev.records {
                assert_eq!(
                    record.static_findings,
                    scan(world, i, key),
                    "epoch {k}: app {i}'s static findings are stale"
                );
            }
            assert!(ev.records[&gains].static_findings.has_pin_material());
            assert!(!ev.records[&loses].static_findings.has_pin_material());
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_crash_fallback() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        use pinning_resilience::recovery::CheckpointStore;

        let mut ev = Evolution::new(EpochConfig::tiny(0xB4), true);
        ev.next_epoch().unwrap();

        // Empty store: structured NoCheckpoint, not a panic.
        let mut empty = CheckpointStore::in_memory();
        assert_eq!(
            Evolution::from_checkpoint(EpochConfig::tiny(0xB4), &mut empty).unwrap_err(),
            StateError::NoCheckpoint
        );

        // Checkpoint after epoch 1 (slot 1, honest medium) and epoch 2
        // (slot 0, which rots every read-back): the newer image is
        // damaged, the load falls back to the epoch-1 generation, and
        // the fallback is reported.
        let mut store = CheckpointStore::new(
            FaultMedia::new(MediaFaultPlan::bit_rot(13)),
            FaultMedia::new(MediaFaultPlan::none(13)),
        );
        ev.checkpoint(&mut store).unwrap();
        let report_after_1 = ev.full_report();
        ev.next_epoch().unwrap();
        ev.checkpoint(&mut store).unwrap();
        store.crash();

        let restored = Evolution::from_checkpoint(EpochConfig::tiny(0xB4), &mut store).unwrap();
        assert_eq!(restored.completed(), 1, "fell back to the epoch-1 image");
        assert_eq!(restored.full_report(), report_after_1);
        assert_eq!(restored.recovery().checkpoints_recovered, 1);
        let health = restored.render_run_health();
        assert!(health.contains("checkpoints recovered"), "{health}");
    }

    #[test]
    fn checkpoint_from_another_fingerprint_scheme_re_measures_every_app() {
        let mut ev = Evolution::new(EpochConfig::tiny(0xB5), true);
        ev.next_epoch().unwrap();
        // A checkpoint written under an older fingerprint scheme holds
        // digests of other bytes: model it by changing every entry.
        let mut state = EpochState::from_bytes(&ev.state_bytes()).unwrap();
        for fp in &mut state.fingerprints {
            fp[0] ^= 0xff;
        }
        let mut stale = Evolution::from_state(EpochConfig::tiny(0xB5), &state.to_bytes()).unwrap();
        stale.next_epoch().unwrap();
        ev.next_epoch().unwrap();
        assert_eq!(stale.full_report(), ev.full_report());
        assert_eq!(stale.fingerprints(), ev.fingerprints());
        let (fresh, stale_cost) = (&ev.costs[1], &stale.costs[1]);
        assert!(fresh.replayed > 0, "the fresh run replays clean apps");
        assert_eq!(stale_cost.replayed, 0, "no stale verdict is replayed");
        assert_eq!(stale_cost.reanalyzed, fresh.replayed + fresh.reanalyzed);
    }

    #[test]
    fn state_roundtrip_restores_the_engine() {
        let mut ev = Evolution::new(EpochConfig::tiny(0xB2), true);
        ev.next_epoch().unwrap();
        ev.next_epoch().unwrap();
        let bytes = ev.state_bytes();
        let mut restored = Evolution::from_state(EpochConfig::tiny(0xB2), &bytes).unwrap();
        assert_eq!(restored.completed(), 2);
        assert_eq!(restored.full_report(), ev.full_report());
        assert_eq!(restored.fingerprints(), ev.fingerprints());
        // The restored engine replays clean apps from the checkpoint's
        // journal exactly as the original replays them from memory.
        ev.next_epoch().unwrap();
        restored.next_epoch().unwrap();
        assert_eq!(restored.full_report(), ev.full_report());
        assert!(restored.costs[2].replayed > 0);
        assert_eq!(restored.costs[2].replayed, ev.costs[2].replayed);
        assert_eq!(
            Evolution::from_state(EpochConfig::tiny(0xFF), &bytes).unwrap_err(),
            StateError::IdentityMismatch
        );
    }
}
