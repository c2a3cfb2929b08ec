//! Streaming million-app study engine.
//!
//! The monolithic [`crate::Study`] materializes the whole world before
//! measuring it, which caps the study size at available memory. This
//! engine inverts the pipeline into a producer/consumer stream:
//!
//! * the producer is [`pinning_store::shard::StreamWorld`] — shards of
//!   apps are generated on demand, each a pure function of
//!   `(config, shard_size, shard index)`;
//! * each worker measures a shard into a mergeable
//!   [`StreamAccum`] partial, journals the shard's accumulator, and
//!   **drops the shard** before touching the next one;
//! * the shared supervisor (`core::supervise`) schedules shards over
//!   per-worker deques with stealing, and its token gate bounds how many
//!   materialized shards exist at once, so peak memory is
//!   `O(max_inflight_shards × shard_size)` — flat in the total app count.
//!
//! Because [`StreamAccum::merge`] is associative and commutative, the
//! rendered report is byte-identical at any thread count and any shard
//! size — that invariant is gated by tests here and by
//! `benches/stream.rs`. The shard journal gives kill-and-resume at shard
//! granularity in the same [`Journal`] container as the per-app journal:
//! opening it scrubs every frame, quarantines damaged ones and resyncs
//! past them, so a damaged shard is re-measured and the shards after it
//! are kept.

use crate::accum::StreamAccum;
use crate::journal::{Journal, JournalError, Record};
use crate::record::AppRecord;
use crate::supervise::Pool;
use pinning_analysis::circumvent::circumvent_app;
use pinning_analysis::dynamics::pipeline::{try_analyze_app, DynamicEnv};
use pinning_analysis::statics::analyze_package;
use pinning_app::platform::Platform;
use pinning_crypto::Sha256;
use pinning_netsim::faults::MeasurementError;
use pinning_pki::encode::{Reader, Writer};
use pinning_pki::validate::ValidationMemo;
use pinning_report::tables::{table_run_health, RunHealthReport};
use pinning_resilience::media::{Media, MediaError, VecMedia};
use pinning_resilience::recovery::ScrubStats;
use pinning_store::config::WorldConfig;
use pinning_store::shard::StreamWorld;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Streaming run parameters.
///
/// Only [`StreamConfig::world`] participates in the journal fingerprint:
/// shard size, thread count, in-flight bound, and the kill hook are
/// *scheduling* knobs, and a journal written under one schedule must
/// resume cleanly under another (that is the whole point of the
/// determinism contract).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// World recipe (the only fingerprinted field).
    pub world: WorldConfig,
    /// Products per generated shard (apps ≈ 2× this, one per platform
    /// plus single-platform tails).
    pub shard_size: usize,
    /// Worker threads.
    pub threads: usize,
    /// Maximum shards materialized at once — the memory ceiling.
    pub max_inflight_shards: usize,
    /// Test hook: simulate the process dying after N shard commits.
    pub kill_after_shards: Option<usize>,
}

impl StreamConfig {
    /// A streaming config over the given world with sane scheduling
    /// defaults (single worker, two shards in flight).
    pub fn new(world: WorldConfig, shard_size: usize) -> StreamConfig {
        StreamConfig {
            world,
            shard_size,
            threads: 1,
            max_inflight_shards: 2,
            kill_after_shards: None,
        }
    }

    /// Journal compatibility fingerprint. Scheduling knobs are excluded
    /// on purpose: resuming a journal at a different thread count or
    /// shard size must work and must not change the report.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"stream-v1|");
        h.update(format!("{:?}", self.world).as_bytes());
        h.finalize()
    }
}

/// Magic prefix of the shard journal (version 1).
pub const STREAM_JOURNAL_MAGIC: &[u8; 8] = b"STRMJRN1";

/// One committed shard journal record: a completed shard's accumulator.
#[derive(Debug, Clone)]
pub struct ShardEntry {
    /// Index of the shard in the streamed world.
    pub shard_index: u64,
    /// The shard's folded measurements.
    pub accum: StreamAccum,
}

impl Record for ShardEntry {
    const MAGIC: &'static [u8; 8] = STREAM_JOURNAL_MAGIC;

    fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let shard_index = r.u64().ok()?;
        let accum = StreamAccum::decode(&r.bytes().ok()?).ok()?;
        r.is_empty().then_some(ShardEntry { shard_index, accum })
    }
}

/// The shard journal (`STRMJRN1`): one frame per completed shard,
/// carrying that shard's encoded accumulator, in the same [`Journal`]
/// container as the per-app [`crate::ResultJournal`].
pub type StreamJournal<M = VecMedia> = Journal<ShardEntry, M>;

impl StreamJournal {
    /// Appends one completed shard's accumulator (infallible on perfect
    /// media).
    pub fn append_shard(&mut self, shard_index: u64, accum: &StreamAccum) {
        self.try_append_shard(shard_index, accum)
            .expect("VecMedia never refuses a write")
    }
}

impl<M: Media> StreamJournal<M> {
    /// Appends one completed shard's accumulator through the medium,
    /// with a flush barrier so the commit is durable on return (honest
    /// media).
    pub fn try_append_shard(
        &mut self,
        shard_index: u64,
        accum: &StreamAccum,
    ) -> Result<(), MediaError> {
        let mut w = Writer::new();
        w.u64(shard_index);
        w.bytes(&accum.encode());
        self.try_append_payload(&w.into_bytes())
    }
}

/// Volatile run telemetry — everything here may differ between two runs
/// that render byte-identical reports.
#[derive(Debug, Clone, Default)]
pub struct StreamHealth {
    /// Shards in the whole study.
    pub shards_total: usize,
    /// Shards recovered from the journal instead of re-measured.
    pub shards_resumed: usize,
    /// Shards measured by this process.
    pub shards_fresh: usize,
    /// Apps measured by this process (resumed shards excluded).
    pub apps_measured: u64,
    /// Worker panics converted into degraded records.
    pub panics_recovered: u64,
    /// Wall-clock seconds of the measuring phase.
    pub elapsed_secs: f64,
    /// Peak resident-set size (VmHWM), KiB; `None` off Linux.
    pub peak_rss_kib: Option<u64>,
    /// Fresh apps per wall-clock second.
    pub apps_per_sec: Option<f64>,
    /// Journal scrub accounting from the resume that seeded this run
    /// (all zero for a fresh run or a clean journal).
    pub recovery: ScrubStats,
}

/// A finished streaming study.
#[derive(Debug, Clone)]
pub struct StreamResults {
    /// The merged accumulator — sole input of the deterministic report.
    pub accum: StreamAccum,
    /// Volatile telemetry for this particular run.
    pub health: StreamHealth,
}

impl StreamResults {
    /// The deterministic streamed report: a pure function of the merged
    /// accumulator, byte-identical across thread counts and shard sizes.
    pub fn render_report(&self) -> String {
        self.accum.render()
    }

    /// The volatile run-health table (timings, RSS, resume counters,
    /// journal repair accounting).
    pub fn render_health(&self) -> String {
        table_run_health(&RunHealthReport {
            panics_recovered: self.health.panics_recovered.min(u32::MAX as u64) as u32,
            journal_truncations: u32::from(!self.health.recovery.is_clean()),
            quarantined_bytes: self.health.recovery.quarantined_bytes,
            quarantined_records: self.health.recovery.quarantined_records,
            journal_repairs: self.health.recovery.repairs,
            checkpoints_recovered: self.health.recovery.checkpoints_recovered,
            resumed_apps: (self.accum.apps - self.health.apps_measured) as usize,
            fresh_apps: self.health.apps_measured as usize,
            peak_rss_kib: self.health.peak_rss_kib,
            apps_per_sec: self.health.apps_per_sec,
            ..Default::default()
        })
    }
}

/// How a streaming run ended.
#[derive(Debug)]
pub enum StreamOutcome<M: Media = VecMedia> {
    /// Every shard measured and folded.
    Completed(Box<StreamResults>),
    /// The (simulated) kill fired; the journal holds the committed
    /// shards and a resume will finish the rest.
    Interrupted {
        /// Journal with every committed shard frame.
        journal: StreamJournal<M>,
        /// Shards committed before the kill.
        shards_committed: usize,
    },
}

/// Reads the process's peak resident-set size from `/proc/self/status`
/// (the `VmHWM` high-water mark), in KiB. `None` where procfs is absent.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// The streaming engine.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    config: StreamConfig,
}

impl StreamEngine {
    /// Builds an engine over a config.
    pub fn new(config: StreamConfig) -> StreamEngine {
        StreamEngine { config }
    }

    /// Runs the study from scratch over perfect in-memory media.
    pub fn run(&self) -> StreamOutcome {
        let journal = StreamJournal::create(self.config.fingerprint());
        self.execute(journal, BTreeMap::new(), ScrubStats::default())
            .expect("VecMedia never refuses a write")
    }

    /// Runs the study from scratch, journaling through `media` — the
    /// chaos suite's entry point for end-to-end runs over
    /// [`FaultMedia`](pinning_resilience::FaultMedia).
    ///
    /// A medium that refuses a write (e.g. ENOSPC) surfaces as a
    /// structured [`JournalError::Media`], never a panic or a silently
    /// truncated run.
    pub fn run_on_media<M: Media + Send>(
        &self,
        media: M,
    ) -> Result<StreamOutcome<M>, JournalError> {
        let journal = StreamJournal::create_on(media, self.config.fingerprint())?;
        self.execute(journal, BTreeMap::new(), ScrubStats::default())
    }

    /// Resumes from a journal image: committed shards are folded from
    /// their journaled accumulators, only missing shards are measured.
    pub fn resume(&self, journal_bytes: &[u8]) -> Result<StreamOutcome, JournalError> {
        self.resume_media(VecMedia::from_bytes(journal_bytes.to_vec()))
    }

    /// Resumes from what `media` reads back after a crash: scrubs the
    /// surviving image, rewrites a clean journal through the *same*
    /// medium, and measures only the missing shards.
    pub fn resume_media<M: Media + Send>(
        &self,
        mut media: M,
    ) -> Result<StreamOutcome<M>, JournalError> {
        let image = media.read_back();
        let (shards, stats) = self.committed_shards(&image)?;
        let mut journal = StreamJournal::create_on(media, self.config.fingerprint())?;
        for (index, accum) in &shards {
            journal.try_append_shard(*index, accum)?;
        }
        self.execute(journal, shards, stats)
    }

    /// The shards a journal image holds, by index, plus the scrub's
    /// accounting.
    fn committed_shards(
        &self,
        journal_bytes: &[u8],
    ) -> Result<(BTreeMap<u64, StreamAccum>, ScrubStats), JournalError> {
        let replay = StreamJournal::open_expecting(journal_bytes, self.config.fingerprint())?;
        // Shard frames are idempotent: if damage elsewhere caused a
        // re-commit, the accumulators are identical by construction, so
        // last-wins insertion is safe.
        let shards = replay
            .entries
            .into_iter()
            .map(|e| (e.shard_index, e.accum))
            .collect();
        Ok((shards, replay.stats))
    }

    fn execute<M: Media + Send>(
        &self,
        journal: StreamJournal<M>,
        done: BTreeMap<u64, StreamAccum>,
        recovery: ScrubStats,
    ) -> Result<StreamOutcome<M>, JournalError> {
        let start = Instant::now();
        let world = StreamWorld::new(self.config.world.clone(), self.config.shard_size.max(1));
        let universe = world.universe();
        let n_shards = world.n_shards();
        let pending: Vec<usize> = (0..n_shards)
            .filter(|k| !done.contains_key(&(*k as u64)))
            .collect();
        let decrypt_key = self.config.world.ios_encryption_seed;
        let seed = self.config.world.seed;
        let apps_measured = AtomicU64::new(0);
        let panics = AtomicU64::new(0);
        // This process's shards, folded as they are measured. A run that
        // does not complete discards the fold, so folding before the
        // commit is sound; merge() is associative and commutative, so the
        // fold order cannot affect the rendered bytes.
        let fresh = Mutex::new(StreamAccum::default());

        // Materialize, measure, drop: the shard, its env and its validation
        // memo die when this returns, so the in-flight bound is what bounds
        // how many of them exist at once, and memory stays flat however
        // many unique chains the stream presents.
        let measure_shard = |k: usize| -> StreamAccum {
            let shard = world.generate_shard(k);
            let memo = ValidationMemo::default();
            let env = DynamicEnv::new(
                &shard.network,
                universe.aosp_oem.clone(),
                universe.ios.clone(),
                shard.now,
                seed,
            )
            .with_memo(Some(&memo));
            let identity = env.device(Platform::Android).identity.clone();
            let mut acc = StreamAccum {
                shards: 1,
                ..Default::default()
            };
            for sa in &shard.apps {
                let record = catch_unwind(AssertUnwindSafe(|| {
                    measure_one(&env, sa.product_index, &sa.app, decrypt_key)
                }))
                .unwrap_or_else(|_| {
                    panics.fetch_add(1, Ordering::Relaxed);
                    AppRecord::failed(
                        sa.product_index,
                        sa.app.id.clone(),
                        Default::default(),
                        MeasurementError::WorkerPanic,
                    )
                });
                acc.add_app(
                    &sa.datasets,
                    sa.app.category.label_on(sa.app.id.platform),
                    &record,
                    &identity,
                );
            }
            apps_measured.fetch_add(shard.apps.len() as u64, Ordering::Relaxed);
            fresh.lock().expect("fold lock").merge(&acc);
            acc
        };

        let pool = Pool {
            threads: self.config.threads,
            max_inflight: Some(self.config.max_inflight_shards),
            kill_after: self.config.kill_after_shards,
            watchdog: Duration::ZERO,
        };
        let run = pool.run(
            &pending,
            journal,
            measure_shard,
            |journal: &mut StreamJournal<M>, k, acc| journal.try_append_shard(k as u64, &acc),
        )?;
        if run.killed {
            return Ok(StreamOutcome::Interrupted {
                shards_committed: run.journal.len(),
                journal: run.journal,
            });
        }

        let mut accum = fresh.into_inner().expect("fold lock");
        for acc in done.values() {
            accum.merge(acc);
        }

        let elapsed = start.elapsed().as_secs_f64();
        let apps = apps_measured.into_inner();
        Ok(StreamOutcome::Completed(Box::new(StreamResults {
            accum,
            health: StreamHealth {
                shards_total: n_shards,
                shards_resumed: done.len(),
                shards_fresh: run.fresh,
                apps_measured: apps,
                panics_recovered: panics.into_inner(),
                elapsed_secs: elapsed,
                peak_rss_kib: peak_rss_kib(),
                apps_per_sec: (elapsed > 0.0).then(|| apps as f64 / elapsed),
                recovery,
            },
        })))
    }
}

/// Measures one streamed app to a record.
fn measure_one(
    env: &DynamicEnv<'_>,
    product_index: usize,
    app: &pinning_app::app::MobileApp,
    decrypt_key: u64,
) -> AppRecord {
    let static_findings = analyze_package(
        &app.package,
        (app.id.platform == Platform::Ios).then_some(decrypt_key),
    );
    match try_analyze_app(env, app) {
        Ok(dynamic) => {
            let pinned = dynamic.pinned_destinations();
            let circ = (!pinned.is_empty()).then(|| circumvent_app(env, app, &pinned));
            AppRecord::assemble(
                product_index,
                app.id.clone(),
                static_findings,
                &dynamic,
                circ.as_ref(),
            )
        }
        Err(error) => AppRecord::failed(product_index, app.id.clone(), static_findings, error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(shard_size: usize, threads: usize) -> StreamConfig {
        StreamConfig {
            world: WorldConfig::tiny(11),
            shard_size,
            threads,
            max_inflight_shards: 2,
            kill_after_shards: None,
        }
    }

    fn completed(outcome: StreamOutcome) -> StreamResults {
        match outcome {
            StreamOutcome::Completed(results) => *results,
            StreamOutcome::Interrupted { .. } => panic!("run was interrupted"),
        }
    }

    #[test]
    fn report_is_identical_across_threads_and_shard_sizes() {
        // The tentpole invariant: every (shard size × thread count)
        // schedule renders the same bytes.
        let baseline = completed(StreamEngine::new(config(7, 1)).run()).render_report();
        assert!(baseline.contains("Streamed study report"));
        for (shard_size, threads) in [(7, 4), (13, 1), (13, 3), (64, 2)] {
            let got =
                completed(StreamEngine::new(config(shard_size, threads)).run()).render_report();
            if got != baseline {
                for (a, b) in baseline.lines().zip(got.lines()) {
                    if a != b {
                        eprintln!("baseline: {a}\n     got: {b}");
                    }
                }
            }
            assert_eq!(
                got, baseline,
                "report diverged at shard_size={shard_size} threads={threads}"
            );
        }
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        let clean = completed(StreamEngine::new(config(7, 2)).run());

        let mut cfg = config(7, 2);
        cfg.kill_after_shards = Some(1);
        let StreamOutcome::Interrupted {
            journal,
            shards_committed,
        } = StreamEngine::new(cfg).run()
        else {
            panic!("kill hook did not fire");
        };
        assert_eq!(shards_committed, 1);

        // Resume under a *different* schedule — more threads, and the
        // journal fingerprint must not care.
        let resumed = completed(
            StreamEngine::new(config(7, 3))
                .resume(journal.as_bytes())
                .expect("journal resumes"),
        );
        assert!(resumed.health.shards_resumed >= 1);
        assert_eq!(resumed.render_report(), clean.render_report());
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let journal =
            StreamJournal::create(StreamConfig::new(WorldConfig::tiny(1), 8).fingerprint());
        let other = StreamEngine::new(StreamConfig::new(WorldConfig::tiny(2), 8));
        assert!(matches!(
            other.resume(journal.as_bytes()),
            Err(JournalError::FingerprintMismatch)
        ));
    }

    #[test]
    fn faultless_fault_media_run_matches_vec_media_run() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        let clean = completed(StreamEngine::new(config(7, 2)).run());
        let outcome = StreamEngine::new(config(7, 2))
            .run_on_media(FaultMedia::new(MediaFaultPlan::none(99)))
            .expect("fault-free media never refuses");
        let StreamOutcome::Completed(results) = outcome else {
            panic!("no kill hook set");
        };
        assert_eq!(results.render_report(), clean.render_report());
    }

    #[test]
    fn nospace_mid_stream_is_a_structured_error() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        // Room for the header and roughly one shard frame, then ENOSPC.
        let outcome = StreamEngine::new(config(7, 1))
            .run_on_media(FaultMedia::new(MediaFaultPlan::tight(4, 600)));
        assert!(
            matches!(outcome, Err(JournalError::Media(MediaError::NoSpace))),
            "a full medium must surface as a structured error, got {outcome:?}"
        );
    }

    #[test]
    fn killed_runs_end_with_more_workers_than_tokens() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        use std::sync::mpsc;
        // Three of four workers wait at the gate at any moment, so a kill
        // that skips a waiter's wake-up, or an exit that keeps its token,
        // leaves the run waiting forever.
        for attempt in 0..20u64 {
            for by_media in [false, true] {
                let mut cfg = config(7, 4);
                cfg.max_inflight_shards = 1;
                if !by_media {
                    cfg.kill_after_shards = Some(1 + attempt as usize % 3);
                }
                let (tx, rx) = mpsc::channel();
                let run = std::thread::spawn(move || {
                    let engine = StreamEngine::new(cfg);
                    let ended = if by_media {
                        let media = FaultMedia::new(MediaFaultPlan::tight(attempt, 600));
                        matches!(
                            engine.run_on_media(media),
                            Err(JournalError::Media(MediaError::NoSpace))
                        )
                    } else {
                        matches!(engine.run(), StreamOutcome::Interrupted { .. })
                    };
                    let _ = tx.send(ended);
                });
                let ended = rx.recv_timeout(std::time::Duration::from_secs(120));
                if let Err(mpsc::RecvTimeoutError::Timeout) = ended {
                    panic!("run {attempt} (media kill: {by_media}) hung");
                }
                run.join().expect("the run returns");
                assert_eq!(
                    ended,
                    Ok(true),
                    "run {attempt} (media kill: {by_media}) ended wrongly"
                );
            }
        }
    }

    #[test]
    fn scheduling_knobs_do_not_change_fingerprint() {
        let a = config(7, 1).fingerprint();
        let b = config(512, 8).fingerprint();
        assert_eq!(a, b, "shard size / threads must not fingerprint");
        let mut c = config(7, 1);
        c.world.seed ^= 1;
        assert_ne!(a, c.fingerprint(), "world changes must fingerprint");
    }

    #[test]
    fn health_reports_throughput_and_rss() {
        let results = completed(StreamEngine::new(config(13, 2)).run());
        assert!(results.health.apps_measured > 0);
        assert!(results.health.apps_per_sec.unwrap_or(0.0) > 0.0);
        let health = results.render_health();
        assert!(health.contains("throughput (apps/sec)"));
        assert!(health.contains("peak RSS (KiB)"));
    }
}
