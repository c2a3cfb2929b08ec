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
//! * a token gate bounds how many materialized shards exist at once, so
//!   peak memory is `O(max_inflight_shards × shard_size)` — flat in the
//!   total app count;
//! * workers pull from per-worker deques and steal from the most loaded
//!   peer when their own runs dry (the cargo `JobQueue` shape), so a slow
//!   shard never idles the rest of the pool.
//!
//! Because [`StreamAccum::merge`] is associative and commutative, the
//! rendered report is byte-identical at any thread count and any shard
//! size — that invariant is gated by tests here and by
//! `benches/stream.rs`. The shard journal gives kill-and-resume at shard
//! granularity with the same longest-intact-prefix recovery contract as
//! the per-app journal.

use crate::accum::StreamAccum;
use crate::journal::JournalError;
use crate::record::AppRecord;
use pinning_analysis::circumvent::circumvent_app;
use pinning_analysis::dynamics::pipeline::{try_analyze_app, DynamicEnv};
use pinning_analysis::statics::analyze_package;
use pinning_app::platform::Platform;
use pinning_crypto::Sha256;
use pinning_netsim::faults::MeasurementError;
use pinning_pki::encode::{Reader, Writer};
use pinning_pki::validate::clear_validation_cache;
use pinning_report::tables::{table_run_health, RunHealthReport};
use pinning_resilience::media::{Media, MediaError, VecMedia};
use pinning_resilience::recovery::{append_frame, scrub_frames, ScrubStats};
use pinning_store::config::WorldConfig;
use pinning_store::shard::StreamWorld;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

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
const HEADER_LEN: usize = 40;
const FRAME_LEN: usize = pinning_resilience::recovery::FRAME_OVERHEAD;

/// Append-only shard journal over a [`Media`]: one frame per completed
/// shard, carrying that shard's encoded accumulator. Same physical
/// layout as the per-app [`crate::ResultJournal`] —
/// `[len u32 LE][sha256(payload)][payload]` frames after a
/// magic+fingerprint header — read back through the same shared
/// scrubbing recovery. The default [`VecMedia`] is byte-identical to the
/// pre-`Media` journal.
#[derive(Debug, Clone)]
pub struct StreamJournal<M: Media = VecMedia> {
    media: M,
    frames: usize,
}

impl StreamJournal<VecMedia> {
    /// Starts an empty in-memory journal bound to a config fingerprint.
    pub fn create(fingerprint: [u8; 32]) -> StreamJournal {
        StreamJournal::create_on(VecMedia::new(), fingerprint)
            .expect("VecMedia never refuses a write")
    }

    /// Appends one completed shard's accumulator (infallible on perfect
    /// media).
    pub fn append_shard(&mut self, shard_index: u64, accum: &StreamAccum) {
        self.try_append_shard(shard_index, accum)
            .expect("VecMedia never refuses a write")
    }

    /// The on-disk byte image.
    pub fn as_bytes(&self) -> &[u8] {
        self.media.bytes()
    }

    /// Consumes the journal into its byte image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.media.into_bytes()
    }

    /// Scrubs a journal image, recovering every intact shard frame.
    ///
    /// Torn tails, flipped bits, wild lengths, and duplicated segments
    /// are quarantined by the shared [`scrub_frames`] reader — which
    /// resyncs past mid-journal damage, so a broken earlier frame no
    /// longer forfeits every later shard — with the damage accounted in
    /// [`StreamReplay::stats`].
    pub fn open(bytes: &[u8]) -> Result<StreamReplay, JournalError> {
        if bytes.len() < HEADER_LEN {
            return Err(JournalError::TooShort);
        }
        if &bytes[..8] != STREAM_JOURNAL_MAGIC {
            return Err(JournalError::BadMagic);
        }
        let mut fingerprint = [0u8; 32];
        fingerprint.copy_from_slice(&bytes[8..HEADER_LEN]);

        let recovered = scrub_frames(bytes, HEADER_LEN);
        let mut stats = recovered.stats;
        let mut shards: BTreeMap<u64, StreamAccum> = BTreeMap::new();
        for payload in recovered.frames {
            let mut r = Reader::new(payload);
            let parsed = (|| {
                let index = r.u64().ok()?;
                let accum = StreamAccum::decode(&r.bytes().ok()?).ok()?;
                r.is_empty().then_some((index, accum))
            })();
            match parsed {
                // Shard frames are idempotent: if damage elsewhere caused
                // a re-commit, the accumulators are identical by
                // construction, so last-wins insertion is safe.
                Some((index, accum)) => {
                    shards.insert(index, accum);
                }
                // Checksum-valid but undecodable: version skew.
                // Quarantine the frame; shards are independent.
                None => {
                    stats.quarantined_bytes += (FRAME_LEN + payload.len()) as u64;
                    stats.quarantined_records += 1;
                }
            }
        }
        Ok(StreamReplay {
            fingerprint,
            shards,
            stats,
        })
    }
}

impl<M: Media> StreamJournal<M> {
    /// Starts an empty journal written through `media`: resets the
    /// medium, writes the header, and flushes it.
    pub fn create_on(mut media: M, fingerprint: [u8; 32]) -> Result<StreamJournal<M>, MediaError> {
        media.reset();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(STREAM_JOURNAL_MAGIC);
        header.extend_from_slice(&fingerprint);
        media.append(&header)?;
        media.flush()?;
        Ok(StreamJournal { media, frames: 0 })
    }

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
        let payload = w.into_bytes();
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        append_frame(&mut frame, &payload);
        self.media.append(&frame)?;
        self.media.flush()?;
        self.frames += 1;
        Ok(())
    }

    /// Shard frames committed so far.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// True when no shard has been committed.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Borrow of the backing medium.
    pub fn media(&self) -> &M {
        &self.media
    }

    /// Mutable borrow of the backing medium (e.g. to crash it).
    pub fn media_mut(&mut self) -> &mut M {
        &mut self.media
    }

    /// Consumes the journal, returning the backing medium.
    pub fn into_media(self) -> M {
        self.media
    }
}

/// Recovered contents of a scrubbed shard journal.
#[derive(Debug, Clone)]
pub struct StreamReplay {
    /// Fingerprint of the config the journal was written under.
    pub fingerprint: [u8; 32],
    /// Committed shard accumulators, by shard index.
    pub shards: BTreeMap<u64, StreamAccum>,
    /// Quarantine and repair accounting from the scrub pass (all zero =
    /// the journal read back exactly as written).
    pub stats: ScrubStats,
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

/// Token gate bounding in-flight materialized shards — the engine's
/// memory ceiling. `acquire` blocks until a slot frees (or the kill
/// flag trips); `release` wakes one waiter.
struct ShardGate {
    slots: Mutex<usize>,
    freed: Condvar,
}

impl ShardGate {
    fn new(slots: usize) -> ShardGate {
        ShardGate {
            slots: Mutex::new(slots.max(1)),
            freed: Condvar::new(),
        }
    }

    /// Blocks for a slot; returns false if the run was killed meanwhile.
    fn acquire(&self, killed: &AtomicBool) -> bool {
        let mut slots = self.slots.lock().expect("gate lock");
        while *slots == 0 {
            if killed.load(Ordering::Acquire) {
                return false;
            }
            slots = self.freed.wait(slots).expect("gate wait");
        }
        *slots -= 1;
        true
    }

    fn release(&self) {
        *self.slots.lock().expect("gate lock") += 1;
        self.freed.notify_one();
    }

    fn wake_all(&self) {
        self.freed.notify_all();
    }
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
        let replay = self.scrubbed_replay(journal_bytes)?;
        // Rebuild the journal from the recovered shards so the resumed
        // file is clean even when the original was damaged.
        let mut journal = StreamJournal::create(replay.fingerprint);
        for (index, accum) in &replay.shards {
            journal.append_shard(*index, accum);
        }
        self.execute(journal, replay.shards, replay.stats)
    }

    /// Resumes from what `media` reads back after a crash: scrubs the
    /// surviving image, rewrites a clean journal through the *same*
    /// medium, and measures only the missing shards.
    pub fn resume_media<M: Media + Send>(
        &self,
        mut media: M,
    ) -> Result<StreamOutcome<M>, JournalError> {
        let image = media.read_back();
        let replay = self.scrubbed_replay(&image)?;
        let mut journal = StreamJournal::create_on(media, replay.fingerprint)?;
        for (index, accum) in &replay.shards {
            journal.try_append_shard(*index, accum)?;
        }
        self.execute(journal, replay.shards, replay.stats)
    }

    fn scrubbed_replay(&self, journal_bytes: &[u8]) -> Result<StreamReplay, JournalError> {
        let replay = StreamJournal::open(journal_bytes)?;
        if replay.fingerprint != self.config.fingerprint() {
            return Err(JournalError::FingerprintMismatch);
        }
        Ok(replay)
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
        let shards_resumed = done.len();
        let decrypt_key = self.config.world.ios_encryption_seed;
        let seed = self.config.world.seed;

        let threads = self.config.threads.clamp(1, pending.len().max(1));
        // Round-robin initial distribution over per-worker run queues;
        // idle workers steal from the back of the most loaded peer.
        let runs: Vec<Mutex<VecDeque<usize>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, k) in pending.iter().enumerate() {
            runs[i % threads].lock().expect("run lock").push_back(*k);
        }

        let gate = ShardGate::new(self.config.max_inflight_shards);
        let killed = AtomicBool::new(false);
        let apps_measured = AtomicU64::new(0);
        let panics = AtomicU64::new(0);
        // (journal, fresh shard commits) — append + kill-check are atomic
        // under one lock, so a kill after N commits leaves exactly N new
        // frames, mirroring the per-app journal's contract.
        let committed: Mutex<(StreamJournal<M>, usize)> = Mutex::new((journal, 0));
        let kill_after = self.config.kill_after_shards;
        let partials: Mutex<Vec<StreamAccum>> = Mutex::new(Vec::new());
        // First media refusal (e.g. ENOSPC) — it kills the run and is
        // returned as a structured error instead of a silent truncation.
        let media_failure: Mutex<Option<MediaError>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for me in 0..threads {
                let runs = &runs;
                let gate = &gate;
                let killed = &killed;
                let committed = &committed;
                let partials = &partials;
                let media_failure = &media_failure;
                let apps_measured = &apps_measured;
                let panics = &panics;
                let world = &world;
                scope.spawn(move || {
                    let mut partial = StreamAccum::default();
                    loop {
                        if killed.load(Ordering::Acquire) {
                            break;
                        }
                        // Own queue first (front), then steal from the
                        // most loaded peer (back) — the classic deque
                        // split that keeps stolen work coarse.
                        let next = runs[me].lock().expect("run lock").pop_front().or_else(|| {
                            let victim = (0..threads)
                                .filter(|v| *v != me)
                                .max_by_key(|v| runs[*v].lock().expect("run lock").len())?;
                            runs[victim].lock().expect("run lock").pop_back()
                        });
                        let Some(k) = next else { break };
                        if !gate.acquire(killed) {
                            break;
                        }
                        // Materialize, measure, journal, drop. The shard
                        // and its env die at the end of this block — the
                        // gate token is the only thing bounding how many
                        // of these exist at once.
                        {
                            let shard = world.generate_shard(k);
                            let env = DynamicEnv::new(
                                &shard.network,
                                universe.aosp_oem.clone(),
                                universe.ios.clone(),
                                shard.now,
                                seed,
                            );
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
                            let mut slot = committed.lock().expect("journal lock");
                            if killed.load(Ordering::Acquire) {
                                break; // the process "died" mid-measure
                            }
                            if let Err(e) = slot.0.try_append_shard(k as u64, &acc) {
                                media_failure
                                    .lock()
                                    .expect("media failure lock")
                                    .get_or_insert(e);
                                killed.store(true, Ordering::Release);
                                gate.wake_all();
                                break;
                            }
                            slot.1 += 1;
                            if kill_after == Some(slot.1) {
                                killed.store(true, Ordering::Release);
                                gate.wake_all();
                            }
                            drop(slot);
                            partial.merge(&acc);
                        }
                        // The chain-validation memo is process-global and
                        // would grow with every unique streamed chain;
                        // clearing per shard keeps memory flat. Values are
                        // deterministic, so a clear racing another worker
                        // costs recomputation, never correctness.
                        clear_validation_cache();
                        gate.release();
                    }
                    partials.lock().expect("partials lock").push(partial);
                });
            }
        });

        let (journal, fresh) = committed.into_inner().expect("journal lock");
        if let Some(e) = media_failure.into_inner().expect("media failure lock") {
            return Err(JournalError::Media(e));
        }
        if killed.into_inner() {
            return Ok(StreamOutcome::Interrupted {
                shards_committed: journal.len(),
                journal,
            });
        }

        // Fold: journaled (resumed) shard accumulators + this process's
        // worker partials. merge() is associative + commutative, so the
        // fold order cannot affect the rendered bytes.
        let mut accum = StreamAccum::default();
        for acc in done.values() {
            accum.merge(acc);
        }
        for partial in partials.into_inner().expect("partials lock").iter() {
            accum.merge(partial);
        }

        let elapsed = start.elapsed().as_secs_f64();
        let apps = apps_measured.into_inner();
        Ok(StreamOutcome::Completed(Box::new(StreamResults {
            accum,
            health: StreamHealth {
                shards_total: n_shards,
                shards_resumed,
                shards_fresh: fresh,
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
    fn torn_journal_tail_is_quarantined() {
        let mut cfg = config(7, 1);
        cfg.kill_after_shards = Some(2);
        let StreamOutcome::Interrupted { journal, .. } = StreamEngine::new(cfg).run() else {
            panic!("kill hook did not fire");
        };
        let bytes = journal.into_bytes();

        // Truncate mid-frame: the first shard survives, the tail is
        // quarantined rather than corrupting the replay.
        let torn = &bytes[..bytes.len() - 7];
        let replay = StreamJournal::open(torn).expect("header intact");
        assert_eq!(replay.shards.len(), 1);
        assert!(replay.stats.quarantined_bytes > 0);

        // Flip a payload byte: same outcome via the frame digest.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        let replay = StreamJournal::open(&flipped).expect("header intact");
        assert_eq!(replay.shards.len(), 1);
        assert!(replay.stats.quarantined_bytes > 0);
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
