//! Chaos smoke: a scripted crash-and-resume cycle under fault injection.
//!
//! ```sh
//! cargo run --release --example chaos_smoke            # default seed
//! cargo run --release --example chaos_smoke -- 7 4     # seed 7, kill after 4
//! ```
//!
//! Runs a tiny-scale study under the chaos fault schedule, kills it after
//! N committed apps, then resumes from the surviving journal bytes and
//! checks the resumed report is byte-identical to an uninterrupted run of
//! the same configuration. A second cycle repeats the exercise on the
//! streaming engine with the journal routed through hostile storage
//! ([`FaultMedia`]): torn tails, lying flushes, and duplicated segments
//! between kill and resume. Exits nonzero on any divergence, so CI can
//! use it as a release-mode crash- and storage-fault gate.

use app_tls_pinning::core::stream::{StreamConfig, StreamEngine, StreamOutcome};
use app_tls_pinning::core::{Study, StudyConfig, StudyOutcome};
use app_tls_pinning::netsim::faults::FaultConfig;
use app_tls_pinning::resilience::{FaultMedia, Media, MediaFaultPlan};
use app_tls_pinning::store::config::WorldConfig;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2022);
    let kill_after: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);

    let config = || {
        let mut cfg = StudyConfig::tiny(seed);
        cfg.faults = FaultConfig::chaos();
        cfg
    };

    // Phase 1: run under chaos faults, die after `kill_after` apps.
    eprintln!("phase 1: chaos study, killed after {kill_after} committed apps…");
    let t0 = Instant::now();
    let mut killed_cfg = config();
    killed_cfg.supervisor.kill_after_apps = Some(kill_after);
    let journal = killed_cfg.journal();
    let outcome = Study::new(killed_cfg)
        .run_with_journal(journal)
        .expect("fresh journal must match its own config");
    let StudyOutcome::Interrupted {
        journal,
        apps_committed,
    } = outcome
    else {
        eprintln!("error: kill_after_apps={kill_after} did not interrupt the run");
        std::process::exit(1);
    };
    eprintln!(
        "  killed with {apps_committed} apps committed ({} journal bytes, {:.1?})",
        journal.as_bytes().len(),
        t0.elapsed()
    );

    // Phase 2: only the journal bytes survive the "crash"; resume from them.
    eprintln!("phase 2: resuming from the journal…");
    let disk_image = journal.into_bytes();
    let t1 = Instant::now();
    let resumed = match Study::new(config()).resume(&disk_image) {
        Ok(StudyOutcome::Completed(r)) => *r,
        Ok(StudyOutcome::Interrupted { .. }) => {
            eprintln!("error: resume without a kill switch must complete");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: resume rejected its own journal: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("  resume finished in {:.1?}", t1.elapsed());

    // Phase 3: the resumed report must be byte-identical to an
    // uninterrupted run of the same seed and fault schedule.
    eprintln!("phase 3: comparing against an uninterrupted run…");
    let uninterrupted = Study::new(config()).run();
    if resumed.render_all() != uninterrupted.render_all()
        || resumed.render_degraded() != uninterrupted.render_degraded()
    {
        eprintln!("error: resumed study diverged from the uninterrupted run");
        std::process::exit(1);
    }

    println!("{}", resumed.render_run_health());
    println!(
        "chaos smoke OK: {} resumed + {} fresh apps, report byte-identical",
        resumed.health.resumed_apps, resumed.health.fresh_apps
    );

    // Phase 4: the same crash-and-resume exercise for the streaming
    // engine, with the shard journal written through hostile storage —
    // every crash tears the unflushed tail, a fifth of flushes lie, and
    // a tenth of appends land twice.
    eprintln!("phase 4: streamed study over faulty storage…");
    let plan = MediaFaultPlan {
        torn_write: 1.0,
        lost_flush: 0.2,
        duplicate_segment: 0.1,
        ..MediaFaultPlan::none(seed ^ 0x5707AA6E)
    };
    let stream_config = |kill: Option<usize>| {
        let mut cfg = StreamConfig::new(WorldConfig::tiny(seed), 4);
        cfg.kill_after_shards = kill;
        cfg
    };
    let t2 = Instant::now();
    let mut media =
        match StreamEngine::new(stream_config(Some(2))).run_on_media(FaultMedia::new(plan)) {
            Ok(StreamOutcome::Interrupted { journal, .. }) => journal.into_media(),
            Ok(StreamOutcome::Completed(_)) => {
                eprintln!("error: kill_after_shards=2 did not interrupt the streamed run");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: streamed run failed on faulty media: {e}");
                std::process::exit(1);
            }
        };
    media.crash();
    let fault_stats = media.stats();
    let resumed_stream = match StreamEngine::new(stream_config(None)).resume_media(media) {
        Ok(StreamOutcome::Completed(r)) => *r,
        Ok(StreamOutcome::Interrupted { .. }) => {
            eprintln!("error: streamed resume without a kill switch must complete");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: streamed resume rejected the surviving image: {e}");
            std::process::exit(1);
        }
    };
    let clean_stream = match StreamEngine::new(stream_config(None)).run() {
        StreamOutcome::Completed(r) => *r,
        StreamOutcome::Interrupted { .. } => unreachable!("no kill configured"),
    };
    if resumed_stream.render_report() != clean_stream.render_report() {
        eprintln!("error: streamed resume over faulty media diverged from the clean run");
        std::process::exit(1);
    }
    eprintln!(
        "  media injected {} torn writes, {} lost flushes, {} duplicated segments",
        fault_stats.torn_writes, fault_stats.lost_flushes, fault_stats.duplicated_segments
    );
    eprintln!(
        "  streamed crash-resume cycle finished in {:.1?}",
        t2.elapsed()
    );
    println!("{}", resumed_stream.render_health());
    println!(
        "storage-fault smoke OK: {} shards resumed + {} fresh, streamed report byte-identical",
        resumed_stream.stream.shards_resumed, resumed_stream.stream.shards_fresh
    );
}
