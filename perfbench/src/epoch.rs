//! `epoch`: `Evolution` in incremental mode, one thread.
//!
//! `Evolution::new` plus the baseline epoch are the set-up of a round;
//! the evolution epochs, each followed by `full_report`, are timed one by
//! one, and `items_per_s` is the median over every timed epoch of its
//! app-epochs (replayed + re-analysed) per second. Most
//! apps replay from the journal and the memos stay warm across epochs,
//! so a memo change that wins on `study` can lose here.
//!
//! Memo hit/miss counts are only noted, not failed, when they differ
//! between rounds: on small worlds the engine's counts move by one or two
//! from round to round while every report stays identical (which memo
//! entry a lookup meets depends on hash-map iteration order).

use crate::out::{self, clear_memos, digest, mean, median, CacheMark, Outcome, Rounds};
use crate::trace::Tracer;
use crate::{input_seed, secs, until, Run};
use pinning_epoch::{EpochConfig, Evolution};
use pinning_store::config::WorldConfig;
use std::time::Instant;

/// Inputs (world plus epoch plan) an untraced run alternates between,
/// round by round. Epoch cost depends on the plan as much as on the
/// machine, so `items_per_s` is the mean over the inputs of each input's
/// median epoch rate.
const INPUTS: u64 = 2;

fn config(seed: u64, small: bool) -> EpochConfig {
    if small {
        return EpochConfig {
            epochs: 2,
            ..EpochConfig::tiny(seed)
        };
    }
    EpochConfig {
        world: WorldConfig {
            store_size: 400,
            n_cross_products: 60,
            common_size: 40,
            popular_size: 80,
            random_size: 80,
            ..WorldConfig::paper_scale(seed)
        },
        epochs: 8,
        seed: seed ^ 0xE70C,
        days_per_epoch: 14,
        app_events_per_epoch: 6,
        threads: 1,
    }
}

/// The round's set-up: cold memos, a new engine and its baseline epoch.
fn set_up(config: &EpochConfig, incremental: bool) -> Evolution {
    clear_memos();
    let mut evolution = Evolution::new(config.clone(), incremental);
    evolution.next_epoch().expect("baseline epoch runs");
    evolution
}

/// App-epochs (replayed + re-analysed) over the evolution epochs.
fn items(evolution: &Evolution) -> u64 {
    evolution
        .costs()
        .iter()
        .skip(1)
        .map(|c| (c.replayed + c.reanalyzed) as u64)
        .sum()
}

/// Starts a round's list of report digests with the baseline epoch's.
fn baseline_digests(evolution: &Evolution) -> Vec<String> {
    vec![digest(evolution.full_report().as_bytes())]
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();

    if !run.trace {
        let configs: Vec<EpochConfig> = (0..INPUTS)
            .map(|i| config(input_seed(run.seed, i), run.small))
            .collect();
        let mut setups = Vec::new();
        // Per input: per-epoch rates, per-round report digests, and
        // per-round memo deltas.
        let mut rates = vec![Vec::new(); configs.len()];
        let mut round_digests = vec![Vec::new(); configs.len()];
        let mut cache_deltas = vec![Vec::new(); configs.len()];
        let mut next = 0;
        until(run.seconds, || {
            let i = next % configs.len();
            next += 1;
            let t = Instant::now();
            let mut evolution = set_up(&configs[i], true);
            setups.push(secs(t));
            let mut digests = baseline_digests(&evolution);

            let mark = CacheMark::now();
            let mut timed = 0.0;
            for k in 1..evolution.epochs_total() {
                let t = Instant::now();
                evolution.next_epoch().expect("evolution epoch runs");
                let report = evolution.full_report();
                let dt = secs(t);
                timed += dt;
                let cost = &evolution.costs()[k];
                rates[i].push((cost.replayed + cost.reanalyzed) as f64 / dt);
                digests.push(digest(report.as_bytes()));
            }
            cache_deltas[i].push(mark.delta());
            out.attempted += items(&evolution);
            round_digests[i].push(digests);
            timed
        });

        // Every incremental epoch must equal a cold re-run of that epoch.
        for (i, config) in configs.iter().enumerate() {
            let mut cold = set_up(config, false);
            let mut cold_digests = baseline_digests(&cold);
            for _ in 1..cold.epochs_total() {
                cold.next_epoch().expect("cold epoch runs");
                cold_digests.push(digest(cold.full_report().as_bytes()));
            }
            round_digests[i].push(cold_digests);
            check_rounds(&mut out, i, &round_digests[i]);
            if cache_deltas[i].iter().any(|d| d != &cache_deltas[i][0]) {
                out.notes.push(format!(
                    "input {i}: memo hit/miss deltas differ between rounds"
                ));
            }
        }
        let medians: Vec<f64> = rates.iter().map(|r| median(r)).collect();
        out.set("setup_s", median(&setups));
        out.set("items_per_s", mean(&medians));
        out.set("peak_rss_mib", out::peak_rss_mib());
        return out;
    }

    // Traced: on the first input only, untraced rounds alternate with
    // rounds that put a span around each public call; both must produce
    // the same reports.
    let config = config(run.seed, run.small);
    let mut round_digests = Vec::new();
    let mut rounds = Rounds::default();
    let mut plain_times = Vec::new();
    let mut traced_times = Vec::new();
    until(run.seconds, || {
        for traced in [false, true] {
            let mut evolution = set_up(&config, true);
            let mut digests = baseline_digests(&evolution);
            let mut tracer = Tracer::default();
            let mark = CacheMark::now();
            let mut timed = 0.0;
            for _ in 1..evolution.epochs_total() {
                let t = Instant::now();
                let report = if traced {
                    tracer
                        .span("epoch.next_epoch", || evolution.next_epoch())
                        .expect("evolution epoch runs");
                    tracer.span("epoch.full_report", || evolution.full_report())
                } else {
                    evolution.next_epoch().expect("evolution epoch runs");
                    evolution.full_report()
                };
                timed += secs(t);
                digests.push(digest(report.as_bytes()));
            }
            round_digests.push(digests);
            if !traced {
                plain_times.push(timed);
                continue;
            }
            traced_times.push(timed);
            rounds.extend(mark.delta());
            rounds.spans(&tracer);
            let costs = &evolution.costs()[1..];
            let replayed: usize = costs.iter().map(|c| c.replayed).sum();
            let reanalyzed: usize = costs.iter().map(|c| c.reanalyzed).sum();
            rounds.push("epoch.replayed", replayed as f64);
            rounds.push("epoch.reanalyzed", reanalyzed as f64);
            out.attempted += items(&evolution);
        }
        plain_times.last().expect("untraced round ran")
            + traced_times.last().expect("traced round ran")
    });
    check_rounds(&mut out, 0, &round_digests);
    rounds.finish(&mut out, false);
    out::set_overhead(&mut out, &traced_times, &plain_times);
    out
}

/// Every round of input `i` (and its cold control) must report the same
/// bytes at every epoch.
fn check_rounds(out: &mut Outcome, i: usize, round_digests: &[Vec<String>]) {
    for k in 0..round_digests[0].len() {
        let per_round: Vec<String> = round_digests.iter().map(|d| d[k].clone()).collect();
        out::check_digests(
            out,
            &format!("input {i}, epoch {k}: full_report"),
            &per_round,
        );
    }
}
