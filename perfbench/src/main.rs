//! Benchmark of the pinning study engines: four workloads, each in its
//! own process with one engine thread.
//!
//! ```sh
//! python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0
//! python3 perfbench/run.py --self-test
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics of
//! [`out::END_TO_END`]; with `--trace 1` it reports the per-layer metrics
//! of [`out::PER_LAYER`], taken from spans the benchmark records around
//! the same public calls the engine makes. The last line of standard
//! output is the JSON result; progress and failed checks go to standard
//! error. See `perfbench/README.md` for the workloads and predictions.

mod epoch;
mod out;
mod serve;
mod stream;
mod study;
mod trace;

use out::Outcome;
use std::time::Instant;

/// One run's parameters.
pub struct Run {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Timed seconds to measure for (at least [`MIN_ROUNDS`] rounds).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Self-test sizes: tiny inputs, same code paths.
    pub small: bool,
}

/// Fewest timed rounds a run takes, however long they last.
pub const MIN_ROUNDS: usize = 3;

/// The seed of input `i` of a run whose workload seed is `seed`. Input 0
/// of every run is generated from `seed` itself.
pub fn input_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Repeats `round` until its timed seconds add up to `seconds` and at
/// least [`MIN_ROUNDS`] rounds ran. `round` returns the seconds it timed
/// (in a traced run, its untraced and traced halves together).
pub fn until(seconds: f64, mut round: impl FnMut() -> f64) -> usize {
    let mut timed = 0.0;
    let mut n = 0;
    while n < MIN_ROUNDS || timed < seconds {
        timed += round();
        n += 1;
    }
    n
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

const WORKLOADS: [&str; 4] = ["stream", "study", "epoch", "serve"];

fn run_workload(name: &str, run: &Run) -> Outcome {
    match name {
        "stream" => stream::run(run),
        "study" => study::run(run),
        "epoch" => epoch::run(run),
        "serve" => serve::run(run),
        other => unreachable!("workload {other} was validated"),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       \
         perfbench --self-test | --list-metrics",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-metrics") {
        for (name, unit) in out::END_TO_END {
            println!("end_to_end {name} {unit}");
        }
        for (name, unit) in out::PER_LAYER {
            println!("per_layer {name} {unit}");
        }
        return;
    }
    if args.iter().any(|a| a == "--self-test") {
        std::process::exit(self_test());
    }

    let value = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage());
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let workload = value("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let run = Run {
        seed: value("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: value("--seconds").parse().unwrap_or_else(|_| usage()),
        trace: match value("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        small: false,
    };
    if !run.seconds.is_finite() || run.seconds <= 0.0 {
        usage();
    }

    let outcome = run_workload(&workload, &run);
    for n in &outcome.notes {
        eprintln!("note [{workload}]: {n}");
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED [{workload}]: {f}");
    }
    let catalogue = if run.trace {
        out::PER_LAYER
    } else {
        out::END_TO_END
    };
    println!("{}", outcome.json_line(catalogue));
}

/// Runs every workload at tiny sizes, traced and untraced, and checks the
/// result lines: correctness, every catalogued name with its unit, nothing
/// else, and per-layer counts that repeat between two traced runs.
/// Returns the process exit code.
fn self_test() -> i32 {
    let mut problems: Vec<String> = Vec::new();

    // The comparison helpers must flag what they exist to catch.
    let mut probe = Outcome::default();
    out::check_digests(&mut probe, "probe", &["a".into(), "b".into()]);
    let mut rounds = out::Rounds::default();
    rounds.push("probe.count", 1.0);
    rounds.push("probe.count", 2.0);
    rounds.finish(&mut probe, true);
    if probe.failures.len() != 2 {
        problems.push("digest or count comparison missed a planted difference".into());
    }
    if !Outcome::default()
        .json_line(out::END_TO_END)
        .contains("\"correct\": true")
    {
        problems.push("an empty outcome did not render as correct".into());
    }
    let mut stray = Outcome::default();
    stray.set("not.catalogued", 1.0);
    if !stray
        .json_line(out::END_TO_END)
        .contains("\"correct\": false")
    {
        problems.push("an uncatalogued metric name was not rejected".into());
    }

    for workload in WORKLOADS {
        let mut traced_counts: Vec<Vec<(String, f64)>> = Vec::new();
        for trace in [false, true, true] {
            let run = Run {
                seed: 7,
                seconds: 0.05,
                trace,
                small: true,
            };
            let outcome = run_workload(workload, &run);
            let catalogue = if trace {
                out::PER_LAYER
            } else {
                out::END_TO_END
            };
            let line = outcome.json_line(catalogue);
            let tag = format!("{workload} trace={}", trace as u8);
            for f in &outcome.failures {
                problems.push(format!("{tag}: {f}"));
            }
            if !line.starts_with("{\"correct\": true") {
                problems.push(format!("{tag}: result not correct: {line}"));
            }
            for (name, unit) in catalogue {
                let field = format!("\"{name}\": {{\"value\": ");
                if !line.contains(&field) || !line.contains(&format!("\"unit\": \"{unit}\"")) {
                    problems.push(format!("{tag}: {name} [{unit}] missing"));
                }
            }
            if line.matches("\"unit\"").count() != catalogue.len() {
                problems.push(format!("{tag}: metric count differs from the catalogue"));
            }
            if !trace {
                for (name, _) in out::END_TO_END {
                    if outcome.metrics.get(*name).copied().unwrap_or(0.0) <= 0.0 {
                        problems.push(format!("{tag}: end-to-end metric {name} is not positive"));
                    }
                }
            } else {
                traced_counts.push(
                    outcome
                        .metrics
                        .iter()
                        .filter(|(n, _)| !out::is_timing(n))
                        // Epoch memo counts may move (see `epoch`).
                        .filter(|(n, _)| workload != "epoch" || !out::is_memo_count(n))
                        .map(|(n, v)| (n.clone(), *v))
                        .collect(),
                );
            }
            for n in &outcome.notes {
                eprintln!("self-test {tag}: note: {n}");
            }
            eprintln!(
                "self-test {tag}: {} metrics, {} checks failed",
                outcome.metrics.len(),
                outcome.failures.len()
            );
        }
        if traced_counts.len() == 2 && traced_counts[0] != traced_counts[1] {
            problems.push(format!(
                "{workload}: per-layer counts differ between traced runs"
            ));
        }
        if traced_counts
            .first()
            .is_some_and(|c| c.iter().all(|(_, v)| *v == 0.0))
        {
            problems.push(format!("{workload}: traced run counted nothing"));
        }
    }

    for p in &problems {
        eprintln!("SELF-TEST FAILED: {p}");
    }
    if problems.is_empty() {
        println!("self-test passed");
        0
    } else {
        1
    }
}
