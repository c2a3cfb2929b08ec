//! Seeded overload bench for `pinning-serve` and the `BENCH_serve.json`
//! artifact.
//!
//! Drives [`pinning_serve::PinService`] with the deterministic Zipf /
//! bursty / hostile trace from [`pinning_bench::load`] and gates on the
//! robustness contract:
//!
//! - the queue never exceeds its configured bound (peak depth ≤ capacity);
//! - under burst the service sheds and degrades instead of queueing
//!   unboundedly (nonzero shed + degraded + breaker trips);
//! - two same-seed runs produce *identical* responses and counters;
//! - every chain verdict, fresh or degraded, is byte-identical to the
//!   offline library's (`pinning_pki::validate::validate_chain`) for the
//!   same request;
//! - the hostile fraction never panics the service (the run completing is
//!   the assertion — hostile bodies come back as structured answers).
//!
//! The run is measured once warm: a warm-up pass populates the
//! process-default validation memo and the CT authenticator caches, then
//! two measured passes (fresh service state each) must agree exactly.
//! Throughput/latency/shed/degraded/breaker/cache numbers go to
//! `BENCH_serve.json` at the workspace root, which is re-read and
//! structurally checked before the bench reports success.
//!
//! ```sh
//! cargo bench -p pinning-bench --bench serve --offline            # full
//! cargo bench -p pinning-bench --bench serve --offline -- smoke   # CI gate
//! ```

use pinning_bench::bench_world_config;
use pinning_bench::load::{generate_load, GeneratedLoad, LoadConfig};
use pinning_pki::validate::{
    validate_chain, validate_chain_cached, RevocationList, ValidationOptions,
};
use pinning_pki::Certificate;
use pinning_serve::{
    Backend, Outcome, Payload, PinService, RequestBody, Response, ServeConfig, ServeSummary,
};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 0x5EE7;

fn serve_config() -> ServeConfig {
    ServeConfig {
        seed: SEED,
        workers: 2,
        queue_capacity: 32,
        // High watermark at the queue bound: depth is capped by brownout
        // engaging exactly when the queue is full.
        brownout_high: 32,
        brownout_low: 8,
        backend_flakiness: 0.3,
        ..ServeConfig::default()
    }
}

/// One full service pass over the trace, fresh service state, shared
/// (warm) world caches.
fn run_once(
    config: &ServeConfig,
    world: &World,
    requests: &[pinning_serve::ServeRequest],
) -> (Vec<Response>, ServeSummary, f64) {
    let backend = Backend {
        roots: &world.universe.aosp_oem,
        logs: &world.ctlog,
        crl: RevocationList::empty(),
        options: ValidationOptions::default(),
        now: world.now,
    };
    let mut service = PinService::new(config.clone(), backend);
    let t0 = Instant::now();
    let responses = service.run(requests);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let summary = service.summary(&responses);
    (responses, summary, wall_ms)
}

/// Chain verdicts checked against the offline library, by how they were
/// served.
#[derive(Debug, Default)]
struct OfflineIdentical {
    /// `Ok(ChainVerdict)`: served fresh.
    fresh: u64,
    /// `Degraded(ChainVerdict)`: served from cache during brownout.
    degraded: u64,
}

/// Checks every chain verdict, fresh or degraded, against the offline
/// library: same chain, same hostname, same options — the answers must be
/// `==`. Returns the number of verdicts checked of each kind.
fn verify_offline_identity(
    world: &World,
    requests: &[pinning_serve::ServeRequest],
    responses: &[Response],
) -> Result<OfflineIdentical, String> {
    let by_id: HashMap<u64, &pinning_serve::ServeRequest> =
        requests.iter().map(|r| (r.id, r)).collect();
    let crl = RevocationList::empty();
    let options = ValidationOptions::default();
    let mut checked = OfflineIdentical::default();
    for resp in responses {
        let (served, count) = match &resp.outcome {
            Outcome::Ok(Payload::ChainVerdict(v)) => (v, &mut checked.fresh),
            Outcome::Degraded(Payload::ChainVerdict(v)) => (v, &mut checked.degraded),
            _ => continue,
        };
        let req = by_id[&resp.id];
        let RequestBody::ValidateChain {
            hostname,
            chain_der,
        } = &req.body
        else {
            return Err(format!(
                "response {} verdict for non-validate body",
                resp.id
            ));
        };
        let chain: Vec<Certificate> = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<_, _>>()
            .map_err(|e| {
                format!(
                    "request {}: served a verdict for undecodable DER: {e:?}",
                    req.id
                )
            })?;
        let offline = validate_chain(
            &chain,
            &world.universe.aosp_oem,
            hostname,
            world.now,
            &crl,
            &options,
        );
        if &offline != served {
            return Err(format!(
                "request {}: served verdict {:?} != offline {offline:?}",
                req.id, resp.outcome
            ));
        }
        *count += 1;
    }
    Ok(checked)
}

/// Validates every decodable chain in the trace offline (unlimited
/// budget) so the global memo holds a verdict for each of them. Returns
/// the number of chains warmed (hostile undecodable bodies are skipped —
/// they never reach the memo on the serving path either).
fn warm_validation_memo(world: &World, requests: &[pinning_serve::ServeRequest]) -> u64 {
    let crl = RevocationList::empty();
    let options = ValidationOptions::default();
    let mut warmed = 0u64;
    for req in requests {
        let RequestBody::ValidateChain {
            hostname,
            chain_der,
        } = &req.body
        else {
            continue;
        };
        let Ok(chain) = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<Vec<Certificate>, _>>()
        else {
            continue;
        };
        let _ = validate_chain_cached(
            &chain,
            &world.universe.aosp_oem,
            hostname,
            world.now,
            &crl,
            &options,
        );
        warmed += 1;
    }
    warmed
}

fn phase_json(load: &GeneratedLoad) -> String {
    load.per_phase
        .iter()
        .map(|(name, count)| format!("{{\"name\": \"{name}\", \"requests\": {count}}}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke")
        || std::env::var("PINNING_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mode = if smoke { "smoke" } else { "full" };
    println!("serve bench mode: {mode}");

    let world = if smoke {
        World::generate(WorldConfig::tiny(SEED))
    } else {
        World::generate(bench_world_config(SEED))
    };
    let load_cfg = if smoke {
        LoadConfig::overload_smoke(SEED)
    } else {
        LoadConfig::overload(SEED)
    };
    let load = generate_load(&world, &load_cfg);
    println!(
        "trace: {} requests ({:.1}% hostile) over {} phases",
        load.requests.len(),
        load.hostile_fraction() * 100.0,
        load.per_phase.len()
    );

    let config = serve_config();

    // Cold pass first: exercises the service with every cache empty (the
    // pass completing at all is the no-panic gate for the hostile
    // fraction) and gives the cold wall-clock number.
    let (_, cold_summary, cold_ms) = run_once(&config, &world, &load.requests);
    println!(
        "cold pass: {:.1} ms, {} served fresh / {} degraded / {} shed",
        cold_ms,
        cold_summary.served_ok,
        cold_summary.degraded,
        cold_summary.shed_total()
    );

    // Bring the process-default validation memo to a *complete* state
    // before the measured passes: validate every decodable chain in the
    // trace offline with an unlimited budget. A service pass over a
    // merely partially-warm memo can still insert entries (a chain that
    // times out cold completes once its neighbors are memoized), which
    // would make the next pass cheaper — warming to completion is what
    // makes two same-seed passes byte-identical. The per-service caches
    // (locator memo, CT authenticators, breakers) start empty on every
    // pass by construction.
    let warmed = warm_validation_memo(&world, &load.requests);
    println!("validation memo warmed over {warmed} decodable chains");

    let (responses_a, summary_a, wall_a) = run_once(&config, &world, &load.requests);
    let (responses_b, summary_b, wall_b) = run_once(&config, &world, &load.requests);

    let mut failures: Vec<String> = Vec::new();
    if responses_a != responses_b || summary_a != summary_b {
        failures.push("same-seed runs diverge (responses or counters differ)".into());
    }
    if summary_a.peak_queue_depth > config.queue_capacity as u64 {
        failures.push(format!(
            "queue exceeded its bound: peak {} > capacity {}",
            summary_a.peak_queue_depth, config.queue_capacity
        ));
    }
    if summary_a.shed_total() == 0 {
        failures.push("burst shed nothing — load-shedding never engaged".into());
    }
    if summary_a.degraded == 0 {
        failures.push("no degraded responses — brownout never served from cache".into());
    }
    if summary_a.brownout_entries == 0 {
        failures.push("brownout never entered under burst".into());
    }
    if summary_a.breaker_trips == 0 {
        failures.push("circuit breaker never tripped under backend faults".into());
    }
    if summary_a.total != load.requests.len() as u64 {
        failures.push(format!(
            "response conservation: {} responses for {} requests",
            summary_a.total,
            load.requests.len()
        ));
    }

    let verified = match verify_offline_identity(&world, &load.requests, &responses_a) {
        Ok(checked) => {
            if checked.fresh == 0 {
                failures
                    .push("no fresh chain verdicts to verify against the offline library".into());
            }
            if checked.degraded == 0 {
                failures.push(
                    "no degraded chain verdicts to verify against the offline library".into(),
                );
            }
            checked
        }
        Err(e) => {
            failures.push(format!("offline identity violated: {e}"));
            OfflineIdentical::default()
        }
    };

    let makespan = summary_a.last_finish.max(1);
    let served = summary_a.served_ok + summary_a.degraded;
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"pinning-bench/serve\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"seed\": {seed},\n",
            "  \"workers\": {workers},\n",
            "  \"queue_capacity\": {cap},\n",
            "  \"brownout_watermarks\": [{high}, {low}],\n",
            "  \"backend_flakiness\": {flake},\n",
            "  \"requests\": {requests},\n",
            "  \"hostile_fraction\": {hostile:.4},\n",
            "  \"phases\": [{phases}],\n",
            "  \"virtual_makespan_ticks\": {makespan},\n",
            "  \"served_per_ktick\": {thr:.3},\n",
            "  \"wall_ms\": [{wall_a:.1}, {wall_b:.1}],\n",
            "  \"offline_identical_verdicts\": {verified},\n",
            "  \"offline_identical_degraded_verdicts\": {verified_degraded},\n",
            "  \"same_seed_runs_identical\": {identical},\n",
            "  \"summary\": {summary}\n",
            "}}\n"
        ),
        mode = mode,
        seed = SEED,
        workers = config.workers,
        cap = config.queue_capacity,
        high = config.brownout_high,
        low = config.brownout_low,
        flake = config.backend_flakiness,
        requests = load.requests.len(),
        hostile = load.hostile_fraction(),
        phases = phase_json(&load),
        makespan = makespan,
        thr = served as f64 * 1_000.0 / makespan as f64,
        wall_a = wall_a,
        wall_b = wall_b,
        verified = verified.fresh,
        verified_degraded = verified.degraded,
        identical = responses_a == responses_b && summary_a == summary_b,
        summary = summary_a.to_json(),
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());

    // Parseability gate: re-read the artifact and check its structure —
    // balanced braces/brackets and every required key present.
    let back = std::fs::read_to_string(&path).expect("re-read BENCH_serve.json");
    if back.matches('{').count() != back.matches('}').count()
        || back.matches('[').count() != back.matches(']').count()
    {
        failures.push("BENCH_serve.json has unbalanced braces/brackets".into());
    }
    for key in [
        "\"schema\"",
        "\"served_per_ktick\"",
        "\"latency_ticks\"",
        "\"p999\"",
        "\"shed_queue_full\"",
        "\"degraded\"",
        "\"breaker_trips\"",
        "\"cache_hit_rate\"",
    ] {
        if !back.contains(key) {
            failures.push(format!("BENCH_serve.json missing {key}"));
        }
    }

    println!(
        "serve bench: {} requests, p50/p99/p999 = {}/{}/{} ticks, \
         shed {} (queue {} / breaker {} / degraded-miss {}), degraded {}, \
         brownouts {}, breaker trips {}, cache hit rate {:.3}, \
         {} + {} degraded offline-identical verdicts",
        summary_a.total,
        summary_a.p50,
        summary_a.p99,
        summary_a.p999,
        summary_a.shed_total(),
        summary_a.shed_queue_full,
        summary_a.shed_breaker_open,
        summary_a.shed_degraded,
        summary_a.degraded,
        summary_a.brownout_entries,
        summary_a.breaker_trips,
        summary_a.cache_hit_rate(),
        verified.fresh,
        verified.degraded,
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("serve bench OK");
}
