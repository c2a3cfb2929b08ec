//! `serve`: open-loop `PinService` passes over the `LoadConfig::overload`
//! trace (steady, burst, recovery on a virtual arrival schedule), with
//! the validation memo warm.
//!
//! The arrival schedule does not slow when the service does: a pass
//! replays the whole trace, and latency is virtual ticks from each
//! request's arrival. No dynamics or statics run here; this is the only
//! workload through admission, brownout, `pki::validate` under load and
//! CT proofs.

use crate::out::{self, clear_memos, digest, mean, median, percentile, CacheMark, Outcome, Rounds};
use crate::trace::Tracer;
use crate::{input_seed, secs, until, Run};
use pinning_bench::load::{generate_load, LoadConfig};
use pinning_pki::validate::{
    validate_chain, validate_chain_cached, RevocationList, ValidationOptions,
};
use pinning_pki::Certificate;
use pinning_serve::{
    Backend, Outcome as Served, Payload, PinService, RequestBody, Response, ServeConfig,
    ServeRequest, ServeSummary,
};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::time::Instant;

/// Inputs (world plus trace) an untraced run measures. The cost of a pass
/// depends on the trace as much as on the machine, so `items_per_s` is
/// the mean over the inputs of each input's median pass rate.
const INPUTS: u64 = 3;

/// Passes a set-up may take before its summary must have repeated.
const MAX_WARM_PASSES: usize = 12;

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        workers: 2,
        queue_capacity: 32,
        brownout_high: 32,
        brownout_low: 8,
        backend_flakiness: 0.3,
        ..ServeConfig::default()
    }
}

/// One pass over the trace with fresh service state.
fn pass(
    config: &ServeConfig,
    world: &World,
    requests: &[ServeRequest],
) -> (Vec<Response>, ServeSummary, f64) {
    let backend = Backend {
        roots: &world.universe.aosp_oem,
        logs: &world.ctlog,
        crl: RevocationList::empty(),
        options: ValidationOptions::default(),
        now: world.now,
    };
    let mut service = PinService::new(config.clone(), backend);
    let t = Instant::now();
    let responses = service.run(requests);
    let dt = secs(t);
    let summary = service.summary(&responses);
    (responses, summary, dt)
}

/// The served state after set-up: inputs plus the warm pass every timed
/// pass must repeat.
struct Warm {
    world: World,
    requests: Vec<ServeRequest>,
    responses: Vec<Response>,
    summary: ServeSummary,
}

/// Set-up: cold memos, the world, the trace, every decodable chain of the
/// trace validated once through the memo, then passes until a pass
/// repeats the previous pass's summary.
///
/// Passes alone do fill the memo, but slowly: a chain answered from cache
/// or shed in a pass is never validated, and on seed 1 the summary only
/// settled after 18 passes.
fn set_up(seed: u64, small: bool, config: &ServeConfig) -> Result<Warm, String> {
    clear_memos();
    let world_config = if small {
        WorldConfig::tiny(seed)
    } else {
        pinning_bench::bench_world_config(seed)
    };
    let world = World::generate(world_config);
    let load = if small {
        LoadConfig::overload_smoke(seed)
    } else {
        LoadConfig::overload(seed)
    };
    let requests = generate_load(&world, &load).requests;
    warm_validation_memo(&world, &requests);
    let (_, mut summary, _) = pass(config, &world, &requests);
    for _ in 0..MAX_WARM_PASSES {
        let (responses, next_summary, _) = pass(config, &world, &requests);
        let steady = next_summary == summary;
        summary = next_summary;
        if steady {
            return Ok(Warm {
                world,
                requests,
                responses,
                summary,
            });
        }
    }
    Err(format!(
        "summary still changing after {MAX_WARM_PASSES} warm-up passes"
    ))
}

/// Validates every decodable chain in the trace with an unlimited budget,
/// so the validation memo holds a verdict for each.
fn warm_validation_memo(world: &World, requests: &[ServeRequest]) {
    let crl = RevocationList::empty();
    let options = ValidationOptions::default();
    for req in requests {
        let RequestBody::ValidateChain {
            hostname,
            chain_der,
        } = &req.body
        else {
            continue;
        };
        let chain: Result<Vec<Certificate>, _> = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect();
        if let Ok(chain) = chain {
            let _ = validate_chain_cached(
                &chain,
                &world.universe.aosp_oem,
                hostname,
                world.now,
                &crl,
                &options,
            );
        }
    }
}

/// p99 of `finished_at − arrived_at` over every request, where a shed,
/// timed-out or backend-failed request misses its endpoint's deadline
/// and counts as that deadline plus the ticks it took.
fn latency_p99(config: &ServeConfig, responses: &[Response]) -> u64 {
    let latencies: Vec<u64> = responses
        .iter()
        .map(|r| {
            let took = r.finished_at - r.arrived_at;
            if r.outcome.is_served() {
                took
            } else {
                config.deadline_for(r.endpoint) + took
            }
        })
        .collect();
    percentile(&latencies, 99, 100)
}

/// SHA-256 of one pass's responses and summary.
fn pass_digest(responses: &[Response], summary: &ServeSummary) -> String {
    digest(format!("{responses:?}{summary:?}").as_bytes())
}

/// Every fresh chain verdict must equal the offline `validate_chain`
/// for the same chain and hostname.
fn check_offline(out: &mut Outcome, warm: &Warm) {
    let crl = RevocationList::empty();
    let options = ValidationOptions::default();
    let mut checked = 0;
    for resp in &warm.responses {
        let Served::Ok(Payload::ChainVerdict(served)) = &resp.outcome else {
            continue;
        };
        let req = &warm.requests[warm
            .requests
            .binary_search_by_key(&resp.id, |r| r.id)
            .expect("every response answers a request")];
        let RequestBody::ValidateChain {
            hostname,
            chain_der,
        } = &req.body
        else {
            out.failures.push(format!(
                "request {}: verdict for a non-validate body",
                req.id
            ));
            continue;
        };
        let chain: Result<Vec<Certificate>, _> = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect();
        let Ok(chain) = chain else {
            out.failures
                .push(format!("request {}: verdict for undecodable DER", req.id));
            continue;
        };
        let offline = validate_chain(
            &chain,
            &warm.world.universe.aosp_oem,
            hostname,
            warm.world.now,
            &crl,
            &options,
        );
        out.check(&offline == served, || {
            format!("request {}: served verdict differs from offline", req.id)
        });
        checked += 1;
    }
    out.check(checked > 0, || "no fresh chain verdict to compare".into());
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut medians = Vec::new();
    let mut rounds = Rounds::default();
    let mut plain_times = Vec::new();
    let mut traced_times = Vec::new();

    // An untraced run measures each input in turn, with its own set-up;
    // a traced run measures the first input only.
    let inputs = if run.trace { 1 } else { INPUTS };
    for i in 0..inputs {
        let seed = input_seed(run.seed, i);
        let config = serve_config(seed);
        let t = Instant::now();
        let warm = match set_up(seed, run.small, &config) {
            Ok(warm) => warm,
            Err(e) => {
                out.failures.push(e);
                return out;
            }
        };
        setups.push(secs(t));
        let n = warm.requests.len() as u64;

        // Every timed pass must return the warm pass's responses and summary.
        let mut digests = vec![pass_digest(&warm.responses, &warm.summary)];
        let mut rates = Vec::new();
        until(run.seconds / inputs as f64, || {
            let (responses, summary, dt) = pass(&config, &warm.world, &warm.requests);
            digests.push(pass_digest(&responses, &summary));
            out.attempted += n;
            if !run.trace {
                rates.push(n as f64 / dt);
                return dt;
            }
            plain_times.push(dt);

            let mut tracer = Tracer::default();
            let mark = CacheMark::now();
            let t = Instant::now();
            let (responses, summary, _) =
                tracer.span("serve.run", || pass(&config, &warm.world, &warm.requests));
            let dt = secs(t);
            traced_times.push(dt);
            digests.push(pass_digest(&responses, &summary));
            out.attempted += n;
            rounds.extend(mark.delta());
            rounds.spans(&tracer);
            let s = &summary;
            for (name, value) in [
                ("serve.requests", s.total),
                ("serve.served_ok", s.served_ok),
                ("serve.degraded", s.degraded),
                ("serve.shed_queue_full", s.shed_queue_full),
                ("serve.shed_breaker_open", s.shed_breaker_open),
                ("serve.shed_degraded", s.shed_degraded),
                ("serve.timed_out", s.timed_out),
                ("serve.backend_failed", s.backend_failed),
                ("serve.retries", s.retries),
                ("serve.breaker_trips", s.breaker_trips),
                ("serve.brownout_entries", s.brownout_entries),
                ("serve.peak_queue_depth", s.peak_queue_depth),
                ("serve.cache_hits", s.cache_hits),
                ("serve.cache_misses", s.cache_misses),
                ("serve.latency_p99_ticks", latency_p99(&config, &responses)),
            ] {
                rounds.push(name, value as f64);
            }
            dt + plain_times.last().expect("untraced pass ran")
        });
        out::check_digests(
            &mut out,
            &format!("input {i}: serve responses and summary"),
            &digests,
        );
        out.check(warm.summary.total == n, || {
            format!(
                "input {i}: {} responses for {n} requests",
                warm.summary.total
            )
        });
        out.check(
            warm.summary.peak_queue_depth <= config.queue_capacity as u64,
            || format!("input {i}: admission queue exceeded its bound"),
        );
        check_offline(&mut out, &warm);
        if !run.trace {
            medians.push(median(&rates));
        }
    }

    if run.trace {
        rounds.finish(&mut out, true);
        out::set_overhead(&mut out, &traced_times, &plain_times);
    } else {
        out.set("setup_s", median(&setups));
        out.set("items_per_s", mean(&medians));
        out.set("peak_rss_mib", out::peak_rss_mib());
    }
    out
}
