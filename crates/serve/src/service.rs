//! The discrete-event serving engine.
//!
//! [`PinService`] is a single-threaded discrete-event simulation: requests
//! arrive on a virtual tick clock, `workers` virtual executors drain a
//! bounded FIFO queue, and every expensive operation charges fixed work
//! units (1 tick = 1 unit) against the request's
//! [`pinning_resilience::Deadline`]. Service time *is* work charged, so
//! latency, queue depth, shedding, and brownout transitions are a pure
//! function of (config, request trace) — independent of host speed,
//! thread count, and OS scheduling. That is what makes the overload bench
//! assert exact equality between same-seed runs.
//!
//! Admission pipeline, in order, at each arrival tick:
//!
//! 1. **Breaker** — an open endpoint breaker sheds the request at the
//!    front door ([`ShedReason::BreakerOpen`]).
//! 2. **Brownout hysteresis** — queue depth ≥ high watermark enters
//!    cache-only mode; ≤ low watermark leaves it.
//! 3. **Brownout serving** — in brownout, answer synchronously from the
//!    caches ([`Outcome::Degraded`]) or shed; nothing queues, so the
//!    backlog can only drain.
//! 4. **Queue bound** — at capacity, shed ([`ShedReason::QueueFull`]).
//!    Otherwise enqueue with `deadline_at = arrival + endpoint deadline`.

use crate::config::ServeConfig;
use crate::request::{
    BackendFault, EndpointKind, Outcome, Payload, RequestBody, Response, ServeRequest, ShedReason,
    TimeoutStage,
};
use crate::stats::ServeSummary;
use pinning_crypto::SplitMix64;
use pinning_ctlog::resolver::COST_LOCATOR_LOOKUP;
use pinning_ctlog::{verify_inclusion, LogSet, PinResolver};
use pinning_pki::error::DecodeError;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_pki::validate::{
    CachedVerdict, ReceivedChain, RevocationList, ValidationMemo, ValidationOptions,
};
use pinning_pki::{Certificate, ReceivedDer};
use pinning_resilience::{Admission, BreakerSet, Deadline};
use std::collections::VecDeque;

/// Work units charged per certificate for DER decoding at the front end.
pub const COST_DECODE_PER_CERT: u64 = 3;
/// Worker teardown overhead per executed request, ticks.
pub const COST_EXECUTE_OVERHEAD: u64 = 1;

/// The validation/CT state a service instance answers from (borrowed —
/// the service never owns the world).
#[derive(Debug)]
pub struct Backend<'a> {
    /// Trusted roots chains must anchor in.
    pub roots: &'a RootStore,
    /// The CT log shards pins resolve against.
    pub logs: &'a LogSet,
    /// Revocations applied to leaves.
    pub crl: RevocationList,
    /// Validation knobs (full checks by default).
    pub options: ValidationOptions,
    /// Validation time.
    pub now: SimTime,
}

struct Queued {
    req: ServeRequest,
    deadline_at: u64,
}

/// The serving engine. Create one per run; feed it the full arrival
/// trace via [`PinService::run`].
pub struct PinService<'a> {
    config: ServeConfig,
    backend: Backend<'a>,
    resolver: PinResolver<'a>,
    memo: Option<&'a ValidationMemo>,
    breakers: BreakerSet<BackendFault>,
    queue: VecDeque<Queued>,
    workers_free_at: Vec<u64>,
    brownout: bool,
    brownout_entries: u64,
    peak_queue_depth: u64,
    cache_hits: u64,
    cache_misses: u64,
    backend_faults: u64,
}

impl<'a> PinService<'a> {
    /// A fresh service over `backend` (breaker tuning taken from the
    /// config), validating through the process-default memo.
    pub fn new(config: ServeConfig, backend: Backend<'a>) -> Self {
        let workers = config.workers.max(1);
        let resolver = PinResolver::new(backend.logs);
        let breakers = BreakerSet::new(config.breaker);
        PinService {
            config,
            backend,
            resolver,
            memo: Some(ValidationMemo::process_default()),
            breakers,
            queue: VecDeque::new(),
            workers_free_at: vec![0; workers],
            brownout: false,
            brownout_entries: 0,
            peak_queue_depth: 0,
            cache_hits: 0,
            cache_misses: 0,
            backend_faults: 0,
        }
    }

    /// Validates through `memo` instead (`None` = no memo: every chain is
    /// validated from scratch and brownout sheds every chain request).
    pub fn with_memo(mut self, memo: Option<&'a ValidationMemo>) -> Self {
        self.memo = memo;
        self
    }

    /// Processes an arrival trace to completion and returns one response
    /// per request, in request-id order.
    ///
    /// The trace is sorted by (arrival, id) first, so callers may pass
    /// requests in any order.
    pub fn run(&mut self, requests: &[ServeRequest]) -> Vec<Response> {
        let mut order: Vec<&ServeRequest> = requests.iter().collect();
        order.sort_by_key(|r| (r.arrival, r.id));
        let mut responses = Vec::with_capacity(requests.len());
        for req in order {
            self.dispatch_until(req.arrival, &mut responses);
            self.admit(req, &mut responses);
        }
        self.dispatch_until(u64::MAX, &mut responses);
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// The run summary: response-derived counters merged with the
    /// observables the service tracked live (queue peaks, brownout
    /// transitions, breaker trips, cache traffic).
    pub fn summary(&self, responses: &[Response]) -> ServeSummary {
        let mut s = ServeSummary::from_responses(responses);
        s.breaker_trips = self.breakers.trips() as u64;
        s.backend_faults = self.backend_faults;
        s.brownout_entries = self.brownout_entries;
        s.peak_queue_depth = self.peak_queue_depth;
        s.cache_hits = self.cache_hits;
        s.cache_misses = self.cache_misses;
        s
    }

    /// Executes queued work on any worker that can start no later than
    /// `now`, in FIFO order (workers tie-break by lowest index).
    fn dispatch_until(&mut self, now: u64, responses: &mut Vec<Response>) {
        while let Some(head) = self.queue.front() {
            let wi = (0..self.workers_free_at.len())
                .min_by_key(|&i| self.workers_free_at[i])
                .expect("at least one worker");
            let start = self.workers_free_at[wi].max(head.req.arrival);
            if start > now {
                break;
            }
            let item = self.queue.pop_front().expect("checked non-empty");
            let (response, busy_until) = self.execute(item, start);
            self.workers_free_at[wi] = busy_until;
            responses.push(response);
        }
    }

    /// Admission decision for one arrival (see the module docs for the
    /// pipeline order).
    fn admit(&mut self, req: &ServeRequest, responses: &mut Vec<Response>) {
        let endpoint = req.body.endpoint();
        let t = req.arrival;
        let shed = |outcome: Outcome| Response {
            id: req.id,
            endpoint,
            outcome,
            arrived_at: t,
            finished_at: t,
            retries: 0,
        };

        if let Admission::Skip(_) = self.breakers.admit(endpoint.name()) {
            responses.push(shed(Outcome::Shed(ShedReason::BreakerOpen)));
            return;
        }

        if !self.brownout && self.queue.len() >= self.config.brownout_high {
            self.brownout = true;
            self.brownout_entries += 1;
        } else if self.brownout && self.queue.len() <= self.config.brownout_low {
            self.brownout = false;
        }

        if self.brownout {
            let outcome = self.serve_degraded(&req.body);
            responses.push(shed(outcome));
            return;
        }

        if self.queue.len() >= self.config.queue_capacity {
            responses.push(shed(Outcome::Shed(ShedReason::QueueFull)));
            return;
        }

        self.queue.push_back(Queued {
            req: req.clone(),
            deadline_at: t + self.config.deadline_for(endpoint),
        });
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len() as u64);
    }

    /// Cache-only answer during brownout; never queues, never computes.
    fn serve_degraded(&mut self, body: &RequestBody) -> Outcome {
        match body {
            RequestBody::ValidateChain {
                hostname,
                chain_der,
            } => {
                let received = receive(chain_der);
                let b = &self.backend;
                let query =
                    ReceivedChain::new(&received, b.roots, hostname, b.now, &b.crl, &b.options);
                // A memo answer needs no decoding; see DESIGN.md §8b.
                if let Some(verdict) = self.memo.and_then(|memo| query.memo_verdict(memo)) {
                    return Outcome::Degraded(Payload::ChainVerdict(verdict));
                }
                let chain = match decode(&received) {
                    Ok(chain) => chain,
                    // Decoding is cheap and the structured rejection is
                    // complete in itself — still an honest degraded
                    // answer for hostile bytes.
                    Err(e) => return Outcome::Degraded(Payload::Undecodable(e)),
                };
                let cached = self.memo.and_then(|memo| {
                    memo.verdict(&chain, b.roots, hostname, b.now, &b.crl, &b.options)
                });
                match cached {
                    Some(verdict) => Outcome::Degraded(Payload::ChainVerdict(verdict)),
                    None => Outcome::Shed(ShedReason::DegradedCacheMiss),
                }
            }
            RequestBody::ResolvePin { alg, digest } => {
                match self.resolver.cached_resolution(*alg, digest) {
                    Some(locs) => Outcome::Degraded(Payload::PinResolution {
                        matches: locs.len(),
                    }),
                    None => Outcome::Shed(ShedReason::DegradedCacheMiss),
                }
            }
            // Proof generation has no request-keyed cache: shed honestly.
            RequestBody::InclusionProof { .. } => Outcome::Shed(ShedReason::DegradedUnavailable),
        }
    }

    /// Runs one dequeued request on a worker starting at `start`; returns
    /// the response and the tick the worker frees up.
    fn execute(&mut self, item: Queued, start: u64) -> (Response, u64) {
        let endpoint = item.req.body.endpoint();
        let respond = |outcome: Outcome, finished_at: u64, retries: u32| Response {
            id: item.req.id,
            endpoint,
            outcome,
            arrived_at: item.req.arrival,
            finished_at,
            retries,
        };

        // Deadline already passed while queued: discard, don't compute.
        if start >= item.deadline_at {
            return (
                respond(Outcome::TimedOut(TimeoutStage::Queue), item.deadline_at, 0),
                start + COST_EXECUTE_OVERHEAD,
            );
        }

        let deadline = Deadline::with_budget(item.deadline_at - start);
        let mut rng =
            SplitMix64::new(self.config.seed).derive(&format!("serve/req/{}", item.req.id));
        let max_attempts = self.config.retry.max_attempts.max(1);
        let flaky_endpoint = matches!(endpoint, EndpointKind::Resolve | EndpointKind::Proof);

        let mut outcome = Outcome::BackendFailed {
            attempts: max_attempts,
        };
        let mut retries = 0;
        for attempt in 0..max_attempts {
            retries = attempt;
            let backoff = self.config.retry.backoff_before(attempt, &mut rng);
            if backoff > 0 && deadline.charge(backoff).is_err() {
                outcome = Outcome::TimedOut(TimeoutStage::RetryBackoff);
                break;
            }
            if flaky_endpoint
                && self.config.backend_flakiness > 0.0
                && rng.chance(self.config.backend_flakiness)
            {
                // The simulated log backend dropped this query.
                self.backend_faults += 1;
                self.breakers
                    .record_fault(endpoint.name(), BackendFault::Transient);
                if deadline.charge(COST_LOCATOR_LOOKUP).is_err() {
                    outcome = Outcome::TimedOut(match endpoint {
                        EndpointKind::Resolve => TimeoutStage::PinResolution,
                        _ => TimeoutStage::InclusionProof,
                    });
                    break;
                }
                continue; // next attempt (or fall out as BackendFailed)
            }
            if flaky_endpoint {
                self.breakers.record_success(endpoint.name());
            }
            outcome = self.perform(&item.req.body, &deadline);
            break;
        }

        let finished_at = start + deadline.spent();
        (
            respond(outcome, finished_at, retries),
            finished_at + COST_EXECUTE_OVERHEAD,
        )
    }

    /// The actual backend work, all charged against `deadline`.
    fn perform(&mut self, body: &RequestBody, deadline: &Deadline) -> Outcome {
        match body {
            RequestBody::ValidateChain {
                hostname,
                chain_der,
            } => {
                // Decoding is charged whether or not it runs, so a memo
                // answer costs the same ticks as it did after decoding.
                if deadline
                    .charge(COST_DECODE_PER_CERT * chain_der.len() as u64)
                    .is_err()
                {
                    return Outcome::TimedOut(TimeoutStage::ChainValidation);
                }
                let received = receive(chain_der);
                let b = &self.backend;
                let query =
                    ReceivedChain::new(&received, b.roots, hostname, b.now, &b.crl, &b.options);
                if let Some(memo) = self.memo {
                    match query.answer_within(memo, deadline) {
                        Ok(Some(verdict)) => {
                            self.cache_hits += 1;
                            return Outcome::Ok(Payload::ChainVerdict(verdict));
                        }
                        Ok(None) => {}
                        Err(_) => return Outcome::TimedOut(TimeoutStage::ChainValidation),
                    }
                }
                let chain = match decode(&received) {
                    Ok(chain) => chain,
                    Err(e) => return Outcome::Ok(Payload::Undecodable(e)),
                };
                // The service counts its own hits and misses from the
                // memo's answer.
                match query.validate_within(self.memo, &chain, deadline) {
                    Ok(CachedVerdict { verdict, hit }) => {
                        if hit {
                            self.cache_hits += 1;
                        } else {
                            self.cache_misses += 1;
                        }
                        Outcome::Ok(Payload::ChainVerdict(verdict))
                    }
                    Err(_) => Outcome::TimedOut(TimeoutStage::ChainValidation),
                }
            }
            RequestBody::ResolvePin { alg, digest } => {
                if deadline.charge(COST_LOCATOR_LOOKUP).is_err() {
                    return Outcome::TimedOut(TimeoutStage::PinResolution);
                }
                let was_cached = self.resolver.cached_resolution(*alg, digest).is_some();
                let locs = self.resolver.resolve_locators(*alg, digest);
                if was_cached {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
                Outcome::Ok(Payload::PinResolution {
                    matches: locs.len(),
                })
            }
            RequestBody::InclusionProof { alg, digest } => {
                if deadline.charge(COST_LOCATOR_LOOKUP).is_err() {
                    return Outcome::TimedOut(TimeoutStage::InclusionProof);
                }
                let was_cached = self.resolver.cached_resolution(*alg, digest).is_some();
                let locs = self.resolver.resolve_locators(*alg, digest);
                if was_cached {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
                let Some(&loc) = locs.first() else {
                    return Outcome::Ok(Payload::NotLogged);
                };
                let shard = &self.backend.logs.shards()[loc.0];
                let tree_size = shard.log.len() as u64;
                match self
                    .resolver
                    .inclusion_proof_within(loc, tree_size, deadline)
                {
                    Err(_) => Outcome::TimedOut(TimeoutStage::InclusionProof),
                    Ok(None) => Outcome::Ok(Payload::NotLogged),
                    Ok(Some(proof)) => {
                        let leaf = shard.log.leaf_hash(loc.1).expect("located entry exists");
                        let root = shard.log.root_at(tree_size).expect("head tree state");
                        let verified = verify_inclusion(&leaf, loc.1, tree_size, &proof, &root);
                        Outcome::Ok(Payload::InclusionProof {
                            tree_size,
                            proof_len: proof.len(),
                            verified,
                        })
                    }
                }
            }
        }
    }
}

/// Hashes each received certificate encoding once.
fn receive(chain_der: &[Vec<u8>]) -> Vec<ReceivedDer<'_>> {
    chain_der.iter().map(|der| ReceivedDer::new(der)).collect()
}

/// Decodes a received chain, stopping at the first undecodable
/// certificate.
fn decode(received: &[ReceivedDer<'_>]) -> Result<Vec<Certificate>, DecodeError> {
    received.iter().map(ReceivedDer::decode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_ctlog::{LogShard, ShardPolicy};
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::pin::PinAlgorithm;
    use pinning_pki::time::{Validity, YEAR};
    use pinning_pki::validate::validate_chain;

    /// A tiny PKI + CT world for serving: a trusted chain for
    /// `pay.shop.com`, an untrusted look-alike for `cold.shop.com`, and a
    /// populated log set.
    struct Fixture {
        store: RootStore,
        chain: Vec<Certificate>,
        cold_chain: Vec<Certificate>,
        logs: LogSet,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = SplitMix64::new(seed);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Serve Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let mut inter = root.issue_intermediate(
            DistinguishedName::new("Serve Inter", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            Some(1),
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = inter.issue_leaf(
            &["pay.shop.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let cold_key = KeyPair::generate(&mut rng);
        let cold_leaf = inter.issue_leaf(
            &["cold.shop.com".to_string()],
            "Shop",
            &cold_key,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut store = RootStore::new("serve-test");
        store.add(root.cert.clone());

        let window = Validity {
            not_before: SimTime::EPOCH,
            not_after: SimTime(u64::MAX),
        };
        let mut logs = LogSet::new();
        logs.push_shard(LogShard::new(
            "s0",
            "Op0",
            ShardPolicy::open(window),
            KeyPair::generate(&mut rng),
        ));
        for i in 0..16 {
            let k = KeyPair::generate(&mut rng);
            let c = root.issue_leaf(
                &[format!("filler{i}.example")],
                "Filler",
                &k,
                Validity::starting(SimTime(0), YEAR),
            );
            logs.submit(&c);
        }
        logs.submit(&leaf);

        Fixture {
            store,
            chain: vec![leaf, inter.cert.clone(), root.cert.clone()],
            cold_chain: vec![cold_leaf, inter.cert.clone(), root.cert.clone()],
            logs,
        }
    }

    fn backend(f: &Fixture) -> Backend<'_> {
        Backend {
            roots: &f.store,
            logs: &f.logs,
            crl: RevocationList::empty(),
            options: ValidationOptions::default(),
            now: SimTime(100),
        }
    }

    /// A service over `f` validating through the test's own `memo`.
    fn service<'a>(
        config: ServeConfig,
        f: &'a Fixture,
        memo: &'a ValidationMemo,
    ) -> PinService<'a> {
        PinService::new(config, backend(f)).with_memo(Some(memo))
    }

    fn validate_request(id: u64, arrival: u64, chain: &[Certificate], host: &str) -> ServeRequest {
        ServeRequest {
            id,
            arrival,
            body: RequestBody::ValidateChain {
                hostname: host.to_string(),
                chain_der: chain.iter().map(Certificate::to_der).collect(),
            },
        }
    }

    fn offline_verdict(
        f: &Fixture,
        chain: &[Certificate],
        host: &str,
    ) -> Result<(), pinning_pki::error::ValidationError> {
        validate_chain(
            chain,
            &f.store,
            host,
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        )
    }

    #[test]
    fn fresh_verdicts_match_offline_library() {
        let f = fixture(0x5e41);
        let memo = ValidationMemo::default();
        let mut svc = service(ServeConfig::default(), &f, &memo);
        // Well-spaced arrivals: no overload, everything served fresh.
        let reqs: Vec<ServeRequest> = (0..4)
            .map(|i| validate_request(i, i * 10_000, &f.chain, "pay.shop.com"))
            .collect();
        let responses = svc.run(&reqs);
        assert_eq!(responses.len(), 4);
        let expected = offline_verdict(&f, &f.chain, "pay.shop.com");
        for r in &responses {
            assert_eq!(
                r.outcome,
                Outcome::Ok(Payload::ChainVerdict(expected.clone())),
                "response {} must be byte-identical to the offline verdict",
                r.id
            );
            assert!(r.finished_at > r.arrived_at);
        }
        let s = svc.summary(&responses);
        assert_eq!(s.served_ok, 4);
        assert_eq!(s.shed_total(), 0);
        // First validation misses the memo, the rest ride it.
        assert_eq!((s.cache_misses, s.cache_hits), (1, 3));
    }

    #[test]
    fn deadline_mid_verification_times_out_without_partial_verdict() {
        use pinning_pki::validate::{
            COST_CHAIN_SETUP, COST_MEMO_PROBE, COST_PER_CERT_OVERHEAD, COST_SIGNATURE_VERIFY,
        };
        let f = fixture(0x5e42);
        let memo = ValidationMemo::default();
        // Budget lands mid-walk: decode + memo probe + setup + overhead +
        // the FIRST signature verify fit, the second does not.
        let to_first_sig = COST_DECODE_PER_CERT * 3
            + COST_MEMO_PROBE
            + COST_CHAIN_SETUP
            + COST_PER_CERT_OVERHEAD * 3
            + COST_SIGNATURE_VERIFY;
        let config = ServeConfig {
            deadline_validate: to_first_sig + COST_SIGNATURE_VERIFY / 2,
            ..ServeConfig::default()
        };
        let mut svc = service(config, &f, &memo);
        let responses = svc.run(&[validate_request(0, 0, &f.chain, "pay.shop.com")]);
        assert_eq!(
            responses[0].outcome,
            Outcome::TimedOut(TimeoutStage::ChainValidation),
            "a deadline expiring mid-verification must yield a structured timeout"
        );
        // The latency is exactly the deadline: the budget saturated.
        assert_eq!(
            responses[0].finished_at - responses[0].arrived_at,
            to_first_sig + COST_SIGNATURE_VERIFY / 2
        );
        // And the abandoned walk must not have poisoned the memo.
        assert_eq!(
            memo.verdict(
                &f.chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            ),
            None,
            "timed-out validations are never memoized"
        );
    }

    #[test]
    fn queue_bound_holds_and_overflow_sheds() {
        let f = fixture(0x5e43);
        let memo = ValidationMemo::default();
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 4,
            brownout_high: 100, // out of reach: isolate the queue bound
            brownout_low: 50,
            ..ServeConfig::default()
        };
        let mut svc = service(config, &f, &memo);
        // 30 simultaneous arrivals against one worker.
        let reqs: Vec<ServeRequest> = (0..30)
            .map(|i| validate_request(i, 0, &f.chain, "pay.shop.com"))
            .collect();
        let responses = svc.run(&reqs);
        let s = svc.summary(&responses);
        assert_eq!(s.peak_queue_depth, 4, "queue must stop at the bound");
        assert!(s.shed_queue_full > 0, "overflow must shed explicitly");
        assert_eq!(
            s.total,
            s.served_ok + s.timed_out + s.shed_total(),
            "every request reaches exactly one terminal state"
        );
    }

    #[test]
    fn brownout_serves_cached_answers_and_sheds_cold_ones() {
        let f = fixture(0x5e44);
        let memo = ValidationMemo::default();
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 10,
            brownout_high: 6,
            brownout_low: 2,
            ..ServeConfig::default()
        };
        let mut svc = service(config, &f, &memo);
        let mut reqs = Vec::new();
        // Prime the validation memo with the warm chain, unhurried.
        reqs.push(validate_request(0, 0, &f.chain, "pay.shop.com"));
        // Flood at one tick: warm and cold chains alternating.
        for i in 0..24u64 {
            let (chain, host) = if i % 2 == 0 {
                (&f.chain, "pay.shop.com")
            } else {
                (&f.cold_chain, "cold.shop.com")
            };
            reqs.push(validate_request(1 + i, 50_000, chain, host));
        }
        // Long after the storm: normal service must have resumed.
        reqs.push(validate_request(100, 10_000_000, &f.chain, "pay.shop.com"));
        let responses = svc.run(&reqs);
        let s = svc.summary(&responses);
        assert!(s.brownout_entries > 0, "the flood must enter brownout");
        assert!(s.degraded > 0, "warm requests are answered from cache");
        assert!(s.shed_degraded > 0, "cold requests are shed, not invented");
        // Degraded answers are real memoized verdicts, marked as such.
        let expected = offline_verdict(&f, &f.chain, "pay.shop.com");
        for r in responses
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Degraded(_)))
        {
            assert_eq!(
                r.outcome,
                Outcome::Degraded(Payload::ChainVerdict(expected.clone()))
            );
        }
        // Hysteresis released: the post-storm request is served fresh.
        let last = responses.iter().find(|r| r.id == 100).unwrap();
        assert!(matches!(last.outcome, Outcome::Ok(_)), "{:?}", last.outcome);
    }

    #[test]
    fn breaker_opens_on_persistent_backend_faults_and_sheds_at_admission() {
        let f = fixture(0x5e45);
        let memo = ValidationMemo::default();
        let digest = f.chain[0].spki_sha256().to_vec();
        let config = ServeConfig {
            backend_flakiness: 1.0, // the log backend is down for the run
            ..ServeConfig::default()
        };
        let mut svc = service(config, &f, &memo);
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| ServeRequest {
                id: i,
                arrival: i * 100_000, // well spaced: no queueing effects
                body: RequestBody::ResolvePin {
                    alg: PinAlgorithm::Sha256,
                    digest: digest.clone(),
                },
            })
            .collect();
        let responses = svc.run(&reqs);
        let s = svc.summary(&responses);
        assert!(s.backend_failed > 0, "retry budgets must exhaust");
        assert!(
            s.breaker_trips > 0,
            "persistent faults must trip the breaker"
        );
        assert!(
            s.shed_breaker_open > 0,
            "an open breaker must shed at admission"
        );
        assert!(s.retries > 0, "failed attempts must consume retries");
    }

    #[test]
    fn same_seed_runs_are_identical_once_warm() {
        let f = fixture(0x5e46);
        let memo = ValidationMemo::default();
        let digest = f.chain[0].spki_sha256().to_vec();
        let mut reqs = Vec::new();
        let mut id = 0u64;
        // A storm with everything in it: warm/cold validations, resolves,
        // proofs, all at 4 ticks apart (far faster than service).
        for burst in 0..3u64 {
            for i in 0..20u64 {
                let arrival = burst * 100_000 + i * 4;
                let body = match i % 4 {
                    0 => RequestBody::ValidateChain {
                        hostname: "pay.shop.com".to_string(),
                        chain_der: f.chain.iter().map(Certificate::to_der).collect(),
                    },
                    1 => RequestBody::ValidateChain {
                        hostname: "cold.shop.com".to_string(),
                        chain_der: f.cold_chain.iter().map(Certificate::to_der).collect(),
                    },
                    2 => RequestBody::ResolvePin {
                        alg: PinAlgorithm::Sha256,
                        digest: digest.clone(),
                    },
                    _ => RequestBody::InclusionProof {
                        alg: PinAlgorithm::Sha256,
                        digest: digest.clone(),
                    },
                };
                reqs.push(ServeRequest { id, arrival, body });
                id += 1;
            }
        }
        let config = ServeConfig {
            workers: 2,
            queue_capacity: 8,
            brownout_high: 6,
            brownout_low: 2,
            backend_flakiness: 0.3,
            seed: 0xD15EA5E,
            ..ServeConfig::default()
        };
        // Warm-up run: settles the validation memo so the two compared
        // runs see identical cache state.
        let mut warmup = service(config.clone(), &f, &memo);
        let _ = warmup.run(&reqs);

        let run = || {
            let mut svc = service(config.clone(), &f, &memo);
            let responses = svc.run(&reqs);
            let summary = svc.summary(&responses);
            (responses, summary)
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(r1, r2, "same seed, same trace ⇒ identical responses");
        assert_eq!(s1, s2, "…and identical summaries");
        // And the storm actually exercised the machinery.
        assert!(s1.shed_total() > 0 || s1.degraded > 0, "{s1:?}");
    }

    #[test]
    fn hostile_bytes_get_structured_answers_not_panics() {
        let f = fixture(0x5e47);
        let memo = ValidationMemo::default();
        let mut svc = service(ServeConfig::default(), &f, &memo);
        let mut garbage = f.chain[0].to_der();
        garbage.truncate(garbage.len() / 2);
        let reqs = vec![
            ServeRequest {
                id: 0,
                arrival: 0,
                body: RequestBody::ValidateChain {
                    hostname: "pay.shop.com".to_string(),
                    chain_der: vec![garbage],
                },
            },
            ServeRequest {
                id: 1,
                arrival: 10_000,
                body: RequestBody::ResolvePin {
                    alg: PinAlgorithm::Sha256,
                    digest: vec![0xEE; 32], // resolves to nothing
                },
            },
            ServeRequest {
                id: 2,
                arrival: 20_000,
                body: RequestBody::InclusionProof {
                    alg: PinAlgorithm::Sha256,
                    digest: vec![0xEE; 32],
                },
            },
        ];
        let responses = svc.run(&reqs);
        assert!(matches!(
            responses[0].outcome,
            Outcome::Ok(Payload::Undecodable(_))
        ));
        assert_eq!(
            responses[1].outcome,
            Outcome::Ok(Payload::PinResolution { matches: 0 })
        );
        assert_eq!(responses[2].outcome, Outcome::Ok(Payload::NotLogged));
    }

    /// `f.chain` with its leaf's SANs replaced, as the adversarial cohort
    /// builds its `GiantSan` and `AbsurdWildcard` leaves: from
    /// `Certificate` values, never decoded.
    fn chain_with_sans(f: &Fixture, san: Vec<String>) -> Vec<Certificate> {
        let mut leaf = f.chain[0].clone();
        leaf.tbs.san = san;
        leaf.invalidate_derived();
        vec![leaf, f.chain[1].clone(), f.chain[2].clone()]
    }

    #[test]
    fn memo_verdicts_for_chains_decoding_rejects_never_answer_their_bytes() {
        use pinning_pki::limits::{Budget, Limit};
        let f = fixture(0x5e49);
        let giant = (0..Budget::STANDARD.max_names * 8)
            .map(|i| format!("h{i}.shop.com"))
            .chain(["pay.shop.com".to_string()])
            .collect();
        let wildcard = vec![
            "*.*.*.*.*.*.shop.com".to_string(),
            "pay.shop.com".to_string(),
        ];
        for (san, limit) in [(giant, Limit::Names), (wildcard, Limit::WildcardLabels)] {
            let chain = chain_with_sans(&f, san);
            let memo = ValidationMemo::default();
            let held = memo.validate(
                &chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            );
            assert!(held.is_err(), "the memo holds a verdict for {limit:?}");
            let mut svc = service(ServeConfig::default(), &f, &memo);
            let body = validate_request(0, 0, &chain, "pay.shop.com").body;
            let undecodable = Payload::Undecodable(DecodeError::LimitExceeded(limit));
            assert_eq!(
                svc.perform(&body, &Deadline::unlimited()),
                Outcome::Ok(undecodable.clone())
            );
            assert_eq!(svc.serve_degraded(&body), Outcome::Degraded(undecodable));
            assert_eq!((svc.cache_hits, svc.cache_misses), (0, 0));
            assert_eq!((memo.stats().hits, memo.stats().misses), (0, 1));
        }
    }

    #[test]
    fn revocations_answer_as_the_decode_path_does() {
        use pinning_pki::validate::COST_MEMO_PROBE;
        let f = fixture(0x5e4a);
        let memo = ValidationMemo::default();
        // The memo already holds an `Ok` for the chain under an empty CRL,
        // whose key differs from a revoking CRL's only in the leaf bit.
        let (empty, options) = (RevocationList::empty(), ValidationOptions::default());
        memo.validate(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &empty,
            &options,
        )
        .unwrap();
        let mut crl = RevocationList::empty();
        crl.revoke(f.chain[0].tbs.serial);
        let mut svc = PinService::new(
            ServeConfig::default(),
            Backend {
                crl: crl.clone(),
                ..backend(&f)
            },
        )
        .with_memo(Some(&memo));
        let reqs: Vec<ServeRequest> = (0..2)
            .map(|i| validate_request(i, i * 10_000, &f.chain, "pay.shop.com"))
            .collect();
        let responses = svc.run(&reqs);
        let offline = validate_chain(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &options,
        );
        assert!(offline.is_err(), "the leaf is revoked");
        for r in &responses {
            assert_eq!(
                r.outcome,
                Outcome::Ok(Payload::ChainVerdict(offline.clone()))
            );
        }
        // The first validates in full, the second is a memo hit.
        let hit_ticks = COST_DECODE_PER_CERT * 3 + COST_MEMO_PROBE;
        assert!(responses[0].finished_at - responses[0].arrived_at > hit_ticks);
        assert_eq!(
            responses[1].finished_at - responses[1].arrived_at,
            hit_ticks
        );
        let s = svc.summary(&responses);
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
    }

    #[test]
    fn a_leaf_with_a_trailing_byte_is_answered_as_before() {
        use pinning_pki::validate::COST_MEMO_PROBE;
        let f = fixture(0x5e4b);
        let memo = ValidationMemo::default();
        let (crl, options) = (RevocationList::empty(), ValidationOptions::default());
        memo.validate(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &options,
        )
        .unwrap();
        let mut req = validate_request(0, 0, &f.chain, "pay.shop.com");
        let RequestBody::ValidateChain { chain_der, .. } = &mut req.body else {
            unreachable!()
        };
        chain_der[0].push(0);
        // The bytes decode to the warm chain, whose verdict is a memo hit
        // charged the decode and the probe, as it was before any probe
        // read the bytes themselves.
        let mut svc = service(ServeConfig::default(), &f, &memo);
        let responses = svc.run(&[req.clone()]);
        let expected = offline_verdict(&f, &f.chain, "pay.shop.com");
        assert_eq!(
            responses[0].outcome,
            Outcome::Ok(Payload::ChainVerdict(expected.clone()))
        );
        assert_eq!(
            responses[0].finished_at - responses[0].arrived_at,
            COST_DECODE_PER_CERT * 3 + COST_MEMO_PROBE
        );
        let s = svc.summary(&responses);
        assert_eq!((s.cache_hits, s.cache_misses), (1, 0));
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
        // Brownout answers it from the memo as well.
        assert_eq!(
            svc.serve_degraded(&req.body),
            Outcome::Degraded(Payload::ChainVerdict(expected))
        );
    }

    #[test]
    fn proof_endpoint_generates_verified_proofs() {
        let f = fixture(0x5e48);
        let memo = ValidationMemo::default();
        let digest = f.chain[0].spki_sha256().to_vec();
        let mut svc = service(ServeConfig::default(), &f, &memo);
        let responses = svc.run(&[ServeRequest {
            id: 0,
            arrival: 0,
            body: RequestBody::InclusionProof {
                alg: PinAlgorithm::Sha256,
                digest,
            },
        }]);
        match &responses[0].outcome {
            Outcome::Ok(Payload::InclusionProof {
                tree_size,
                proof_len,
                verified,
            }) => {
                assert_eq!(*tree_size, 17, "16 fillers + the leaf");
                assert!(*proof_len > 0);
                assert!(verified, "the proof must verify against the log root");
            }
            other => panic!("expected a verified proof, got {other:?}"),
        }
    }
}
