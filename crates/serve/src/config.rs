//! Service tuning knobs.

use pinning_resilience::{BreakerConfig, RetryPolicy};

/// Configuration for a [`crate::PinService`].
///
/// All times are virtual ticks (one tick = one work unit of the deadline
/// cost model, roughly a virtual microsecond). The watermarks implement
/// brownout hysteresis: the service degrades when queue depth reaches
/// `brownout_high` and recovers only once the backlog has drained to
/// `brownout_low`, so a queue hovering at the threshold cannot flap the
/// service in and out of degraded mode per request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for all service randomness (retry jitter, backend flakiness).
    pub seed: u64,
    /// Virtual executors draining the queue.
    pub workers: usize,
    /// Admission queue bound; arrivals past it are shed, never queued.
    pub queue_capacity: usize,
    /// Queue depth at which brownout (cache-only serving) begins.
    pub brownout_high: usize,
    /// Queue depth at which brownout ends.
    pub brownout_low: usize,
    /// Deadline for `Validate` requests, ticks from arrival.
    pub deadline_validate: u64,
    /// Deadline for `Resolve` requests, ticks from arrival.
    pub deadline_resolve: u64,
    /// Deadline for `Proof` requests, ticks from arrival. Proofs are the
    /// longest class: on a cold tree state they pay the resolver's
    /// authenticator-build charge, `tree_size / PROOF_COST_DIVISOR + 1`
    /// ticks, which models a CT backend and grows with the log (the
    /// in-process build copies every stored subtree hash, O(n), and
    /// hashes O(log n) nodes; the charge is unchanged so timeouts and
    /// latencies stay as calibrated).
    pub deadline_proof: u64,
    /// Retry budget for transient backend faults. `backoff_secs` is read
    /// as *ticks* here; `deadline_secs` is unused (the per-endpoint
    /// deadlines above bound each request).
    pub retry: RetryPolicy,
    /// Probability a log-backend query transiently fails (`Resolve` /
    /// `Proof` only; validation is local CPU and never flakes).
    pub backend_flakiness: f64,
    /// Circuit-breaker tuning for the admission path.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0,
            workers: 4,
            queue_capacity: 64,
            brownout_high: 48,
            brownout_low: 16,
            deadline_validate: 2_000,
            deadline_resolve: 1_500,
            deadline_proof: 4_000,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_secs: 20,
                jitter_pct: 50,
                deadline_secs: 0,
            },
            backend_flakiness: 0.0,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The deadline class for `endpoint`.
    pub fn deadline_for(&self, endpoint: crate::EndpointKind) -> u64 {
        match endpoint {
            crate::EndpointKind::Validate => self.deadline_validate,
            crate::EndpointKind::Resolve => self.deadline_resolve,
            crate::EndpointKind::Proof => self.deadline_proof,
        }
    }
}
