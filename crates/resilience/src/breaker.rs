//! Per-endpoint circuit breakers.
//!
//! A circuit breaker remembers that an endpoint has been failing and
//! short-circuits further attempts until a cooldown has passed, then lets
//! a single probe through (half-open) before either closing again or
//! re-opening. Two layers share this implementation: the netsim test bed
//! (where breakers stop dead hosts from burning the retry ladder, PR 3)
//! and the `pinning-serve` admission path (where an open breaker rejects
//! requests at the front door instead of queueing work that will fail).
//!
//! The state machine is the classic three-state breaker:
//!
//! ```text
//!            ≥ threshold consecutive faults
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                       │ cooldown attempts skipped
//!     │ probe succeeds                        ▼
//!     └───────────────────────────────── HalfOpen
//!                                             │ probe faults
//!                                             └──────▶ Open (re-trip)
//! ```
//!
//! The breaker is generic over the fault payload `F` (the netsim layer
//! uses its injected `FaultKind`; the serving layer uses a backend fault
//! enum), and [`Admission::Skip`] carries the fault that tripped the
//! breaker so short-circuited attempts can be journaled faithfully.
//!
//! Determinism: breaker decisions are a pure function of the observed
//! fault sequence, and every owner holds its own [`BreakerSet`], so
//! results are independent of worker count and scheduling order.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive faults on one endpoint that trip the breaker.
    pub failure_threshold: u32,
    /// Attempts short-circuited while open before a half-open probe.
    pub cooldown_attempts: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        // Trip on the third consecutive fault, skip two attempts, probe.
        BreakerConfig {
            failure_threshold: 3,
            cooldown_attempts: 2,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Traffic flows normally.
    #[default]
    Closed,
    /// The endpoint is quarantined; attempts are short-circuited.
    Open,
    /// One probe attempt is allowed through.
    HalfOpen,
}

/// Verdict for one connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission<F> {
    /// Attempt the connection.
    Proceed,
    /// Short-circuit: record the given fault and skip the attempt.
    Skip(F),
}

#[derive(Debug, Clone, Copy)]
struct Endpoint<F> {
    state: BreakerState,
    consecutive_faults: u32,
    skipped_while_open: u32,
    last_fault: Option<F>,
    trips: u32,
}

impl<F> Default for Endpoint<F> {
    fn default() -> Self {
        Endpoint {
            state: BreakerState::default(),
            consecutive_faults: 0,
            skipped_while_open: 0,
            last_fault: None,
            trips: 0,
        }
    }
}

/// One breaker per endpoint, scoped to a single owner (an app's
/// measurement in netsim, a service instance in `pinning-serve`).
///
/// Interior mutability keeps call sites that only hold `&self` simple; a
/// `BreakerSet` is thread-confined to its owner, never shared.
#[derive(Debug)]
pub struct BreakerSet<F> {
    config: BreakerConfig,
    endpoints: RefCell<BTreeMap<String, Endpoint<F>>>,
}

impl<F> Default for BreakerSet<F> {
    fn default() -> Self {
        BreakerSet {
            config: BreakerConfig::default(),
            endpoints: RefCell::new(BTreeMap::new()),
        }
    }
}

impl<F: Copy> BreakerSet<F> {
    /// A breaker set with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        BreakerSet {
            config,
            endpoints: RefCell::new(BTreeMap::new()),
        }
    }

    /// Decides whether a connection attempt to `domain` may proceed.
    ///
    /// Open breakers consume one cooldown slot per call; once the cooldown
    /// is exhausted the breaker moves to half-open and admits a probe.
    pub fn admit(&self, domain: &str) -> Admission<F> {
        let mut map = self.endpoints.borrow_mut();
        let Some(ep) = map.get_mut(domain) else {
            return Admission::Proceed;
        };
        match ep.state {
            BreakerState::Closed | BreakerState::HalfOpen => Admission::Proceed,
            BreakerState::Open => {
                if ep.skipped_while_open < self.config.cooldown_attempts {
                    ep.skipped_while_open += 1;
                    Admission::Skip(ep.last_fault.expect("open breaker saw a fault"))
                } else {
                    ep.state = BreakerState::HalfOpen;
                    Admission::Proceed
                }
            }
        }
    }

    /// Records a fault on `domain`; may trip the breaker.
    pub fn record_fault(&self, domain: &str, kind: F) {
        let mut map = self.endpoints.borrow_mut();
        let ep = map.entry(domain.to_string()).or_default();
        ep.last_fault = Some(kind);
        match ep.state {
            BreakerState::Closed => {
                ep.consecutive_faults += 1;
                if ep.consecutive_faults >= self.config.failure_threshold {
                    ep.state = BreakerState::Open;
                    ep.skipped_while_open = 0;
                    ep.trips += 1;
                }
            }
            BreakerState::HalfOpen => {
                // The probe faulted: straight back to open.
                ep.state = BreakerState::Open;
                ep.skipped_while_open = 0;
                ep.trips += 1;
            }
            BreakerState::Open => {}
        }
    }

    /// Records a clean attempt on `domain`; closes the breaker.
    pub fn record_success(&self, domain: &str) {
        let mut map = self.endpoints.borrow_mut();
        if let Some(ep) = map.get_mut(domain) {
            ep.state = BreakerState::Closed;
            ep.consecutive_faults = 0;
            ep.skipped_while_open = 0;
        }
    }

    /// The current state of `domain`'s breaker.
    pub fn state(&self, domain: &str) -> BreakerState {
        self.endpoints
            .borrow()
            .get(domain)
            .map(|e| e.state)
            .unwrap_or_default()
    }

    /// Total closed→open transitions across all endpoints.
    pub fn trips(&self) -> u32 {
        self.endpoints.borrow().values().map(|e| e.trips).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stand-in fault payload (the netsim layer plugs in `FaultKind`, the
    /// serving layer its backend fault enum).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fault {
        Dns,
        TcpReset,
        HandshakeTimeout,
        Truncation,
    }

    fn set() -> BreakerSet<Fault> {
        BreakerSet::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_attempts: 2,
        })
    }

    #[test]
    fn trips_after_threshold_consecutive_faults() {
        let b = set();
        for _ in 0..2 {
            b.record_fault("api.example", Fault::Dns);
            assert_eq!(b.state("api.example"), BreakerState::Closed);
        }
        b.record_fault("api.example", Fault::Dns);
        assert_eq!(b.state("api.example"), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = set();
        b.record_fault("api.example", Fault::TcpReset);
        b.record_fault("api.example", Fault::TcpReset);
        b.record_success("api.example");
        b.record_fault("api.example", Fault::TcpReset);
        b.record_fault("api.example", Fault::TcpReset);
        assert_eq!(b.state("api.example"), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn open_breaker_skips_cooldown_then_probes() {
        let b = set();
        for _ in 0..3 {
            b.record_fault("api.example", Fault::HandshakeTimeout);
        }
        // Two cooldown skips, carrying the tripping fault kind.
        for _ in 0..2 {
            assert_eq!(
                b.admit("api.example"),
                Admission::Skip(Fault::HandshakeTimeout)
            );
        }
        // Third attempt is the half-open probe.
        assert_eq!(b.admit("api.example"), Admission::Proceed);
        assert_eq!(b.state("api.example"), BreakerState::HalfOpen);
    }

    #[test]
    fn probe_success_closes_probe_fault_reopens() {
        let b = set();
        for _ in 0..3 {
            b.record_fault("cdn.example", Fault::Truncation);
        }
        for _ in 0..2 {
            let _ = b.admit("cdn.example");
        }
        assert_eq!(b.admit("cdn.example"), Admission::Proceed);
        b.record_success("cdn.example");
        assert_eq!(b.state("cdn.example"), BreakerState::Closed);

        // Re-trip, probe again, fault the probe: re-opens and re-counts.
        for _ in 0..3 {
            b.record_fault("cdn.example", Fault::Truncation);
        }
        for _ in 0..2 {
            let _ = b.admit("cdn.example");
        }
        let _ = b.admit("cdn.example"); // half-open
        b.record_fault("cdn.example", Fault::Truncation);
        assert_eq!(b.state("cdn.example"), BreakerState::Open);
        assert_eq!(b.trips(), 3);
    }

    #[test]
    fn endpoints_are_independent() {
        let b = set();
        for _ in 0..3 {
            b.record_fault("down.example", Fault::Dns);
        }
        assert_eq!(b.state("down.example"), BreakerState::Open);
        assert_eq!(b.admit("up.example"), Admission::Proceed);
        assert_eq!(b.state("up.example"), BreakerState::Closed);
    }

    #[test]
    fn default_set_uses_default_config() {
        let b: BreakerSet<Fault> = BreakerSet::default();
        for _ in 0..3 {
            b.record_fault("d.example", Fault::Dns);
        }
        assert_eq!(b.state("d.example"), BreakerState::Open);
    }
}
