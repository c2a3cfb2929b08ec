//! Cache hit/miss telemetry.
//!
//! The performance layer computes derived certificate artifacts (DER
//! bytes, fingerprints, SPKI digests, pin strings), chain-validation
//! verdicts and Merkle proof batches once per distinct input. Every such
//! cache keeps a [`CacheCounter`] of hits and misses, so a reported
//! speedup can be traced to concrete avoided recomputation.
//!
//! The statics below are monotone process totals; perfbench reads them.
//! A run reports its own chain-validation traffic from the
//! [`crate::validate::ValidationMemo`] it owns, which also adds into
//! [`CHAIN_VALIDATION`]. That the memo is invisible in results is tested
//! by running the same study with and without one.

use std::sync::atomic::{AtomicU64, Ordering};

/// Hit/miss counters for one named cache, declared as a `static` by a
/// caching site or held by a memo; cheap enough to bump on every access.
#[derive(Debug)]
pub struct CacheCounter {
    name: &'static str,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheCounter {
    /// Creates a counter (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        CacheCounter {
            name,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Records a cache hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss (the value was computed and stored).
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Current cumulative numbers.
    pub fn snapshot(&self) -> CacheStat {
        CacheStat {
            name: self.name.to_string(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of one cache's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStat {
    /// Cache name (e.g. `"cert-der"`).
    pub name: String,
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that computed and stored a fresh value.
    pub misses: u64,
}

impl CacheStat {
    /// Total queries served.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// The activity between an earlier snapshot `base` of the same counter
    /// and this one — what a single study run contributed.
    pub fn delta_since(&self, base: &CacheStat) -> CacheStat {
        debug_assert_eq!(self.name, base.name);
        CacheStat {
            name: self.name.clone(),
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
        }
    }
}

/// Cached DER encodings ([`crate::cert::Certificate::der_bytes`]).
pub static CERT_DER: CacheCounter = CacheCounter::new("cert-der");
/// Cached certificate fingerprints.
pub static CERT_FINGERPRINT: CacheCounter = CacheCounter::new("cert-fingerprint");
/// Cached SPKI SHA-256 digests.
pub static CERT_SPKI_SHA256: CacheCounter = CacheCounter::new("cert-spki-sha256");
/// Cached SPKI SHA-1 digests.
pub static CERT_SPKI_SHA1: CacheCounter = CacheCounter::new("cert-spki-sha1");
/// Cached `sha256/<base64>` pin strings.
pub static CERT_PIN_STRING: CacheCounter = CacheCounter::new("cert-pin-string");
/// Chain-validation verdicts, summed over every [`crate::validate::ValidationMemo`].
pub static CHAIN_VALIDATION: CacheCounter = CacheCounter::new("chain-validation");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        static C: CacheCounter = CacheCounter::new("test-counter");
        let base = C.snapshot();
        C.hit();
        C.hit();
        C.miss();
        let now = C.snapshot();
        let d = now.delta_since(&base);
        assert_eq!((d.hits, d.misses), (2, 1));
        assert_eq!(d.total(), 3);
    }
}
