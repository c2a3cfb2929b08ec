//! The cached pin-resolution service.
//!
//! Resolving a statically-extracted SPKI pin through CT (§4.1.3) is the
//! hot path of certificate association: the same SDK pin appears in
//! hundreds of apps, and the flat-lookup approach re-queried the log for
//! every occurrence. [`PinResolver`] memoizes (algorithm, digest) →
//! matching log entries over a [`LogSet`], so each unique pin costs one
//! underlying union lookup, and keeps hit/miss counters the report layer
//! turns into real coverage statistics.

use crate::merkle::TreeAuthenticator;
use crate::shard::{EntryLocator, LogSet};
use pinning_pki::pin::PinAlgorithm;
use pinning_pki::Certificate;
use pinning_resilience::{Deadline, DeadlineExceeded};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Work units charged for probing the locator memo (or, on a miss, as the
/// flat per-query overhead of the underlying union lookup).
pub const COST_LOCATOR_LOOKUP: u64 = 3;
/// Work units charged per `tree_size / PROOF_COST_DIVISOR` leaves when an
/// authenticator must be built fresh. The charge models a CT backend
/// materialising a tree state, which grows with the tree; in process the
/// build is a copy of the log's stored subtree hashes plus O(log n) node
/// hashes. The units are virtual ticks that decide timeouts and latency,
/// so they stay fixed when the in-process cost moves.
pub const PROOF_COST_DIVISOR: u64 = 4;
/// Work units charged for assembling a proof from a ready authenticator.
pub const COST_PROOF_ASSEMBLY: u64 = 8;

/// Cache key → locators of every matching entry (empty = known-unresolvable).
type LocatorCache = HashMap<(u8, Vec<u8>), Vec<EntryLocator>>;

/// Resolver cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that went to the underlying log set.
    pub misses: u64,
    /// Of the misses, how many resolved to at least one logged cert.
    pub resolved_unique: u64,
}

impl ResolverStats {
    /// Total queries served.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Cache hit rate in `[0, 1]` (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// A memoizing SPKI→log-entries resolver over a [`LogSet`].
///
/// Results are byte-identical to [`LogSet::search_by_spki_digest`] — the
/// cache stores entry *locators*, so answers are always served from the
/// log's own storage — but at most one underlying lookup is performed per
/// unique (algorithm, digest).
#[derive(Debug)]
pub struct PinResolver<'a> {
    logs: &'a LogSet,
    cache: RefCell<LocatorCache>,
    /// One [`TreeAuthenticator`] per (shard index, tree size): proving many
    /// entries under the same signed tree state costs one build.
    auth_cache: RefCell<HashMap<(usize, u64), TreeAuthenticator>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    resolved_unique: Cell<u64>,
}

fn alg_tag(alg: PinAlgorithm) -> u8 {
    match alg {
        PinAlgorithm::Sha256 => 0,
        PinAlgorithm::Sha1 => 1,
    }
}

impl<'a> PinResolver<'a> {
    /// Creates a resolver with an empty cache.
    pub fn new(logs: &'a LogSet) -> Self {
        PinResolver {
            logs,
            cache: RefCell::new(HashMap::new()),
            auth_cache: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            resolved_unique: Cell::new(0),
        }
    }

    /// The underlying log set.
    pub fn logs(&self) -> &'a LogSet {
        self.logs
    }

    /// Resolves a pin digest to every logged certificate carrying that
    /// SPKI (crt.sh association), memoized.
    pub fn resolve(&self, alg: PinAlgorithm, digest: &[u8]) -> Vec<&'a Certificate> {
        self.locate(alg, digest)
            .into_iter()
            .map(|loc| self.logs.entry_cert(loc).expect("cached locator valid"))
            .collect()
    }

    /// Whether the pin resolves to at least one logged certificate.
    pub fn resolves(&self, alg: PinAlgorithm, digest: &[u8]) -> bool {
        !self.locate(alg, digest).is_empty()
    }

    /// Memoized locator lookup: every log entry whose certificate carries
    /// the pinned SPKI, as (shard, index) locators. Counts toward
    /// [`ResolverStats`] like [`PinResolver::resolve`].
    pub fn resolve_locators(&self, alg: PinAlgorithm, digest: &[u8]) -> Vec<EntryLocator> {
        self.locate(alg, digest)
    }

    /// Probes the locator memo without querying the underlying logs:
    /// `Some(locators)` iff this exact pin has already been resolved.
    /// Does **not** touch the hit/miss counters — this is the brownout
    /// path of `pinning-serve`, accounted by the service, not the study.
    pub fn cached_resolution(&self, alg: PinAlgorithm, digest: &[u8]) -> Option<Vec<EntryLocator>> {
        let key = (alg_tag(alg), digest.to_vec());
        self.cache.borrow().get(&key).cloned()
    }

    fn locate(&self, alg: PinAlgorithm, digest: &[u8]) -> Vec<EntryLocator> {
        let key = (alg_tag(alg), digest.to_vec());
        if let Some(locs) = self.cache.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return locs.clone();
        }
        self.misses.set(self.misses.get() + 1);
        let locs = self.logs.lookup_spki(alg, digest);
        if !locs.is_empty() {
            self.resolved_unique.set(self.resolved_unique.get() + 1);
        }
        self.cache.borrow_mut().insert(key, locs.clone());
        locs
    }

    /// Inclusion proof for a located entry under the tree state of
    /// `tree_size`, byte-identical to asking the shard's log directly.
    /// Proof generation is batched per (shard, tree size): the first proof
    /// for a tree state builds the shard's authenticator from the log's
    /// stored subtree hashes, every later proof for the same state is
    /// assembled without hashing ([`crate::merkle::PROOF_BATCH`] counts the
    /// split).
    /// Returns `None` for unknown shards or out-of-range entries/sizes.
    pub fn inclusion_proof(&self, loc: EntryLocator, tree_size: u64) -> Option<Vec<[u8; 32]>> {
        self.inclusion_proof_within(loc, tree_size, &Deadline::unlimited())
            .expect("unlimited deadline cannot expire")
    }

    /// [`PinResolver::inclusion_proof`] under a work-budget deadline.
    ///
    /// The cost model is a CT backend's: a fresh authenticator pays
    /// `tree_size / PROOF_COST_DIVISOR + 1` units for materialising the
    /// tree state (charged *before* the build, so a too-tight deadline
    /// abandons proof generation before any work), a cached authenticator
    /// pays one unit, and assembling the proof path pays
    /// [`COST_PROOF_ASSEMBLY`].
    pub fn inclusion_proof_within(
        &self,
        loc: EntryLocator,
        tree_size: u64,
        deadline: &Deadline,
    ) -> Result<Option<Vec<[u8; 32]>>, DeadlineExceeded> {
        let (shard_idx, entry_idx) = loc;
        let Some(shard) = self.logs.shards().get(shard_idx) else {
            return Ok(None);
        };
        let build_cost = tree_size / PROOF_COST_DIVISOR + 1;
        let mut cache = self.auth_cache.borrow_mut();
        let auth = match cache.entry((shard_idx, tree_size)) {
            Entry::Occupied(e) => {
                deadline.charge(1)?;
                e.into_mut()
            }
            Entry::Vacant(e) => {
                deadline.charge(build_cost)?;
                let Some(auth) = shard.log.authenticator(tree_size) else {
                    return Ok(None);
                };
                e.insert(auth)
            }
        };
        deadline.charge(COST_PROOF_ASSEMBLY)?;
        Ok(auth.inclusion_proof(entry_idx))
    }

    /// Current cache statistics.
    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            resolved_unique: self.resolved_unique.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{LogShard, ShardPolicy};
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::time::{SimTime, Validity, YEAR};

    fn populated_set() -> (LogSet, Vec<pinning_pki::Certificate>) {
        let mut rng = SplitMix64::new(0x9e);
        let window = Validity {
            not_before: SimTime::EPOCH,
            not_after: SimTime(u64::MAX),
        };
        let mut set = LogSet::new();
        set.push_shard(LogShard::new(
            "s0",
            "Op0",
            ShardPolicy::open(window),
            KeyPair::generate(&mut rng),
        ));
        set.push_shard(LogShard::new(
            "s1",
            "Op1",
            ShardPolicy {
                window,
                leaf_acceptance: 0.5,
                ca_acceptance: 0.5,
            },
            KeyPair::generate(&mut rng),
        ));
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let mut certs = Vec::new();
        for i in 0..20 {
            let key = KeyPair::generate(&mut rng);
            let cert = root.issue_leaf(
                &[format!("h{i}.com")],
                "Org",
                &key,
                Validity::starting(SimTime(0), YEAR),
            );
            set.submit(&cert);
            certs.push(cert);
        }
        (set, certs)
    }

    #[test]
    fn resolver_matches_direct_lookup_byte_for_byte() {
        let (set, certs) = populated_set();
        let resolver = PinResolver::new(&set);
        for cert in &certs {
            for (alg, digest) in [
                (PinAlgorithm::Sha256, cert.spki_sha256().to_vec()),
                (PinAlgorithm::Sha1, cert.spki_sha1().to_vec()),
            ] {
                let direct: Vec<Vec<u8>> = set
                    .search_by_spki_digest(alg, &digest)
                    .iter()
                    .map(|c| c.to_der())
                    .collect();
                let cached: Vec<Vec<u8>> = resolver
                    .resolve(alg, &digest)
                    .iter()
                    .map(|c| c.to_der())
                    .collect();
                assert_eq!(direct, cached);
                // Ask again: answer must be identical and served from cache.
                let again: Vec<Vec<u8>> = resolver
                    .resolve(alg, &digest)
                    .iter()
                    .map(|c| c.to_der())
                    .collect();
                assert_eq!(direct, again);
            }
        }
    }

    #[test]
    fn one_underlying_lookup_per_unique_digest() {
        let (set, certs) = populated_set();
        let resolver = PinResolver::new(&set);
        for _ in 0..5 {
            for cert in &certs {
                resolver.resolve(PinAlgorithm::Sha256, &cert.spki_sha256());
            }
        }
        let stats = resolver.stats();
        assert_eq!(stats.misses, certs.len() as u64, "one miss per unique pin");
        assert_eq!(stats.hits, 4 * certs.len() as u64);
        assert!(stats.hit_rate() > 0.79 && stats.hit_rate() < 0.81);
    }

    #[test]
    fn same_digest_different_alg_is_a_distinct_key() {
        let (set, certs) = populated_set();
        let resolver = PinResolver::new(&set);
        let c = &certs[0];
        resolver.resolve(PinAlgorithm::Sha256, &c.spki_sha256());
        resolver.resolve(PinAlgorithm::Sha1, &c.spki_sha1());
        assert_eq!(resolver.stats().misses, 2);
    }

    #[test]
    fn batched_inclusion_proofs_match_direct_generation() {
        let (set, certs) = populated_set();
        let resolver = PinResolver::new(&set);
        for cert in &certs {
            for loc in set.lookup_spki(PinAlgorithm::Sha256, &cert.spki_sha256()) {
                let shard = &set.shards()[loc.0];
                // Prove under both the minimal covering state and the
                // shard's current head.
                for size in [loc.1 + 1, shard.log.len() as u64] {
                    assert_eq!(
                        resolver.inclusion_proof(loc, size),
                        shard.log.inclusion_proof(loc.1, size),
                        "proof mismatch at {loc:?} size {size}"
                    );
                }
            }
        }
        // Out-of-range queries mirror the direct API.
        assert_eq!(resolver.inclusion_proof((99, 0), 1), None);
        assert_eq!(resolver.inclusion_proof((0, 0), u64::MAX), None);
    }

    #[test]
    fn deadline_bounds_proof_generation() {
        let (set, certs) = populated_set();
        let resolver = PinResolver::new(&set);
        let loc = set.lookup_spki(PinAlgorithm::Sha256, &certs[0].spki_sha256())[0];
        let size = set.shards()[loc.0].log.len() as u64;

        // Too tight for the fresh authenticator build: structured timeout,
        // and no authenticator was cached for a later free ride.
        let tight = Deadline::with_budget(1);
        assert_eq!(
            resolver.inclusion_proof_within(loc, size, &tight),
            Err(DeadlineExceeded)
        );

        // Roomy: identical to the undeadlined path, paying build+assembly.
        let roomy = Deadline::with_budget(10_000);
        let proof = resolver
            .inclusion_proof_within(loc, size, &roomy)
            .expect("roomy deadline");
        assert_eq!(proof, set.shards()[loc.0].log.inclusion_proof(loc.1, size));
        assert_eq!(
            roomy.spent(),
            size / PROOF_COST_DIVISOR + 1 + COST_PROOF_ASSEMBLY
        );

        // Second proof under the same tree state rides the cached
        // authenticator: 1 + assembly.
        let cheap = Deadline::with_budget(1 + COST_PROOF_ASSEMBLY);
        assert!(resolver
            .inclusion_proof_within(loc, size, &cheap)
            .expect("cached authenticator fits")
            .is_some());
        assert!(cheap.is_expired());
    }

    #[test]
    fn cached_resolution_probe_reads_memo_without_counting() {
        let (set, certs) = populated_set();
        let resolver = PinResolver::new(&set);
        let digest = certs[0].spki_sha256();
        // Nothing resolved yet: the probe is empty and counts nothing.
        assert_eq!(
            resolver.cached_resolution(PinAlgorithm::Sha256, &digest),
            None
        );
        assert_eq!(resolver.stats().total(), 0);
        // Resolve once, then the probe serves the memoized locators.
        let locs = resolver.resolve_locators(PinAlgorithm::Sha256, &digest);
        assert_eq!(
            resolver.cached_resolution(PinAlgorithm::Sha256, &digest),
            Some(locs)
        );
        assert_eq!(resolver.stats().total(), 1, "probe must not count");
    }

    #[test]
    fn unresolvable_pin_is_cached_too() {
        let (set, _) = populated_set();
        let resolver = PinResolver::new(&set);
        let ghost = [0xEEu8; 32];
        assert!(!resolver.resolves(PinAlgorithm::Sha256, &ghost));
        assert!(!resolver.resolves(PinAlgorithm::Sha256, &ghost));
        let stats = resolver.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.resolved_unique, 0);
    }
}
