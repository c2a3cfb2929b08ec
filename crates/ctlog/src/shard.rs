//! Sharded log deployments.
//!
//! Real CT is not one log: operators (Google Argon/Xenon, Cloudflare
//! Nimbus, DigiCert Yeti, …) each run *temporally sharded* logs that only
//! accept certificates whose validity falls inside the shard's epoch, and
//! each operator applies its own submission policy. crt.sh's coverage is
//! the union of what those shards accepted — which is why the paper could
//! resolve only ~50% of pins through it (§4.1.3).
//!
//! [`LogSet`] models that deployment: every certificate is *offered* to
//! every shard; a shard stores it only if its [`ShardPolicy`] accepts
//! (epoch window on `not_before`, then a deterministic per-(shard, cert)
//! acceptance draw modeling operator submission behavior). Incomplete
//! coverage is therefore a structural property of the shard topology, not
//! a single global coin.

use crate::CtLog;
use pinning_crypto::sig::KeyPair;
use pinning_crypto::SplitMix64;
use pinning_pki::pin::PinAlgorithm;
use pinning_pki::time::{SimTime, Validity, YEAR};
use pinning_pki::Certificate;
use std::collections::HashSet;

/// A shard's submission policy.
#[derive(Debug, Clone)]
pub struct ShardPolicy {
    /// Accepted `not_before` epoch (inclusive window).
    pub window: Validity,
    /// Acceptance probability for end-entity certificates.
    pub leaf_acceptance: f64,
    /// Acceptance probability for CA certificates (crt.sh's SPKI index is
    /// not exhaustive for CA material either).
    pub ca_acceptance: f64,
}

impl ShardPolicy {
    /// A policy accepting everything in `window`.
    pub fn open(window: Validity) -> Self {
        ShardPolicy {
            window,
            leaf_acceptance: 1.0,
            ca_acceptance: 1.0,
        }
    }

    /// Whether this shard accepts `cert`, deterministically per
    /// (shard identity, certificate fingerprint): every chain sharing a CA
    /// agrees on that CA's fate, and resubmission cannot change the
    /// outcome. `shard_id` is the shard's log id, so distinct worlds
    /// (distinct log keys) draw independent acceptance coins.
    pub fn accepts(&self, shard_id: &[u8; 32], cert: &Certificate) -> bool {
        if !self.window.contains(cert.tbs.validity.not_before) {
            return false;
        }
        let rate = if cert.tbs.is_ca {
            self.ca_acceptance
        } else {
            self.leaf_acceptance
        };
        let mut coin = SplitMix64::new(0x5eed_c710)
            .derive(&pinning_crypto::hex_encode(shard_id))
            .derive(&pinning_crypto::hex_encode(&cert.fingerprint_sha256()));
        coin.chance(rate)
    }
}

/// One deployed log shard: a [`CtLog`] plus operator identity and policy.
#[derive(Debug)]
pub struct LogShard {
    /// Shard name, e.g. `"argon-2023"`.
    pub name: String,
    /// Operator running the shard.
    pub operator: String,
    /// Submission policy.
    pub policy: ShardPolicy,
    /// The underlying verifiable log.
    pub log: CtLog,
}

impl LogShard {
    /// Creates a shard with its own signing key.
    pub fn new(
        name: impl Into<String>,
        operator: impl Into<String>,
        policy: ShardPolicy,
        key: KeyPair,
    ) -> Self {
        LogShard {
            name: name.into(),
            operator: operator.into(),
            policy,
            log: CtLog::with_key(key),
        }
    }
}

/// A locator for an entry inside a [`LogSet`]: (shard index, entry index).
pub type EntryLocator = (usize, u64);

/// The deployed CT ecosystem: every shard, in a stable order.
#[derive(Debug, Default)]
pub struct LogSet {
    shards: Vec<LogShard>,
}

impl LogSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shard; returns its index.
    pub fn push_shard(&mut self, shard: LogShard) -> usize {
        self.shards.push(shard);
        self.shards.len() - 1
    }

    /// Builds the simulation's standard topology: two operators
    /// ("argon", "nimbus"), each running two temporal shards split one
    /// year before `now`. CA material (issued at the simulation epoch)
    /// lands in the older shards; server leaves (issued ~30 days before
    /// `now`) land in the recent ones. Per-shard acceptance is derated so
    /// the *union* coverage matches `leaf_coverage` / `ca_coverage`:
    /// with `k` shards per epoch, `p = 1 - (1 - coverage)^(1/k)`.
    pub fn sim_ecosystem(
        now: SimTime,
        leaf_coverage: f64,
        ca_coverage: f64,
        rng: &mut SplitMix64,
    ) -> Self {
        const OPERATORS: [&str; 2] = ["argon", "nimbus"];
        let derate = |coverage: f64| 1.0 - (1.0 - coverage).sqrt();
        let boundary = now - YEAR;
        let old_epoch = Validity {
            not_before: SimTime::EPOCH,
            not_after: boundary - 1,
        };
        let new_epoch = Validity {
            not_before: boundary,
            not_after: SimTime(u64::MAX),
        };
        let mut set = LogSet::new();
        for op in OPERATORS {
            for (epoch_name, window) in [("legacy", old_epoch), ("current", new_epoch)] {
                let policy = ShardPolicy {
                    window,
                    leaf_acceptance: derate(leaf_coverage),
                    ca_acceptance: derate(ca_coverage),
                };
                let key = KeyPair::generate(&mut rng.derive(&format!("ct-key/{op}/{epoch_name}")));
                set.push_shard(LogShard::new(
                    format!("{op}-{epoch_name}"),
                    format!("{op} CT"),
                    policy,
                    key,
                ));
            }
        }
        set
    }

    /// Offers `cert` to every shard; each accepting shard stores it.
    /// Returns how many shards logged it (0 = the certificate is not in
    /// CT at all).
    pub fn submit(&mut self, cert: &Certificate) -> usize {
        let mut logged = 0;
        for shard in &mut self.shards {
            if shard.policy.accepts(&shard.log.log_id(), cert) {
                shard.log.submit(cert.clone());
                logged += 1;
            }
        }
        logged
    }

    /// Force-logs `cert` into every shard whose temporal window covers it,
    /// bypassing the acceptance draw — CT-coverage *growth*. Real coverage
    /// grows over time as crawlers and monitors backfill certificates the
    /// CA never submitted; [`LogSet::submit`]'s deterministic per-(shard,
    /// cert) coin makes resubmission a no-op by design, so growth events
    /// need this separate path. Shards that already hold the certificate
    /// are skipped. Returns how many shards gained an entry.
    pub fn backfill(&mut self, cert: &Certificate) -> usize {
        let fp = cert.fingerprint_sha256();
        let mut logged = 0;
        for shard in &mut self.shards {
            if !shard.policy.window.contains(cert.tbs.validity.not_before) {
                continue;
            }
            if shard.log.search_by_fingerprint(&fp).is_some() {
                continue;
            }
            shard.log.submit(cert.clone());
            logged += 1;
        }
        logged
    }

    /// The shards, in stable order.
    pub fn shards(&self) -> &[LogShard] {
        &self.shards
    }

    /// Total entries across all shards (a certificate logged by two shards
    /// counts twice, as it would in crt.sh's per-log tables).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.log.len()).sum()
    }

    /// Whether no shard has any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct certificates across shards.
    pub fn n_unique_certs(&self) -> usize {
        let mut seen = HashSet::new();
        for shard in &self.shards {
            for e in shard.log.iter() {
                seen.insert(e.cert.fingerprint_sha256());
            }
        }
        seen.len()
    }

    /// The certificate at a locator.
    pub fn entry_cert(&self, loc: EntryLocator) -> Option<&Certificate> {
        self.shards
            .get(loc.0)
            .and_then(|s| s.log.entry(loc.1))
            .map(|e| &e.cert)
    }

    /// Locators of every logged certificate matching an SPKI digest,
    /// deduplicated by certificate fingerprint (a cert logged in two
    /// shards resolves once), in (shard, entry) order.
    pub fn lookup_spki(&self, alg: PinAlgorithm, digest: &[u8]) -> Vec<EntryLocator> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            for idx in shard.log.spki_digest_indices(alg, digest) {
                let cert = &shard.log.entry(idx as u64).expect("index valid").cert;
                if seen.insert(cert.fingerprint_sha256()) {
                    out.push((si, idx as u64));
                }
            }
        }
        out
    }

    /// crt.sh-style union query: all logged certificates whose SPKI digest
    /// (under `alg`) equals `digest`, deduplicated by fingerprint.
    pub fn search_by_spki_digest(&self, alg: PinAlgorithm, digest: &[u8]) -> Vec<&Certificate> {
        self.lookup_spki(alg, digest)
            .into_iter()
            .map(|loc| self.entry_cert(loc).expect("locator valid"))
            .collect()
    }

    /// Union lookup by exact certificate fingerprint.
    pub fn search_by_fingerprint(&self, fp: &[u8; 32]) -> Option<&Certificate> {
        self.shards
            .iter()
            .find_map(|s| s.log.search_by_fingerprint(fp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;

    fn leaf_at(rng: &mut SplitMix64, host: &str, not_before: SimTime) -> Certificate {
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            rng,
            SimTime(0),
        );
        let key = KeyPair::generate(rng);
        root.issue_leaf(
            &[host.to_string()],
            "Org",
            &key,
            Validity::starting(not_before, YEAR),
        )
    }

    fn now() -> SimTime {
        SimTime::at(5, 0, 0)
    }

    #[test]
    fn backfill_forces_coverage_within_window_only() {
        let mut rng = SplitMix64::new(7);
        // Zero acceptance: normal submission never logs anything.
        let mut set = LogSet::sim_ecosystem(now(), 0.0, 0.0, &mut rng);
        let new = leaf_at(&mut rng, "grow.com", now() - 30 * 86_400);
        assert_eq!(set.submit(&new), 0, "coin rejects everything");
        // Backfill bypasses the coin but still respects temporal windows:
        // only the two "current" shards cover this not_before.
        assert_eq!(set.backfill(&new), 2);
        // Idempotent: already-present entries are skipped.
        assert_eq!(set.backfill(&new), 0);
        assert_eq!(set.n_unique_certs(), 1);
    }

    #[test]
    fn temporal_windows_route_by_not_before() {
        let mut rng = SplitMix64::new(1);
        let mut set = LogSet::sim_ecosystem(now(), 1.0, 1.0, &mut rng);
        let old = leaf_at(&mut rng, "old.com", SimTime::EPOCH);
        let new = leaf_at(&mut rng, "new.com", now() - 30 * 86_400);
        assert_eq!(set.submit(&old), 2, "both legacy shards accept");
        assert_eq!(set.submit(&new), 2, "both current shards accept");
        for shard in set.shards() {
            assert_eq!(shard.log.len(), 1, "{}", shard.name);
        }
    }

    #[test]
    fn acceptance_is_deterministic_and_partial() {
        let mut rng = SplitMix64::new(2);
        let mut set = LogSet::sim_ecosystem(now(), 0.4, 0.5, &mut rng);
        let mut logged = 0;
        let mut offered = 0;
        for i in 0..120 {
            let cert = leaf_at(&mut rng, &format!("h{i}.com"), now() - 30 * 86_400);
            let first = set.submit(&cert);
            assert_eq!(
                first,
                set.shards()
                    .iter()
                    .filter(|s| s.policy.accepts(&s.log.log_id(), &cert))
                    .count()
            );
            // Resubmission is idempotent at the set level too.
            let before = set.len();
            set.submit(&cert);
            assert_eq!(set.len(), before);
            offered += 1;
            if first > 0 {
                logged += 1;
            }
        }
        assert!(logged > 0, "coverage must not collapse to zero");
        assert!(logged < offered, "coverage must stay partial");
    }

    #[test]
    fn union_query_dedups_across_shards() {
        let mut rng = SplitMix64::new(3);
        let mut set = LogSet::sim_ecosystem(now(), 1.0, 1.0, &mut rng);
        let cert = leaf_at(&mut rng, "dup.com", now() - 86_400);
        assert_eq!(set.submit(&cert), 2);
        assert_eq!(set.len(), 2, "two shard copies");
        assert_eq!(set.n_unique_certs(), 1);
        let hits = set.search_by_spki_digest(PinAlgorithm::Sha256, &cert.spki_sha256());
        assert_eq!(hits.len(), 1, "union query dedups by fingerprint");
        assert!(set
            .search_by_fingerprint(&cert.fingerprint_sha256())
            .is_some());
    }

    #[test]
    fn sim_ecosystem_is_deterministic() {
        let a = LogSet::sim_ecosystem(now(), 0.4, 0.5, &mut SplitMix64::new(9).derive("ct"));
        let b = LogSet::sim_ecosystem(now(), 0.4, 0.5, &mut SplitMix64::new(9).derive("ct"));
        for (x, y) in a.shards().iter().zip(b.shards()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.log.log_id(), y.log.log_id());
        }
        // Distinct shards sign with distinct keys.
        let ids: HashSet<_> = a.shards().iter().map(|s| s.log.log_id()).collect();
        assert_eq!(ids.len(), a.shards().len());
    }
}
