//! The shared PKI universe: public CAs and platform root stores.
//!
//! Real mobile root stores are "a tangled mass" (Vallina-Rodriguez et al.,
//! the paper's reference 50): Android's AOSP store, Apple's iOS store and
//! Mozilla's store mostly overlap, OEMs add extra (sometimes obscure or
//! expired) roots to Android devices, and apps can opt out of all of them
//! with a custom PKI. [`PkiUniverse`] generates that topology
//! deterministically so that Table 6's default-vs-custom-PKI classification
//! has something real to classify.

use crate::authority::CertificateAuthority;
use crate::chain::CertificateChain;
use crate::name::DistinguishedName;
use crate::store::RootStore;
use crate::time::{SimTime, Validity, DAY, YEAR};
use pinning_crypto::sig::KeyPair;
use pinning_crypto::SplitMix64;

/// Configuration for universe generation.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Number of public root CAs (real stores carry ~130–170).
    pub n_roots: usize,
    /// Fraction of roots present in *all three* major stores.
    pub common_fraction: f64,
    /// Number of extra OEM-only roots added to the Android OEM store.
    pub n_oem_extra: usize,
    /// Of the OEM extras, how many are already expired at `now` (the
    /// "expired, unknown, or obscure CA certificates" of §2.1).
    pub n_oem_expired: usize,
    /// Intermediates issued under each root.
    pub intermediates_per_root: usize,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            n_roots: 140,
            common_fraction: 0.85,
            n_oem_extra: 6,
            n_oem_expired: 2,
            intermediates_per_root: 2,
        }
    }
}

impl UniverseConfig {
    /// A scaled-down universe for fast tests.
    pub fn tiny() -> Self {
        UniverseConfig {
            n_roots: 8,
            common_fraction: 0.75,
            n_oem_extra: 2,
            n_oem_expired: 1,
            intermediates_per_root: 1,
        }
    }
}

/// The complete simulated PKI.
#[derive(Debug, Clone)]
pub struct PkiUniverse {
    roots: Vec<CertificateAuthority>,
    intermediates: Vec<CertificateAuthority>,
    /// Which root each intermediate hangs under.
    inter_parent: Vec<usize>,
    /// Mozilla's store (the validation reference, per §5.3.1).
    pub mozilla: RootStore,
    /// AOSP store, as shipped on a factory Android image.
    pub aosp: RootStore,
    /// AOSP plus OEM additions.
    pub aosp_oem: RootStore,
    /// Apple's iOS store.
    pub ios: RootStore,
    /// "Now" for the simulation (certificate issuance references this).
    now: SimTime,
}

impl PkiUniverse {
    /// Generates the universe from a seed.
    pub fn generate(config: &UniverseConfig, rng: &mut SplitMix64) -> Self {
        let now = SimTime::at(5, 0, 0); // five simulated years of history
        let genesis = SimTime::EPOCH;

        let mut roots = Vec::with_capacity(config.n_roots);
        let mut mozilla = RootStore::new("Mozilla");
        let mut aosp = RootStore::new("AOSP");
        let mut ios = RootStore::new("iOS");

        for i in 0..config.n_roots {
            let name = DistinguishedName::new(
                format!("SimTrust Root CA {i}"),
                format!("SimTrust {i}"),
                "US",
            );
            let ca = CertificateAuthority::new_root(name, rng, genesis);
            // Placement: most roots are in all three stores; the rest land in
            // a random non-empty subset, modeling store divergence.
            if rng.chance(config.common_fraction) {
                mozilla.add(ca.cert.clone());
                aosp.add(ca.cert.clone());
                ios.add(ca.cert.clone());
            } else {
                let mut placed = false;
                while !placed {
                    if rng.chance(0.5) {
                        mozilla.add(ca.cert.clone());
                        placed = true;
                    }
                    if rng.chance(0.5) {
                        aosp.add(ca.cert.clone());
                        placed = true;
                    }
                    if rng.chance(0.5) {
                        ios.add(ca.cert.clone());
                        placed = true;
                    }
                }
            }
            roots.push(ca);
        }

        // OEM extras: obscure roots only on the OEM Android image.
        let mut aosp_oem = RootStore::new("AOSP+OEM");
        for cert in aosp.iter() {
            aosp_oem.add(cert.clone());
        }
        for i in 0..config.n_oem_extra {
            let name = DistinguishedName::new(
                format!("ObscureNational Root {i}"),
                format!("Obscure Gov {i}"),
                "ZZ",
            );
            let validity = if i < config.n_oem_expired {
                // Already expired at `now`.
                Validity::starting(genesis, YEAR)
            } else {
                Validity::starting(genesis, 25 * YEAR)
            };
            let ca = CertificateAuthority::new_root_with_validity(name, rng, validity);
            aosp_oem.add(ca.cert.clone());
            roots.push(ca);
        }

        // Intermediates under each public root.
        let mut intermediates = Vec::new();
        let mut inter_parent = Vec::new();
        let n_public = config.n_roots;
        for (parent, root) in roots.iter_mut().enumerate().take(n_public) {
            for j in 0..config.intermediates_per_root {
                let name = DistinguishedName::new(
                    format!("SimTrust Issuing CA {parent}-{j}"),
                    root.name().organization.clone(),
                    "US",
                );
                let inter = root.issue_intermediate(
                    name,
                    rng,
                    Validity::starting(genesis, 15 * YEAR),
                    None,
                );
                intermediates.push(inter);
                inter_parent.push(parent);
            }
        }

        PkiUniverse {
            roots,
            intermediates,
            inter_parent,
            mozilla,
            aosp,
            aosp_oem,
            ios,
            now,
        }
    }

    /// The simulation's "now".
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances (or rewinds) the simulation clock. Epoch evolution moves
    /// `now` forward so that certificates issued in later epochs are dated
    /// relative to the advanced clock, exactly like the originals were.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// The index of the intermediate whose subject is `issuer`, if any —
    /// lets a reissued leaf hang under the same intermediate as the
    /// certificate it replaces.
    pub fn intermediate_index(&self, issuer: &DistinguishedName) -> Option<usize> {
        self.intermediates
            .iter()
            .position(|ca| ca.cert.tbs.subject == *issuer)
    }

    /// The intermediate authority at `idx` (its keypair re-signs same-key
    /// leaf renewals).
    pub fn intermediate(&self, idx: usize) -> Option<&CertificateAuthority> {
        self.intermediates.get(idx)
    }

    /// All public root CAs (excluding OEM extras).
    pub fn public_roots(&self) -> &[CertificateAuthority] {
        // OEM extras were appended after `n_public`; exposing all is fine for
        // analysis, but chains are only issued under public roots.
        &self.roots
    }

    /// Number of intermediates.
    pub fn n_intermediates(&self) -> usize {
        self.intermediates.len()
    }

    /// Issues a default-PKI server chain for `hostnames` under a
    /// deterministic-but-arbitrary public intermediate.
    ///
    /// Returns `[leaf, intermediate, root]`. `key` may be reused across
    /// calls to model key-reusing renewals.
    pub fn issue_server_chain(
        &mut self,
        hostnames: &[String],
        organization: &str,
        key: &KeyPair,
        lifetime_days: u64,
        rng: &mut SplitMix64,
    ) -> CertificateChain {
        assert!(
            !self.intermediates.is_empty(),
            "universe has no intermediates"
        );
        let idx = rng.next_below(self.intermediates.len() as u64) as usize;
        self.issue_server_chain_via(idx, hostnames, organization, key, lifetime_days)
    }

    /// Issues a default-PKI chain under a *specific* intermediate (index into
    /// the intermediate list) — used when a hostname's chain must be stable.
    pub fn issue_server_chain_via(
        &mut self,
        inter_idx: usize,
        hostnames: &[String],
        organization: &str,
        key: &KeyPair,
        lifetime_days: u64,
    ) -> CertificateChain {
        let start = self.now - 30 * DAY; // issued a month ago
        let inter = &mut self.intermediates[inter_idx];
        let leaf = inter.issue_leaf(
            hostnames,
            organization,
            key,
            Validity::starting(start, lifetime_days * DAY),
        );
        let root_idx = self.inter_parent[inter_idx];
        CertificateChain::new(vec![
            leaf,
            inter.cert.clone(),
            self.roots[root_idx].cert.clone(),
        ])
    }

    /// Like [`PkiUniverse::issue_server_chain_via`] but with a
    /// caller-supplied serial and
    /// no mutation: the intermediate's serial counter is left alone. Streamed
    /// world generation issues chains shard-by-shard, and deriving each
    /// serial from the hostname's own RNG stream keeps the chain a host gets
    /// independent of issuance order across shards.
    pub fn issue_server_chain_via_seeded(
        &self,
        inter_idx: usize,
        hostnames: &[String],
        organization: &str,
        key: &KeyPair,
        lifetime_days: u64,
        serial: u64,
    ) -> CertificateChain {
        let start = self.now - 30 * DAY; // issued a month ago
        let inter = &self.intermediates[inter_idx];
        let leaf = inter.issue_leaf_with_serial(
            hostnames,
            organization,
            key,
            Validity::starting(start, lifetime_days * DAY),
            serial,
        );
        let root_idx = self.inter_parent[inter_idx];
        CertificateChain::new(vec![
            leaf,
            inter.cert.clone(),
            self.roots[root_idx].cert.clone(),
        ])
    }

    /// Creates a custom (private) CA not present in any public store, and
    /// issues a chain for `hostnames` under it — the "custom PKI" rows of
    /// Table 6.
    pub fn issue_custom_chain(
        &self,
        organization: &str,
        hostnames: &[String],
        key: &KeyPair,
        lifetime_days: u64,
        rng: &mut SplitMix64,
    ) -> (CertificateAuthority, CertificateChain) {
        let start = self.now - 30 * DAY;
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::new(format!("{organization} Private Root"), organization, "US"),
            rng,
            SimTime::EPOCH,
        );
        let leaf = ca.issue_leaf(
            hostnames,
            organization,
            key,
            Validity::starting(start, lifetime_days * DAY),
        );
        let chain = CertificateChain::new(vec![leaf, ca.cert.clone()]);
        (ca, chain)
    }

    /// Issues a bare self-signed certificate (no chain) for `hostnames` —
    /// the long-lived self-signed oddity of §5.3.1.
    pub fn issue_self_signed(
        &self,
        organization: &str,
        hostnames: &[String],
        lifetime_years: u64,
        rng: &mut SplitMix64,
    ) -> CertificateChain {
        let leaf = CertificateAuthority::self_signed_leaf(
            hostnames,
            organization,
            rng,
            Validity::starting(self.now - 30 * DAY, lifetime_years * YEAR),
        );
        CertificateChain::new(vec![leaf])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_chain, RevocationList, ValidationOptions};

    fn universe() -> PkiUniverse {
        PkiUniverse::generate(&UniverseConfig::tiny(), &mut SplitMix64::new(0x11e))
    }

    #[test]
    fn stores_are_populated() {
        let u = universe();
        assert!(!u.mozilla.is_empty());
        assert!(!u.aosp.is_empty());
        assert!(!u.ios.is_empty());
        // OEM store strictly extends AOSP.
        assert!(u.aosp_oem.len() > u.aosp.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = universe();
        let b = universe();
        assert_eq!(a.mozilla.len(), b.mozilla.len());
        let mut names_a: Vec<_> = a.mozilla.iter().map(|c| c.tbs.subject.clone()).collect();
        let mut names_b: Vec<_> = b.mozilla.iter().map(|c| c.tbs.subject.clone()).collect();
        names_a.sort();
        names_b.sort();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn default_chain_validates_against_all_stores_when_common() {
        let mut u = universe();
        let mut rng = SplitMix64::new(9);
        let key = KeyPair::generate(&mut rng);
        // Try a few intermediates until we find one whose root is in all stores.
        let mut validated_somewhere = false;
        for idx in 0..u.n_intermediates() {
            let chain =
                u.issue_server_chain_via(idx, &["www.site.com".to_string()], "Site", &key, 398);
            let now = u.now();
            let ok_all = [&u.mozilla, &u.aosp, &u.ios].iter().all(|store| {
                validate_chain(
                    chain.certs(),
                    store,
                    "www.site.com",
                    now,
                    &RevocationList::empty(),
                    &ValidationOptions::default(),
                )
                .is_ok()
            });
            if ok_all {
                validated_somewhere = true;
                break;
            }
        }
        assert!(
            validated_somewhere,
            "no chain validated in all three stores"
        );
    }

    #[test]
    fn custom_chain_fails_public_stores() {
        let u = universe();
        let mut rng = SplitMix64::new(10);
        let key = KeyPair::generate(&mut rng);
        let (_ca, chain) = u.issue_custom_chain(
            "Fintech",
            &["api.fintech.io".to_string()],
            &key,
            398,
            &mut rng,
        );
        let err = validate_chain(
            chain.certs(),
            &u.mozilla,
            "api.fintech.io",
            u.now(),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn self_signed_is_single_cert() {
        let u = universe();
        let mut rng = SplitMix64::new(11);
        let chain = u.issue_self_signed("Corp", &["x.corp.com".to_string()], 27, &mut rng);
        assert_eq!(chain.len(), 1);
        assert!(chain.leaf().unwrap().is_self_signed());
        // 27-year validity (§5.3.1's observed oddity).
        let validity = chain.leaf().unwrap().tbs.validity;
        assert!(validity.not_after.secs() - validity.not_before.secs() >= 27 * YEAR);
    }

    #[test]
    fn oem_extras_include_expired_roots() {
        let u = universe();
        let expired = u
            .aosp_oem
            .iter()
            .filter(|c| !c.tbs.validity.contains(u.now()))
            .count();
        assert!(expired >= 1, "expected at least one expired OEM root");
    }

    #[test]
    fn issued_chains_link() {
        let mut u = universe();
        let mut rng = SplitMix64::new(12);
        let key = KeyPair::generate(&mut rng);
        let chain = u.issue_server_chain(&["a.b.c".to_string()], "ABC", &key, 90, &mut rng);
        assert_eq!(chain.len(), 3);
        assert!(chain.linkage_ok());
    }
}
