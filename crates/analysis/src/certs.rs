//! Certificate analysis (§5.3): PKI class, pin level, SPKI-vs-raw and CT
//! association.

use crate::statics::StaticFindings;
use pinning_ctlog::PinResolver;
use pinning_netsim::network::Network;
use pinning_pki::cache::CacheCounter;
use pinning_pki::chain::CertificateChain;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_pki::validate::{validate_chain, RevocationList, ValidationOptions};
use std::collections::BTreeSet;

/// Inert: the PKI-classification memo is gone; this counter stays at zero.
#[deprecated(note = "the PKI-classification memo was removed; this counter stays at zero")]
pub static PKI_CLASSIFICATION: CacheCounter = CacheCounter::new("pki-classification");

/// Inert: the PKI-classification memo is gone, so there is nothing to clear.
#[deprecated(note = "the PKI-classification memo was removed; this does nothing")]
pub fn clear_classification_cache() {}

/// Table 6's three buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PkiClass {
    /// Chain roots in a public store.
    DefaultPki,
    /// Chain roots in a private CA (or is self-signed).
    CustomPki,
    /// Chain could not be retrieved.
    DataUnavailable,
}

/// Classifies the chain served at `destination`.
///
/// §5.3.1's method: validate with OpenSSL against the Mozilla store, then
/// manually review failures against the union of public stores before
/// confirming them as custom PKIs.
pub fn classify_destination_pki(
    network: &Network,
    mozilla: &RootStore,
    all_public: &[&RootStore],
    destination: &str,
    now: SimTime,
) -> PkiClass {
    let Some(server) = network.resolve(destination) else {
        return PkiClass::DataUnavailable;
    };
    classify_chain(&server.chain, mozilla, all_public, destination, now)
}

fn classify_chain(
    chain: &CertificateChain,
    mozilla: &RootStore,
    all_public: &[&RootStore],
    destination: &str,
    now: SimTime,
) -> PkiClass {
    let opts = ValidationOptions {
        check_hostname: false,
        ..Default::default()
    };
    if validate_chain(
        chain.certs(),
        mozilla,
        destination,
        now,
        &RevocationList::empty(),
        &opts,
    )
    .is_ok()
    {
        return PkiClass::DefaultPki;
    }
    // "Manual review": does the chain anchor in *any* public store?
    for store in all_public {
        if validate_chain(
            chain.certs(),
            store,
            destination,
            now,
            &RevocationList::empty(),
            &opts,
        )
        .is_ok()
        {
            return PkiClass::DefaultPki;
        }
    }
    PkiClass::CustomPki
}

/// The Common Names an app's static material pins: embedded certificates
/// plus CT-resolved pin strings. Computed once per app and reused across
/// every destination the app pins (the set does not depend on the chain).
pub fn static_pin_cns(findings: &StaticFindings, resolver: &PinResolver<'_>) -> BTreeSet<String> {
    findings
        .embedded_certs
        .iter()
        .map(|c| c.value.tbs.subject.common_name.clone())
        .chain(findings.pin_strings.iter().filter_map(|p| {
            let pin = p.value.parsed.as_ref()?;
            resolver
                .resolve(pin.alg, &pin.digest)
                .first()
                .map(|c| c.tbs.subject.common_name.clone())
        }))
        .collect()
}

/// Matches a precomputed CN set (see [`static_pin_cns`]) against one
/// dynamically-pinned destination's chain.
pub fn pin_level_with_cns(
    static_cns: &BTreeSet<String>,
    chain: &CertificateChain,
) -> Option<bool /* is_ca */> {
    for (idx, cert) in chain.certs().iter().enumerate() {
        if static_cns.contains(&cert.tbs.subject.common_name) {
            return Some(cert.tbs.is_ca || idx > 0);
        }
    }
    None
}

/// §4.1.3 / §5.3: fraction of unique well-formed pins resolvable through
/// the CT log set (the crt.sh association step; the paper resolved ~50%).
/// Goes through the memoizing [`PinResolver`], so repeated pins cost one
/// underlying lookup.
pub fn ct_resolution_rate(
    findings: &[&StaticFindings],
    resolver: &PinResolver<'_>,
) -> (usize, usize) {
    let mut unique: BTreeSet<(u8, Vec<u8>)> = BTreeSet::new();
    for f in findings {
        for p in &f.pin_strings {
            if let Some(pin) = &p.value.parsed {
                let tag = match pin.alg {
                    pinning_pki::pin::PinAlgorithm::Sha256 => 0u8,
                    pinning_pki::pin::PinAlgorithm::Sha1 => 1u8,
                };
                unique.insert((tag, pin.digest.clone()));
            }
        }
    }
    let resolved = unique
        .iter()
        .filter(|(tag, digest)| {
            let alg = if *tag == 0 {
                pinning_pki::pin::PinAlgorithm::Sha256
            } else {
                pinning_pki::pin::PinAlgorithm::Sha1
            };
            resolver.resolves(alg, digest)
        })
        .count();
    (resolved, unique.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_store::config::WorldConfig;
    use pinning_store::world::World;

    fn world() -> World {
        World::generate(WorldConfig::tiny(0xCE27))
    }

    #[test]
    fn default_pki_classification() {
        let w = world();
        // Any SDK backend uses the default PKI.
        let stores = [&w.universe.aosp_oem, &w.universe.ios];
        let class = classify_destination_pki(
            &w.network,
            &w.universe.mozilla,
            &stores,
            "api.twitter.com",
            w.now,
        );
        assert_eq!(class, PkiClass::DefaultPki);
    }

    #[test]
    fn custom_pki_classification() {
        let w = world();
        // Find a custom-PKI destination planted by the generator, if any.
        let custom = w
            .apps
            .iter()
            .flat_map(|a| &a.pin_rules)
            .find(|r| r.custom_pki);
        if let Some(rule) = custom {
            let stores = [&w.universe.aosp_oem, &w.universe.ios];
            let class = classify_destination_pki(
                &w.network,
                &w.universe.mozilla,
                &stores,
                &rule.pattern,
                w.now,
            );
            assert_eq!(class, PkiClass::CustomPki, "{}", rule.pattern);
        }
    }

    #[test]
    fn unresolvable_is_unavailable() {
        let w = world();
        let class = classify_destination_pki(
            &w.network,
            &w.universe.mozilla,
            &[],
            "no-such-host.invalid",
            w.now,
        );
        assert_eq!(class, PkiClass::DataUnavailable);
    }

    #[test]
    fn ct_resolution_partial() {
        let w = world();
        let findings: Vec<_> = w
            .apps
            .iter()
            .map(|a| {
                crate::statics::analyze_package(&a.package, Some(w.config.ios_encryption_seed))
            })
            .collect();
        let refs: Vec<&_> = findings.iter().collect();
        let resolver = PinResolver::new(&w.ctlog);
        let (resolved, total) = ct_resolution_rate(&refs, &resolver);
        assert!(total > 0, "tiny world must contain parsable pins");
        assert!(resolved <= total);
        // CA pins always resolve (CAs are always logged); some leaf pins
        // don't — overall strictly between 0 and 100%.
        assert!(resolved > 0);
    }

    #[test]
    fn self_signed_oddball_is_custom_pki() {
        // §5.3.1's self-signed oddballs are planted as `legacy.` hosts
        // serving a bare self-signed certificate; Table 6 counts them as
        // custom PKI through the same classifier.
        let w = world();
        let legacy = w
            .apps
            .iter()
            .flat_map(|a| &a.behavior.connections)
            .map(|c| c.domain.as_str())
            .find(|d| d.starts_with("legacy."))
            .expect("the generator plants a self-signed oddball");
        let server = w.network.resolve(legacy).expect("planted host resolves");
        assert_eq!(server.chain.len(), 1);
        assert!(server.chain.leaf().is_some_and(|l| l.is_self_signed()));
        let stores = [&w.universe.aosp_oem, &w.universe.ios];
        let class =
            classify_destination_pki(&w.network, &w.universe.mozilla, &stores, legacy, w.now);
        assert_eq!(class, PkiClass::CustomPki, "{legacy}");
    }
}
