//! The mitmproxy model.
//!
//! Real mitmproxy terminates the client's TLS connection, forges a leaf
//! certificate for the requested SNI signed by its own CA, and opens a
//! second connection upstream. For the study only the client-facing half
//! matters: the forged chain and the fact that a successful interception
//! exposes request plaintext (§4.2.1, §4.4).

use crate::network::host_key;
use pinning_crypto::sig::KeyPair;
use pinning_crypto::SplitMix64;
use pinning_pki::authority::CertificateAuthority;
use pinning_pki::chain::CertificateChain;
use pinning_pki::name::DistinguishedName;
use pinning_pki::time::{SimTime, Validity, DAY};
use pinning_pki::Certificate;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A MITM proxy with its own CA.
///
/// A forged chain is a pure function of the proxy and the lowercased
/// hostname (plus the upstream leaf's names): its serial is derived from
/// the CA's own serial and the host, never from a counter. Every run that
/// forges for a host therefore forges the same bytes, whatever order
/// worker threads reach it in.
#[derive(Debug)]
pub struct MitmProxy {
    ca: CertificateAuthority,
    leaf_key: KeyPair,
    forged: RwLock<HashMap<String, Arc<CertificateChain>>>,
    now: SimTime,
}

impl MitmProxy {
    /// Creates a proxy with a fresh CA. `now` anchors forged-certificate
    /// validity.
    pub fn new(rng: &mut SplitMix64, now: SimTime) -> Self {
        let ca = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            rng,
            now - 30 * DAY,
        );
        let leaf_key = KeyPair::generate(rng);
        MitmProxy {
            ca,
            leaf_key,
            forged: RwLock::default(),
            now,
        }
    }

    /// The proxy's CA certificate — what gets installed into the test
    /// device's root store.
    pub fn ca_cert(&self) -> Certificate {
        self.ca.cert.clone()
    }

    /// The serial of the leaf forged for `host` (already lowercased).
    fn forged_serial(&self, host: &str) -> u64 {
        SplitMix64::new(self.ca.cert.tbs.serial)
            .derive(&format!("mitm-leaf/{host}"))
            .next_u64()
    }

    /// Forges (or returns the cached) chain for `hostname`, mimicking the
    /// upstream certificate's name coverage. Hostnames are matched
    /// case-insensitively, and every call for one host shares one chain.
    ///
    /// A hit takes a shared read lock and allocates nothing for lowercase
    /// names. Two threads missing on one host both forge it, get the same
    /// bytes, and keep whichever chain was stored first.
    pub fn forge_chain(
        &self,
        hostname: &str,
        upstream: &CertificateChain,
    ) -> Arc<CertificateChain> {
        let key = host_key(hostname);
        if let Some(chain) = self.forged.read().expect("proxy lock poisoned").get(&*key) {
            return Arc::clone(chain);
        }
        let chain = Arc::new(self.forge(&key, upstream));
        let mut forged = self.forged.write().expect("proxy lock poisoned");
        Arc::clone(forged.entry(key.into_owned()).or_insert(chain))
    }

    fn forge(&self, host: &str, upstream: &CertificateChain) -> CertificateChain {
        // Mirror the upstream leaf's SANs so hostname checks still pass.
        let hostnames: Vec<String> = upstream
            .leaf()
            .map(|l| {
                if l.tbs.san.is_empty() {
                    vec![l.tbs.subject.common_name.clone()]
                } else {
                    l.tbs.san.clone()
                }
            })
            .unwrap_or_else(|| vec![host.to_string()]);
        let organization = upstream
            .leaf()
            .map(|l| l.tbs.subject.organization.clone())
            .unwrap_or_default();
        let leaf = self.ca.issue_leaf_with_serial(
            &hostnames,
            &organization,
            &self.leaf_key,
            Validity::starting(self.now - DAY, 365 * DAY),
            self.forged_serial(host),
        );
        CertificateChain::new(vec![leaf, self.ca.cert.clone()])
    }

    /// Number of distinct hostnames forged so far.
    pub fn forged_count(&self) -> usize {
        self.forged.read().expect("proxy lock poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_pki::store::RootStore;
    use pinning_pki::universe::{PkiUniverse, UniverseConfig};
    use pinning_pki::validate::{validate_chain, RevocationList, ValidationOptions};

    fn setup() -> (PkiUniverse, MitmProxy, CertificateChain, SplitMix64) {
        let mut rng = SplitMix64::new(0x111);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let proxy = MitmProxy::new(&mut rng, u.now());
        let key = KeyPair::generate(&mut rng);
        let chain = u.issue_server_chain(
            &["api.site.com".to_string(), "*.cdn.site.com".to_string()],
            "Site",
            &key,
            398,
            &mut rng,
        );
        (u, proxy, chain, rng)
    }

    #[test]
    fn forged_chain_roots_at_proxy_ca() {
        let (u, proxy, upstream, _) = setup();
        let forged = proxy.forge_chain("api.site.com", &upstream);
        assert_eq!(forged.len(), 2);
        let mut store = RootStore::new("device");
        store.add(proxy.ca_cert());
        validate_chain(
            forged.certs(),
            &store,
            "api.site.com",
            u.now(),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn forged_chain_mirrors_sans() {
        let (_, proxy, upstream, _) = setup();
        let forged = proxy.forge_chain("api.site.com", &upstream);
        assert!(forged.leaf().unwrap().matches_hostname("v2.cdn.site.com"));
    }

    #[test]
    fn forging_is_cached_per_host() {
        let (_, proxy, upstream, _) = setup();
        let a = proxy.forge_chain("api.site.com", &upstream);
        let b = proxy.forge_chain("API.SITE.COM", &upstream);
        let c = proxy.forge_chain("Api.Site.Com", &upstream);
        assert!(
            Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c),
            "one shared chain per host"
        );
        assert_eq!(proxy.forged_count(), 1);
        let d = proxy.forge_chain("v2.cdn.site.com", &upstream);
        assert_ne!(
            a.leaf().unwrap().tbs.serial,
            d.leaf().unwrap().tbs.serial,
            "each host gets its own serial"
        );
        assert_eq!(proxy.forged_count(), 2);
    }

    #[test]
    fn forged_leaf_key_differs_from_upstream() {
        let (_, proxy, upstream, _) = setup();
        let forged = proxy.forge_chain("api.site.com", &upstream);
        assert_ne!(
            forged.leaf().unwrap().spki_sha256(),
            upstream.leaf().unwrap().spki_sha256(),
            "a pin on the upstream key must not match the forged chain"
        );
    }
}
