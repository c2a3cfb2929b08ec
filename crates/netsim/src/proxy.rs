//! The mitmproxy model.
//!
//! Real mitmproxy terminates the client's TLS connection, forges a leaf
//! certificate for the requested SNI signed by its own CA, and opens a
//! second connection upstream. For the study only the client-facing half
//! matters: the forged chain and the fact that a successful interception
//! exposes request plaintext (§4.2.1, §4.4).

use pinning_crypto::sig::KeyPair;
use pinning_crypto::SplitMix64;
use pinning_pki::authority::CertificateAuthority;
use pinning_pki::chain::CertificateChain;
use pinning_pki::name::DistinguishedName;
use pinning_pki::time::{SimTime, Validity, DAY};
use pinning_pki::Certificate;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A MITM proxy with its own CA.
#[derive(Debug)]
pub struct MitmProxy {
    ca: Mutex<CertificateAuthority>,
    leaf_key: KeyPair,
    forged: Mutex<HashMap<String, Arc<CertificateChain>>>,
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
            ca: Mutex::new(ca),
            leaf_key,
            forged: Mutex::new(HashMap::new()),
            now,
        }
    }

    /// The proxy's CA certificate — what gets installed into the test
    /// device's root store.
    pub fn ca_cert(&self) -> Certificate {
        self.ca.lock().expect("proxy lock poisoned").cert.clone()
    }

    /// Forges (or returns the cached) chain for `hostname`, mimicking the
    /// upstream certificate's name coverage. Hostnames are matched
    /// case-insensitively, and every call for one host shares one chain.
    pub fn forge_chain(
        &self,
        hostname: &str,
        upstream: &CertificateChain,
    ) -> Arc<CertificateChain> {
        let key = hostname.to_ascii_lowercase();
        // Held across forging, so concurrent callers for one host cannot
        // issue two leaves for it.
        let mut forged = self.forged.lock().expect("proxy lock poisoned");
        if let Some(chain) = forged.get(&key) {
            return Arc::clone(chain);
        }
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
            .unwrap_or_else(|| vec![hostname.to_string()]);
        let organization = upstream
            .leaf()
            .map(|l| l.tbs.subject.organization.clone())
            .unwrap_or_default();
        let mut ca = self.ca.lock().expect("proxy lock poisoned");
        let leaf = ca.issue_leaf(
            &hostnames,
            &organization,
            &self.leaf_key,
            Validity::starting(self.now - DAY, 365 * DAY),
        );
        let chain = Arc::new(CertificateChain::new(vec![leaf, ca.cert.clone()]));
        forged.insert(key, Arc::clone(&chain));
        chain
    }

    /// Number of distinct hostnames forged so far.
    pub fn forged_count(&self) -> usize {
        self.forged.lock().expect("proxy lock poisoned").len()
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
