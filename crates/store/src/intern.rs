//! Certificate interning: one canonical copy per unique certificate.
//!
//! World generation issues thousands of server chains, and almost all of
//! them embed the same few dozen CA certificates. Each [`Certificate`]
//! clone shares its lazily-derived values (DER bytes, fingerprint, SPKI
//! digests, pin string) through one reference-counted cell, so interning
//! CA material has two effects: every chain in the network points at the
//! *same* derived-value cell for a given CA, and the warm-up pass below
//! pays each derivation exactly once per unique certificate instead of
//! once per independently-constructed copy (e.g. certs rebuilt from DER
//! or PEM, whose caches start cold).

use pinning_pki::chain::CertificateChain;
use pinning_pki::Certificate;
use std::collections::HashMap;
use std::sync::Arc;

/// A fingerprint-keyed pool of canonical certificates.
#[derive(Debug, Default)]
pub struct CertInterner {
    by_fp: HashMap<[u8; 32], Arc<Certificate>>,
}

impl CertInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the canonical copy of `cert`, inserting it if unseen.
    /// Clones of the returned certificate share one derived-value cell, so
    /// a fingerprint or SPKI digest computed through any copy is visible to
    /// all of them.
    pub fn intern(&mut self, cert: &Certificate) -> Arc<Certificate> {
        let fp = cert.fingerprint_sha256();
        Arc::clone(
            self.by_fp
                .entry(fp)
                .or_insert_with(|| Arc::new(cert.clone())),
        )
    }

    /// Rewrites a chain's CA certificates (everything above the leaf) to
    /// canonical-sharing copies.
    pub fn intern_chain_cas(&mut self, chain: &mut CertificateChain) {
        for cert in chain.certs_mut().iter_mut().skip(1) {
            *cert = self.intern(cert).as_ref().clone();
        }
    }

    /// The canonical certificate for a fingerprint, if interned.
    pub fn canonical(&self, fp: &[u8; 32]) -> Option<&Arc<Certificate>> {
        self.by_fp.get(fp)
    }

    /// Number of unique certificates interned.
    pub fn unique(&self) -> usize {
        self.by_fp.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_fp.is_empty()
    }

    /// Precomputes every derived value of every canonical certificate, so
    /// later consumers (validation, pin matching, CT submission) never pay
    /// a DER encode or digest on a shared certificate.
    pub fn warm(&self) {
        for cert in self.by_fp.values() {
            let _ = cert.der_bytes();
            let _ = cert.fingerprint_sha256();
            let _ = cert.spki_sha256();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::time::{SimTime, Validity, YEAR};

    fn chain() -> CertificateChain {
        let mut rng = SplitMix64::new(0x17e2);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = root.issue_leaf(
            &["a.example".to_string()],
            "Org",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        CertificateChain::new(vec![leaf, root.cert.clone()])
    }

    #[test]
    fn interning_dedups_by_fingerprint() {
        let mut pool = CertInterner::new();
        let c = chain();
        let a = pool.intern(&c.certs()[1]);
        let b = pool.intern(&c.certs()[1].clone());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(pool.unique(), 1);
    }

    #[test]
    fn interned_chains_are_equal_and_share_roots() {
        let mut pool = CertInterner::new();
        let original = chain();
        let mut a = original.clone();
        let mut b = original.clone();
        pool.intern_chain_cas(&mut a);
        pool.intern_chain_cas(&mut b);
        pool.warm();
        assert_eq!(a.certs(), original.certs());
        assert_eq!(b.certs(), original.certs());
        assert_eq!(pool.unique(), 1, "leaf is not interned, root is shared");
        assert!(pool
            .canonical(&original.certs()[1].fingerprint_sha256())
            .is_some());
    }
}
