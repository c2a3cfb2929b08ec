//! Certificate chains, leaf-first, as carried in TLS `Certificate` messages.

use crate::cert::Certificate;

/// An ordered certificate chain: `certs[0]` is the leaf, each subsequent
/// certificate is expected to have issued the previous one. Servers may or
/// may not include the root itself (both happen in the wild; validation
/// handles both).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateChain {
    certs: Vec<Certificate>,
}

impl CertificateChain {
    /// Builds a chain from leaf-first certificates.
    pub fn new(certs: Vec<Certificate>) -> Self {
        CertificateChain { certs }
    }

    /// The leaf (end-entity) certificate, if the chain is non-empty.
    pub fn leaf(&self) -> Option<&Certificate> {
        self.certs.first()
    }

    /// The topmost presented certificate (closest to the root).
    pub fn top(&self) -> Option<&Certificate> {
        self.certs.last()
    }

    /// All certificates, leaf first.
    pub fn certs(&self) -> &[Certificate] {
        &self.certs
    }

    /// Mutable access to the certificates, leaf first (used by interning
    /// passes that swap in canonical-sharing copies).
    pub fn certs_mut(&mut self) -> &mut [Certificate] {
        &mut self.certs
    }

    /// Number of certificates in the chain.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// Intermediates only (everything strictly between leaf and top); empty
    /// for chains of length ≤ 2.
    pub fn intermediates(&self) -> &[Certificate] {
        if self.certs.len() <= 2 {
            &[]
        } else {
            &self.certs[1..self.certs.len() - 1]
        }
    }

    /// Structural sanity check: adjacent issuer/subject names line up.
    /// (Signature checking is [`crate::validate::validate_chain`]'s job.)
    #[cfg(test)]
    pub fn linkage_ok(&self) -> bool {
        self.certs
            .windows(2)
            .all(|w| w[0].tbs.issuer == w[1].tbs.subject)
    }
}

impl core::ops::Index<usize> for CertificateChain {
    type Output = Certificate;
    fn index(&self, i: usize) -> &Certificate {
        &self.certs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use crate::name::DistinguishedName;
    use crate::time::{SimTime, Validity, YEAR};
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;

    fn build_three_level() -> CertificateChain {
        let mut rng = SplitMix64::new(0xC8A1);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let mut inter = root.issue_intermediate(
            DistinguishedName::new("Inter", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            None,
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = inter.issue_leaf(
            &["shop.example.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        CertificateChain::new(vec![leaf, inter.cert.clone(), root.cert.clone()])
    }

    #[test]
    fn accessors() {
        let chain = build_three_level();
        assert_eq!(chain.len(), 3);
        assert_eq!(
            chain.leaf().unwrap().tbs.subject.common_name,
            "shop.example.com"
        );
        assert_eq!(chain.top().unwrap().tbs.subject.common_name, "Root");
        assert_eq!(chain.intermediates().len(), 1);
        assert_eq!(chain.intermediates()[0].tbs.subject.common_name, "Inter");
    }

    #[test]
    fn linkage() {
        let chain = build_three_level();
        assert!(chain.linkage_ok());
        let mut certs = chain.certs().to_vec();
        certs.swap(1, 2);
        assert!(!CertificateChain::new(certs).linkage_ok());
    }

    #[test]
    fn short_chain_has_no_intermediates() {
        let chain = build_three_level();
        let two = CertificateChain::new(chain.certs()[..2].to_vec());
        assert!(two.intermediates().is_empty());
        let empty = CertificateChain::new(vec![]);
        assert!(empty.is_empty());
        assert!(empty.leaf().is_none());
        assert!(empty.linkage_ok()); // vacuous
    }
}
