//! Root stores.
//!
//! A root store is a named collection of trusted self-signed CA certificates.
//! The paper leans on three facts about real root stores (§2.1, §5.3.1):
//! Android ships the AOSP store (possibly OEM-extended), iOS ships Apple's,
//! and researchers validate against Mozilla's. The `pinning-pki`
//! [`crate::universe`] module builds all of them over one CA universe with
//! realistic overlaps.

use crate::cert::Certificate;
use crate::name::DistinguishedName;
use pinning_crypto::SplitMix64;
use std::collections::HashMap;

/// A trusted root plus whether its self-signature verified when it was
/// added.
#[derive(Debug, Clone)]
struct TrustedRoot {
    cert: Certificate,
    self_signature_ok: bool,
}

/// A named set of trusted root certificates.
#[derive(Debug, Clone)]
pub struct RootStore {
    name: String,
    by_subject: HashMap<DistinguishedName, TrustedRoot>,
    /// Content-derived identity: hash of the name, folded (order-
    /// independently) with the fingerprint of every trusted root. Two
    /// stores compare equal here iff they would trust the same anchors, so
    /// the value is a sound memoization key for validation results — even
    /// for stores mutated after construction (e.g. a test device that
    /// installs a MITM CA).
    content_id: u64,
}

impl RootStore {
    /// Creates an empty store.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let content_id = SplitMix64::new(0x5105_e11d).derive(&name).next_u64();
        RootStore {
            name,
            by_subject: HashMap::new(),
            content_id,
        }
    }

    /// The store's name (e.g. `"AOSP"`, `"iOS"`, `"Mozilla"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store's content-derived identity (see the field docs). Changes
    /// whenever a root is added; identical for stores with the same name
    /// and the same set of roots.
    pub fn content_id(&self) -> u64 {
        self.content_id
    }

    /// Adds a root certificate. Returns `false` (and keeps the existing
    /// entry) if a root with the same subject is already present.
    ///
    /// The root's self-signature is verified here, once, so validation can
    /// anchor a chain whose top is this exact certificate without verifying
    /// it again. A root whose self-signature fails is still stored; a chain
    /// that presents it as its top is then checked in full, and rejected.
    pub fn add(&mut self, cert: Certificate) -> bool {
        if !cert.tbs.is_ca || !cert.is_self_signed() {
            // Root stores only hold self-signed CA certs; refuse others.
            return false;
        }
        match self.by_subject.entry(cert.tbs.subject.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                let fp = cert.fingerprint_sha256();
                let self_signature_ok = cert
                    .tbs
                    .public_key
                    .verify(&cert.tbs.to_bytes(), &cert.signature);
                e.insert(TrustedRoot {
                    cert,
                    self_signature_ok,
                });
                self.content_id ^= u64::from_le_bytes(fp[..8].try_into().expect("8 bytes"));
                true
            }
        }
    }

    /// Removes a root by subject name (a distrust event, Symantec-style).
    /// Returns the removed certificate, if one was present.
    ///
    /// The content id folds fingerprints with XOR, so removing a root
    /// folds the same fingerprint back out and the id returns to the value
    /// it had before the root was added — validation memo keys derived
    /// from it stay sound across distrust-and-restore cycles.
    pub fn remove(&mut self, subject: &DistinguishedName) -> Option<Certificate> {
        let cert = self.by_subject.remove(subject)?.cert;
        let fp = cert.fingerprint_sha256();
        self.content_id ^= u64::from_le_bytes(fp[..8].try_into().expect("8 bytes"));
        Some(cert)
    }

    /// Looks up a trusted root by subject name.
    pub fn get(&self, subject: &DistinguishedName) -> Option<&Certificate> {
        self.by_subject.get(subject).map(|r| &r.cert)
    }

    /// Whether a certificate with this exact subject *and* SPKI is trusted.
    pub fn contains(&self, cert: &Certificate) -> bool {
        self.by_subject
            .get(&cert.tbs.subject)
            .is_some_and(|r| r.cert.tbs.public_key.spki == cert.tbs.public_key.spki)
    }

    /// Whether `cert` is byte-identical (`tbs` and `signature`) to a trusted
    /// root whose self-signature verified in [`RootStore::add`].
    ///
    /// When true, `contains(cert)` holds and `cert`'s self-signature
    /// verifies, so validation may skip both. The comparison reads only
    /// certificate content, never its derived-value cache.
    pub(crate) fn is_verified_anchor(&self, cert: &Certificate) -> bool {
        self.by_subject
            .get(&cert.tbs.subject)
            .is_some_and(|r| r.self_signature_ok && r.cert == *cert)
    }

    /// Finds the trusted root that issued `cert` (by issuer name + verifying
    /// the signature), if any.
    pub fn issuer_of(&self, cert: &Certificate) -> Option<&Certificate> {
        let root = &self.by_subject.get(&cert.tbs.issuer)?.cert;
        root.tbs
            .public_key
            .verify(&cert.tbs.to_bytes(), &cert.signature)
            .then_some(root)
    }

    /// Number of roots.
    pub fn len(&self) -> usize {
        self.by_subject.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.by_subject.is_empty()
    }

    /// Iterates over the roots (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Certificate> {
        self.by_subject.values().map(|r| &r.cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use crate::time::{SimTime, Validity, YEAR};
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;

    fn root_ca(tag: u64) -> CertificateAuthority {
        CertificateAuthority::new_root(
            DistinguishedName::new(format!("Root {tag}"), "Sim", "US"),
            &mut SplitMix64::new(tag),
            SimTime(0),
        )
    }

    #[test]
    fn add_and_lookup() {
        let ca = root_ca(1);
        let mut store = RootStore::new("test");
        assert!(store.add(ca.cert.clone()));
        assert!(store.contains(&ca.cert));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn rejects_duplicates_and_non_roots() {
        let mut ca = root_ca(2);
        let mut store = RootStore::new("test");
        assert!(store.add(ca.cert.clone()));
        assert!(!store.add(ca.cert.clone())); // duplicate subject

        let mut rng = SplitMix64::new(3);
        let key = KeyPair::generate(&mut rng);
        let leaf = ca.issue_leaf(
            &["x.com".to_string()],
            "X",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        assert!(!store.add(leaf)); // not a self-signed CA
    }

    #[test]
    fn issuer_of_verifies_signature() {
        let mut ca = root_ca(4);
        let other = root_ca(5);
        let mut store = RootStore::new("test");
        store.add(ca.cert.clone());
        store.add(other.cert.clone());

        let mut rng = SplitMix64::new(6);
        let key = KeyPair::generate(&mut rng);
        let leaf = ca.issue_leaf(
            &["y.com".to_string()],
            "Y",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let issuer = store.issuer_of(&leaf).unwrap();
        assert_eq!(issuer.tbs.subject, *ca.name());

        // A leaf *claiming* issuance by `other` but not signed by it fails.
        let mut forged = leaf.clone();
        forged.tbs.issuer = other.name().clone();
        assert!(store.issuer_of(&forged).is_none());
    }

    #[test]
    fn content_id_tracks_name_and_roots() {
        let ca = root_ca(8);
        let other = root_ca(9);
        let mut a = RootStore::new("test");
        let mut b = RootStore::new("test");
        assert_eq!(a.content_id(), b.content_id(), "same name, both empty");
        assert_ne!(
            a.content_id(),
            RootStore::new("other").content_id(),
            "name is part of the identity"
        );
        // Same roots in any order → same id; diverging contents → different.
        a.add(ca.cert.clone());
        a.add(other.cert.clone());
        b.add(other.cert.clone());
        assert_ne!(a.content_id(), b.content_id());
        b.add(ca.cert.clone());
        assert_eq!(a.content_id(), b.content_id());
        // A rejected add must not perturb the id.
        let before = a.content_id();
        assert!(!a.add(ca.cert.clone()));
        assert_eq!(a.content_id(), before);
    }

    #[test]
    fn remove_restores_content_id() {
        let ca = root_ca(10);
        let other = root_ca(11);
        let mut store = RootStore::new("test");
        store.add(other.cert.clone());
        let before = store.content_id();
        store.add(ca.cert.clone());
        assert_ne!(store.content_id(), before);
        let removed = store.remove(&ca.cert.tbs.subject).expect("present");
        assert_eq!(removed.fingerprint_sha256(), ca.cert.fingerprint_sha256());
        assert_eq!(store.content_id(), before, "XOR removal restores the id");
        assert!(!store.contains(&ca.cert));
        assert!(store.remove(&ca.cert.tbs.subject).is_none());
    }

    #[test]
    fn same_subject_different_key_not_contained() {
        let a = root_ca(7);
        // Same subject name, different key material.
        let b = CertificateAuthority::new_root(
            DistinguishedName::new("Root 7", "Sim", "US"),
            &mut SplitMix64::new(999),
            SimTime(0),
        );
        let mut store = RootStore::new("test");
        store.add(a.cert.clone());
        assert!(!store.contains(&b.cert));
    }
}
