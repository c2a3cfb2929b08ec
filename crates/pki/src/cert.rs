//! Certificates.

use crate::cache;
use crate::encode::{pem_encode, tag, Reader, Writer};
use crate::error::DecodeError;
use crate::name::DistinguishedName;
use crate::time::Validity;
use pinning_crypto::sig::{PublicKey, Signature};
use pinning_crypto::{b64encode, sha256};
use std::sync::{Arc, OnceLock};

/// The to-be-signed body of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Serial number, unique per issuer in the simulation.
    pub serial: u64,
    /// Subject name.
    pub subject: DistinguishedName,
    /// Issuer name.
    pub issuer: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// DNS subject alternative names (may contain wildcards). Empty for CAs.
    pub san: Vec<String>,
    /// Subject public key.
    pub public_key: PublicKey,
    /// Basic constraints: certificate may sign others.
    pub is_ca: bool,
    /// Optional path-length constraint (only meaningful when `is_ca`).
    pub path_len: Option<u64>,
}

impl TbsCertificate {
    /// Deterministic encoding of the TBS body (the bytes that get signed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.nested(tag::TBS, |w| {
            w.u64(self.serial);
            encode_name(w, &self.subject);
            encode_name(w, &self.issuer);
            w.u64(self.validity.not_before.0);
            w.u64(self.validity.not_after.0);
            w.list(&self.san, |w, s| w.string(s));
            w.bytes(&self.public_key.spki);
            w.bytes(&self.public_key.verifier);
            w.boolean(self.is_ca);
            w.opt_u64(self.path_len);
        });
        w.into_bytes()
    }
}

fn encode_name(w: &mut Writer, name: &DistinguishedName) {
    w.nested(tag::NAME, |w| {
        w.string(&name.common_name);
        w.string(&name.organization);
        w.string(&name.country);
    });
}

fn decode_name(r: &mut Reader<'_>) -> Result<DistinguishedName, DecodeError> {
    r.nested_with(tag::NAME, |inner| {
        Ok(DistinguishedName {
            common_name: inner.string()?,
            organization: inner.string()?,
            country: inner.string()?,
        })
    })
}

/// Lazily-computed artifacts derived from a certificate's content.
///
/// Kept behind an `Arc` on the owning [`Certificate`] so clones share one
/// cell: warming any copy of a CA certificate warms every chain that embeds
/// it. The cell never stores anything the content does not fully determine,
/// so sharing cannot change results — only skip recomputation. A
/// certificate decoded from canonical input starts with its DER cell
/// holding that input (it *is* the encoding), and with its fingerprint
/// too when it was decoded through [`ReceivedDer::decode`].
#[derive(Debug, Default)]
struct DerivedCache {
    der: OnceLock<Arc<[u8]>>,
    fingerprint: OnceLock<[u8; 32]>,
    spki_sha256: OnceLock<[u8; 32]>,
    spki_sha1: OnceLock<[u8; 20]>,
    pin_string: OnceLock<Arc<str>>,
    /// Debug-only mutation guard: a cheap content probe captured at the
    /// first derived read through this cell, or at decode when the decoder
    /// seeds the cell. Every later cached read
    /// recomputes the probe and asserts it unchanged, so a `tbs` or
    /// `signature` mutation that skipped [`Certificate::invalidate_derived`]
    /// trips loudly instead of silently serving stale derived values.
    #[cfg(debug_assertions)]
    probe: OnceLock<u64>,
}

/// FNV-1a accumulator for the debug mutation probe: orders of magnitude
/// cheaper than re-encoding + hashing the TBS, yet sensitive to a change in
/// any content byte.
#[cfg(debug_assertions)]
struct Fnv(u64);

#[cfg(debug_assertions)]
impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
    fn eat_str(&mut self, s: &str) {
        self.eat_u64(s.len() as u64);
        self.eat(s.as_bytes());
    }
}

/// A signed certificate.
///
/// The public fields remain directly accessible. Code that mutates `tbs` or
/// `signature` *in place* after reading a derived value (fingerprint, DER,
/// pin string) must call [`Certificate::invalidate_derived`] afterwards —
/// the derived-value cache cannot observe field writes.
pub struct Certificate {
    /// Signed body.
    pub tbs: TbsCertificate,
    /// Issuer's signature over [`TbsCertificate::to_bytes`].
    pub signature: Signature,
    cache: Arc<DerivedCache>,
}

impl Clone for Certificate {
    fn clone(&self) -> Self {
        Certificate {
            tbs: self.tbs.clone(),
            signature: self.signature.clone(),
            // Clones share the derived-value cell; see `DerivedCache`.
            cache: Arc::clone(&self.cache),
        }
    }
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        self.tbs == other.tbs && self.signature == other.signature
    }
}

impl Eq for Certificate {}

impl std::fmt::Debug for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Certificate")
            .field("tbs", &self.tbs)
            .field("signature", &self.signature)
            .finish()
    }
}

impl Certificate {
    /// Builds a certificate from its signed body and signature.
    pub fn new(tbs: TbsCertificate, signature: Signature) -> Self {
        Certificate {
            tbs,
            signature,
            cache: Arc::new(DerivedCache::default()),
        }
    }

    /// Drops every cached derived value. Call after mutating `tbs` or
    /// `signature` in place; clones made *before* the mutation keep their
    /// (still content-correct) cache.
    pub fn invalidate_derived(&mut self) {
        self.cache = Arc::new(DerivedCache::default());
    }

    /// Whether subject == issuer (candidate root).
    pub fn is_self_signed(&self) -> bool {
        self.tbs.subject == self.tbs.issuer
    }

    /// Debug-only content probe over every field that feeds a derived
    /// value: serial, names, validity, SANs, key material, CA bits and the
    /// signature.
    #[cfg(debug_assertions)]
    fn content_probe(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat_u64(self.tbs.serial);
        for name in [&self.tbs.subject, &self.tbs.issuer] {
            h.eat_str(&name.common_name);
            h.eat_str(&name.organization);
            h.eat_str(&name.country);
        }
        h.eat_u64(self.tbs.validity.not_before.0);
        h.eat_u64(self.tbs.validity.not_after.0);
        h.eat_u64(self.tbs.san.len() as u64);
        for san in &self.tbs.san {
            h.eat_str(san);
        }
        h.eat(&self.tbs.public_key.spki);
        h.eat(&self.tbs.public_key.verifier);
        h.eat_u64(self.tbs.is_ca as u64);
        h.eat_u64(self.tbs.path_len.map_or(u64::MAX, |p| p));
        h.eat(&self.signature.0);
        h.0
    }

    /// Debug-only guard run on every cached derived read: trips when the
    /// certificate's content no longer matches what the shared cache was
    /// filled for (i.e. a mutate-after-clone that skipped
    /// [`Certificate::invalidate_derived`]).
    #[cfg(debug_assertions)]
    fn debug_assert_cache_fresh(&self) {
        let probe = self.content_probe();
        let stored = *self.cache.probe.get_or_init(|| probe);
        debug_assert_eq!(
            stored, probe,
            "derived cache read after un-invalidated mutation: call \
             Certificate::invalidate_derived() after mutating tbs/signature in place"
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn debug_assert_cache_fresh(&self) {}

    fn encode_der(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.nested(tag::CERTIFICATE, |w| {
            w.bytes(&self.tbs.to_bytes());
            w.nested(tag::SIGNATURE, |w| w.bytes(&self.signature.0));
        });
        w.into_bytes()
    }

    /// The certificate's DER-like encoding as shared bytes, computed once
    /// per distinct certificate. The zero-copy form of [`Certificate::to_der`].
    pub fn der_bytes(&self) -> Arc<[u8]> {
        Arc::clone(self.der_cell())
    }

    /// The length of [`Certificate::der_bytes`], read without sharing the
    /// bytes out (what a handshake needs to size its Certificate message).
    pub fn der_len(&self) -> usize {
        self.der_cell().len()
    }

    fn der_cell(&self) -> &Arc<[u8]> {
        self.debug_assert_cache_fresh();
        if let Some(der) = self.cache.der.get() {
            cache::CERT_DER.hit();
            return der;
        }
        cache::CERT_DER.miss();
        self.cache.der.get_or_init(|| self.encode_der().into())
    }

    /// DER-like encoding of the whole certificate.
    pub fn to_der(&self) -> Vec<u8> {
        self.der_cell().to_vec()
    }

    /// Parses a certificate from its DER-like encoding under
    /// [`crate::limits::Budget::STANDARD`].
    pub fn from_der(der: &[u8]) -> Result<Self, DecodeError> {
        Self::from_der_with_budget(der, &crate::limits::Budget::STANDARD)
    }

    /// Parses a certificate under an explicit [`crate::limits::Budget`]:
    /// the TLV reader enforces input-size / depth / work limits and the SAN
    /// list is capped at `max_names` entries with at most
    /// `max_wildcard_labels` wildcard labels each.
    ///
    /// When `der` is canonical ([`Reader::is_canonical`] at every level),
    /// it is this certificate's encoding, and the DER cell keeps it: the
    /// certificate is never re-encoded. Other accepted input decodes the
    /// same way, and its DER cell is filled by re-encoding on first use.
    pub fn from_der_with_budget(
        der: &[u8],
        budget: &crate::limits::Budget,
    ) -> Result<Self, DecodeError> {
        Self::decode(der, budget, None)
    }

    /// The decoder behind [`Certificate::from_der_with_budget`] and
    /// [`ReceivedDer::decode`]; `sha256` is the SHA-256 of `der`, when the
    /// caller already took it.
    fn decode(
        der: &[u8],
        budget: &crate::limits::Budget,
        sha256: Option<&[u8; 32]>,
    ) -> Result<Self, DecodeError> {
        let mut outer = Reader::with_budget(der, *budget);
        let (tbs_bytes, sig) = outer.nested_with(tag::CERTIFICATE, |cert| {
            let tbs_bytes = cert.bytes_ref()?;
            let sig: [u8; 32] = cert.nested_with(tag::SIGNATURE, |s| s.bytes_fixed())?;
            Ok((tbs_bytes, sig))
        })?;

        // The TBS body gets a reader of its own: its depth and work count
        // from zero, and which limit a hostile input trips depends on that.
        let mut tbs_outer = Reader::with_budget(tbs_bytes, *budget);
        let tbs = tbs_outer.nested_with(tag::TBS, |t| {
            let serial = t.u64()?;
            let subject = decode_name(t)?;
            let issuer = decode_name(t)?;
            let not_before = crate::time::SimTime(t.u64()?);
            let not_after = crate::time::SimTime(t.u64()?);
            let san = t.list(|r| r.string())?;
            if san.len() > budget.max_names {
                return Err(DecodeError::LimitExceeded(crate::limits::Limit::Names));
            }
            if san
                .iter()
                .any(|n| crate::limits::wildcard_labels(n) > budget.max_wildcard_labels)
            {
                return Err(DecodeError::LimitExceeded(
                    crate::limits::Limit::WildcardLabels,
                ));
            }
            let spki: [u8; 32] = t.bytes_fixed()?;
            let verifier: [u8; 32] = t.bytes_fixed()?;
            let is_ca = t.boolean()?;
            let path_len = t.opt_u64()?;
            Ok(TbsCertificate {
                serial,
                subject,
                issuer,
                validity: Validity {
                    not_before,
                    not_after,
                },
                san,
                public_key: PublicKey { spki, verifier },
                is_ca,
                path_len,
            })
        })?;

        let cert = Certificate::new(tbs, Signature(sig));
        if outer.is_canonical() && tbs_outer.is_canonical() {
            cert.keep_received(der, sha256);
        }
        Ok(cert)
    }

    /// Seeds a freshly decoded certificate's cells with its canonical
    /// encoding and, if known, that encoding's SHA-256 (its fingerprint).
    fn keep_received(&self, der: &[u8], sha256: Option<&[u8; 32]>) {
        let _ = self.cache.der.set(der.into());
        if let Some(fp) = sha256 {
            let _ = self.cache.fingerprint.set(*fp);
        }
        // Seeded cells must be guarded like computed ones: a decode, an
        // in-place mutation and a read would otherwise return the received
        // bytes for content they no longer encode.
        #[cfg(debug_assertions)]
        let _ = self.cache.probe.set(self.content_probe());
    }

    /// Whether the DER cell is filled: right after decoding, exactly when
    /// the input was canonical and kept (see
    /// [`Certificate::from_der_with_budget`]).
    pub fn der_is_cached(&self) -> bool {
        self.cache.der.get().is_some()
    }

    /// PEM encoding (what the static scanner finds in app assets).
    pub fn to_pem(&self) -> String {
        pem_encode(&self.to_der())
    }

    /// SHA-256 fingerprint of the DER encoding, computed once per distinct
    /// certificate.
    pub fn fingerprint_sha256(&self) -> [u8; 32] {
        self.debug_assert_cache_fresh();
        if let Some(fp) = self.cache.fingerprint.get() {
            cache::CERT_FINGERPRINT.hit();
            return *fp;
        }
        cache::CERT_FINGERPRINT.miss();
        *self
            .cache
            .fingerprint
            .get_or_init(|| sha256(self.der_cell()))
    }

    /// SHA-256 of the SubjectPublicKeyInfo (what `sha256/...` pins commit to).
    pub fn spki_sha256(&self) -> [u8; 32] {
        self.debug_assert_cache_fresh();
        if let Some(d) = self.cache.spki_sha256.get() {
            cache::CERT_SPKI_SHA256.hit();
            return *d;
        }
        cache::CERT_SPKI_SHA256.miss();
        *self
            .cache
            .spki_sha256
            .get_or_init(|| self.tbs.public_key.spki_sha256())
    }

    /// SHA-1 of the SubjectPublicKeyInfo (legacy `sha1/...` pins).
    pub fn spki_sha1(&self) -> [u8; 20] {
        self.debug_assert_cache_fresh();
        if let Some(d) = self.cache.spki_sha1.get() {
            cache::CERT_SPKI_SHA1.hit();
            return *d;
        }
        cache::CERT_SPKI_SHA1.miss();
        *self
            .cache
            .spki_sha1
            .get_or_init(|| self.tbs.public_key.spki_sha1())
    }

    /// The conventional `sha256/<base64>` pin string for this certificate.
    pub fn spki_pin_string(&self) -> String {
        self.debug_assert_cache_fresh();
        if let Some(pin) = self.cache.pin_string.get() {
            cache::CERT_PIN_STRING.hit();
            return pin.to_string();
        }
        cache::CERT_PIN_STRING.miss();
        self.cache
            .pin_string
            .get_or_init(|| format!("sha256/{}", b64encode(&self.spki_sha256())).into())
            .to_string()
    }

    /// Whether the certificate's names cover `hostname` (checks SANs, then
    /// falls back to the CN as legacy stacks do).
    pub fn matches_hostname(&self, hostname: &str) -> bool {
        if self
            .tbs
            .san
            .iter()
            .any(|p| crate::name::match_hostname(p, hostname))
        {
            return true;
        }
        self.tbs.san.is_empty()
            && crate::name::match_hostname(&self.tbs.subject.common_name, hostname)
    }
}

/// A certificate encoding as received, with its SHA-256 taken once.
///
/// A canonical encoding's SHA-256 is the fingerprint of the certificate it
/// decodes to, so a memo keyed by fingerprints can be probed with
/// [`ReceivedDer::sha256`] before anything is decoded
/// (`pki::validate::ReceivedChain`). For any other bytes the digest names
/// no certificate, and such a probe simply misses.
#[derive(Debug, Clone, Copy)]
pub struct ReceivedDer<'a> {
    bytes: &'a [u8],
    sha256: [u8; 32],
}

impl<'a> ReceivedDer<'a> {
    /// Hashes `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ReceivedDer {
            bytes,
            sha256: sha256(bytes),
        }
    }

    /// The received bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// SHA-256 of the received bytes.
    pub fn sha256(&self) -> &[u8; 32] {
        &self.sha256
    }

    /// [`Certificate::from_der`]; when the certificate keeps the received
    /// bytes as its encoding, it also keeps their digest as its
    /// fingerprint, so the bytes are never hashed again.
    pub fn decode(&self) -> Result<Certificate, DecodeError> {
        Certificate::decode(
            self.bytes,
            &crate::limits::Budget::STANDARD,
            Some(&self.sha256),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;

    fn sample_cert(seed: u64) -> Certificate {
        let key = KeyPair::generate(&mut SplitMix64::new(seed));
        let tbs = TbsCertificate {
            serial: seed,
            subject: DistinguishedName::new("api.example.com", "Example Corp", "US"),
            issuer: DistinguishedName::new("SimTrust CA 1", "SimTrust", "US"),
            validity: Validity::starting(SimTime(100), 1_000_000),
            san: vec!["api.example.com".into(), "*.cdn.example.com".into()],
            public_key: key.public.clone(),
            is_ca: false,
            path_len: None,
        };
        let sig = key.sign(&tbs.to_bytes()); // self-signed for test purposes
        Certificate::new(tbs, sig)
    }

    #[test]
    fn der_roundtrip() {
        let cert = sample_cert(1);
        let der = cert.to_der();
        let parsed = Certificate::from_der(&der).unwrap();
        assert_eq!(parsed, cert);
    }

    #[test]
    fn decoding_canonical_input_keeps_it_as_the_encoding() {
        let der = sample_cert(12).to_der();
        let parsed = Certificate::from_der(&der).unwrap();
        assert!(parsed.der_is_cached(), "canonical input seeds the DER cell");
        assert_eq!(&*parsed.der_bytes(), der.as_slice());
        assert_eq!(parsed.fingerprint_sha256(), sha256(&der));
        assert!(!Certificate::new(parsed.tbs.clone(), parsed.signature.clone()).der_is_cached());
    }

    /// `cert`'s encoding with the SAN list and the path-length NONE written
    /// by hand, so either can carry bytes the decoder leaves unread.
    fn encode_with(cert: &Certificate, san_tail: bool, none_body: bool) -> Vec<u8> {
        let t = &cert.tbs;
        let mut tbs = Writer::new();
        tbs.nested(tag::TBS, |w| {
            w.u64(t.serial);
            encode_name(w, &t.subject);
            encode_name(w, &t.issuer);
            w.u64(t.validity.not_before.0);
            w.u64(t.validity.not_after.0);
            w.nested(tag::LIST, |w| {
                w.u64(t.san.len() as u64);
                for s in &t.san {
                    w.string(s);
                }
                if san_tail {
                    w.u64(0);
                }
            });
            w.bytes(&t.public_key.spki);
            w.bytes(&t.public_key.verifier);
            w.boolean(t.is_ca);
            w.nested(tag::NONE, |w| {
                if none_body {
                    w.u64(0);
                }
            });
        });
        let mut w = Writer::new();
        w.nested(tag::CERTIFICATE, |w| {
            w.bytes(&tbs.into_bytes());
            w.nested(tag::SIGNATURE, |w| w.bytes(&cert.signature.0));
        });
        w.into_bytes()
    }

    #[test]
    fn non_canonical_inputs_decode_as_before_and_are_re_encoded() {
        let cert = sample_cert(13);
        let der = cert.to_der();
        assert_eq!(
            encode_with(&cert, false, false),
            der,
            "helper mirrors to_der"
        );

        let mut trailing_outer = der.clone();
        trailing_outer.push(0);
        // The BOOL byte sits just before the TBS's closing NONE, which the
        // 42-byte signature structure follows.
        let mut bool_two = der.clone();
        let bool_at = der.len() - 42 - 5 - 1;
        assert_eq!(der[bool_at - 5], tag::BOOL);
        bool_two[bool_at] = 2;
        let mut flipped = cert.clone();
        flipped.tbs.is_ca = true;
        flipped.invalidate_derived();

        for (kind, input, decodes_to) in [
            ("trailing outer byte", trailing_outer, &cert),
            ("BOOL byte 2", bool_two, &flipped),
            ("NONE with a body", encode_with(&cert, false, true), &cert),
            (
                "trailing SAN-list bytes",
                encode_with(&cert, true, false),
                &cert,
            ),
        ] {
            let parsed = Certificate::from_der(&input).unwrap_or_else(|e| panic!("{kind}: {e:?}"));
            assert_eq!(&parsed, decodes_to, "{kind}");
            assert!(!parsed.der_is_cached(), "{kind}: input is not the encoding");
            assert_eq!(parsed.to_der(), decodes_to.to_der(), "{kind}: re-encoded");
            let received = ReceivedDer::new(&input);
            let parsed = received.decode().unwrap();
            assert_ne!(&parsed.fingerprint_sha256(), received.sha256(), "{kind}");
            assert_eq!(parsed.fingerprint_sha256(), decodes_to.fingerprint_sha256());
        }
    }

    #[test]
    fn received_decode_keeps_the_digest_as_fingerprint() {
        let der = sample_cert(14).to_der();
        let received = ReceivedDer::new(&der);
        assert_eq!(received.sha256(), &sha256(&der));
        let parsed = received.decode().unwrap();
        assert!(parsed.cache.fingerprint.get().is_some(), "seeded at decode");
        assert_eq!(&parsed.fingerprint_sha256(), received.sha256());
        assert_eq!(received.decode(), Certificate::from_der(&der));
    }

    #[test]
    fn pem_roundtrip() {
        let cert = sample_cert(2);
        let pem = cert.to_pem();
        let ders = crate::encode::pem_decode_all(&pem).unwrap();
        assert_eq!(ders.len(), 1);
        assert_eq!(Certificate::from_der(&ders[0]).unwrap(), cert);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample_cert(3).to_der(), sample_cert(3).to_der());
    }

    #[test]
    fn fingerprint_changes_with_serial() {
        let mut a = sample_cert(4);
        let fp1 = a.fingerprint_sha256();
        a.tbs.serial += 1;
        a.invalidate_derived();
        assert_ne!(fp1, a.fingerprint_sha256());
    }

    #[test]
    fn derived_values_survive_cloning_and_match_fresh_copies() {
        let a = sample_cert(40);
        // Warm every cache through one copy…
        let fp = a.fingerprint_sha256();
        let der = a.to_der();
        let pin = a.spki_pin_string();
        // …then check a clone (shared cache) and an independently built
        // twin (cold cache) agree on all of them.
        let clone = a.clone();
        let twin = sample_cert(40);
        for c in [&clone, &twin] {
            assert_eq!(c.fingerprint_sha256(), fp);
            assert_eq!(c.to_der(), der);
            assert_eq!(c.spki_pin_string(), pin);
            assert_eq!(c.spki_sha256(), a.spki_sha256());
            assert_eq!(c.spki_sha1(), a.spki_sha1());
        }
        assert_eq!(&*a.der_bytes(), der.as_slice());
        assert_eq!(sample_cert(40).der_len(), der.len(), "cold cell");
        assert_eq!(a.der_len(), der.len(), "warm cell");
    }

    #[test]
    fn invalidation_detaches_from_shared_cache() {
        let a = sample_cert(41);
        let fp = a.fingerprint_sha256();
        let mut b = a.clone();
        b.tbs.serial ^= 0xFFFF;
        b.invalidate_derived();
        assert_ne!(b.fingerprint_sha256(), fp);
        // The original is untouched by the clone's mutation.
        assert_eq!(a.fingerprint_sha256(), fp);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "derived cache read after un-invalidated mutation")]
    fn guard_trips_on_mutate_after_clone_without_invalidate() {
        let a = sample_cert(42);
        let _ = a.fingerprint_sha256(); // fills the shared cache + probe
        let mut b = a.clone();
        b.tbs.serial ^= 0xDEAD; // mutation without invalidate_derived()
        let _ = b.fingerprint_sha256(); // stale cached read → guard trips
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "derived cache read after un-invalidated mutation")]
    fn guard_trips_on_mutate_after_decode_without_invalidate() {
        let mut b = Certificate::from_der(&sample_cert(44).to_der()).unwrap();
        assert!(b.der_is_cached(), "the decoder seeded the cell");
        b.tbs.serial ^= 0xDEAD; // mutation without invalidate_derived()
        let _ = b.der_bytes(); // would return the received bytes → guard trips
    }

    #[test]
    fn guard_stays_quiet_when_invalidated() {
        let a = sample_cert(43);
        let fp = a.fingerprint_sha256();
        let mut b = a.clone();
        b.tbs.serial ^= 0xDEAD;
        b.invalidate_derived();
        assert_ne!(b.fingerprint_sha256(), fp);
        assert_eq!(a.fingerprint_sha256(), fp);
    }

    #[test]
    fn spki_pin_string_shape() {
        let pin = sample_cert(5).spki_pin_string();
        assert!(pin.starts_with("sha256/"));
        assert_eq!(pin.len(), "sha256/".len() + 44);
    }

    #[test]
    fn hostname_via_san() {
        let cert = sample_cert(6);
        assert!(cert.matches_hostname("api.example.com"));
        assert!(cert.matches_hostname("static.cdn.example.com"));
        assert!(!cert.matches_hostname("other.example.com"));
    }

    #[test]
    fn hostname_cn_fallback_only_without_san() {
        let mut cert = sample_cert(7);
        cert.tbs.san.clear();
        assert!(cert.matches_hostname("api.example.com")); // CN fallback
        cert.tbs.san = vec!["other.example.com".into()];
        assert!(!cert.matches_hostname("api.example.com")); // SAN present → no CN fallback
    }

    #[test]
    fn truncated_der_rejected() {
        let der = sample_cert(8).to_der();
        assert!(Certificate::from_der(&der[..der.len() - 3]).is_err());
    }

    #[test]
    fn giant_san_list_rejected_at_decode() {
        let mut cert = sample_cert(10);
        cert.tbs.san = (0..crate::limits::Budget::STANDARD.max_names + 1)
            .map(|i| format!("h{i}.example.com"))
            .collect();
        cert.invalidate_derived();
        let der = cert.to_der();
        assert_eq!(
            Certificate::from_der(&der),
            Err(DecodeError::LimitExceeded(crate::limits::Limit::Names))
        );
    }

    #[test]
    fn wildcard_stacking_rejected_at_decode() {
        let mut cert = sample_cert(11);
        cert.tbs.san = vec!["*.*.*.*.*.*.example.com".to_string()];
        cert.invalidate_derived();
        let der = cert.to_der();
        assert_eq!(
            Certificate::from_der(&der),
            Err(DecodeError::LimitExceeded(
                crate::limits::Limit::WildcardLabels
            ))
        );
    }

    #[test]
    fn self_signed_detection() {
        let mut cert = sample_cert(9);
        assert!(!cert.is_self_signed());
        cert.tbs.issuer = cert.tbs.subject.clone();
        assert!(cert.is_self_signed());
    }
}
