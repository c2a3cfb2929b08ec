//! Client-side certificate policy: system validation and/or pin enforcement.
//!
//! Real apps compose these in every combination the paper discusses:
//! system validation only (the default), system + pins (correct pinning),
//! pins only (broken — §5.3.4 looked for this and found none), and — after
//! Frida instrumentation — nothing at all.

use pinning_pki::pin::PinSet;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_pki::validate::{validate_with, RevocationList, ValidationMemo, ValidationOptions};
use pinning_pki::Certificate;
use pinning_pki::ValidationError;

/// What an app's certificate-evaluation code decides.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyDecision {
    /// Chain accepted.
    Accept,
    /// Rejected by standard validation.
    RejectSystem(ValidationError),
    /// Chain validated but no pin matched — the pinning signal.
    RejectPin,
}

impl VerifyDecision {
    /// Whether the decision accepts the connection.
    pub fn is_accept(&self) -> bool {
        matches!(self, VerifyDecision::Accept)
    }
}

/// An app's certificate policy for one destination.
#[derive(Debug, Clone, PartialEq)]
pub struct CertPolicy {
    /// Run standard chain validation against the device root store.
    /// Virtually always true; §5.3.4 found no app relying on pins alone.
    pub system_validation: bool,
    /// Which standard checks are enabled (some apps disable hostname
    /// verification — the Stone et al. bug class).
    pub validation_options: ValidationOptions,
    /// Pins to enforce, if the app pins this destination.
    pub pins: Option<PinSet>,
}

impl CertPolicy {
    /// The platform default: full system validation, no pins.
    pub fn system_default() -> Self {
        CertPolicy {
            system_validation: true,
            validation_options: ValidationOptions::default(),
            pins: None,
        }
    }

    /// Correct pinning: system validation plus a pin set.
    pub fn pinned(pins: PinSet) -> Self {
        CertPolicy {
            system_validation: true,
            validation_options: ValidationOptions::default(),
            pins: Some(pins),
        }
    }

    /// Whether the policy pins.
    pub fn is_pinning(&self) -> bool {
        self.pins.as_ref().is_some_and(|p| !p.is_empty())
    }

    /// Evaluates a presented chain.
    ///
    /// Order mirrors real stacks: standard validation first (when enabled),
    /// then pin matching. A policy with pins but no matching certificate
    /// rejects even if the chain is otherwise perfectly valid — that is the
    /// defining behaviour of pinning.
    /// Standard validation goes through `memo` if the caller has one (the
    /// verdict is identical without it).
    pub fn evaluate(
        &self,
        chain: &[Certificate],
        hostname: &str,
        now: SimTime,
        store: &RootStore,
        crl: &RevocationList,
        memo: Option<&ValidationMemo>,
    ) -> VerifyDecision {
        if self.system_validation {
            let options = &self.validation_options;
            if let Err(e) = validate_with(memo, chain, store, hostname, now, crl, options) {
                return VerifyDecision::RejectSystem(e);
            }
        }
        if let Some(pins) = &self.pins {
            if !pins.is_empty() && !pins.matches_chain(chain) {
                return VerifyDecision::RejectPin;
            }
        }
        VerifyDecision::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::pin::{Pin, SpkiPin};
    use pinning_pki::time::{Validity, YEAR};

    struct World {
        store: RootStore,
        chain: Vec<Certificate>,
        mitm_chain: Vec<Certificate>,
        now: SimTime,
    }

    fn world() -> World {
        let mut rng = SplitMix64::new(0xfeed);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = root.issue_leaf(
            &["bank.com".to_string()],
            "Bank",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let chain = vec![leaf, root.cert.clone()];

        // MITM CA *installed in the device store* (the paper's test setup).
        let mut mitm = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            &mut rng,
            SimTime(0),
        );
        let mitm_key = KeyPair::generate(&mut rng);
        let forged = mitm.issue_leaf(
            &["bank.com".to_string()],
            "Bank",
            &mitm_key,
            Validity::starting(SimTime(0), YEAR),
        );
        let mitm_chain = vec![forged, mitm.cert.clone()];

        let mut store = RootStore::new("device");
        store.add(root.cert.clone());
        store.add(mitm.cert.clone());
        World {
            store,
            chain,
            mitm_chain,
            now: SimTime(100),
        }
    }

    #[test]
    fn default_policy_accepts_valid_chain() {
        let w = world();
        let p = CertPolicy::system_default();
        assert!(p
            .evaluate(
                &w.chain,
                "bank.com",
                w.now,
                &w.store,
                &RevocationList::empty(),
                None,
            )
            .is_accept());
    }

    #[test]
    fn default_policy_accepts_mitm_with_installed_ca() {
        // This is exactly why pinning matters: with the proxy CA installed,
        // an unpinned app accepts the forged chain.
        let w = world();
        let p = CertPolicy::system_default();
        assert!(p
            .evaluate(
                &w.mitm_chain,
                "bank.com",
                w.now,
                &w.store,
                &RevocationList::empty(),
                None,
            )
            .is_accept());
    }

    #[test]
    fn pinned_policy_rejects_mitm_even_with_installed_ca() {
        let w = world();
        let pin = SpkiPin::sha256_of(&w.chain[1]); // pin the real root
        let p = CertPolicy::pinned(PinSet::from_pins(vec![Pin::Spki(pin)]));
        assert_eq!(
            p.evaluate(
                &w.mitm_chain,
                "bank.com",
                w.now,
                &w.store,
                &RevocationList::empty(),
                None,
            ),
            VerifyDecision::RejectPin
        );
        // ... while still accepting the genuine chain.
        assert!(p
            .evaluate(
                &w.chain,
                "bank.com",
                w.now,
                &w.store,
                &RevocationList::empty(),
                None,
            )
            .is_accept());
    }

    #[test]
    fn pinning_still_runs_standard_validation() {
        let w = world();
        let pin = SpkiPin::sha256_of(&w.chain[1]);
        let p = CertPolicy::pinned(PinSet::from_pins(vec![Pin::Spki(pin)]));
        // Hostname mismatch must still be caught (§5.3.4).
        let d = p.evaluate(
            &w.chain,
            "evil.com",
            w.now,
            &w.store,
            &RevocationList::empty(),
            None,
        );
        assert!(matches!(
            d,
            VerifyDecision::RejectSystem(ValidationError::HostnameMismatch { .. })
        ));
    }

    #[test]
    fn unknown_ca_rejected_without_install() {
        let w = world();
        let mut bare = RootStore::new("factory");
        bare.add(w.chain[1].clone());
        let p = CertPolicy::system_default();
        let d = p.evaluate(
            &w.mitm_chain,
            "bank.com",
            w.now,
            &bare,
            &RevocationList::empty(),
            None,
        );
        assert!(matches!(
            d,
            VerifyDecision::RejectSystem(ValidationError::UnknownRoot { .. })
        ));
    }

    #[test]
    fn empty_pinset_does_not_pin() {
        let p = CertPolicy::pinned(PinSet::new());
        assert!(!p.is_pinning());
    }
}
