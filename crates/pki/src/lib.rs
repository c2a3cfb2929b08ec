//! Simulated X.509 public-key infrastructure.
//!
//! Everything the paper's methodology touches about certificates is modeled
//! here, with real structure and real hashes (only the public-key math is
//! simulated, see `pinning-crypto`):
//!
//! * [`cert`] — certificates: serial, subject/issuer names, validity window,
//!   SubjectPublicKeyInfo, SANs, basic constraints.
//! * [`encode`] — a deterministic DER-like binary encoding plus PEM framing
//!   (`-----BEGIN CERTIFICATE-----`), which is what the paper's static
//!   scanner greps app packages for.
//! * [`authority`] — certificate authorities that issue roots, intermediates,
//!   and leaves; chains of arbitrary depth.
//! * [`chain`] — leaf-first certificate chains as sent in TLS `Certificate`
//!   messages.
//! * [`validate`] — full chain validation: signatures, expiry, basic
//!   constraints, path length, hostname matching with wildcard rules,
//!   revocation. The paper checks that pinning apps do *not* subvert these
//!   checks (§5.3.4), so they must all exist to be (not) subverted.
//! * [`store`] — root stores: AOSP, iOS, Mozilla, and OEM-extended variants
//!   built over a shared CA universe ([`universe`]), reproducing the
//!   "default PKI vs custom PKI" distinction of Table 6.
//! * [`pin`] — SPKI pins (`sha256/<b64>`, `sha1/<b64>`), raw-certificate
//!   pins, pin sets, and chain matching — the heart of the whole study.
//! * [`hpkp`] — RFC 7469 web pinning, implemented so §2.1's app-pinning
//!   vs HPKP contrast (TOFU weakness, no in-band pin change) is executable.
//! * [`limits`] — hostile-input budgets ([`limits::Budget`]) enforced by
//!   every decoder in the workspace, plus run-time chain screening
//!   ([`limits::screen_chain`]) for pathological served chains.
//! * [`time`] — virtual time and validity windows.
//! * [`cache`] — hit/miss telemetry for the derived-value caches (DER
//!   bytes, fingerprints, pins, validation memo) that make the
//!   paper-scale study compute each artifact exactly once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod cache;
pub mod cert;
pub mod chain;
pub mod encode;
pub mod error;
pub mod hpkp;
pub mod limits;
pub mod name;
pub mod pin;
pub mod store;
pub mod time;
pub mod universe;
pub mod validate;

pub use authority::CertificateAuthority;
pub use cache::{CacheCounter, CacheStat};
pub use cert::{Certificate, TbsCertificate};
pub use chain::CertificateChain;
pub use error::ValidationError;
pub use limits::{screen_chain, Budget, ChainDefect, Limit};
pub use name::{match_hostname, DistinguishedName};
pub use pin::{CertPin, Pin, PinAlgorithm, PinSet, SpkiPin};
pub use store::RootStore;
pub use time::{SimTime, Validity, DAY, HOUR, YEAR};
pub use universe::PkiUniverse;
pub use validate::{
    validate_chain, validate_chain_cached, RevocationList, ValidationMemo, ValidationOptions,
};
