//! Cryptographic primitives for the `app-tls-pinning` reproduction.
//!
//! The paper's pinning mechanisms are built on a handful of primitives:
//!
//! * **SHA-1 / SHA-256** — SPKI pins are `sha1(spki)` / `sha256(spki)`,
//!   base64-encoded (RFC 7469 style, as used by OkHttp's
//!   `CertificatePinner`, Android NSC `<pin digest="SHA-256">`, and HPKP).
//!   Implemented from scratch in [`mod@sha1`] and [`mod@sha256`] and tested against
//!   the FIPS 180 vectors. SHA-256 compresses blocks with the x86-64 SHA-NI
//!   instructions on builds that enable them and with portable Rust
//!   otherwise; both give the same digests (see [`mod@sha256`]).
//! * **HMAC** — used by the simulated signature scheme ([`sig`]).
//! * **base64 / hex** — pin encodings and certificate fingerprints
//!   ([`base64`], [`hex`]).
//! * **Simulated public-key signatures** — see [`sig`]; real RSA/ECDSA
//!   arithmetic is out of scope (and irrelevant to the measurement
//!   methodology), so signatures are modeled as keyed hashes. The chain
//!   *validation logic* in `pinning-pki` is unchanged by this substitution.
//! * **Deterministic sub-seeding** — [`rng::SplitMix64`] derives stable
//!   per-entity seeds so the whole study is reproducible from one seed.
//!
//! Nothing in this crate is suitable for production security use; the hash
//! functions are real, but the signature scheme is intentionally forgeable
//! inside the closed simulation.

// One `unsafe` call exists: `sha256::compress1` entering the SHA-NI
// kernel, allowed at that call site alone.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod base64;
pub mod hex;
pub mod hmac;
mod md;
pub mod rng;
pub mod sha1;
pub mod sha256;
pub mod sig;

pub use base64::{b64decode, b64decode_bounded, b64encode};
pub use hex::{hex_decode, hex_decode_bounded, hex_encode};
pub use hmac::{hmac_sha1, hmac_sha256};
pub use rng::SplitMix64;
pub use sha1::{sha1, Sha1};
pub use sha256::{sha256, sha256_many, Sha256};
pub use sig::{KeyPair, PublicKey, Signature};
