//! The pin-hash scanner: a hand-rolled matcher for the paper's regex
//! `sha(1|256)/[a-zA-Z0-9+/=]{28,64}` (§4.1.2).
//!
//! The length band `{28,64}` deliberately covers base64 SHA-1 (28 chars),
//! base64 SHA-256 (44), hex SHA-1 (40) and hex SHA-256 (64) digests. We
//! implement the match directly instead of pulling in a regex engine —
//! the pattern is fixed and the scanner runs over every byte of every
//! package, so it is also the hottest loop in static analysis.

use pinning_pki::pin::{PinAlgorithm, SpkiPin};

/// One scanner match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinMatch {
    /// The full matched text, including the `shaN/` prefix.
    pub raw: String,
    /// Algorithm from the prefix.
    pub alg: PinAlgorithm,
    /// The digest body (base64 or hex, as matched).
    pub body: String,
}

impl PinMatch {
    /// Attempts to parse the match into a well-formed [`SpkiPin`]
    /// (base64 body of exactly the digest length).
    pub fn parse(&self) -> Option<SpkiPin> {
        SpkiPin::parse(&self.raw)
    }
}

fn is_b64_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'+' || c == b'/' || c == b'='
}

/// The PEM armour line that opens a certificate block.
const BEGIN_CERT: &[u8] = pinning_pki::encode::PEM_BEGIN_CERT.as_bytes();

/// Longest body the pattern's `{28,64}` band takes.
const MAX_BODY: usize = 64;

/// Shortest body the pattern's `{28,64}` band takes.
const MIN_BODY: usize = 28;

/// One thing [`hits`] found, located by byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hit {
    /// A pin match: `shaN/` from `start`, its body from `body_start`, both
    /// ending at `end` (exclusive).
    Pin {
        /// Algorithm from the prefix.
        alg: PinAlgorithm,
        /// Offset of the `s` of `shaN/`.
        start: usize,
        /// Offset of the body's first character.
        body_start: usize,
        /// Offset one past the body's last character.
        end: usize,
    },
    /// A `-----BEGIN CERTIFICATE-----` line starts at this offset.
    Armour(usize),
}

/// Walks `bytes` once for both things §4.1.2 greps a `strings` dump for:
/// every pin match (exactly the matches of [`scan_pins`]) and every PEM
/// BEGIN line, in offset order.
///
/// Every byte of a match and of the armour line is printable ASCII, so no
/// hit spans a non-printable byte: a walk over a whole binary finds what a
/// walk over each of its printable runs finds, without cutting the runs
/// out first.
pub fn hits(bytes: &[u8]) -> Hits<'_> {
    Hits { bytes, pos: 0 }
}

/// The iterator [`hits`] returns.
#[derive(Debug, Clone)]
pub struct Hits<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Iterator for Hits<'_> {
    type Item = Hit;

    fn next(&mut self) -> Option<Hit> {
        loop {
            let start = next_candidate(self.bytes, self.pos)?;
            self.pos = start + 1;
            let rest = &self.bytes[start..];
            if rest.starts_with(BEGIN_CERT) {
                return Some(Hit::Armour(start));
            }
            let (alg, prefix_len) = if rest.starts_with(b"sha256/") {
                (PinAlgorithm::Sha256, 7)
            } else if rest.starts_with(b"sha1/") {
                (PinAlgorithm::Sha1, 5)
            } else {
                continue;
            };
            let body_start = start + prefix_len;
            let body_len = self.bytes[body_start..]
                .iter()
                .take(MAX_BODY)
                .take_while(|&&b| is_b64_char(b))
                .count();
            if body_len < MIN_BODY {
                continue;
            }
            let end = body_start + body_len;
            self.pos = end;
            return Some(Hit::Pin {
                alg,
                start,
                body_start,
                end,
            });
        }
    }
}

/// Offset of the first `s` or `-` at or after `from`: the only bytes a
/// pin or an armour line can start with.
///
/// Tests eight bytes per step as one word: a byte of `v ^ splat(c)` is
/// zero where `v` holds `c`, and the lowest flag the zero-byte test
/// raises is exact (borrows only run toward higher bytes).
fn next_candidate(bytes: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_bytes = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let is_candidate = |b: u8| b == b's' || b == b'-';
    let tail = bytes.get(from..)?;
    let mut words = tail.chunks_exact(8);
    let mut offset = from;
    for word in &mut words {
        let mut v = [0u8; 8];
        v.copy_from_slice(word);
        let v = u64::from_le_bytes(v);
        let hits = zero_bytes(v ^ (ONES * b's' as u64)) | zero_bytes(v ^ (ONES * b'-' as u64));
        if hits != 0 {
            return Some(offset + hits.trailing_zeros() as usize / 8);
        }
        offset += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| is_candidate(b))
        .map(|i| offset + i)
}

/// Scans `text` for every occurrence of the pin pattern.
pub fn scan_pins(text: &str) -> Vec<PinMatch> {
    hits(text.as_bytes())
        .filter_map(|hit| match hit {
            Hit::Pin {
                alg,
                start,
                body_start,
                end,
            } => Some(PinMatch {
                raw: text.get(start..end)?.to_string(),
                alg,
                body: text.get(body_start..end)?.to_string(),
            }),
            Hit::Armour(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::{b64encode, sha256};

    #[test]
    fn matches_sha256_base64_pin() {
        let digest = sha256(b"spki");
        let pin = format!("sha256/{}", b64encode(&digest));
        let text = format!("config pin = \"{pin}\" end");
        let found = scan_pins(&text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].raw, pin);
        assert_eq!(found[0].alg, PinAlgorithm::Sha256);
        assert!(found[0].parse().is_some());
    }

    #[test]
    fn matches_sha1_pin() {
        let digest = pinning_crypto::sha1::sha1(b"spki");
        let pin = format!("sha1/{}", b64encode(&digest));
        let found = scan_pins(&pin);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].alg, PinAlgorithm::Sha1);
        assert!(found[0].parse().is_some());
    }

    #[test]
    fn rejects_short_bodies() {
        assert!(scan_pins("sha256/AAAA").is_empty());
        assert!(scan_pins("sha1/short=").is_empty());
    }

    #[test]
    fn rejects_other_prefixes() {
        let body = "A".repeat(44);
        assert!(scan_pins(&format!("md5/{body}")).is_empty());
        assert!(scan_pins(&format!("sha512/{body}")).is_empty());
    }

    #[test]
    fn caps_body_at_64_chars() {
        let body = "B".repeat(100);
        let found = scan_pins(&format!("sha256/{body}"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].body.len(), 64);
    }

    #[test]
    fn finds_multiple_pins_in_one_string() {
        let digest = sha256(b"a");
        let p1 = format!("sha256/{}", b64encode(&digest));
        let p2 = format!("sha1/{}", b64encode(&pinning_crypto::sha1::sha1(b"b")));
        let text = format!("{p1};{p2}");
        let found = scan_pins(&text);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn hex_body_matched_but_not_parsed() {
        // A 64-char hex body matches the raw pattern (as in the paper) but
        // is not a valid base64 SPKI pin.
        let hex = pinning_crypto::hex_encode(&sha256(b"x"));
        let found = scan_pins(&format!("sha256/{hex}"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].body.len(), 64);
        assert!(found[0].parse().is_none());
    }

    #[test]
    fn obfuscated_pin_not_matched() {
        // Reversed base64 without the prefix — the world generator's
        // obfuscation — must not match.
        let digest = sha256(b"spki");
        let b64: String = b64encode(&digest).chars().rev().collect();
        assert!(scan_pins(&b64).is_empty());
    }

    #[test]
    fn scanner_is_fast_enough_for_binaries() {
        // Smoke check on a larger haystack.
        let hay = "x".repeat(100_000) + "sha256/" + &"C".repeat(44);
        let found = scan_pins(&hay);
        assert_eq!(found.len(), 1);
    }
}
