//! Property-style tests for the cryptographic primitives, driven by a
//! deterministic SplitMix64 input sweep (no external crates, fully offline).

use pinning_crypto::sha1::Sha1;
use pinning_crypto::sha256::{portable, Sha256};
use pinning_crypto::sig::KeyPair;
use pinning_crypto::{
    b64decode, b64encode, hex_decode, hex_encode, hmac_sha256, sha256, sha256_many, SplitMix64,
};

const CASES: u64 = 200;

fn bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn sha256_streaming_equals_oneshot() {
    let mut rng = SplitMix64::new(0x256);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 1024);
        let n_splits = rng.next_below(6) as usize;
        let mut points: Vec<usize> = (0..n_splits)
            .map(|_| rng.next_below(data.len() as u64 + 1) as usize)
            .collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        let mut h = Sha256::new();
        for w in points.windows(2) {
            h.update(&data[w[0]..w[1]]);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }
}

#[test]
fn sha256_multiblock_fast_path_matches_byte_at_a_time() {
    // The multi-block `update` fast path compresses whole 64-byte blocks
    // straight from the caller's slice. Feeding the same message one byte at
    // a time never triggers that path, so the two must agree for every
    // (length, split-point) combination to prove the fast path is sound.
    let mut rng = SplitMix64::new(0xfa57);
    for _ in 0..CASES {
        // Bias lengths around block boundaries where the fast path kicks in.
        let base = rng.next_below(5) as usize * 64;
        let data = bytes(&mut rng, base + 130);
        let mut reference = Sha256::new();
        for b in &data {
            reference.update(std::slice::from_ref(b));
        }
        let reference = reference.finalize();

        // Random split points: each segment may cover several whole blocks.
        let at = rng.next_below(data.len() as u64 + 1) as usize;
        let mut h = Sha256::new();
        h.update(&data[..at]);
        h.update(&data[at..]);
        assert_eq!(h.finalize(), reference, "len {} split {at}", data.len());
        assert_eq!(sha256(&data), reference, "one-shot len {}", data.len());
    }
}

#[test]
fn sha256_many_matches_individual_hashes() {
    let mut rng = SplitMix64::new(0x3a57);
    for _ in 0..20 {
        let msgs: Vec<Vec<u8>> = (0..rng.next_below(8) + 1)
            .map(|_| bytes(&mut rng, 300))
            .collect();
        let batch = pinning_crypto::sha256::sha256_many(msgs.iter().map(Vec::as_slice));
        let singles: Vec<[u8; 32]> = msgs.iter().map(|m| sha256(m)).collect();
        assert_eq!(batch, singles);
    }
}

// Differential tests: the default block kernel (SHA-NI on builds that
// enable it) against the portable software kernels. CI runs this file on
// both builds, so each kernel is checked against the other wherever the
// default differs, and the portable paths against themselves elsewhere.

#[test]
fn default_kernel_matches_portable_on_random_messages() {
    let mut rng = SplitMix64::new(0xd1ff);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 1024);
        assert_eq!(sha256(&data), portable::sha256(&data), "len {}", data.len());
    }
}

#[test]
fn default_kernel_matches_portable_at_every_padding_boundary() {
    let mut rng = SplitMix64::new(0xb0dd);
    for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129] {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        assert_eq!(sha256(&data), portable::sha256(&data), "len {len}");
    }
}

#[test]
fn default_kernel_streaming_matches_portable() {
    let mut rng = SplitMix64::new(0x5e9);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 1024);
        let mut points: Vec<usize> = (0..rng.next_below(6))
            .map(|_| rng.next_below(data.len() as u64 + 1) as usize)
            .collect();
        points.extend([0, data.len()]);
        points.sort_unstable();
        let mut h = Sha256::new();
        for w in points.windows(2) {
            h.update(&data[w[0]..w[1]]);
        }
        assert_eq!(h.finalize(), portable::sha256(&data), "splits {points:?}");
    }
}

#[test]
fn hmac_sha256_matches_portable_construction() {
    // RFC 2104 spelled out over the portable kernel, keys on both sides of
    // the 64-byte block size (longer keys are hashed first).
    let mut rng = SplitMix64::new(0x4ac2);
    for _ in 0..CASES {
        let key = bytes(&mut rng, 100);
        let msg = bytes(&mut rng, 512);
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&portable::sha256(&key));
        } else {
            k[..key.len()].copy_from_slice(&key);
        }
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(&msg);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&portable::sha256(&inner));
        assert_eq!(hmac_sha256(&key, &msg), portable::sha256(&outer));
    }
}

#[test]
fn sha256_many_matches_portable_on_unequal_batches() {
    let mut rng = SplitMix64::new(0x3a58);
    for _ in 0..40 {
        // Lengths from empty to several blocks, so one 4-lane group mixes
        // lanes that finish at different block counts.
        let msgs: Vec<Vec<u8>> = (0..rng.next_below(11))
            .map(|_| bytes(&mut rng, 400))
            .collect();
        let singles: Vec<[u8; 32]> = msgs.iter().map(|m| portable::sha256(m)).collect();
        assert_eq!(sha256_many(msgs.iter().map(Vec::as_slice)), singles);
        assert_eq!(
            portable::sha256_many(msgs.iter().map(Vec::as_slice)),
            singles
        );
    }
}

#[test]
fn sha1_streaming_equals_oneshot() {
    let mut rng = SplitMix64::new(0x5a1);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 1024);
        let at = rng.next_below(data.len() as u64 + 1) as usize;
        let mut h = Sha1::new();
        h.update(&data[..at]);
        h.update(&data[at..]);
        assert_eq!(h.finalize(), pinning_crypto::sha1::sha1(&data));
    }
}

#[test]
fn b64_roundtrip_and_length() {
    let mut rng = SplitMix64::new(0xb64);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 600);
        let e = b64encode(&data);
        assert_eq!(e.len(), data.len().div_ceil(3) * 4);
        assert_eq!(b64decode(&e).unwrap(), data);
    }
}

#[test]
fn b64_rejects_non_alphabet() {
    // Every 4-char block with one character outside the alphabet must be
    // rejected (sweep the whole single-byte space instead of sampling).
    for c in 0u8..=0x7f {
        let ch = c as char;
        if ch.is_ascii_alphanumeric() || ch == '+' || ch == '/' || ch == '=' {
            continue;
        }
        let s = format!("AA{ch}A");
        if s.len() == 4 {
            assert!(b64decode(&s).is_err(), "accepted invalid char {c:#x}");
        }
    }
}

#[test]
fn hex_roundtrip() {
    let mut rng = SplitMix64::new(0x4e);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 600);
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
    }
}

#[test]
fn hmac_differs_under_different_keys() {
    let mut rng = SplitMix64::new(0x4ac);
    for _ in 0..CASES {
        let mut k1 = bytes(&mut rng, 63);
        k1.push(rng.next_u64() as u8); // non-empty
        let mut k2 = bytes(&mut rng, 63);
        k2.push(rng.next_u64() as u8);
        let msg = bytes(&mut rng, 256);
        if k1 != k2 {
            assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }
    }
}

#[test]
fn splitmix_streams_are_reproducible() {
    let mut rng = SplitMix64::new(0x123);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let tag: String = (0..1 + rng.next_below(12))
            .map(|_| (b'a' + rng.next_below(26) as u8) as char)
            .collect();
        let mut a = SplitMix64::new(seed).derive(&tag);
        let mut b = SplitMix64::new(seed).derive(&tag);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

#[test]
fn splitmix_next_below_bounds() {
    let mut rng = SplitMix64::new(0x456);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let bound = 1 + rng.next_below(9_999);
        let mut g = SplitMix64::new(seed);
        for _ in 0..32 {
            assert!(g.next_below(bound) < bound);
        }
    }
}

#[test]
fn signatures_verify_and_bind_to_message() {
    let mut rng = SplitMix64::new(0x519);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let msg = bytes(&mut rng, 256);
        let other = bytes(&mut rng, 256);
        let kp = KeyPair::generate(&mut SplitMix64::new(seed));
        let sig = kp.sign(&msg);
        assert!(kp.public.verify(&msg, &sig));
        if msg != other {
            assert!(!kp.public.verify(&other, &sig));
        }
    }
}

#[test]
fn text_decoders_never_panic_on_arbitrary_ascii() {
    let mut rng = SplitMix64::new(0xa5c2);
    let glyphs: Vec<u8> = (0x20u8..0x7f).collect();
    for _ in 0..CASES * 4 {
        let len = rng.next_below(200) as usize;
        let s: String = (0..len)
            .map(|_| glyphs[rng.next_below(glyphs.len() as u64) as usize] as char)
            .collect();
        let _ = b64decode(&s);
        let _ = hex_decode(&s);
    }
}

#[test]
fn bounded_decoders_respect_the_cap_exactly() {
    use pinning_crypto::base64::B64Error;
    use pinning_crypto::hex::HexError;
    use pinning_crypto::{b64decode_bounded, hex_decode_bounded};
    let mut rng = SplitMix64::new(0xa5c3);
    for _ in 0..CASES {
        let cap = 8 + rng.next_below(64) as usize;
        let at_cap = "A".repeat(cap);
        let over_cap = "A".repeat(cap + 1);
        // At the cap: the decoder runs (outcome depends on validity).
        assert!(!matches!(
            b64decode_bounded(&at_cap, cap),
            Err(B64Error::TooLong { .. })
        ));
        assert!(!matches!(
            hex_decode_bounded(&at_cap, cap),
            Err(HexError::TooLong { .. })
        ));
        // One past the cap: rejected before any decoding work.
        assert!(matches!(
            b64decode_bounded(&over_cap, cap),
            Err(B64Error::TooLong { .. })
        ));
        assert!(matches!(
            hex_decode_bounded(&over_cap, cap),
            Err(HexError::TooLong { .. })
        ));
    }
}
