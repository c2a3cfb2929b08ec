//! SHA-1 (FIPS 180-4), implemented from scratch.
//!
//! SHA-1 is cryptographically broken, but it still appears in the pinning
//! ecosystem the paper measures: HPKP-era `sha1/<base64>` pins, OkHttp's
//! legacy pin syntax, and old DANE deployments. The paper's static scanner
//! explicitly searches for `sha(1|256)/...` strings, so we need the real
//! digest to plant and recover SHA-1 pins.

/// Streaming SHA-1 hasher.
///
/// ```
/// use pinning_crypto::sha1::sha1;
/// assert_eq!(
///     pinning_crypto::hex::hex_encode(&sha1(b"abc")),
///     "a9993e364706816aba3e25717850c26c9cd0d89d",
/// );
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

const H0: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        crate::md::pad_final(self.buf, self.buf_len, bit_len, |block| {
            self.compress(block)
        });
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5a827999u32),
                20..=39 => (b ^ c ^ d, 0x6ed9eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                _ => (b ^ c ^ d, 0xca62c1d6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = t;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Sha1 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sha1")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// One-shot SHA-1.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::hex_encode;

    #[test]
    fn fips_empty() {
        assert_eq!(
            hex_encode(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn fips_abc() {
        assert_eq!(
            hex_encode(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_448_bits() {
        assert_eq!(
            hex_encode(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex_encode(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    /// SHA-1 by the book: materialize the padded message, then compress
    /// it block by block.
    fn sha1_reference(msg: &[u8]) -> [u8; 20] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut h = Sha1::new();
        for block in padded.chunks_exact(64) {
            h.compress(block.try_into().expect("64-byte block"));
        }
        let mut out = [0u8; 20];
        for (i, word) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn oneshot_bytewise_and_reference_agree_for_every_length() {
        for n in 0..=200usize {
            let msg: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            let mut h = Sha1::new();
            for b in &msg {
                h.update(&[*b]);
            }
            let oneshot = sha1(&msg);
            assert_eq!(h.finalize(), oneshot, "bytewise, len {n}");
            assert_eq!(sha1_reference(&msg), oneshot, "reference, len {n}");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0u32..500).map(|i| (i * 7 % 256) as u8).collect();
        let oneshot = sha1(&data);
        for split in [0usize, 1, 63, 64, 65, 130, 499, 500] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }
}
