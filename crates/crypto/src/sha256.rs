//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used for SPKI pins (`sha256/<base64>`), certificate fingerprints, and the
//! simulated signature scheme. The implementation is a straightforward
//! streaming Merkle–Damgård construction; it favours clarity over speed but
//! still hashes the whole simulated ecosystem in well under a second.

/// Streaming SHA-256 hasher.
///
/// ```
/// use pinning_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     pinning_crypto::hex::hex_encode(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Rewinds the hasher to its initial state so the allocationless struct
    /// can be reused across a batch of independent messages.
    pub fn reset(&mut self) {
        self.state = H0;
        self.len = 0;
        self.buf_len = 0;
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill any partial block first.
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
        // Whole blocks are compressed straight from the input slice; only the
        // partial head/tail ever touches `buf`.
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("chunks_exact yields 64 bytes"));
        }
        data = blocks.remainder();
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        crate::md::pad_final(self.buf, self.buf_len, bit_len, |block| {
            self.compress(block)
        });
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress1(&mut self.state, block);
    }
}

fn compress1(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Lanes in the interleaved multi-buffer compressor.
const LANES: usize = 4;

/// A 4-lane u32 vector: one word from each of four independent hash
/// states. Every helper is an elementwise map, which LLVM lowers to
/// 4×32-bit SIMD (SSE2 is the x86-64 baseline); without vectorization the
/// four independent dependency chains still fill the ALU slots a single
/// SHA-256 chain leaves idle.
#[derive(Clone, Copy)]
struct V4([u32; LANES]);

impl V4 {
    const ZERO: V4 = V4([0; LANES]);

    #[inline(always)]
    fn splat(x: u32) -> V4 {
        V4([x; LANES])
    }

    #[inline(always)]
    fn add(self, o: V4) -> V4 {
        V4(std::array::from_fn(|l| self.0[l].wrapping_add(o.0[l])))
    }

    #[inline(always)]
    fn xor(self, o: V4) -> V4 {
        V4(std::array::from_fn(|l| self.0[l] ^ o.0[l]))
    }

    #[inline(always)]
    fn and(self, o: V4) -> V4 {
        V4(std::array::from_fn(|l| self.0[l] & o.0[l]))
    }

    #[inline(always)]
    fn andnot(self, o: V4) -> V4 {
        V4(std::array::from_fn(|l| !self.0[l] & o.0[l]))
    }

    #[inline(always)]
    fn rotr(self, n: u32) -> V4 {
        V4(std::array::from_fn(|l| self.0[l].rotate_right(n)))
    }

    #[inline(always)]
    fn shr(self, n: u32) -> V4 {
        V4(std::array::from_fn(|l| self.0[l] >> n))
    }
}

/// One SHA-256 compression over four independent states at once.
fn compress4(states: &mut [[u32; 8]; LANES], blocks: &[[u8; 64]; LANES]) {
    let mut w = [V4::ZERO; 64];
    for (i, wi) in w.iter_mut().take(16).enumerate() {
        let mut r = [0u32; LANES];
        for l in 0..LANES {
            let b = &blocks[l];
            r[l] = u32::from_be_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]);
        }
        *wi = V4(r);
    }
    for i in 16..64 {
        let w15 = w[i - 15];
        let w2 = w[i - 2];
        let s0 = w15.rotr(7).xor(w15.rotr(18)).xor(w15.shr(3));
        let s1 = w2.rotr(17).xor(w2.rotr(19)).xor(w2.shr(10));
        w[i] = w[i - 16].add(s0).add(w[i - 7]).add(s1);
    }

    let mut v = [V4::ZERO; 8];
    for (j, var) in v.iter_mut().enumerate() {
        let mut r = [0u32; LANES];
        for l in 0..LANES {
            r[l] = states[l][j];
        }
        *var = V4(r);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
    for i in 0..64 {
        let s1 = e.rotr(6).xor(e.rotr(11)).xor(e.rotr(25));
        let ch = e.and(f).xor(e.andnot(g));
        let t1 = h.add(s1).add(ch).add(V4::splat(K[i])).add(w[i]);
        let s0 = a.rotr(2).xor(a.rotr(13)).xor(a.rotr(22));
        let maj = a.and(b).xor(a.and(c)).xor(b.and(c));
        let t2 = s0.add(maj);
        h = g;
        g = f;
        f = e;
        e = d.add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.add(t2);
    }

    for (j, var) in [a, b, c, d, e, f, g, h].iter().enumerate() {
        for (l, state) in states.iter_mut().enumerate() {
            state[j] = state[j].wrapping_add(var.0[l]);
        }
    }
}

/// Number of 64-byte blocks in the padded form of an `len`-byte message.
fn n_padded_blocks(len: usize) -> usize {
    len / 64 + if len % 64 >= 56 { 2 } else { 1 }
}

/// Materializes block `k` of the padded message (message bytes, then the
/// 0x80 marker, zeros, and the big-endian bit length in the final block).
fn fill_padded_block(msg: &[u8], k: usize, total: usize, out: &mut [u8; 64]) {
    let off = k * 64;
    let len = msg.len();
    *out = [0u8; 64];
    if off < len {
        let n = (len - off).min(64);
        out[..n].copy_from_slice(&msg[off..off + n]);
    }
    if (off..off + 64).contains(&len) {
        out[len - off] = 0x80;
    }
    if k + 1 == total {
        out[56..].copy_from_slice(&((len as u64).wrapping_mul(8)).to_be_bytes());
    }
}

/// Hashes four messages with the interleaved compressor: lanes advance in
/// lockstep while every lane still has a padded block left (the common
/// batch shape — near-equal lengths — stays 4-wide end to end), then the
/// longer lanes finish on the scalar path.
fn sha256x4(msgs: [&[u8]; LANES]) -> [[u8; 32]; LANES] {
    let totals = msgs.map(|m| n_padded_blocks(m.len()));
    let lockstep = *totals.iter().min().expect("LANES > 0");
    let mut states = [H0; LANES];
    let mut bufs = [[0u8; 64]; LANES];
    for k in 0..lockstep {
        for l in 0..LANES {
            fill_padded_block(msgs[l], k, totals[l], &mut bufs[l]);
        }
        compress4(&mut states, &bufs);
    }
    for l in 0..LANES {
        for k in lockstep..totals[l] {
            fill_padded_block(msgs[l], k, totals[l], &mut bufs[l]);
            compress1(&mut states[l], &bufs[l]);
        }
    }
    let mut out = [[0u8; 32]; LANES];
    for l in 0..LANES {
        for (i, word) in states[l].iter().enumerate() {
            out[l][i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
    }
    out
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sha256")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over a batch of independent messages.
///
/// Groups the batch four messages at a time through the interleaved
/// multi-buffer compressor (`compress4`), which runs four independent
/// compression states in lockstep; the ≤3-message remainder takes the
/// scalar path. Digests are returned in input order.
pub fn sha256_many<'a, I>(inputs: I) -> Vec<[u8; 32]>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let msgs: Vec<&[u8]> = inputs.into_iter().collect();
    let mut out = Vec::with_capacity(msgs.len());
    let mut groups = msgs.chunks_exact(LANES);
    for group in &mut groups {
        out.extend(sha256x4([group[0], group[1], group[2], group[3]]));
    }
    out.extend(groups.remainder().iter().map(|m| sha256(m)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::hex_encode;

    fn hash_hex(data: &[u8]) -> String {
        hex_encode(&sha256(data))
    }

    #[test]
    fn fips_empty() {
        assert_eq!(
            hash_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_abc() {
        assert_eq!(
            hash_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_448_bits() {
        assert_eq!(
            hash_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_896_bits() {
        assert_eq!(
            hash_hex(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex_encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_across_split_points() {
        let data: Vec<u8> = (0u32..300).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for split in [0usize, 1, 63, 64, 65, 127, 128, 200, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn oneshot_bytewise_and_batched_agree_for_every_length() {
        // `sha256_many` pads through its own `fill_padded_block`, so it is
        // an independent check of `finalize`'s padding at every boundary.
        let msgs: Vec<Vec<u8>> = (0..=200usize)
            .map(|n| (0..n).map(|i| (i * 31 % 251) as u8).collect())
            .collect();
        let batched = sha256_many(msgs.iter().map(|m| m.as_slice()));
        for (msg, many) in msgs.iter().zip(&batched) {
            let mut h = Sha256::new();
            for b in msg {
                h.update(&[*b]);
            }
            let oneshot = sha256(msg);
            assert_eq!(h.finalize(), oneshot, "bytewise, len {}", msg.len());
            assert_eq!(*many, oneshot, "batched, len {}", msg.len());
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"pin-a"), sha256(b"pin-b"));
    }

    #[test]
    fn many_matches_oneshot_across_padding_boundaries() {
        // Lengths straddling every padding case: empty, short, exactly one
        // block, the 55/56/63/64 marker boundaries, and multi-block.
        let lengths = [
            0usize, 1, 3, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 300,
        ];
        let msgs: Vec<Vec<u8>> = lengths
            .iter()
            .map(|&n| (0..n).map(|i| (i % 251) as u8).collect())
            .collect();
        let batched = sha256_many(msgs.iter().map(|m| m.as_slice()));
        assert_eq!(batched.len(), msgs.len());
        for (msg, digest) in msgs.iter().zip(&batched) {
            assert_eq!(*digest, sha256(msg), "len {}", msg.len());
        }
    }

    #[test]
    fn many_handles_unequal_lane_lengths_in_one_group() {
        // One 4-wide group whose lanes exhaust at different block counts:
        // the lockstep prefix plus per-lane scalar tails must all agree.
        let msgs: Vec<Vec<u8>> = vec![vec![7u8; 10], vec![8u8; 500], vec![9u8; 64], vec![1u8; 200]];
        let batched = sha256_many(msgs.iter().map(|m| m.as_slice()));
        for (msg, digest) in msgs.iter().zip(&batched) {
            assert_eq!(*digest, sha256(msg));
        }
    }

    #[test]
    fn many_remainder_sizes() {
        for n in 0..9usize {
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 40 + i]).collect();
            let batched = sha256_many(msgs.iter().map(|m| m.as_slice()));
            assert_eq!(batched.len(), n);
            for (msg, digest) in msgs.iter().zip(&batched) {
                assert_eq!(*digest, sha256(msg));
            }
        }
    }
}
