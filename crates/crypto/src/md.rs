//! The Merkle–Damgård length padding shared by SHA-1 and SHA-256.

/// Pads the buffered tail and compresses the final block(s): the 0x80
/// marker after the `buf_len` buffered bytes, zeros, then `bit_len` as a
/// 64-bit big-endian integer. The hashers keep `buf_len < 64`, so the
/// marker always fits; the length needs a block of its own when the
/// marker lands past byte 55.
pub(crate) fn pad_final(
    mut buf: [u8; 64],
    buf_len: usize,
    bit_len: u64,
    mut compress: impl FnMut(&[u8; 64]),
) {
    buf[buf_len] = 0x80;
    buf[buf_len + 1..].fill(0);
    if buf_len >= 56 {
        compress(&buf);
        buf = [0; 64];
    }
    buf[56..].copy_from_slice(&bit_len.to_be_bytes());
    compress(&buf);
}
