//! Deterministic DER-like binary encoding and PEM framing.
//!
//! Real DER is a general-purpose ASN.1 encoding; our certificates need only
//! a fixed schema, so we use a simple tag-length-value format with one-byte
//! tags and 32-bit big-endian lengths. What matters for the reproduction:
//!
//! * encoding is **deterministic** — equal certificates produce equal bytes,
//!   so fingerprints and raw-certificate pins are stable;
//! * the PEM framing uses the exact delimiters
//!   (`-----BEGIN CERTIFICATE-----`) that the paper's static scanner
//!   searches for (§4.1.2);
//! * certificates round-trip, because static analysis *parses back* the
//!   blobs it finds in app packages: decoding `to_der(c)` yields `c`, and
//!   decoding any accepted input yields a certificate whose encoding is
//!   the input itself exactly when the input is *canonical*.
//!
//! Canonical means what [`Reader::is_canonical`] checks: no unconsumed
//! bytes at any nesting level, each BOOL byte 0 or 1, each NONE empty.
//! The fixed 4-byte lengths and 8-byte integers leave no other freedom,
//! so a canonical input is the one encoding of what it decodes to, and
//! its SHA-256 is that certificate's fingerprint. Non-canonical input is
//! accepted rather than rejected. The decoder has always accepted it, and
//! the mutated requests of the serving traces carry it: 16 requests of
//! the frozen-hash trace in `tests/ctlog.rs`, and 51 certificates of the
//! first seed-101 trace of the `serve` benchmark, decode to a certificate
//! without being its encoding. Each of those gets a real verdict, and
//! rejecting them would change frozen answers. A certificate decoded from
//! such input is re-encoded when its encoding is asked for.

use crate::error::DecodeError;
use crate::limits::{Budget, Limit};
use pinning_crypto::base64::{b64decode, b64encode};

/// Tags used by the encoding.
pub mod tag {
    /// Outer certificate structure.
    pub const CERTIFICATE: u8 = 0x30;
    /// To-be-signed body.
    pub const TBS: u8 = 0x31;
    /// Signature value.
    pub const SIGNATURE: u8 = 0x32;
    /// Distinguished name.
    pub const NAME: u8 = 0x33;
    /// UTF-8 string.
    pub const STRING: u8 = 0x34;
    /// Unsigned 64-bit integer.
    pub const U64: u8 = 0x35;
    /// Raw byte string.
    pub const BYTES: u8 = 0x36;
    /// List (count-prefixed sequence of values).
    pub const LIST: u8 = 0x37;
    /// Boolean.
    pub const BOOL: u8 = 0x38;
    /// Optional: present.
    pub const SOME: u8 = 0x39;
    /// Optional: absent.
    pub const NONE: u8 = 0x3a;
}

/// Append-only TLV writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn tlv(&mut self, t: u8, value: &[u8]) {
        self.buf.push(t);
        self.buf
            .extend_from_slice(&(value.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(value);
    }

    /// Writes a tagged u64.
    pub fn u64(&mut self, v: u64) {
        self.tlv(tag::U64, &v.to_be_bytes());
    }

    /// Writes a tagged UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.tlv(tag::STRING, s.as_bytes());
    }

    /// Writes a tagged byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.tlv(tag::BYTES, b);
    }

    /// Writes a tagged boolean.
    pub fn boolean(&mut self, v: bool) {
        self.tlv(tag::BOOL, &[v as u8]);
    }

    /// Writes an optional u64.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                let mut inner = Writer::new();
                inner.u64(x);
                self.tlv(tag::SOME, &inner.into_bytes());
            }
            None => self.tlv(tag::NONE, &[]),
        }
    }

    /// Writes a nested structure under `t` using `f` to fill it.
    pub fn nested(&mut self, t: u8, f: impl FnOnce(&mut Writer)) {
        let mut inner = Writer::new();
        f(&mut inner);
        self.tlv(t, &inner.into_bytes());
    }

    /// Writes a list of items under [`tag::LIST`].
    pub fn list<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Writer, &T)) {
        let mut inner = Writer::new();
        inner.u64(items.len() as u64);
        for item in items {
            f(&mut inner, item);
        }
        self.tlv(tag::LIST, &inner.into_bytes());
    }
}

/// Cursor-based TLV reader.
///
/// Every reader enforces a [`Budget`]: total input size, nesting depth, and
/// a per-parse work counter. [`Reader::new`] applies [`Budget::STANDARD`];
/// [`Reader::with_budget`] takes an explicit one. A budget trip surfaces as
/// [`DecodeError::LimitExceeded`], never a panic or an unbounded loop.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
    budget: Budget,
    depth: usize,
    work: u64,
    /// Cleared by anything read in a non-canonical form (see
    /// [`Reader::is_canonical`]); never an error.
    canonical: bool,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input` under [`Budget::STANDARD`].
    pub fn new(input: &'a [u8]) -> Self {
        Reader::with_budget(input, Budget::STANDARD)
    }

    /// Creates a reader over `input` under an explicit `budget`.
    pub fn with_budget(input: &'a [u8], budget: Budget) -> Self {
        Reader {
            input,
            pos: 0,
            budget,
            depth: 0,
            work: 0,
            canonical: true,
        }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len().saturating_sub(self.pos)
    }

    /// Whether everything read so far was in canonical form and nothing is
    /// left: every byte consumed, here and inside every structure entered
    /// through [`Reader::nested_with`], [`Reader::list`] or
    /// [`Reader::opt_u64`]; each BOOL byte 0 or 1; each NONE empty.
    /// Canonical input is exactly what [`Writer`] writes for the values read.
    pub fn is_canonical(&self) -> bool {
        self.canonical && self.is_empty()
    }

    /// Charges one unit of decode work and enforces the input-size and
    /// work limits (checked here so that every primitive read pays it).
    fn charge(&mut self) -> Result<(), DecodeError> {
        if self.input.len() > self.budget.max_input_bytes {
            return Err(DecodeError::LimitExceeded(Limit::InputBytes));
        }
        self.work += 1;
        if self.work > self.budget.max_work {
            return Err(DecodeError::LimitExceeded(Limit::Work));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.input.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn header(&mut self, expected: u8) -> Result<usize, DecodeError> {
        self.charge()?;
        let t = self.take(1)?[0];
        if t != expected {
            return Err(DecodeError::UnexpectedTag { expected, found: t });
        }
        let len_bytes = self.take(4)?;
        let len =
            u32::from_be_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        if self.pos + len > self.input.len() {
            return Err(DecodeError::BadLength);
        }
        Ok(len)
    }

    /// Reads a tagged u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let len = self.header(tag::U64)?;
        if len != 8 {
            return Err(DecodeError::BadFieldSize);
        }
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a tagged UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.header(tag::STRING)?;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a tagged byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Reads a tagged byte string, borrowed from the input.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.header(tag::BYTES)?;
        self.take(len)
    }

    /// Reads a tagged byte string into a fixed-size array.
    pub fn bytes_fixed<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let v = self.bytes_ref()?;
        v.try_into().map_err(|_| DecodeError::BadFieldSize)
    }

    /// Reads a tagged boolean: zero is `false`, any other byte `true`.
    pub fn boolean(&mut self) -> Result<bool, DecodeError> {
        let len = self.header(tag::BOOL)?;
        if len != 1 {
            return Err(DecodeError::BadFieldSize);
        }
        let b = self.take(1)?[0];
        self.canonical &= b <= 1;
        Ok(b != 0)
    }

    /// Reads an optional u64.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        let t = *self.input.get(self.pos).ok_or(DecodeError::Truncated)?;
        match t {
            tag::SOME => {
                let len = self.header(tag::SOME)?;
                let body = self.take(len)?;
                let mut inner = self.child(body)?;
                let v = inner.u64()?;
                self.canonical &= inner.is_canonical();
                Ok(Some(v))
            }
            tag::NONE => {
                // A NONE body stays unread, for the next read to meet.
                let len = self.header(tag::NONE)?;
                self.canonical &= len == 0;
                Ok(None)
            }
            found => Err(DecodeError::UnexpectedTag {
                expected: tag::SOME,
                found,
            }),
        }
    }

    /// Builds a sub-reader over `body` one nesting level deeper, enforcing
    /// the depth limit.
    fn child(&self, body: &'a [u8]) -> Result<Reader<'a>, DecodeError> {
        if self.depth + 1 > self.budget.max_depth {
            return Err(DecodeError::LimitExceeded(Limit::Depth));
        }
        Ok(Reader {
            input: body,
            pos: 0,
            budget: self.budget,
            depth: self.depth + 1,
            work: self.work,
            canonical: true,
        })
    }

    /// Enters a nested structure tagged `t`, returning a sub-reader.
    pub fn nested(&mut self, t: u8) -> Result<Reader<'a>, DecodeError> {
        let len = self.header(t)?;
        let body = self.take(len)?;
        self.child(body)
    }

    /// Reads a nested structure tagged `t` with `f` (the mirror of
    /// [`Writer::nested`]). Whatever `f` leaves unread, or reads in a
    /// non-canonical form, makes this reader non-canonical.
    pub fn nested_with<T>(
        &mut self,
        t: u8,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let mut inner = self.nested(t)?;
        let v = f(&mut inner)?;
        self.canonical &= inner.is_canonical();
        Ok(v)
    }

    /// Reads a list, calling `f` once per element.
    ///
    /// A lying element count cannot drive allocation: every element consumes
    /// at least one input byte, so a count larger than the remaining input is
    /// rejected up front and pre-allocation is capped at the remaining input
    /// size.
    pub fn list<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut inner = self.nested(tag::LIST)?;
        let n = inner.u64()? as usize;
        if n > inner.remaining() {
            return Err(DecodeError::BadLength);
        }
        let mut out = Vec::with_capacity(n.min(inner.remaining()));
        for _ in 0..n {
            out.push(f(&mut inner)?);
        }
        self.canonical &= inner.is_canonical();
        Ok(out)
    }
}

/// The PEM begin delimiter for certificates (the literal string the paper's
/// scanner searches for).
pub const PEM_BEGIN_CERT: &str = "-----BEGIN CERTIFICATE-----";
/// The PEM end delimiter for certificates.
pub const PEM_END_CERT: &str = "-----END CERTIFICATE-----";

/// Wraps DER bytes in PEM framing with 64-character base64 lines.
pub fn pem_encode(der: &[u8]) -> String {
    let b64 = b64encode(der);
    let mut out = String::with_capacity(b64.len() + 64);
    out.push_str(PEM_BEGIN_CERT);
    out.push('\n');
    let mut line_len = 0;
    for c in b64.chars() {
        out.push(c);
        line_len += 1;
        if line_len == 64 {
            out.push('\n');
            line_len = 0;
        }
    }
    if line_len > 0 {
        out.push('\n');
    }
    out.push_str(PEM_END_CERT);
    out.push('\n');
    out
}

/// Extracts the DER bodies of every `CERTIFICATE` PEM block in `text`.
///
/// Tolerates leading/trailing junk around blocks (app packages interleave
/// PEM with other asset content). Returns an error if a BEGIN has no END or
/// a body fails to base64-decode. Runs under [`Budget::STANDARD`]; see
/// [`pem_decode_all_with_budget`] for an explicit budget.
pub fn pem_decode_all(text: &str) -> Result<Vec<Vec<u8>>, DecodeError> {
    pem_decode_all_with_budget(text, &Budget::STANDARD)
}

/// [`pem_decode_all`] under an explicit [`Budget`]: rejects oversized inputs
/// before scanning and bounds each block's base64 decode by the remaining
/// budget.
pub fn pem_decode_all_with_budget(
    text: &str,
    budget: &Budget,
) -> Result<Vec<Vec<u8>>, DecodeError> {
    if text.len() > budget.max_input_bytes {
        return Err(DecodeError::LimitExceeded(Limit::InputBytes));
    }
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(PEM_BEGIN_CERT) {
        let after_begin = &rest[start + PEM_BEGIN_CERT.len()..];
        let end = after_begin.find(PEM_END_CERT).ok_or(DecodeError::BadPem)?;
        let body: String = after_begin[..end]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let der = b64decode(&body).map_err(|_| DecodeError::BadPemBase64)?;
        out.push(der);
        rest = &after_begin[end + PEM_END_CERT.len()..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let mut w = Writer::new();
        w.u64(0xdead_beef_cafe_f00d);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64().unwrap(), 0xdead_beef_cafe_f00d);
        assert!(r.is_empty());
    }

    #[test]
    fn string_roundtrip() {
        let mut w = Writer::new();
        w.string("api.example.com");
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).string().unwrap(), "api.example.com");
    }

    #[test]
    fn list_roundtrip() {
        let items = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let mut w = Writer::new();
        w.list(&items, |w, s| w.string(s));
        let bytes = w.into_bytes();
        let got = Reader::new(&bytes).list(|r| r.string()).unwrap();
        assert_eq!(got, items);
    }

    #[test]
    fn opt_roundtrip() {
        for v in [None, Some(7u64)] {
            let mut w = Writer::new();
            w.opt_u64(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).opt_u64().unwrap(), v);
        }
    }

    #[test]
    fn nested_roundtrip() {
        let mut w = Writer::new();
        w.nested(tag::TBS, |w| {
            w.u64(1);
            w.boolean(true);
        });
        let bytes = w.into_bytes();
        let mut outer = Reader::new(&bytes);
        let mut inner = outer.nested(tag::TBS).unwrap();
        assert_eq!(inner.u64().unwrap(), 1);
        assert!(inner.boolean().unwrap());
        assert!(inner.is_empty());
    }

    #[test]
    fn canonical_input_is_what_the_writer_writes() {
        let mut w = Writer::new();
        w.nested(tag::TBS, |w| {
            w.boolean(true);
            w.opt_u64(None);
            w.opt_u64(Some(3));
            w.list(&[1u64, 2], |w, v| w.u64(*v));
        });
        let read = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let v = r.nested_with(tag::TBS, |t| {
                Ok((
                    t.boolean()?,
                    t.opt_u64()?,
                    t.opt_u64()?,
                    t.list(|r| r.u64())?,
                ))
            });
            (v, r.is_canonical())
        };
        let bytes = w.into_bytes();
        let (v, canonical) = read(&bytes);
        assert_eq!(v, Ok((true, None, Some(3), vec![1, 2])));
        assert!(canonical);

        // One trailing byte: same values, not canonical.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(read(&trailing), (v.clone(), false));

        // BOOL byte 2 reads as `true`, not canonically.
        let mut two = bytes.clone();
        let at = bytes
            .windows(6)
            .position(|b| b == [tag::BOOL, 0, 0, 0, 1, 1]);
        two[at.expect("bool TLV") + 5] = 2;
        assert_eq!(read(&two), (v, false));
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).string(),
            Err(DecodeError::UnexpectedTag {
                expected: tag::STRING,
                found: tag::U64
            })
        );
    }

    #[test]
    fn truncation_rejected() {
        let mut w = Writer::new();
        w.bytes(&[1, 2, 3, 4, 5]);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes[..4]).bytes(),
            Err(DecodeError::Truncated)
        );
        // Header claims 5 bytes but body cut short → BadLength.
        assert_eq!(
            Reader::new(&bytes[..7]).bytes(),
            Err(DecodeError::BadLength)
        );
    }

    #[test]
    fn pem_roundtrip_single() {
        let der = vec![9u8; 100];
        let pem = pem_encode(&der);
        assert!(pem.starts_with(PEM_BEGIN_CERT));
        assert!(pem.trim_end().ends_with(PEM_END_CERT));
        assert_eq!(pem_decode_all(&pem).unwrap(), vec![der]);
    }

    #[test]
    fn pem_roundtrip_multiple_with_junk() {
        let a = vec![1u8; 10];
        let b = vec![2u8; 200];
        let text = format!(
            "garbage\n{}\nmiddle junk{}\ntrailing",
            pem_encode(&a),
            pem_encode(&b)
        );
        assert_eq!(pem_decode_all(&text).unwrap(), vec![a, b]);
    }

    #[test]
    fn pem_unterminated_rejected() {
        let text = format!("{PEM_BEGIN_CERT}\nAAAA\n");
        assert_eq!(pem_decode_all(&text), Err(DecodeError::BadPem));
    }

    #[test]
    fn pem_bad_base64_rejected() {
        let text = format!("{PEM_BEGIN_CERT}\n!!!!\n{PEM_END_CERT}\n");
        assert_eq!(pem_decode_all(&text), Err(DecodeError::BadPemBase64));
    }

    #[test]
    fn pem_lines_are_64_chars() {
        let pem = pem_encode(&[7u8; 120]);
        for line in pem.lines() {
            if !line.starts_with("-----") {
                assert!(line.len() <= 64);
            }
        }
    }

    #[test]
    fn lying_list_count_rejected_without_allocation() {
        // Hand-craft a LIST whose count field claims 2^60 elements but whose
        // body holds nothing: the reader must reject it up front instead of
        // pre-allocating.
        let mut inner = Writer::new();
        inner.u64(1u64 << 60);
        let mut w = Writer::new();
        w.tlv(tag::LIST, &inner.into_bytes());
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).list(|r| r.u64()),
            Err(DecodeError::BadLength)
        );
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Build nesting deeper than the strict budget allows.
        let strict = Budget::strict();
        let mut body = Writer::new();
        body.u64(7);
        let mut bytes = body.into_bytes();
        for _ in 0..strict.max_depth + 2 {
            let mut w = Writer::new();
            w.tlv(tag::TBS, &bytes);
            bytes = w.into_bytes();
        }
        let mut r = Reader::with_budget(&bytes, strict);
        let mut result = Ok(());
        for _ in 0..strict.max_depth + 2 {
            match r.nested(tag::TBS) {
                Ok(inner) => r = inner,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert_eq!(result, Err(DecodeError::LimitExceeded(Limit::Depth)));
    }

    #[test]
    fn oversized_input_rejected() {
        let tight = Budget {
            max_input_bytes: 8,
            ..Budget::strict()
        };
        let mut w = Writer::new();
        w.bytes(&[0u8; 32]);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::with_budget(&bytes, tight).bytes(),
            Err(DecodeError::LimitExceeded(Limit::InputBytes))
        );
    }

    #[test]
    fn work_budget_is_enforced() {
        let tight = Budget {
            max_work: 4,
            ..Budget::strict()
        };
        let items: Vec<u64> = (0..16).collect();
        let mut w = Writer::new();
        w.list(&items, |w, v| w.u64(*v));
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::with_budget(&bytes, tight).list(|r| r.u64()),
            Err(DecodeError::LimitExceeded(Limit::Work))
        );
    }

    #[test]
    fn pem_empty_der_roundtrip() {
        let pem = pem_encode(&[]);
        assert_eq!(pem_decode_all(&pem).unwrap(), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn pem_budget_rejects_oversized_input() {
        let tight = Budget {
            max_input_bytes: 16,
            ..Budget::strict()
        };
        let text = pem_encode(&[1u8; 64]);
        assert_eq!(
            pem_decode_all_with_budget(&text, &tight),
            Err(DecodeError::LimitExceeded(Limit::InputBytes))
        );
    }
}
