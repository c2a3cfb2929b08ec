//! App packages: the artifact static analysis scans.
//!
//! A package is a flat list of files (paths matter — attribution groups on
//! them). iOS packages come FairPlay-encrypted: scanning one without
//! decrypting first sees only ciphertext, reproducing why the paper needed
//! Flexdecrypt/Frida-iOS-Dump and a jailbroken device (§4.1.2, Appendix A).

use crate::platform::Platform;
use pinning_crypto::SplitMix64;

/// File content: text (configs, PEM) or binary (DER, dex, Mach-O).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileContent {
    /// UTF-8 text.
    Text(String),
    /// Raw bytes.
    Binary(Vec<u8>),
}

impl FileContent {
    /// Content as bytes (text is UTF-8).
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            FileContent::Text(s) => s.as_bytes(),
            FileContent::Binary(b) => b,
        }
    }

    /// Content as text, if valid UTF-8.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            FileContent::Text(s) => Some(s),
            FileContent::Binary(b) => core::str::from_utf8(b).ok(),
        }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether content is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content, borrowed.
    pub fn view(&self) -> ContentRef<'_> {
        match self {
            FileContent::Text(s) => ContentRef::Text(s),
            FileContent::Binary(b) => ContentRef::Binary(b),
        }
    }
}

/// Borrowed file content: what static analysis reads, whether it is a
/// file's own bytes or its plaintext in a reused decryption buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentRef<'a> {
    /// UTF-8 text.
    Text(&'a str),
    /// Raw bytes.
    Binary(&'a [u8]),
}

impl<'a> ContentRef<'a> {
    /// Content as text, if valid UTF-8 (as [`FileContent::as_text`]).
    pub fn as_text(self) -> Option<&'a str> {
        match self {
            ContentRef::Text(s) => Some(s),
            ContentRef::Binary(b) => core::str::from_utf8(b).ok(),
        }
    }
}

/// One file inside a package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppFile {
    /// Package-relative path, `/`-separated.
    pub path: String,
    /// Content.
    pub content: FileContent,
}

impl AppFile {
    /// Creates a text file.
    pub fn text(path: impl Into<String>, content: impl Into<String>) -> Self {
        AppFile {
            path: path.into(),
            content: FileContent::Text(content.into()),
        }
    }

    /// Creates a binary file.
    pub fn binary(path: impl Into<String>, content: Vec<u8>) -> Self {
        AppFile {
            path: path.into(),
            content: FileContent::Binary(content),
        }
    }

    /// File extension, as written in the path (compare it with
    /// `eq_ignore_ascii_case`), if any.
    pub fn extension(&self) -> Option<&str> {
        let name = self.path.rsplit('/').next()?;
        let (_, ext) = name.rsplit_once('.')?;
        Some(ext)
    }
}

/// A complete app package.
#[derive(Debug, Clone)]
pub struct AppPackage {
    /// Platform the package targets.
    pub platform: Platform,
    /// Files, in build order.
    pub files: Vec<AppFile>,
    /// Whether binaries are FairPlay-style encrypted (iOS store downloads).
    pub encrypted: bool,
    /// Memoized [`AppPackage::content_hash`]. Clones share the cell
    /// (same content, same hash); `encrypt`/`decrypt` replace it.
    hash_cell: std::sync::Arc<std::sync::OnceLock<[u8; 32]>>,
}

impl PartialEq for AppPackage {
    fn eq(&self, other: &Self) -> bool {
        // The memo cell is derived state, not content.
        self.platform == other.platform
            && self.files == other.files
            && self.encrypted == other.encrypted
    }
}

impl Eq for AppPackage {}

impl AppPackage {
    /// Creates a plaintext package.
    pub fn new(platform: Platform, files: Vec<AppFile>) -> Self {
        AppPackage {
            platform,
            files,
            encrypted: false,
            hash_cell: Default::default(),
        }
    }

    /// Looks up a file by exact path.
    pub fn file(&self, path: &str) -> Option<&AppFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Total size in bytes.
    pub fn total_size(&self) -> usize {
        self.files.iter().map(|f| f.content.len()).sum()
    }

    /// SHA-256 over the package's full content: platform, encryption
    /// state, and every file's path and bytes, in file order.
    ///
    /// Two packages hash equal iff static analysis would see identical
    /// input, so the digest serves as the package component of the
    /// per-app epoch fingerprint: a clean app keeps its static findings.
    /// Memoized: the first call hashes, later calls return the cached
    /// digest (the epoch engine calls this once per app per epoch). In
    /// debug builds every call re-verifies the memo against the actual
    /// content, so a mutate-after-memoize bug trips an assertion instead
    /// of silently replaying a stale verdict.
    pub fn content_hash(&self) -> [u8; 32] {
        let memo = *self.hash_cell.get_or_init(|| self.compute_content_hash());
        debug_assert_eq!(
            memo,
            self.compute_content_hash(),
            "package content changed after its hash was memoized: call \
             invalidate_content_hash() after mutating files in place"
        );
        memo
    }

    /// Resets the content-hash memo. Required after mutating `files`,
    /// `platform`, or `encrypted` in place on a package whose hash may
    /// already have been computed (clones share the memo cell).
    pub fn invalidate_content_hash(&mut self) {
        self.hash_cell = Default::default();
    }

    fn compute_content_hash(&self) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(64 + self.total_size());
        bytes.push(match self.platform {
            Platform::Android => 0u8,
            Platform::Ios => 1u8,
        });
        bytes.push(self.encrypted as u8);
        bytes.extend_from_slice(&(self.files.len() as u64).to_le_bytes());
        for f in &self.files {
            bytes.extend_from_slice(&(f.path.len() as u64).to_le_bytes());
            bytes.extend_from_slice(f.path.as_bytes());
            let content = f.content.as_bytes();
            bytes.push(matches!(f.content, FileContent::Binary(_)) as u8);
            bytes.extend_from_slice(&(content.len() as u64).to_le_bytes());
            bytes.extend_from_slice(content);
        }
        pinning_crypto::sha256(&bytes)
    }

    /// Applies FairPlay-style encryption to the *code and asset* files.
    ///
    /// Metadata that the store needs (Info.plist, entitlements) stays
    /// plaintext — matching reality, where static analysis can read the
    /// plist of an encrypted IPA but not its binary.
    pub fn encrypt(mut self, seed: u64) -> AppPackage {
        assert!(!self.encrypted, "already encrypted");
        for f in &mut self.files {
            if Self::stays_plaintext(&f.path) {
                continue;
            }
            let mut bytes = Vec::new();
            xor_stream_into(f.content.as_bytes(), seed, &f.path, &mut bytes);
            f.content = FileContent::Binary(bytes);
        }
        self.encrypted = true;
        self.invalidate_content_hash();
        self
    }

    /// Decrypts an encrypted package (the Flexdecrypt/Frida-iOS-Dump
    /// simulation; requires the "device key" `seed` that a jailbroken
    /// device exposes).
    pub fn decrypt(mut self, seed: u64) -> AppPackage {
        assert!(self.encrypted, "not encrypted");
        let mut scratch = Vec::new();
        for f in &mut self.files {
            if Self::stays_plaintext(&f.path) {
                continue;
            }
            f.content = match decrypt_into(f, seed, &mut scratch) {
                ContentRef::Text(s) => FileContent::Text(s.to_string()),
                ContentRef::Binary(b) => FileContent::Binary(b.to_vec()),
            };
        }
        self.encrypted = false;
        self.invalidate_content_hash();
        self
    }

    /// The content of `file` (one of this package's files) as
    /// [`AppPackage::decrypt`] would leave it: when the package is
    /// encrypted and `seed` is given, the file's plaintext, written into
    /// `scratch`; otherwise the file's own content, borrowed. Scanning a
    /// package file by file through this view reads what scanning
    /// `self.clone().decrypt(seed)` reads, without cloning the package.
    pub fn readable<'a>(
        &self,
        file: &'a AppFile,
        seed: Option<u64>,
        scratch: &'a mut Vec<u8>,
    ) -> ContentRef<'a> {
        match seed {
            Some(seed) if self.encrypted && !Self::stays_plaintext(&file.path) => {
                decrypt_into(file, seed, scratch)
            }
            _ => file.content.view(),
        }
    }

    fn stays_plaintext(path: &str) -> bool {
        path.ends_with("Info.plist")
            || path.ends_with(".entitlements")
            || path.ends_with("embedded.mobileprovision")
    }
}

/// Writes `data` XORed with the key stream of (`seed`, `path`) into `out`,
/// replacing its contents. The key stream is the little-endian bytes of
/// successive `SplitMix64` outputs.
fn xor_stream_into(data: &[u8], seed: u64, path: &str, out: &mut Vec<u8>) {
    let mut rng = SplitMix64::new(seed).derive(path);
    out.clear();
    out.extend_from_slice(data);
    let mut words = out.chunks_exact_mut(8);
    for word in &mut words {
        let key = rng.next_u64().to_le_bytes();
        for (b, k) in word.iter_mut().zip(key) {
            *b ^= k;
        }
    }
    let key = rng.next_u64().to_le_bytes();
    for (b, k) in words.into_remainder().iter_mut().zip(key) {
        *b ^= k;
    }
}

/// Decrypts `file` into `scratch` and restores text-ness where the
/// plaintext is valid UTF-8 *and* looks textual (config/PEM files).
fn decrypt_into<'a>(file: &AppFile, seed: u64, scratch: &'a mut Vec<u8>) -> ContentRef<'a> {
    xor_stream_into(file.content.as_bytes(), seed, &file.path, scratch);
    let plain: &'a [u8] = scratch;
    match core::str::from_utf8(plain) {
        Ok(s) if looks_textual(s) => ContentRef::Text(s),
        _ => ContentRef::Binary(plain),
    }
}

fn looks_textual(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .take(512)
            .all(|c| !c.is_control() || matches!(c, '\n' | '\r' | '\t'))
}

/// Extracts printable ASCII strings of at least `min_len` characters from
/// binary content — the `strings`/radare2 primitive the paper uses on
/// native libraries and decrypted iOS binaries (§4.1.2).
pub fn extract_strings(data: &[u8], min_len: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for &b in data {
        if (0x20..0x7f).contains(&b) {
            cur.push(b as char);
        } else {
            if cur.len() >= min_len {
                out.push(core::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    if cur.len() >= min_len {
        out.push(cur);
    }
    out
}

/// Builds a dex-like / Mach-O-like binary blob embedding `strings` in a
/// string pool surrounded by pseudo machine code.
pub fn binary_with_strings(strings: &[String], rng: &mut SplitMix64, padding: usize) -> Vec<u8> {
    let mut out = Vec::new();
    // "Machine code" prelude: bytes outside the printable range often
    // enough to break up accidental strings.
    let mut noise = vec![0u8; padding / 2];
    rng.fill_bytes(&mut noise);
    out.extend_from_slice(&noise);
    for s in strings {
        out.push(0); // separator
        out.extend_from_slice(s.as_bytes());
        out.push(0);
        let mut gap = vec![0u8; 16];
        rng.fill_bytes(&mut gap);
        out.extend_from_slice(&gap);
    }
    let mut tail = vec![0u8; padding / 2];
    rng.fill_bytes(&mut tail);
    out.extend_from_slice(&tail);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_tracks_content() {
        let pkg = AppPackage::new(
            Platform::Android,
            vec![
                AppFile::text("AndroidManifest.xml", "<manifest/>"),
                AppFile::text("assets/ca.pem", "PEM"),
            ],
        );
        let base = pkg.content_hash();
        assert_eq!(base, pkg.clone().content_hash(), "clone hashes equal");

        let mut edited = pkg.clone();
        edited.files[1] = AppFile::text("assets/ca.pem", "PEM2");
        edited.invalidate_content_hash(); // clones share the memo cell
        assert_ne!(base, edited.content_hash(), "content change flips hash");

        let encrypted =
            AppPackage::new(Platform::Ios, vec![AppFile::text("binary", "code")]).encrypt(7);
        let enc_hash = encrypted.content_hash();
        let decrypted = encrypted.decrypt(7);
        assert_ne!(
            enc_hash,
            decrypted.content_hash(),
            "encryption state counts"
        );
    }

    #[test]
    fn extension_parsing() {
        assert_eq!(AppFile::text("assets/ca.pem", "x").extension(), Some("pem"));
        assert_eq!(AppFile::text("a/b/C.DER", "x").extension(), Some("DER"));
        assert_eq!(AppFile::text("a.b/noext", "x").extension(), None);
        assert_eq!(AppFile::text("noext", "x").extension(), None);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let pkg = AppPackage::new(
            Platform::Ios,
            vec![
                AppFile::text("Payload/App.app/Info.plist", "<plist/>"),
                AppFile::text("Payload/App.app/config.json", "{\"pin\":\"sha256/AAA\"}"),
                AppFile::binary("Payload/App.app/App", vec![1, 2, 3, 255, 0, 42]),
            ],
        );
        let enc = pkg.clone().encrypt(0x5EED);
        assert!(enc.encrypted);
        // Plist stays readable; code does not.
        assert_eq!(
            enc.file("Payload/App.app/Info.plist")
                .unwrap()
                .content
                .as_text(),
            Some("<plist/>")
        );
        assert_ne!(
            enc.file("Payload/App.app/App").unwrap().content.as_bytes(),
            &[1, 2, 3, 255, 0, 42]
        );
        let dec = enc.decrypt(0x5EED);
        assert_eq!(dec, pkg);
    }

    /// The key stream as it was drawn before decryption wrote in place:
    /// one 64-byte `fill_bytes` block at a time.
    fn xor_stream_in_blocks(data: &[u8], seed: u64, path: &str) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed).derive(path);
        let mut out = data.to_vec();
        let mut key = [0u8; 64];
        for block in out.chunks_mut(64) {
            rng.fill_bytes(&mut key);
            for (b, k) in block.iter_mut().zip(key) {
                *b ^= k;
            }
        }
        out
    }

    #[test]
    fn key_stream_matches_block_draws() {
        let mut rng = SplitMix64::new(3);
        let mut out = vec![0xAA; 300];
        for len in 0..200 {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            xor_stream_into(&data, 7, "Payload/App.app/App", &mut out);
            assert_eq!(out, xor_stream_in_blocks(&data, 7, "Payload/App.app/App"));
        }
    }

    #[test]
    fn readable_reads_what_decrypt_leaves() {
        let pkg = AppPackage::new(
            Platform::Ios,
            vec![
                AppFile::text("Payload/App.app/Info.plist", "<plist/>"),
                AppFile::text("Payload/App.app/config.json", "{\"pin\":\"sha256/AAA\"}"),
                AppFile::binary("Payload/App.app/App", vec![1, 2, 3, 255, 0, 42]),
                AppFile::binary("Payload/App.app/ctl", b"valid utf-8\x01 not text".to_vec()),
                AppFile::text("Payload/App.app/empty.txt", ""),
            ],
        );
        let enc = pkg.clone().encrypt(0x5EED);
        let dec = enc.clone().decrypt(0x5EED);
        let mut scratch = Vec::new();
        for (f, d) in enc.files.iter().zip(&dec.files) {
            assert_eq!(
                enc.readable(f, Some(0x5EED), &mut scratch),
                d.content.view()
            );
            assert_eq!(enc.readable(f, None, &mut scratch), f.content.view());
        }
        for f in &pkg.files {
            assert_eq!(
                pkg.readable(f, Some(0x5EED), &mut scratch),
                f.content.view()
            );
        }
        assert!(matches!(dec.files[1].content, FileContent::Text(_)));
        assert!(matches!(dec.files[3].content, FileContent::Binary(_)));
    }

    #[test]
    fn encrypted_content_hides_strings() {
        let secret = "sha256/THISISAPINSTRINGTHATMUSTVANISH0000000000000=";
        let pkg = AppPackage::new(
            Platform::Ios,
            vec![AppFile::text("Payload/App.app/App", secret)],
        )
        .encrypt(7);
        let cipher = pkg.file("Payload/App.app/App").unwrap().content.as_bytes();
        let found = extract_strings(cipher, 8)
            .iter()
            .any(|s| s.contains("sha256/"));
        assert!(!found, "pin must not survive encryption");
    }

    #[test]
    fn strings_extraction_finds_pins_in_binary() {
        let mut rng = SplitMix64::new(5);
        let pin = "sha256/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=".to_string();
        let blob = binary_with_strings(
            &[pin.clone(), "okhttp3/CertificatePinner".into()],
            &mut rng,
            256,
        );
        let strings = extract_strings(&blob, 6);
        assert!(strings.iter().any(|s| s.contains(&pin)));
        assert!(strings.iter().any(|s| s.contains("CertificatePinner")));
    }

    #[test]
    fn strings_extraction_min_len() {
        let data = b"ab\x00abcdef\x00xy";
        let strings = extract_strings(data, 3);
        assert_eq!(strings, vec!["abcdef".to_string()]);
    }

    #[test]
    fn total_size() {
        let pkg = AppPackage::new(
            Platform::Android,
            vec![AppFile::text("a", "1234"), AppFile::binary("b", vec![0; 6])],
        );
        assert_eq!(pkg.total_size(), 10);
    }
}
