//! File-level extraction (§4.1.2): certificate assets, PEM blobs, and
//! string pools of dex/native/Mach-O binaries.
//!
//! The paper runs `strings` over each binary and greps the dump for pins
//! and PEM armour. [`scan_file`] finds the same things in one walk over
//! the file's own bytes ([`scanner::hits`]), allocating only for what it
//! finds: a pin is a printable match, so it never spans a run boundary,
//! and an armour line is widened to its enclosing printable run, which is
//! decoded once, as the per-run grep decoded it (DESIGN.md §7).

use super::scanner::{self, Hit};
use super::{FoundPin, Located, StaticFindings};
use pinning_app::package::{AppFile, ContentRef};
use pinning_pki::encode::pem_decode_all;
use pinning_pki::pin::SpkiPin;
use pinning_pki::Certificate;

/// File extensions treated as certificate material (§4.1.2's list),
/// matched case-insensitively.
pub const CERT_EXTENSIONS: [&str; 5] = ["der", "pem", "crt", "cert", "cer"];

/// Whether `file`'s extension marks it as certificate material: the one
/// test both the static scan and the dynamic pipeline's input screen use.
pub(crate) fn is_cert_asset(file: &AppFile) -> bool {
    file.extension()
        .is_some_and(|e| CERT_EXTENSIONS.iter().any(|c| e.eq_ignore_ascii_case(c)))
}

/// Scans one file of a package, populating `findings`. `content` is what
/// the scan reads for `file`: its own content, or its plaintext when the
/// package is encrypted ([`pinning_app::package::AppPackage::readable`]).
pub fn scan_file(file: &AppFile, content: ContentRef<'_>, findings: &mut StaticFindings) {
    let path = &file.path;
    let is_cert_ext = is_cert_asset(file);

    match content {
        ContentRef::Text(text) => {
            let mut armoured = false;
            for hit in scanner::hits(text.as_bytes()) {
                match hit {
                    Hit::Pin { start, end, .. } => {
                        push_pin(path, text.as_bytes(), start, end, findings)
                    }
                    Hit::Armour(_) => armoured = true,
                }
            }
            if is_cert_ext || armoured {
                collect_pem_certs(path, text, findings);
            }
        }
        ContentRef::Binary(bytes) => {
            if is_cert_ext {
                // Try DER first, then PEM-in-binary.
                if let Ok(cert) = Certificate::from_der(bytes) {
                    findings.embedded_certs.push(Located {
                        path: path.clone(),
                        value: cert,
                    });
                } else if let Ok(text) = core::str::from_utf8(bytes) {
                    collect_pem_certs(path, text, findings);
                }
            }
            // The strings pass over every binary (dex pools, .so, Mach-O).
            // An armoured run is decoded whole, once, from its first byte:
            // a BEGIN without an END drops every block in its run, and the
            // decoder's input budget counts the whole run, as when each
            // `strings` run was grepped on its own.
            let mut decoded_to = 0;
            for hit in scanner::hits(bytes) {
                match hit {
                    Hit::Pin { start, end, .. } => push_pin(path, bytes, start, end, findings),
                    Hit::Armour(at) if at >= decoded_to => {
                        let (run_start, run_end) = printable_run(bytes, at);
                        if let Ok(run) = core::str::from_utf8(&bytes[run_start..run_end]) {
                            collect_pem_certs(path, run, findings);
                        }
                        decoded_to = run_end;
                    }
                    Hit::Armour(_) => {}
                }
            }
        }
    }
}

/// Printable ASCII: the bytes `strings` keeps.
fn is_printable(b: u8) -> bool {
    (0x20..0x7f).contains(&b)
}

/// The run of printable bytes around offset `at`, as a half-open range.
fn printable_run(bytes: &[u8], at: usize) -> (usize, usize) {
    let start = bytes[..at]
        .iter()
        .rposition(|&b| !is_printable(b))
        .map_or(0, |i| i + 1);
    let end = bytes[at..]
        .iter()
        .position(|&b| !is_printable(b))
        .map_or(bytes.len(), |i| at + i);
    (start, end)
}

fn collect_pem_certs(path: &str, text: &str, findings: &mut StaticFindings) {
    let Ok(ders) = pem_decode_all(text) else {
        return; // malformed PEM is ignored, as ripgrep+openssl would skip it
    };
    for der in ders {
        if let Ok(cert) = Certificate::from_der(&der) {
            findings.embedded_certs.push(Located {
                path: path.to_string(),
                value: cert,
            });
        }
    }
}

/// Records the pin match `bytes[start..end]`: the one allocation per find.
fn push_pin(path: &str, bytes: &[u8], start: usize, end: usize, findings: &mut StaticFindings) {
    let Ok(raw) = core::str::from_utf8(&bytes[start..end]) else {
        return; // unreachable: a match is ASCII
    };
    findings.pin_strings.push(Located {
        path: path.to_string(),
        value: FoundPin {
            raw: raw.to_string(),
            parsed: SpkiPin::parse(raw),
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::analyze_package;
    use pinning_app::package::{binary_with_strings, AppFile, AppPackage};
    use pinning_app::platform::Platform;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::time::{SimTime, Validity, YEAR};

    fn cert(seed: u64) -> Certificate {
        let mut rng = SplitMix64::new(seed);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("R", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let k = KeyPair::generate(&mut rng);
        root.issue_leaf(
            &["api.x.com".to_string()],
            "X",
            &k,
            Validity::starting(SimTime(0), YEAR),
        )
    }

    #[test]
    fn finds_pem_asset() {
        let c = cert(1);
        let pkg = AppPackage::new(
            Platform::Android,
            vec![AppFile::text("assets/certs/api.pem", c.to_pem())],
        );
        let f = analyze_package(&pkg, None);
        assert_eq!(f.embedded_certs.len(), 1);
        assert_eq!(f.embedded_certs[0].value, c);
        assert!(f.has_pin_material());
    }

    #[test]
    fn finds_der_asset() {
        let c = cert(2);
        let pkg = AppPackage::new(
            Platform::Android,
            vec![AppFile::binary("res/raw/root.der", c.to_der())],
        );
        let f = analyze_package(&pkg, None);
        assert_eq!(f.embedded_certs.len(), 1);
    }

    #[test]
    fn finds_pem_with_unusual_extension_via_delimiter() {
        let c = cert(3);
        let pkg = AppPackage::new(
            Platform::Android,
            vec![AppFile::text(
                "assets/trust.txt",
                format!("junk\n{}\n", c.to_pem()),
            )],
        );
        let f = analyze_package(&pkg, None);
        assert_eq!(
            f.embedded_certs.len(),
            1,
            "delimiter search must catch non-cert extensions"
        );
    }

    #[test]
    fn finds_pin_in_dex_strings() {
        let c = cert(4);
        let pin = c.spki_pin_string();
        let mut rng = SplitMix64::new(9);
        let dex = binary_with_strings(std::slice::from_ref(&pin), &mut rng, 512);
        let pkg = AppPackage::new(Platform::Android, vec![AppFile::binary("classes.dex", dex)]);
        let f = analyze_package(&pkg, None);
        assert_eq!(f.pin_strings.len(), 1);
        assert_eq!(f.pin_strings[0].value.raw, pin);
        assert!(f.pin_strings[0].value.parsed.is_some());
    }

    #[test]
    fn encrypted_ios_package_blocked_without_key() {
        let c = cert(5);
        let pkg = AppPackage::new(
            Platform::Ios,
            vec![AppFile::text("Payload/App.app/pin.pem", c.to_pem())],
        )
        .encrypt(0x5ec);
        let f = analyze_package(&pkg, None);
        assert!(f.scan_blocked_encrypted);
        assert!(!f.has_pin_material());
        // With the key, the scan works.
        let f = analyze_package(&pkg, Some(0x5ec));
        assert!(!f.scan_blocked_encrypted);
        assert_eq!(f.embedded_certs.len(), 1);
    }

    #[test]
    fn no_findings_in_clean_package() {
        let pkg = AppPackage::new(
            Platform::Android,
            vec![AppFile::text("assets/config.json", "{\"a\":1}")],
        );
        let f = analyze_package(&pkg, None);
        assert!(!f.has_pin_material());
    }

    #[test]
    fn malformed_pem_skipped() {
        let pkg = AppPackage::new(
            Platform::Android,
            vec![AppFile::text(
                "assets/broken.pem",
                "-----BEGIN CERTIFICATE-----\nnot base64!!\n-----END CERTIFICATE-----\n",
            )],
        );
        let f = analyze_package(&pkg, None);
        assert!(f.embedded_certs.is_empty());
    }
}
