//! The per-run static extractor that the one-pass scan replaced, kept as
//! the reference the differential tests compare [`super::analyze_package`]
//! with.
//!
//! It follows §4.1.2 literally: clone and decrypt the whole package, cut
//! every binary into `strings` runs of at least six printable bytes, and
//! grep each run for pins and for PEM armour.

use super::extract::CERT_EXTENSIONS;
use super::{nsc, FoundPin, Located, StaticFindings};
use pinning_app::package::{extract_strings, AppPackage, FileContent};
use pinning_pki::encode::pem_decode_all;
use pinning_pki::pin::SpkiPin;
use pinning_pki::Certificate;

/// Minimum printable-string length when dumping binaries (radare2 default).
const MIN_STRING_LEN: usize = 6;

/// The reference static pipeline.
pub(crate) fn analyze_package(package: &AppPackage, decryption_key: Option<u64>) -> StaticFindings {
    let decrypted;
    let view = if package.encrypted {
        match decryption_key {
            Some(key) => {
                decrypted = package.clone().decrypt(key);
                &decrypted
            }
            None => {
                return StaticFindings {
                    scan_blocked_encrypted: true,
                    ..Default::default()
                }
            }
        }
    } else {
        package
    };

    let mut findings = StaticFindings::default();
    scan_files(view, &mut findings);
    nsc::scan_nsc(view, None, &mut findings);
    findings
}

fn scan_files(package: &AppPackage, findings: &mut StaticFindings) {
    for file in &package.files {
        let ext = file.extension().map(|e| e.to_ascii_lowercase());
        let is_cert_ext = ext.as_deref().is_some_and(|e| CERT_EXTENSIONS.contains(&e));

        match &file.content {
            FileContent::Text(text) => {
                if is_cert_ext || text.contains("-----BEGIN CERTIFICATE-----") {
                    collect_pem_certs(&file.path, text, findings);
                }
                collect_pins(&file.path, text, findings);
            }
            FileContent::Binary(bytes) => {
                if is_cert_ext {
                    if let Ok(cert) = Certificate::from_der(bytes) {
                        findings.embedded_certs.push(Located {
                            path: file.path.clone(),
                            value: cert,
                        });
                    } else if let Ok(text) = core::str::from_utf8(bytes) {
                        collect_pem_certs(&file.path, text, findings);
                    }
                }
                for s in extract_strings(bytes, MIN_STRING_LEN) {
                    collect_pins(&file.path, &s, findings);
                    if s.contains("-----BEGIN CERTIFICATE-----") {
                        collect_pem_certs(&file.path, &s, findings);
                    }
                }
            }
        }
    }
}

fn collect_pem_certs(path: &str, text: &str, findings: &mut StaticFindings) {
    let Ok(ders) = pem_decode_all(text) else {
        return;
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

fn collect_pins(path: &str, text: &str, findings: &mut StaticFindings) {
    for raw in scan_pins(text) {
        let parsed = SpkiPin::parse(&raw);
        findings.pin_strings.push(Located {
            path: path.to_string(),
            value: FoundPin { raw, parsed },
        });
    }
}

fn is_b64_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'+' || c == b'/' || c == b'='
}

/// The regex `sha(1|256)/[a-zA-Z0-9+/=]{28,64}` over one string: every
/// match's full text.
fn scan_pins(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let Some(off) = bytes[i..].iter().position(|&b| b == b's') else {
            break;
        };
        let start = i + off;
        i = start + 1;
        let rest = &bytes[start..];
        let prefix_len = if rest.starts_with(b"sha256/") {
            7
        } else if rest.starts_with(b"sha1/") {
            5
        } else {
            continue;
        };
        let body_start = start + prefix_len;
        let mut end = body_start;
        while end < bytes.len() && end - body_start < 64 && is_b64_char(bytes[end]) {
            end += 1;
        }
        if end - body_start < 28 {
            continue;
        }
        out.push(text[start..end].to_string());
        i = end;
    }
    out
}

mod tests {
    use super::analyze_package as reference;
    use crate::statics::{analyze_package, StaticFindings};
    use pinning_app::package::{AppFile, AppPackage};
    use pinning_app::platform::Platform;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::{b64encode, SplitMix64};
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::time::{SimTime, Validity, YEAR};
    use pinning_pki::Certificate;
    use pinning_store::config::WorldConfig;
    use pinning_store::world::World;
    use std::sync::OnceLock;

    const B64: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=";
    const BEGIN: &str = "-----BEGIN CERTIFICATE-----";
    const END: &str = "-----END CERTIFICATE-----";

    fn certs() -> &'static [Certificate] {
        static CERTS: OnceLock<Vec<Certificate>> = OnceLock::new();
        CERTS.get_or_init(|| {
            let mut rng = SplitMix64::new(0xD1FF);
            let mut root = CertificateAuthority::new_root(
                DistinguishedName::new("Diff Root", "Sim", "US"),
                &mut rng,
                SimTime(0),
            );
            let mut out = vec![root.cert.clone()];
            for i in 0..2 {
                let key = KeyPair::generate(&mut rng);
                out.push(root.issue_leaf(
                    &[format!("h{i}.diff.example")],
                    "Diff Org",
                    &key,
                    Validity::starting(SimTime(0), YEAR),
                ));
            }
            out
        })
    }

    /// One certificate as a single armoured line: what a string pool holds.
    fn pem_line(cert: &Certificate) -> String {
        format!("{BEGIN}{}{END}", b64encode(&cert.to_der()))
    }

    fn pin(rng: &mut SplitMix64, prefix: &str, body_len: usize) -> String {
        let body: String = (0..body_len)
            .map(|_| B64[rng.next_below(B64.len() as u64) as usize] as char)
            .collect();
        format!("{prefix}{body}")
    }

    /// Compares the one-pass scan with the reference, with and without
    /// the key, and returns the findings.
    fn same_as_reference(package: &AppPackage, key: Option<u64>) -> StaticFindings {
        let found = analyze_package(package, key);
        let paths: Vec<&str> = package.files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            found,
            reference(package, key),
            "one-pass scan differs from the reference on {paths:?}, key {key:?}"
        );
        if key.is_some() {
            assert_eq!(analyze_package(package, None), reference(package, None));
        }
        found
    }

    fn binary(path: &str, bytes: Vec<u8>) -> AppPackage {
        AppPackage::new(Platform::Android, vec![AppFile::binary(path, bytes)])
    }

    #[test]
    fn pins_touching_non_printable_bytes() {
        let mut rng = SplitMix64::new(1);
        let p = pin(&mut rng, "sha256/", 44);
        let q = pin(&mut rng, "sha1/", 28);
        let mut blob = p.as_bytes().to_vec(); // at offset 0
        for edge in [0x00u8, 0x1f, 0x7f, 0x80, 0xff, b'\n'] {
            blob.push(edge);
            blob.extend_from_slice(q.as_bytes());
            blob.push(edge);
            blob.extend_from_slice(p.as_bytes());
        }
        blob.extend_from_slice(b"\x00x");
        blob.extend_from_slice(q.as_bytes()); // at the very end
        let f = same_as_reference(&binary("classes.dex", blob), None);
        assert_eq!(f.pin_strings.len(), 14);
    }

    #[test]
    fn body_lengths_at_the_band_edges() {
        let mut rng = SplitMix64::new(2);
        let mut blob = Vec::new();
        for len in [27, 28, 29, 44, 63, 64, 65, 66, 100, 130] {
            for prefix in ["sha256/", "sha1/"] {
                blob.push(0);
                blob.extend_from_slice(pin(&mut rng, prefix, len).as_bytes());
                blob.extend_from_slice(b"!~");
            }
        }
        let f = same_as_reference(&binary("lib/arm64-v8a/libapp.so", blob.clone()), None);
        assert_eq!(
            f.pin_strings.len(),
            2 * 9,
            "every length but 27, capped at 64"
        );
        assert!(f
            .pin_strings
            .iter()
            .all(|p| p.value.raw.len() <= "sha256/".len() + 64));
        let text = String::from_utf8_lossy(&blob).into_owned();
        let g = same_as_reference(
            &AppPackage::new(
                Platform::Android,
                vec![AppFile::text("smali/A.smali", text)],
            ),
            None,
        );
        assert_eq!(g.pin_strings.len(), f.pin_strings.len());
    }

    #[test]
    fn two_armoured_blocks_in_one_run() {
        let [a, b, ..] = certs() else { unreachable!() };
        let mut blob = vec![0u8, 1, 2];
        blob.extend_from_slice(format!("x{}  {}y", pem_line(a), pem_line(b)).as_bytes());
        blob.push(0);
        blob.extend_from_slice(pem_line(a).as_bytes());
        let f = same_as_reference(&binary("classes.dex", blob), None);
        assert_eq!(f.embedded_certs.len(), 3);
    }

    #[test]
    fn begin_without_end_after_a_valid_block_drops_the_run() {
        let [a, b, ..] = certs() else { unreachable!() };
        let mut blob = vec![7u8];
        blob.extend_from_slice(format!("{} {BEGIN}AAAA", pem_line(a)).as_bytes());
        blob.push(0);
        blob.extend_from_slice(pem_line(b).as_bytes()); // the next run still decodes
        let f = same_as_reference(&binary("classes.dex", blob), None);
        assert_eq!(f.embedded_certs.len(), 1);
        assert_eq!(&f.embedded_certs[0].value, b);
    }

    #[test]
    fn armour_in_a_run_over_the_input_budget_decodes_nothing() {
        // The per-run grep handed the whole run to `pem_decode_all`, whose
        // budget counts the run's bytes, not the bytes from BEGIN on.
        let [a, ..] = certs() else { unreachable!() };
        let limit = pinning_pki::Budget::STANDARD.max_input_bytes;
        let mut blob = vec![b'.'; limit];
        blob.extend_from_slice(pem_line(a).as_bytes());
        blob.push(0);
        blob.extend_from_slice(pem_line(a).as_bytes());
        let f = same_as_reference(&binary("classes.dex", blob), None);
        assert_eq!(f.embedded_certs.len(), 1);
    }

    #[test]
    fn uppercase_pem_extension_on_a_non_der_binary() {
        let [a, b, ..] = certs() else { unreachable!() };
        let pem = format!("{}\n{}", a.to_pem(), b.to_pem()).into_bytes();
        for path in ["assets/ca.PEM", "res/raw/Root.Crt", "x/y.CER"] {
            let f = same_as_reference(&binary(path, pem.clone()), None);
            assert_eq!(f.embedded_certs.len(), 2, "{path}");
        }
        let f = same_as_reference(&binary("assets/ca.txt", pem), None);
        assert!(
            f.embedded_certs.is_empty(),
            "multi-line armour is cut by strings"
        );
    }

    #[test]
    fn encrypted_packages_decrypt_to_text_and_binary() {
        let [a, b, c] = certs() else { unreachable!() };
        let mut rng = SplitMix64::new(6);
        let p = pin(&mut rng, "sha256/", 44);
        // Text: multi-line armour outside a certificate extension is seen
        // only when the plaintext is restored as text.
        let text = format!("# trust\n{}{p}\n", a.to_pem());
        // Binary, valid UTF-8 but not textual: a control byte splits the
        // runs, so only the run with a whole block decodes.
        let mut bin = format!("\u{1}{}\u{2}{BEGIN}AAAA", pem_line(b)).into_bytes();
        bin.extend_from_slice(format!("\u{3}{p}").as_bytes());
        let package = AppPackage::new(
            Platform::Ios,
            vec![
                AppFile::text("Payload/App.app/Info.plist", "<plist/>"),
                AppFile::text("Payload/App.app/trust.txt", text),
                AppFile::binary("Payload/App.app/App", bin),
                AppFile::binary("Payload/App.app/root.der", c.to_der()),
            ],
        )
        .encrypt(0x5EC);
        let f = same_as_reference(&package, Some(0x5EC));
        let certs_found: Vec<_> = f.embedded_certs.iter().map(|l| &l.value).collect();
        assert_eq!(certs_found, [a, b, c]);
        assert_eq!(f.pin_strings.len(), 2);
        assert!(same_as_reference(&package, None).scan_blocked_encrypted);
        same_as_reference(&package, Some(0x5ED)); // the wrong key: noise
    }

    #[test]
    fn encrypted_android_nsc_reads_through_the_key() {
        let body = b64encode(&pinning_crypto::sha256(b"spki"));
        let nsc = format!(
            "<network-security-config><domain-config><domain>x.example</domain>\
             <pin-set><pin digest=\"SHA-256\">{body}</pin></pin-set>\
             </domain-config></network-security-config>"
        );
        let package = AppPackage::new(
            Platform::Android,
            vec![
                AppFile::text(
                    "AndroidManifest.xml",
                    "<manifest><application android:networkSecurityConfig=\"@xml/nsc\"/></manifest>",
                ),
                AppFile::text("res/xml/nsc.xml", nsc),
            ],
        )
        .encrypt(9);
        let f = same_as_reference(&package, Some(9));
        assert!(f.has_nsc && f.nsc_declares_pins && f.nsc_pins_effectively);
    }

    /// A generated package file: noise, pins at random body lengths,
    /// single-line armour (whole, doubled, or cut), multi-line PEM, and
    /// printable junk, under a path drawn from binary, text and
    /// certificate names in mixed case.
    fn arb_file(rng: &mut SplitMix64) -> AppFile {
        const PATHS: [&str; 8] = [
            "classes.dex",
            "lib/arm64-v8a/libapp.so",
            "assets/ca.PEM",
            "res/raw/root.der",
            "assets/pinned.Crt",
            "assets/config.json",
            "Payload/App.app/App",
            "Payload/App.app/resources/bundle.pem",
        ];
        let certs = certs();
        let mut bytes = Vec::new();
        for _ in 0..rng.next_below(12) {
            let cert = &certs[rng.next_below(certs.len() as u64) as usize];
            match rng.next_below(9) {
                0 | 1 => {
                    let mut noise = vec![0u8; rng.next_below(48) as usize];
                    rng.fill_bytes(&mut noise);
                    bytes.extend_from_slice(&noise);
                }
                2 | 3 => {
                    let prefix = if rng.chance(0.5) { "sha256/" } else { "sha1/" };
                    let len = [26, 27, 28, 44, 64, 65, 70][rng.next_below(7) as usize];
                    bytes.extend_from_slice(pin(rng, prefix, len).as_bytes());
                }
                4 => bytes.extend_from_slice(pem_line(cert).as_bytes()),
                5 => bytes.extend_from_slice(BEGIN.as_bytes()),
                6 => bytes.extend_from_slice(END.as_bytes()),
                7 => bytes.extend_from_slice(cert.to_pem().as_bytes()),
                _ => {
                    let junk: Vec<u8> = (0..rng.next_below(12))
                        .map(|_| {
                            [b' ', b'-', b's', b'h', b'a', b'/', b'1', b'2', b'5', b'6']
                                [rng.next_below(10) as usize]
                        })
                        .collect();
                    bytes.extend_from_slice(&junk);
                }
            }
            if rng.chance(0.5) {
                bytes.push([0u8, b'\n', 0x7f, 0xc3][rng.next_below(4) as usize]);
            }
        }
        let path = PATHS[rng.next_below(PATHS.len() as u64) as usize];
        match String::from_utf8(bytes) {
            Ok(text) if rng.chance(0.5) => AppFile::text(path, text),
            Ok(text) => AppFile::binary(path, text.into_bytes()),
            Err(e) => AppFile::binary(path, e.into_bytes()),
        }
    }

    #[test]
    fn generated_packages_match_the_reference() {
        let mut rng = SplitMix64::new(0x0AE5_5CA1);
        let (mut pins, mut certs) = (0, 0);
        for case in 0..300u64 {
            let files = (0..1 + rng.next_below(4))
                .map(|_| arb_file(&mut rng))
                .collect();
            let platform = if case % 2 == 0 {
                Platform::Android
            } else {
                Platform::Ios
            };
            let mut package = AppPackage::new(platform, files);
            let mut key = None;
            if platform == Platform::Ios && rng.chance(0.5) {
                package = package.encrypt(case);
                key = Some(case);
            }
            let f = same_as_reference(&package, key);
            pins += f.pin_strings.len();
            certs += f.embedded_certs.len();
        }
        assert!(
            pins > 100 && certs > 100,
            "{pins} pins, {certs} certificates"
        );
    }

    #[test]
    fn worlds_match_the_reference_app_by_app() {
        let tiny = [0xD37, 0xD38, 1, 2].map(WorldConfig::tiny);
        let bench = [101, 90017].map(WorldConfig::bench);
        for mut config in tiny.into_iter().chain(bench) {
            config.adversarial_apps = 8;
            let seed = config.seed;
            let key = Some(config.ios_encryption_seed);
            let world = World::generate(config);
            let mut with_material = 0;
            for app in &world.apps {
                let f = same_as_reference(&app.package, key);
                with_material += f.has_pin_material() as usize;
            }
            assert_eq!(world.hostile_apps.len(), 8, "seed {seed}");
            assert!(with_material > 0, "seed {seed}");
        }
    }
}
