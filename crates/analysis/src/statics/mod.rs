//! Static analysis (§4.1): scan app packages for evidence of pinning.

pub mod attribution;
pub mod extract;
pub mod nsc;
#[cfg(test)]
mod reference;
pub mod scanner;

use pinning_app::app::MobileApp;
use pinning_app::package::AppPackage;
use pinning_app::platform::Platform;
use pinning_pki::cache::CacheCounter;
use pinning_pki::Certificate;

/// Where a static finding was located.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Located<T> {
    /// Package-relative path of the file.
    pub path: String,
    /// The finding.
    pub value: T,
}

/// A pin-like hash string found in code/strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundPin {
    /// Raw matched text, e.g. `sha256/AAAA...=`.
    pub raw: String,
    /// Parsed pin if the body base64-decodes to a digest of the right
    /// length (hex-encoded bodies are kept raw).
    pub parsed: Option<pinning_pki::pin::SpkiPin>,
}

/// Everything static analysis extracted from one app.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StaticFindings {
    /// Certificates recovered from asset files or PEM blobs.
    pub embedded_certs: Vec<Located<Certificate>>,
    /// Pin-like strings from string pools.
    pub pin_strings: Vec<Located<FoundPin>>,
    /// The app ships an NSC file at all.
    pub has_nsc: bool,
    /// The NSC declares pins (prior work's metric — effective or not).
    pub nsc_declares_pins: bool,
    /// The NSC pins *effectively* (no `overridePins` neutering).
    pub nsc_pins_effectively: bool,
    /// iOS: the package was still encrypted and could not be scanned
    /// (decryption unavailable — §4.1.2's jailbreak requirement).
    pub scan_blocked_encrypted: bool,
}

impl StaticFindings {
    /// Table 3's "Embedded Certificates" static signal: any certificate or
    /// pin-hash material found in the package.
    pub fn has_pin_material(&self) -> bool {
        !self.embedded_certs.is_empty() || !self.pin_strings.is_empty()
    }

    /// Table 3's "Configuration Files" static signal (the prior-work
    /// technique): NSC present and declaring pins.
    pub fn nsc_signal(&self) -> bool {
        self.nsc_declares_pins
    }
}

/// Runs the full static pipeline on a package.
///
/// For encrypted iOS packages a `decryption_key` (the Flexdecrypt /
/// Frida-iOS-Dump stand-in, available only with a jailbroken device) is
/// required; without it the scan sees ciphertext and reports
/// [`StaticFindings::scan_blocked_encrypted`].
pub fn analyze_package(package: &AppPackage, decryption_key: Option<u64>) -> StaticFindings {
    if package.encrypted && decryption_key.is_none() {
        return StaticFindings {
            scan_blocked_encrypted: true,
            ..Default::default()
        };
    }
    let mut findings = StaticFindings::default();
    // One buffer holds each decrypted file in turn; plaintext files are
    // read in place.
    let mut plaintext = Vec::new();
    for file in &package.files {
        let content = package.readable(file, decryption_key, &mut plaintext);
        extract::scan_file(file, content, &mut findings);
    }
    nsc::scan_nsc(package, decryption_key, &mut findings);
    findings
}

/// Runs the static pipeline on an app's package as the study does: iOS
/// packages ship encrypted and are scanned with `ios_key`, Android
/// packages are scanned as they are.
pub fn analyze_app(app: &MobileApp, ios_key: u64) -> StaticFindings {
    analyze_package(
        &app.package,
        (app.id.platform == Platform::Ios).then_some(ios_key),
    )
}

/// Inert: the static-scan memo is gone; this counter stays at zero.
#[deprecated(note = "the static-scan memo was removed; this counter stays at zero")]
pub static STATIC_SCAN: CacheCounter = CacheCounter::new("static-scan");

/// Inert: forwards to [`analyze_package`], now that the static-scan memo is gone.
#[deprecated(note = "the static-scan memo was removed; call analyze_package")]
pub fn analyze_package_cached(package: &AppPackage, decryption_key: Option<u64>) -> StaticFindings {
    analyze_package(package, decryption_key)
}

/// Inert: the static-scan memo is gone, so there is nothing to clear.
#[deprecated(note = "the static-scan memo was removed; this does nothing")]
pub fn clear_static_scan_cache() {}
