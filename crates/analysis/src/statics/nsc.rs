//! NSC detection (§4.1.1): the prior-work baseline technique.
//!
//! Parses the Android manifest for an `android:networkSecurityConfig`
//! attribute, resolves the referenced XML resource, and parses its
//! `<pin-set>` blocks — distinguishing *declared* pins (what Possemato et
//! al. / Oltrogge et al. counted) from *effective* pins (not neutered by
//! `overridePins`).

use super::StaticFindings;
use pinning_app::nsc::NetworkSecurityConfig;
use pinning_app::package::AppPackage;
use pinning_app::platform::Platform;
use pinning_app::xml;

/// Scans the manifest + NSC resource, populating `findings`. An encrypted
/// package is read through `decryption_key`, as
/// [`AppPackage::readable`] reads it.
pub fn scan_nsc(package: &AppPackage, decryption_key: Option<u64>, findings: &mut StaticFindings) {
    if package.platform != Platform::Android {
        // iOS's equivalent (NSPinnedDomains) shipped in iOS 14, after the
        // paper's device image — Table 3 has no iOS config-file column.
        return;
    }
    let Some(manifest_file) = package.file("AndroidManifest.xml") else {
        return;
    };
    let mut plaintext = Vec::new();
    let Some(manifest_text) = package
        .readable(manifest_file, decryption_key, &mut plaintext)
        .as_text()
    else {
        return;
    };
    let Ok(manifest) = xml::parse(manifest_text) else {
        return;
    };
    let mut apps = Vec::new();
    manifest.descendants("application", &mut apps);
    let Some(reference) = apps
        .iter()
        .find_map(|a| a.get_attr("android:networkSecurityConfig"))
    else {
        return;
    };
    // `@xml/network_security_config` → `res/xml/network_security_config.xml`.
    let Some(name) = reference.strip_prefix("@xml/") else {
        return;
    };
    let path = format!("res/xml/{name}.xml");
    let Some(nsc_file) = package.file(&path) else {
        return;
    };
    let mut plaintext = Vec::new();
    let Some(nsc_text) = package
        .readable(nsc_file, decryption_key, &mut plaintext)
        .as_text()
    else {
        return;
    };
    let Ok(nsc) = NetworkSecurityConfig::from_xml(nsc_text) else {
        return;
    };
    findings.has_nsc = true;
    findings.nsc_declares_pins = nsc.declares_pins();
    findings.nsc_pins_effectively = nsc.pins_effectively();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statics::analyze_package;
    use pinning_app::builder::{build_package, BuildSpec};
    use pinning_app::pinning::{DomainPinRule, PinSource, PinStorage, PinTarget};
    use pinning_app::platform::AppId;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::pin::PinAlgorithm;
    use pinning_pki::time::{SimTime, Validity, YEAR};

    fn built(with_nsc_rule: bool, misconfig: bool) -> pinning_app::package::AppPackage {
        let mut rng = SplitMix64::new(0x5c);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("R", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let k = KeyPair::generate(&mut rng);
        let cert = root.issue_leaf(
            &["api.x.com".to_string()],
            "X",
            &k,
            Validity::starting(SimTime(0), YEAR),
        );
        let rules = if with_nsc_rule {
            vec![DomainPinRule::spki(
                "api.x.com",
                &cert,
                PinTarget::Leaf,
                PinAlgorithm::Sha256,
                PinStorage::NscPinSet,
                PinSource::FirstParty,
            )]
        } else {
            vec![]
        };
        let id = AppId::new(Platform::Android, "com.x.app");
        let decoys = [cert.clone()];
        let spec = BuildSpec {
            id: &id,
            app_name: "X",
            sdks: &[],
            pin_rules: &rules,
            decoy_certs: if misconfig { &decoys } else { &[] },
            nsc_misconfig_override_pins: misconfig,
            associated_domains: &[],
            ios_encryption_seed: None,
        };
        build_package(&spec, &mut SplitMix64::new(1))
    }

    #[test]
    fn detects_effective_nsc_pins() {
        let f = analyze_package(&built(true, false), None);
        assert!(f.has_nsc);
        assert!(f.nsc_declares_pins);
        assert!(f.nsc_pins_effectively);
        assert!(f.nsc_signal());
    }

    #[test]
    fn no_nsc_no_signal() {
        let f = analyze_package(&built(false, false), None);
        assert!(!f.has_nsc);
        assert!(!f.nsc_signal());
    }

    #[test]
    fn misconfigured_nsc_declares_but_not_effective() {
        let f = analyze_package(&built(false, true), None);
        assert!(f.has_nsc);
        assert!(f.nsc_declares_pins, "prior work would count this app");
        assert!(!f.nsc_pins_effectively, "but the pins are neutered");
    }
}
