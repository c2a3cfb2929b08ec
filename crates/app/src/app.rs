//! The aggregate app model.

use crate::behavior::AppBehavior;
use crate::category::Category;
use crate::package::AppPackage;
use crate::pinning::DomainPinRule;
use crate::platform::AppId;

/// A complete simulated mobile app: identity, store metadata, ground-truth
/// pinning rules, runtime behaviour, and the built package.
#[derive(Debug, Clone)]
pub struct MobileApp {
    /// Platform-qualified identifier.
    pub id: AppId,
    /// Logical product key shared by an Android/iOS sibling pair (the
    /// AlternativeTo linkage of §3 maps to this).
    pub product_key: String,
    /// Display name.
    pub name: String,
    /// Developer organization (drives first-/third-party attribution).
    pub developer_org: String,
    /// Store category.
    pub category: Category,
    /// Popularity rank on its store (1 = top). Random-dataset apps carry
    /// large ranks.
    pub popularity_rank: u32,
    /// Names of bundled third-party SDKs.
    pub sdk_names: Vec<String>,
    /// Ground-truth pinning rules (index-addressed by behaviour entries).
    pub pin_rules: Vec<DomainPinRule>,
    /// First-party domains the app owns.
    pub first_party_domains: Vec<String>,
    /// iOS associated domains from entitlements (triggers OS background
    /// traffic, §4.5). Empty on Android.
    pub associated_domains: Vec<String>,
    /// Whether the Android build ships an NSC file.
    pub uses_nsc: bool,
    /// Launch-time network behaviour.
    pub behavior: AppBehavior,
    /// The built package (encrypted for iOS store downloads).
    pub package: AppPackage,
}

impl MobileApp {
    /// Whether any pin rule is active at run time (the app "actually pins").
    pub fn pins_at_runtime(&self) -> bool {
        self.behavior
            .connections
            .iter()
            .filter_map(|c| c.pin_rule)
            .any(|i| self.pin_rules.get(i).is_some_and(|r| r.active_at_runtime))
    }

    /// Whether any pin artifact is statically visible in the package.
    pub fn has_static_pin_artifacts(&self) -> bool {
        self.pin_rules
            .iter()
            .any(|r| r.storage.statically_visible())
    }

    /// The first active rule applying to `hostname`, with its index.
    pub fn pin_rule_for(&self, hostname: &str) -> Option<(usize, &DomainPinRule)> {
        self.pin_rules
            .iter()
            .enumerate()
            .find(|(_, r)| r.active_at_runtime && r.applies_to(hostname))
    }

    /// Ground truth: domains this app pins *and contacts* at run time.
    pub fn runtime_pinned_domains(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .behavior
            .connections
            .iter()
            .filter(|c| {
                c.pin_rule
                    .and_then(|i| self.pin_rules.get(i))
                    .is_some_and(|r| r.active_at_runtime)
            })
            .map(|c| c.domain.as_str())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::PlannedConnection;
    use crate::pinning::{PinSource, PinStorage, PinTarget};
    use crate::platform::Platform;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::pin::PinAlgorithm;
    use pinning_pki::time::{SimTime, Validity, YEAR};
    use pinning_tls::TlsLibrary;

    fn sample_app(active: bool, contacted: bool) -> MobileApp {
        let mut rng = SplitMix64::new(0x3a9);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("R", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let k = KeyPair::generate(&mut rng);
        let cert = root.issue_leaf(
            &["api.shop.com".to_string()],
            "Shop",
            &k,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut rule = DomainPinRule::spki(
            "api.shop.com",
            &cert,
            PinTarget::Leaf,
            PinAlgorithm::Sha256,
            PinStorage::SpkiStringInCode(PinAlgorithm::Sha256),
            PinSource::FirstParty,
        );
        if !active {
            rule = rule.dead_code();
        }
        let mut conn = PlannedConnection::simple("api.shop.com", TlsLibrary::OkHttp);
        conn.pin_rule = contacted.then_some(0);
        MobileApp {
            id: AppId::new(Platform::Android, "com.shop.app"),
            product_key: "shop".into(),
            name: "Shop".into(),
            developer_org: "Shop Inc".into(),
            category: Category::Shopping,
            popularity_rank: 10,
            sdk_names: vec![],
            pin_rules: vec![rule],
            first_party_domains: vec!["api.shop.com".into()],
            associated_domains: vec![],
            uses_nsc: false,
            behavior: AppBehavior {
                connections: vec![conn],
            },
            package: AppPackage::new(Platform::Android, vec![]),
        }
    }

    #[test]
    fn runtime_pinning_requires_active_rule_and_contact() {
        assert!(sample_app(true, true).pins_at_runtime());
        assert!(
            !sample_app(false, true).pins_at_runtime(),
            "dead code never pins"
        );
        assert!(
            !sample_app(true, false).pins_at_runtime(),
            "uncontacted rule never pins"
        );
    }

    #[test]
    fn static_artifacts_present_even_for_dead_code() {
        assert!(sample_app(false, false).has_static_pin_artifacts());
    }

    #[test]
    fn pin_rule_lookup() {
        let app = sample_app(true, true);
        assert!(app.pin_rule_for("api.shop.com").is_some());
        assert!(app.pin_rule_for("other.com").is_none());
        let dead = sample_app(false, true);
        assert!(
            dead.pin_rule_for("api.shop.com").is_none(),
            "dead rules don't apply"
        );
    }

    #[test]
    fn runtime_pinned_domains_lists_contacted_pinned() {
        assert_eq!(
            sample_app(true, true).runtime_pinned_domains(),
            vec!["api.shop.com"]
        );
        assert!(sample_app(true, false).runtime_pinned_domains().is_empty());
    }
}
