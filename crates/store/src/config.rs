//! World-generation configuration: every calibration knob in one place.
//!
//! The probabilities here are *inputs* chosen so that the measurement
//! pipeline's *outputs* land near the paper's reported values; they are
//! documented with the table/section they calibrate. EXPERIMENTS.md records
//! paper-vs-measured for each.

/// Per-platform pinning-probability knobs.
#[derive(Debug, Clone)]
pub struct PinningRates {
    /// First-party pinning probability for top-chart apps (calibrates
    /// Table 3 "Popular" dynamic rows, together with SDK pinning).
    pub first_party_popular: f64,
    /// First-party pinning probability for tail (random) apps.
    pub first_party_tail: f64,
    /// Multiplier applied for data-sensitive categories (Tables 4/5 put
    /// Finance at ~3× the base rate).
    pub sensitive_category_boost: f64,
    /// Probability that an app's ClientHello list includes weak ciphers
    /// (Table 8 "Overall": ~93% iOS, ~8–18% Android).
    pub weak_cipher_app: f64,
    /// Same, but for connections governed by a pin rule (Table 8 "Pinning
    /// apps": pinning code paths usually configure TLS deliberately).
    pub weak_cipher_pinned: f64,
    /// Probability that a *popular* app embeds decoy certificates unrelated
    /// to pinning (CA bundles, license certs) — the static over-count of
    /// Table 3.
    pub decoy_cert_popular: f64,
    /// Same for tail (random) apps, which ship fewer SDKs and assets.
    pub decoy_cert_tail: f64,
    /// Probability that a *pinned* connection carries the advertising id
    /// (Table 9: higher on iOS, where the paper found the difference
    /// statistically significant).
    pub adid_pinned: f64,
}

/// All world-generation knobs.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Apps per platform in the whole store (sampling frame).
    pub store_size: usize,
    /// Cross-platform products (the AlternativeTo-linkable population).
    pub n_cross_products: usize,
    /// Dataset sizes, mirroring §3.
    pub common_size: usize,
    /// Popular dataset size per platform.
    pub popular_size: usize,
    /// Random dataset size per platform.
    pub random_size: usize,
    /// Fraction of the store that counts as "top charts" — the pool the
    /// Popular dataset samples from (the paper drew 1,000 from ≈12k chart
    /// entries of a much larger store).
    pub popular_pool_fraction: f64,
    /// Android knobs.
    pub android: PinningRates,
    /// iOS knobs.
    pub ios: PinningRates,
    /// Probability an Android app ships the Possemato-style NSC
    /// `overridePins` misconfiguration.
    pub nsc_misconfig_prob: f64,
    /// Probability a pinning app hides its pins from static analysis
    /// (obfuscation/runtime construction, §5.6 limitations).
    pub obfuscated_pin_prob: f64,
    /// Of Android pinning apps, the share whose pin channel is NSC
    /// (Table 3: NSC finds ~¼ of what dynamic analysis finds).
    pub nsc_share_android: f64,
    /// Probability a first-party pin targets a custom-PKI destination
    /// (Table 6: 4/178 Android, 1/253 iOS pinned destinations).
    pub custom_pki_prob: f64,
    /// Pin-target mix among pin rules: (root, intermediate, leaf) weights
    /// (§5.3.2 finds ~73% CA pins vs 27% leaf).
    pub pin_target_weights: (u32, u32, u32),
    /// Probability an iOS app declares associated domains (§4.5: 34%).
    pub associated_domain_prob: f64,
    /// Probability a planned connection is opened but never used
    /// (the redundant-connection confounder, §4.2.2).
    pub redundant_conn_prob: f64,
    /// Mean planned connections per app (calibrates the §4.2.1 sleep-time
    /// handshake counts: 20.78 / 23.5 / 24.62 at 15/30/60 s).
    pub mean_connections: usize,
    /// Probability that a non-pinned connection carries the advertising id
    /// (the pinned-side probability is per-platform, in [`PinningRates`]).
    pub adid_prob: (f64, f64),
    /// Per-domain server flakiness (1 − reliability).
    pub server_flakiness: f64,
    /// Share of servers stuck on TLS 1.2.
    pub tls12_server_share: f64,
    /// Fraction of publicly-issued leaf certificates submitted to the CT
    /// log (§4.1.3 resolved ~50% of pins via crt.sh).
    pub ct_leaf_coverage: f64,
    /// Fraction of CA certificates indexed by the CT search (crt.sh's
    /// SPKI index is not exhaustive for CA material either).
    pub ct_ca_coverage: f64,
    /// FairPlay key for iOS store downloads.
    pub ios_encryption_seed: u64,
    /// Number of adversarial apps planted outside the store listings:
    /// apps whose servers present pathological chains (cycles, 50-deep
    /// chains, giant SAN lists, stacked wildcards) or whose packages
    /// carry garbage certificate assets / fake-PEM NSC files. `0` (the
    /// default everywhere) leaves the world byte-identical to earlier
    /// revisions; the robustness experiments set it explicitly.
    pub adversarial_apps: usize,
}

impl WorldConfig {
    /// Paper-scale world: big enough that all six datasets draw without
    /// replacement and percentages stabilize.
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig {
            seed,
            store_size: 10_000,
            n_cross_products: 800,
            common_size: 575,
            popular_size: 1000,
            random_size: 1000,
            popular_pool_fraction: 0.12,
            android: PinningRates {
                first_party_popular: 0.023,
                first_party_tail: 0.0012,
                sensitive_category_boost: 3.2,
                weak_cipher_app: 0.12,
                weak_cipher_pinned: 0.04,
                decoy_cert_popular: 0.12,
                decoy_cert_tail: 0.062,
                adid_pinned: 0.19,
            },
            ios: PinningRates {
                first_party_popular: 0.125,
                first_party_tail: 0.0035,
                sensitive_category_boost: 2.8,
                weak_cipher_app: 0.92,
                weak_cipher_pinned: 0.50,
                decoy_cert_popular: 0.30,
                decoy_cert_tail: 0.022,
                adid_pinned: 0.26,
            },
            nsc_misconfig_prob: 0.008,
            obfuscated_pin_prob: 0.06,
            nsc_share_android: 0.20,
            custom_pki_prob: 0.03,
            pin_target_weights: (60, 13, 27),
            associated_domain_prob: 0.34,
            redundant_conn_prob: 0.15,
            mean_connections: 24,
            adid_prob: (0.14, 0.22),
            server_flakiness: 0.004,
            tls12_server_share: 0.30,
            ct_leaf_coverage: 0.42,
            ct_ca_coverage: 0.52,
            ios_encryption_seed: 0xFA1A_9AE5_EED5_0001,
            adversarial_apps: 0,
        }
    }

    /// A miniature world for unit tests and doctests: same structure, two
    /// orders of magnitude smaller.
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            store_size: 60,
            n_cross_products: 16,
            common_size: 10,
            popular_size: 20,
            random_size: 20,
            ..Self::paper_scale(seed)
        }
    }

    /// The benchmark world, between tiny and paper scale: 1,200 apps per
    /// store, large enough that every table has non-trivial rows.
    pub fn bench(seed: u64) -> Self {
        WorldConfig {
            store_size: 1200,
            n_cross_products: 200,
            common_size: 140,
            popular_size: 250,
            random_size: 250,
            ..Self::paper_scale(seed)
        }
    }

    /// Pinning rates for `platform`.
    pub fn rates(&self, platform: pinning_app::platform::Platform) -> &PinningRates {
        match platform {
            pinning_app::platform::Platform::Android => &self.android,
            pinning_app::platform::Platform::Ios => &self.ios,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_app::platform::Platform;

    #[test]
    fn paper_scale_is_consistent() {
        let c = WorldConfig::paper_scale(1);
        assert!(c.store_size >= c.popular_size + c.random_size);
        assert!(c.n_cross_products >= c.common_size);
        assert!(c.ios.first_party_popular > c.android.first_party_popular);
    }

    #[test]
    fn tiny_preserves_rates() {
        let c = WorldConfig::tiny(1);
        assert_eq!(
            c.android.first_party_popular,
            WorldConfig::paper_scale(1).android.first_party_popular
        );
        assert!(c.store_size < 100);
    }

    #[test]
    fn rates_accessor() {
        let c = WorldConfig::paper_scale(1);
        assert_eq!(
            c.rates(Platform::Ios).weak_cipher_app,
            c.ios.weak_cipher_app
        );
        assert_eq!(
            c.rates(Platform::Android).weak_cipher_app,
            c.android.weak_cipher_app
        );
    }
}
