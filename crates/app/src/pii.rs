//! Personally identifiable information (PII) types and payload rendering.
//!
//! The paper searches decrypted traffic for a fixed PII vocabulary (§4.4):
//! IMEI, advertising ID, WiFi MAC address, user email, state, city and
//! latitude/longitude. We render each as a key-value fragment in a synthetic
//! HTTP-ish request body; `pinning-analysis::pii` then detects them with
//! value-matching (the device's known identifiers), like ReCon-style
//! pipelines do.

use pinning_crypto::SplitMix64;

/// PII categories tracked by the study (Table 9's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PiiType {
    /// Device IMEI.
    Imei,
    /// Advertising identifier (AAID / IDFA).
    AdvertisingId,
    /// WiFi MAC address.
    WifiMac,
    /// Account email address.
    Email,
    /// Coarse location: state.
    State,
    /// Coarse location: city.
    City,
    /// Fine location: latitude/longitude pair.
    LatLon,
}

impl PiiType {
    /// All PII types, in Table 9 row order.
    pub const ALL: [PiiType; 7] = [
        PiiType::Imei,
        PiiType::AdvertisingId,
        PiiType::WifiMac,
        PiiType::Email,
        PiiType::State,
        PiiType::City,
        PiiType::LatLon,
    ];

    /// Display label used in Table 9.
    pub fn label(self) -> &'static str {
        match self {
            PiiType::Imei => "IMEI",
            PiiType::AdvertisingId => "Ad. ID",
            PiiType::WifiMac => "WiFi MAC",
            PiiType::Email => "Email",
            PiiType::State => "State",
            PiiType::City => "City",
            PiiType::LatLon => "Lat./Lon.",
        }
    }

    /// The query-parameter key an app would use for this PII.
    pub fn param_key(self) -> &'static str {
        match self {
            PiiType::Imei => "imei",
            PiiType::AdvertisingId => "adid",
            PiiType::WifiMac => "mac",
            PiiType::Email => "email",
            PiiType::State => "state",
            PiiType::City => "city",
            PiiType::LatLon => "latlon",
        }
    }
}

impl core::fmt::Display for PiiType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The identity of the test device/account: concrete values for every PII
/// type, fixed for a whole study run (the paper used dedicated test
/// accounts, §7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceIdentity {
    /// IMEI digits.
    pub imei: String,
    /// Advertising identifier (UUID-ish).
    pub advertising_id: String,
    /// WiFi MAC.
    pub wifi_mac: String,
    /// Test account email.
    pub email: String,
    /// State.
    pub state: String,
    /// City.
    pub city: String,
    /// "lat,lon" string.
    pub latlon: String,
}

impl DeviceIdentity {
    /// Deterministically generates a device identity.
    pub fn generate(rng: &mut SplitMix64) -> Self {
        let digits = |rng: &mut SplitMix64, n: usize| -> String {
            (0..n)
                .map(|_| char::from(b'0' + rng.next_below(10) as u8))
                .collect()
        };
        let hex = |rng: &mut SplitMix64, n: usize| -> String {
            const H: &[u8; 16] = b"0123456789abcdef";
            (0..n)
                .map(|_| char::from(H[rng.next_below(16) as usize]))
                .collect()
        };
        let imei = digits(rng, 15);
        let advertising_id = format!(
            "{}-{}-{}-{}-{}",
            hex(rng, 8),
            hex(rng, 4),
            hex(rng, 4),
            hex(rng, 4),
            hex(rng, 12)
        );
        let mac_bytes: Vec<String> = (0..6).map(|_| hex(rng, 2)).collect();
        let wifi_mac = mac_bytes.join(":");
        let email = format!("testacct{}@example-mail.com", digits(rng, 6));
        let state = "Massachusetts".to_string();
        let city = "Boston".to_string();
        let latlon = format!("42.{},-71.{}", digits(rng, 4), digits(rng, 4));
        DeviceIdentity {
            imei,
            advertising_id,
            wifi_mac,
            email,
            state,
            city,
            latlon,
        }
    }

    /// The concrete value for a PII type.
    pub fn value_of(&self, pii: PiiType) -> &str {
        match pii {
            PiiType::Imei => &self.imei,
            PiiType::AdvertisingId => &self.advertising_id,
            PiiType::WifiMac => &self.wifi_mac,
            PiiType::Email => &self.email,
            PiiType::State => &self.state,
            PiiType::City => &self.city,
            PiiType::LatLon => &self.latlon,
        }
    }

    /// Renders an HTTP-ish request body containing `pii` fields plus generic
    /// telemetry noise, as an app would transmit it.
    pub fn render_payload(&self, pii: &[PiiType], noise_token: u64) -> String {
        use core::fmt::Write;
        let mut body = String::with_capacity(self.payload_len(pii, noise_token));
        write!(body, "{PAYLOAD_HEAD}{noise_token}{PAYLOAD_NOISE}")
            .expect("a String takes any write");
        for &p in pii {
            body.push('&');
            body.push_str(p.param_key());
            body.push('=');
            body.push_str(self.value_of(p));
        }
        body
    }

    /// The length in bytes of [`DeviceIdentity::render_payload`]'s body,
    /// without rendering it (what a run that sees only ciphertext needs).
    pub fn payload_len(&self, pii: &[PiiType], noise_token: u64) -> usize {
        let digits = noise_token.checked_ilog10().map_or(1, |d| d as usize + 1);
        PAYLOAD_HEAD.len()
            + digits
            + PAYLOAD_NOISE.len()
            + pii
                .iter()
                .map(|&p| 2 + p.param_key().len() + self.value_of(p).len())
                .sum::<usize>()
    }

    /// The `Vec<String>`-join rendering `render_payload` replaced, kept as
    /// the reference its output is tested against.
    #[cfg(test)]
    fn render_payload_joined(&self, pii: &[PiiType], noise_token: u64) -> String {
        let mut parts: Vec<String> = vec![
            "event=launch".to_string(),
            format!("ts={noise_token}"),
            "sdkv=7.2.1".to_string(),
        ];
        for p in pii {
            parts.push(format!("{}={}", p.param_key(), self.value_of(*p)));
        }
        parts.join("&")
    }
}

/// Every request body starts with these fields, the noise token between
/// them.
const PAYLOAD_HEAD: &str = "event=launch&ts=";
const PAYLOAD_NOISE: &str = "&sdkv=7.2.1";

#[cfg(test)]
mod tests {
    use super::*;

    fn identity() -> DeviceIdentity {
        DeviceIdentity::generate(&mut SplitMix64::new(0xdee))
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(identity(), identity());
    }

    #[test]
    fn imei_is_15_digits() {
        let d = identity();
        assert_eq!(d.imei.len(), 15);
        assert!(d.imei.chars().all(|c| c.is_ascii_digit()));
    }

    #[test]
    fn adid_is_uuid_shaped() {
        let d = identity();
        let parts: Vec<_> = d.advertising_id.split('-').collect();
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            vec![8, 4, 4, 4, 12]
        );
    }

    #[test]
    fn mac_is_colon_hex() {
        let d = identity();
        assert_eq!(d.wifi_mac.split(':').count(), 6);
    }

    #[test]
    fn payload_contains_values_only_for_requested_pii() {
        let d = identity();
        let body = d.render_payload(&[PiiType::AdvertisingId, PiiType::City], 42);
        assert!(body.contains(&d.advertising_id));
        assert!(body.contains("city=Boston"));
        assert!(!body.contains(&d.imei));
        assert!(!body.contains(&d.email));
    }

    /// Every subset of the PII vocabulary, in `PiiType::ALL` order.
    fn every_pii_subset() -> impl Iterator<Item = Vec<PiiType>> {
        (0u32..1 << PiiType::ALL.len()).map(|mask| {
            PiiType::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &p)| p)
                .collect()
        })
    }

    const TOKENS: [u64; 5] = [0, 9, 10, 99_999, 0xffff_ffff];

    #[test]
    fn payload_len_is_the_rendered_length() {
        let d = identity();
        for pii in every_pii_subset() {
            for token in TOKENS {
                assert_eq!(
                    d.payload_len(&pii, token),
                    d.render_payload(&pii, token).len(),
                    "{pii:?} / {token}"
                );
            }
        }
    }

    #[test]
    fn single_buffer_render_equals_the_joined_render() {
        let d = identity();
        for pii in every_pii_subset() {
            for token in TOKENS {
                assert_eq!(
                    d.render_payload(&pii, token),
                    d.render_payload_joined(&pii, token),
                    "{pii:?} / {token}"
                );
            }
        }
        let reversed: Vec<PiiType> = PiiType::ALL.iter().rev().copied().collect();
        assert_eq!(
            d.render_payload(&reversed, 7),
            d.render_payload_joined(&reversed, 7)
        );
    }

    #[test]
    fn all_types_have_distinct_keys() {
        use std::collections::HashSet;
        let keys: HashSet<_> = PiiType::ALL.iter().map(|p| p.param_key()).collect();
        assert_eq!(keys.len(), PiiType::ALL.len());
    }
}
