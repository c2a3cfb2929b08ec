//! Cipher suites, including the deliberately weak ones Table 8 measures.
//!
//! The paper flags connections that *advertise support for* bad
//! ciphersuites — DES, 3DES, RC4, or EXPORT-grade — in the ClientHello.
//! Advertising is a client-side property, so weakness is measured on the
//! offered list, not on what was ultimately negotiated.

use crate::version::TlsVersion;

/// A TLS cipher suite (a representative subset of the IANA registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum CipherSuite {
    // --- TLS 1.3 suites ---
    /// AES-128-GCM (TLS 1.3).
    TLS_AES_128_GCM_SHA256,
    /// AES-256-GCM (TLS 1.3).
    TLS_AES_256_GCM_SHA384,
    /// ChaCha20-Poly1305 (TLS 1.3).
    TLS_CHACHA20_POLY1305_SHA256,
    // --- Modern TLS 1.2 suites ---
    /// ECDHE-RSA AES-128-GCM.
    TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
    /// ECDHE-RSA AES-256-GCM.
    TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
    /// ECDHE-ECDSA AES-128-GCM.
    TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
    /// ECDHE-RSA ChaCha20-Poly1305.
    TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256,
    /// RSA AES-128-CBC (legacy but not "bad" by the paper's list).
    TLS_RSA_WITH_AES_128_CBC_SHA,
    /// RSA AES-256-CBC (legacy but not "bad" by the paper's list).
    TLS_RSA_WITH_AES_256_CBC_SHA,
    // --- Weak suites (the paper's "bad ciphers": DES, 3DES, RC4, EXPORT) ---
    /// Single DES — weak.
    TLS_RSA_WITH_DES_CBC_SHA,
    /// Triple DES — weak (Sweet32).
    TLS_RSA_WITH_3DES_EDE_CBC_SHA,
    /// RC4 — weak (RFC 7465 prohibits it).
    TLS_RSA_WITH_RC4_128_SHA,
    /// RC4 with MD5 — weak twice over.
    TLS_RSA_WITH_RC4_128_MD5,
    /// EXPORT-grade 40-bit DES — weak (FREAK-era).
    TLS_RSA_EXPORT_WITH_DES40_CBC_SHA,
    /// EXPORT-grade RC4-40 — weak.
    TLS_RSA_EXPORT_WITH_RC4_40_MD5,
}

impl CipherSuite {
    /// Whether the suite is on the paper's bad-cipher list
    /// (DES, 3DES, RC4, or EXPORT).
    pub fn is_weak(self) -> bool {
        matches!(
            self,
            CipherSuite::TLS_RSA_WITH_DES_CBC_SHA
                | CipherSuite::TLS_RSA_WITH_3DES_EDE_CBC_SHA
                | CipherSuite::TLS_RSA_WITH_RC4_128_SHA
                | CipherSuite::TLS_RSA_WITH_RC4_128_MD5
                | CipherSuite::TLS_RSA_EXPORT_WITH_DES40_CBC_SHA
                | CipherSuite::TLS_RSA_EXPORT_WITH_RC4_40_MD5
        )
    }

    /// Whether the suite can be negotiated under `version`.
    pub fn valid_for(self, version: TlsVersion) -> bool {
        match self {
            CipherSuite::TLS_AES_128_GCM_SHA256
            | CipherSuite::TLS_AES_256_GCM_SHA384
            | CipherSuite::TLS_CHACHA20_POLY1305_SHA256 => version == TlsVersion::V1_3,
            _ => version < TlsVersion::V1_3,
        }
    }

    /// IANA-style name.
    pub fn name(self) -> &'static str {
        match self {
            CipherSuite::TLS_AES_128_GCM_SHA256 => "TLS_AES_128_GCM_SHA256",
            CipherSuite::TLS_AES_256_GCM_SHA384 => "TLS_AES_256_GCM_SHA384",
            CipherSuite::TLS_CHACHA20_POLY1305_SHA256 => "TLS_CHACHA20_POLY1305_SHA256",
            CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 => {
                "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"
            }
            CipherSuite::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384 => {
                "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384"
            }
            CipherSuite::TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256 => {
                "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256"
            }
            CipherSuite::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256 => {
                "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256"
            }
            CipherSuite::TLS_RSA_WITH_AES_128_CBC_SHA => "TLS_RSA_WITH_AES_128_CBC_SHA",
            CipherSuite::TLS_RSA_WITH_AES_256_CBC_SHA => "TLS_RSA_WITH_AES_256_CBC_SHA",
            CipherSuite::TLS_RSA_WITH_DES_CBC_SHA => "TLS_RSA_WITH_DES_CBC_SHA",
            CipherSuite::TLS_RSA_WITH_3DES_EDE_CBC_SHA => "TLS_RSA_WITH_3DES_EDE_CBC_SHA",
            CipherSuite::TLS_RSA_WITH_RC4_128_SHA => "TLS_RSA_WITH_RC4_128_SHA",
            CipherSuite::TLS_RSA_WITH_RC4_128_MD5 => "TLS_RSA_WITH_RC4_128_MD5",
            CipherSuite::TLS_RSA_EXPORT_WITH_DES40_CBC_SHA => "TLS_RSA_EXPORT_WITH_DES40_CBC_SHA",
            CipherSuite::TLS_RSA_EXPORT_WITH_RC4_40_MD5 => "TLS_RSA_EXPORT_WITH_RC4_40_MD5",
        }
    }

    /// A modern client offer list (no weak suites) covering 1.2 + 1.3.
    pub fn modern_client_list() -> &'static [CipherSuite] {
        &MODERN_CLIENT[..6]
    }

    /// A permissive legacy offer list that *advertises* weak suites — the
    /// behaviour Table 8 counts against apps.
    pub fn legacy_client_list() -> &'static [CipherSuite] {
        &MODERN_CLIENT
    }

    /// A typical server support list (modern suites plus CBC fallbacks; real
    /// servers rarely *negotiate* weak suites even when clients offer them).
    pub fn typical_server_list() -> &'static [CipherSuite] {
        &TYPICAL_SERVER
    }
}

/// The modern client offer, followed by the four suites only the legacy
/// offer adds.
const MODERN_CLIENT: [CipherSuite; 10] = [
    CipherSuite::TLS_AES_128_GCM_SHA256,
    CipherSuite::TLS_AES_256_GCM_SHA384,
    CipherSuite::TLS_CHACHA20_POLY1305_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
    CipherSuite::TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
    CipherSuite::TLS_RSA_WITH_AES_128_CBC_SHA,
    CipherSuite::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
    CipherSuite::TLS_RSA_WITH_RC4_128_SHA,
    CipherSuite::TLS_RSA_EXPORT_WITH_DES40_CBC_SHA,
];

/// The modern client offer plus CBC fallbacks.
const TYPICAL_SERVER: [CipherSuite; 9] = [
    CipherSuite::TLS_AES_128_GCM_SHA256,
    CipherSuite::TLS_AES_256_GCM_SHA384,
    CipherSuite::TLS_CHACHA20_POLY1305_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
    CipherSuite::TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256,
    CipherSuite::TLS_RSA_WITH_AES_128_CBC_SHA,
    CipherSuite::TLS_RSA_WITH_AES_256_CBC_SHA,
];

impl core::fmt::Display for CipherSuite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Server-side suite selection: first suite in the *server's* preference
/// order that the client offered and that fits the negotiated version.
pub fn select_cipher(
    client_offers: &[CipherSuite],
    server_prefs: &[CipherSuite],
    version: TlsVersion,
) -> Option<CipherSuite> {
    server_prefs
        .iter()
        .find(|s| s.valid_for(version) && client_offers.contains(s))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_classification() {
        assert!(CipherSuite::TLS_RSA_WITH_RC4_128_SHA.is_weak());
        assert!(CipherSuite::TLS_RSA_WITH_3DES_EDE_CBC_SHA.is_weak());
        assert!(CipherSuite::TLS_RSA_EXPORT_WITH_RC4_40_MD5.is_weak());
        assert!(!CipherSuite::TLS_AES_128_GCM_SHA256.is_weak());
        assert!(!CipherSuite::TLS_RSA_WITH_AES_128_CBC_SHA.is_weak());
    }

    #[test]
    fn modern_list_has_no_weak() {
        assert!(CipherSuite::modern_client_list()
            .iter()
            .all(|c| !c.is_weak()));
    }

    #[test]
    fn legacy_list_advertises_weak() {
        assert!(CipherSuite::legacy_client_list()
            .iter()
            .any(|c| c.is_weak()));
    }

    #[test]
    fn legacy_and_server_lists_extend_the_modern_offer() {
        let modern = CipherSuite::modern_client_list();
        assert_eq!(modern.len(), 6);
        assert_eq!(&CipherSuite::legacy_client_list()[..6], modern);
        assert_eq!(&CipherSuite::typical_server_list()[..6], modern);
        assert_eq!(CipherSuite::legacy_client_list().len(), 10);
        assert_eq!(CipherSuite::typical_server_list().len(), 9);
    }

    #[test]
    fn version_gating() {
        assert!(CipherSuite::TLS_AES_128_GCM_SHA256.valid_for(TlsVersion::V1_3));
        assert!(!CipherSuite::TLS_AES_128_GCM_SHA256.valid_for(TlsVersion::V1_2));
        assert!(CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256.valid_for(TlsVersion::V1_2));
        assert!(!CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256.valid_for(TlsVersion::V1_3));
    }

    #[test]
    fn selection_respects_server_preference() {
        let client = CipherSuite::legacy_client_list();
        let server = CipherSuite::typical_server_list();
        let picked = select_cipher(client, server, TlsVersion::V1_2).unwrap();
        assert_eq!(picked, CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256);
        assert!(!picked.is_weak(), "servers never pick a weak suite here");
    }

    #[test]
    fn selection_fails_when_no_overlap() {
        let client = [CipherSuite::TLS_RSA_WITH_RC4_128_MD5];
        let server = CipherSuite::typical_server_list();
        assert_eq!(select_cipher(&client, server, TlsVersion::V1_2), None);
    }

    #[test]
    fn tls13_selection_picks_13_suite() {
        let client = CipherSuite::modern_client_list();
        let server = CipherSuite::typical_server_list();
        let picked = select_cipher(client, server, TlsVersion::V1_3).unwrap();
        assert!(picked.valid_for(TlsVersion::V1_3));
    }
}
