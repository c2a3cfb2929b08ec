//! Handshake messages (the fields the methodology observes).

use crate::cipher::CipherSuite;
use crate::version::TlsVersion;

/// A ClientHello as observed on the wire (always plaintext).
///
/// The paper reports that 99% of captured TLS traffic carried a non-empty
/// SNI (§4.2.2), which is what lets flows be keyed by destination hostname.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientHello<'a> {
    /// Server Name Indication, if the client sends one.
    pub sni: Option<&'a str>,
    /// Offered protocol versions (supported_versions extension / legacy
    /// version field).
    pub offered_versions: &'a [TlsVersion],
    /// Offered cipher suites, in client preference order.
    pub offered_ciphers: &'a [CipherSuite],
}

impl ClientHello<'_> {
    /// Approximate wire size of the ClientHello payload in bytes.
    pub fn wire_len(&self) -> usize {
        let base = 180; // random, session id, extensions scaffolding
        base + self.offered_ciphers.len() * 2
            + self.sni.map_or(0, |s| s.len() + 9)
            + self.offered_versions.len() * 2
    }
}

/// A ServerHello as observed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// Negotiated version.
    pub version: TlsVersion,
    /// Negotiated cipher suite.
    pub cipher: CipherSuite,
}

impl ServerHello {
    /// Approximate wire size in bytes.
    pub fn wire_len(&self) -> usize {
        90
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_grows_with_content() {
        let small = ClientHello {
            sni: None,
            offered_versions: &[TlsVersion::V1_2],
            offered_ciphers: &[CipherSuite::TLS_AES_128_GCM_SHA256],
        };
        let big = ClientHello {
            sni: Some("a-very-long-hostname.cdn.example.com"),
            offered_versions: &TlsVersion::MODERN,
            offered_ciphers: CipherSuite::legacy_client_list(),
        };
        assert!(big.wire_len() > small.wire_len());
    }
}
