//! Origin servers.

use pinning_pki::chain::CertificateChain;
use pinning_tls::{CipherSuite, TlsVersion};

/// An origin server: the thing a hostname resolves to.
#[derive(Debug, Clone)]
pub struct OriginServer {
    /// Hostnames this server answers for.
    pub hostnames: Vec<String>,
    /// Organization operating the server (first-/third-party attribution
    /// consults this through the whois registry, not directly).
    pub organization: String,
    /// Chain presented during handshakes.
    pub chain: CertificateChain,
    /// Supported protocol versions.
    pub versions: Vec<TlsVersion>,
    /// Supported cipher suites, in preference order.
    pub ciphers: Vec<CipherSuite>,
    /// Probability that a given connection attempt succeeds at the TCP
    /// level (models the server-side flakiness the paper had to exclude).
    pub reliability: f64,
    /// Typical response size in bytes.
    pub response_bytes: usize,
}

impl OriginServer {
    /// A reliable modern server for `hostnames` presenting `chain`.
    pub fn modern(hostnames: Vec<String>, organization: String, chain: CertificateChain) -> Self {
        OriginServer {
            hostnames,
            organization,
            chain,
            versions: TlsVersion::MODERN.to_vec(),
            ciphers: CipherSuite::typical_server_list().to_vec(),
            reliability: 0.995,
            response_bytes: 4096,
        }
    }

    /// Restricts the server to TLS 1.2 (a sizeable share of real servers at
    /// the paper's capture time).
    pub fn tls12_only(mut self) -> Self {
        self.versions = vec![TlsVersion::V1_2];
        self
    }

    /// Marks the server as flaky.
    pub fn flaky(mut self, reliability: f64) -> Self {
        self.reliability = reliability;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::universe::{PkiUniverse, UniverseConfig};

    #[test]
    fn construction_defaults() {
        let mut rng = SplitMix64::new(1);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let key = KeyPair::generate(&mut rng);
        let chain = u.issue_server_chain(&["a.com".to_string()], "A", &key, 398, &mut rng);
        let s = OriginServer::modern(vec!["a.com".into()], "A".into(), chain);
        assert!(s.versions.contains(&TlsVersion::V1_3));
        assert!(s.reliability > 0.99);
        let s12 = s.tls12_only();
        assert_eq!(s12.versions, vec![TlsVersion::V1_2]);
    }
}
