//! The hostname→server directory.

use crate::server::OriginServer;
use pinning_pki::limits::{screen_chain, Budget, ChainDefect};
use pinning_pki::validate::RevocationList;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// `hostname` lowercased, the form names are keyed by; a name that is
/// already lowercase is borrowed, not copied.
pub(crate) fn host_key(hostname: &str) -> Cow<'_, str> {
    if hostname.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(hostname.to_ascii_lowercase())
    } else {
        Cow::Borrowed(hostname)
    }
}

/// The simulated internet: every reachable origin server, keyed by
/// hostname, plus global revocation state.
#[derive(Debug, Default)]
pub struct Network {
    servers: Vec<OriginServer>,
    /// Each server's [`screen_chain`] verdict, computed on first use and
    /// reset by every mutable access to the server.
    screens: Vec<OnceLock<Result<(), ChainDefect>>>,
    by_host: HashMap<String, usize>,
    /// Revoked certificate serials (checked by clients that enable
    /// revocation).
    pub crl: RevocationList,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a server for all its hostnames. Later registrations do not
    /// displace earlier ones (first writer wins, like first-come DNS).
    pub fn register(&mut self, server: OriginServer) -> usize {
        let idx = self.servers.len();
        for host in &server.hostnames {
            self.by_host.entry(host.to_ascii_lowercase()).or_insert(idx);
        }
        self.servers.push(server);
        self.screens.push(OnceLock::new());
        idx
    }

    /// The server index `hostname` resolves to (case-insensitively).
    fn index_of(&self, hostname: &str) -> Option<usize> {
        self.by_host.get(&*host_key(hostname)).copied()
    }

    /// Resolves a hostname.
    pub fn resolve(&self, hostname: &str) -> Option<&OriginServer> {
        self.index_of(hostname).map(|i| &self.servers[i])
    }

    /// Resolves a hostname to a mutable origin server — used by epoch
    /// evolution to swap a server's chain on reissue. Hostname claims stay
    /// fixed; only served state may change, so the server's chain screen
    /// is computed afresh on its next use.
    pub fn resolve_mut(&mut self, hostname: &str) -> Option<&mut OriginServer> {
        let i = self.index_of(hostname)?;
        self.screens[i] = OnceLock::new();
        Some(&mut self.servers[i])
    }

    /// Whether a hostname resolves.
    pub fn has_host(&self, hostname: &str) -> bool {
        self.index_of(hostname).is_some()
    }

    /// The [`screen_chain`] verdict, under [`Budget::STANDARD`], on the
    /// chain `hostname`'s server presents; `None` if the name does not
    /// resolve. Each server's chain is screened once, however many
    /// connections reach it.
    pub fn chain_screen(&self, hostname: &str) -> Option<Result<(), ChainDefect>> {
        let i = self.index_of(hostname)?;
        Some(
            *self.screens[i]
                .get_or_init(|| screen_chain(self.servers[i].chain.certs(), &Budget::STANDARD)),
        )
    }

    /// All registered servers.
    pub fn servers(&self) -> &[OriginServer] {
        &self.servers
    }

    /// Mutable access to all registered servers (hostname claims are fixed
    /// at registration; this exists for post-generation passes over served
    /// chains, e.g. certificate interning). Every chain is screened afresh
    /// on its next use.
    pub fn servers_mut(&mut self) -> &mut [OriginServer] {
        self.screens.fill_with(OnceLock::new);
        &mut self.servers
    }

    /// Number of distinct hostnames.
    pub fn n_hostnames(&self) -> usize {
        self.by_host.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::universe::{PkiUniverse, UniverseConfig};

    fn server(u: &mut PkiUniverse, rng: &mut SplitMix64, host: &str) -> OriginServer {
        let key = KeyPair::generate(rng);
        let chain = u.issue_server_chain(&[host.to_string()], "Org", &key, 398, rng);
        OriginServer::modern(vec![host.to_string()], "Org".into(), chain)
    }

    #[test]
    fn register_and_resolve() {
        let mut rng = SplitMix64::new(2);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let mut net = Network::new();
        net.register(server(&mut u, &mut rng, "a.com"));
        assert!(net.has_host("a.com"));
        assert!(net.has_host("A.COM"), "case-insensitive");
        assert!(!net.has_host("b.com"));
        assert_eq!(net.resolve("a.com").unwrap().hostnames[0], "a.com");
    }

    #[test]
    fn mixed_case_names_resolve_as_lowercase_names_do() {
        let mut rng = SplitMix64::new(6);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let mut net = Network::new();
        net.register(server(&mut u, &mut rng, "api.Mixed.com"));
        net.register(server(&mut u, &mut rng, "b.com"));
        let lower: *const OriginServer = net.resolve("api.mixed.com").expect("lowercased");
        for name in ["API.MIXED.COM", "Api.Mixed.Com", "api.Mixed.com"] {
            assert!(std::ptr::eq(net.resolve(name).unwrap(), lower), "{name}");
            assert!(net.has_host(name));
            assert_eq!(net.chain_screen(name), net.chain_screen("api.mixed.com"));
            assert!(
                std::ptr::eq(net.resolve_mut(name).unwrap(), lower),
                "{name}"
            );
        }
        for name in ["B.COM", "b.Com"] {
            assert_eq!(net.resolve(name).unwrap().hostnames[0], "b.com");
        }
        assert!(net.resolve("C.COM").is_none() && net.chain_screen("c.com").is_none());
    }

    #[test]
    fn a_chain_swapped_through_resolve_mut_is_screened_again() {
        let mut rng = SplitMix64::new(7);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let mut net = Network::new();
        net.register(server(&mut u, &mut rng, "a.com"));
        assert_eq!(net.chain_screen("a.com"), Some(Ok(())));
        let leaf = net.resolve("a.com").unwrap().chain.certs()[0].clone();
        let repeated = pinning_pki::chain::CertificateChain::new(vec![leaf.clone(), leaf]);
        net.resolve_mut("A.com").unwrap().chain = repeated.clone();
        let fresh = screen_chain(repeated.certs(), &Budget::STANDARD);
        assert!(fresh.is_err());
        assert_eq!(net.chain_screen("a.com"), Some(fresh));
        net.servers_mut()[0].chain = u.issue_server_chain(
            &["a.com".to_string()],
            "Org",
            &KeyPair::generate(&mut rng),
            398,
            &mut rng,
        );
        assert_eq!(net.chain_screen("a.com"), Some(Ok(())));
    }

    #[test]
    fn first_registration_wins() {
        let mut rng = SplitMix64::new(3);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let mut net = Network::new();
        let mut s1 = server(&mut u, &mut rng, "x.com");
        s1.response_bytes = 111;
        let mut s2 = server(&mut u, &mut rng, "x.com");
        s2.response_bytes = 222;
        net.register(s1);
        net.register(s2);
        assert_eq!(net.resolve("x.com").unwrap().response_bytes, 111);
    }

    #[test]
    fn multi_host_server() {
        let mut rng = SplitMix64::new(4);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let key = KeyPair::generate(&mut rng);
        let hosts = vec!["api.y.com".to_string(), "cdn.y.com".to_string()];
        let chain = u.issue_server_chain(&hosts, "Y", &key, 398, &mut rng);
        let mut net = Network::new();
        net.register(OriginServer::modern(hosts, "Y".into(), chain));
        assert!(net.has_host("api.y.com"));
        assert!(net.has_host("cdn.y.com"));
        assert_eq!(net.n_hostnames(), 2);
        assert_eq!(net.servers().len(), 1);
    }
}
