//! World generation: the simulated mobile ecosystem with planted ground
//! truth.
//!
//! Generation order matters:
//!
//! 1. the PKI universe (roots, intermediates, platform stores);
//! 2. infrastructure servers (Apple background domains, SDK backends,
//!    shared CDN noise);
//! 3. products and their first-party domains/servers — *pinning decisions
//!    are made first*, because custom-PKI products need their servers
//!    registered with private chains;
//! 4. per-platform apps (the `appgen` submodule), with coordinated
//!    cross-platform consistency profiles for Common-dataset products;
//! 5. CT-log submission of the publicly-issued certificates.

use crate::config::WorldConfig;
use crate::intern::CertInterner;
use crate::whois::WhoisRegistry;
use pinning_app::app::MobileApp;
use pinning_app::platform::Platform;
use pinning_app::sdk;
use pinning_crypto::sig::KeyPair;
use pinning_crypto::SplitMix64;
use pinning_ctlog::LogSet;
use pinning_netsim::network::Network;
use pinning_netsim::server::OriginServer;
use pinning_pki::time::SimTime;
use pinning_pki::universe::{PkiUniverse, UniverseConfig};
use std::collections::HashMap;

pub(crate) mod appgen;

pub use appgen::HostileKind;

/// The complete generated ecosystem.
#[derive(Debug)]
pub struct World {
    /// Generation configuration.
    pub config: WorldConfig,
    /// The PKI.
    pub universe: PkiUniverse,
    /// Every reachable server.
    pub network: Network,
    /// The CT ecosystem: operator/temporally sharded logs whose union is
    /// the crt.sh substitute.
    pub ctlog: LogSet,
    /// Domain-ownership registry.
    pub whois: WhoisRegistry,
    /// Every app on both stores.
    pub apps: Vec<MobileApp>,
    /// Android store listing: app indices in rank order (rank 1 first).
    pub android_listing: Vec<usize>,
    /// iOS store listing: app indices in rank order.
    pub ios_listing: Vec<usize>,
    /// AlternativeTo-style cross-platform product keys, popularity order.
    pub alternativeto: Vec<String>,
    /// Product key → (android app idx, ios app idx).
    pub products: HashMap<String, (Option<usize>, Option<usize>)>,
    /// Indices (into [`World::apps`]) of the adversarial cohort: hostile
    /// apps planted outside the store listings (see
    /// [`crate::config::WorldConfig::adversarial_apps`]). Empty by default.
    pub hostile_apps: Vec<usize>,
    /// Canonical copies of every CA certificate served anywhere on the
    /// network, warmed so derived values are never recomputed.
    pub interner: CertInterner,
    /// Simulation "now".
    pub now: SimTime,
}

impl World {
    /// Generates the world from `config`.
    pub fn generate(config: WorldConfig) -> World {
        let mut gen = Generator::for_world(&config);
        let (apps, android_listing, ios_listing, alternativeto, products, hostile_apps) =
            appgen::generate_apps(&mut gen);

        let Generator {
            universe,
            mut network,
            ctlog,
            whois,
            now,
            ..
        } = gen;

        // Intern CA material: thousands of served chains embed the same few
        // dozen intermediates/roots, so point them all at one canonical
        // copy per fingerprint and pay each derived value (DER,
        // fingerprint, SPKI digests, pin string) exactly once.
        let mut interner = CertInterner::new();
        for server in network.servers_mut() {
            interner.intern_chain_cas(&mut server.chain);
        }
        interner.warm();

        World {
            config,
            universe,
            network,
            ctlog,
            whois,
            apps,
            android_listing,
            ios_listing,
            alternativeto,
            products,
            hostile_apps,
            interner,
            now,
        }
    }

    /// The app at a listing rank (1-based) on `platform`.
    pub fn app_at_rank(&self, platform: Platform, rank: usize) -> Option<&MobileApp> {
        let listing = match platform {
            Platform::Android => &self.android_listing,
            Platform::Ios => &self.ios_listing,
        };
        listing.get(rank.checked_sub(1)?).map(|&i| &self.apps[i])
    }

    /// The listing for `platform`.
    pub fn listing(&self, platform: Platform) -> &[usize] {
        match platform {
            Platform::Android => &self.android_listing,
            Platform::Ios => &self.ios_listing,
        }
    }
}

/// Shared generation state passed through the sub-generators.
pub(crate) struct Generator<'a> {
    pub config: &'a WorldConfig,
    pub universe: PkiUniverse,
    pub network: Network,
    pub ctlog: LogSet,
    pub whois: WhoisRegistry,
    pub rng: SplitMix64,
    /// Simulation "now".
    pub now: SimTime,
    /// When set, public-server leaf serials come from the hostname's own
    /// RNG stream instead of the intermediate's issuance counter. The
    /// legacy (monolithic) generator leaves this off, keeping its worlds
    /// byte-identical; the streaming shard generator turns it on so a
    /// host's chain never depends on how many hosts other shards issued
    /// first.
    pub seeded_serials: bool,
}

impl<'a> Generator<'a> {
    /// The monolithic world's generator: the PKI universe, the CT log
    /// ecosystem and the infrastructure servers, before any app.
    pub fn for_world(config: &'a WorldConfig) -> Self {
        let root_rng = SplitMix64::new(config.seed);
        let mut pki_rng = root_rng.derive("pki");
        let universe = PkiUniverse::generate(&UniverseConfig::default(), &mut pki_rng);
        let now = universe.now();

        let mut ct_rng = root_rng.derive("ct");
        let mut gen = Generator {
            config,
            universe,
            network: Network::new(),
            ctlog: LogSet::sim_ecosystem(
                now,
                config.ct_leaf_coverage,
                config.ct_ca_coverage,
                &mut ct_rng,
            ),
            whois: WhoisRegistry::new(),
            rng: root_rng,
            now,
            seeded_serials: false,
        };
        gen.register_infrastructure();
        gen
    }

    /// Registers a default-PKI server for `hostnames` under a chain issued
    /// by a deterministic intermediate, records whois, and submits the
    /// chain to the CT log (leaf coverage is probabilistic).
    pub fn register_public_server(&mut self, hostnames: Vec<String>, organization: &str) -> usize {
        let mut domain_rng = self.rng.derive(&format!("srv/{}", hostnames[0]));
        let key = KeyPair::generate(&mut domain_rng);
        let inter_idx = (domain_rng.next_below(self.universe.n_intermediates() as u64)) as usize;
        let lifetime = 90 + domain_rng.next_below(300);
        let chain = if self.seeded_serials {
            let serial = domain_rng.next_u64();
            self.universe.issue_server_chain_via_seeded(
                inter_idx,
                &hostnames,
                organization,
                &key,
                lifetime,
                serial,
            )
        } else {
            self.universe.issue_server_chain_via(
                inter_idx,
                &hostnames,
                organization,
                &key,
                lifetime,
            )
        };
        // CT submission: offer the whole chain to every shard; each shard's
        // policy (validity epoch + per-certificate acceptance draw) decides
        // what it stores. The union coverage is incomplete for both CA and
        // leaf material (§4.1.3 resolved only ~50% of pins), and because
        // acceptance is deterministic per (shard, fingerprint), every chain
        // sharing a CA agrees on that CA's fate.
        for cert in chain.certs() {
            self.ctlog.submit(cert);
        }
        for h in &hostnames {
            self.whois.record(h, organization);
        }
        let mut server = OriginServer::modern(hostnames, organization.to_string(), chain)
            .flaky(1.0 - self.config.server_flakiness);
        if domain_rng.chance(self.config.tls12_server_share) {
            server = server.tls12_only();
        }
        self.network.register(server)
    }

    /// Registers a custom-PKI server (private root, never CT-logged).
    pub fn register_custom_server(&mut self, hostnames: Vec<String>, organization: &str) -> usize {
        let mut domain_rng = self.rng.derive(&format!("srv-custom/{}", hostnames[0]));
        let key = KeyPair::generate(&mut domain_rng);
        let (_ca, chain) =
            self.universe
                .issue_custom_chain(organization, &hostnames, &key, 398, &mut domain_rng);
        for h in &hostnames {
            self.whois.record(h, organization);
        }
        self.network.register(OriginServer::modern(
            hostnames,
            organization.to_string(),
            chain,
        ))
    }

    /// Registers a self-signed server (§5.3.1's oddballs).
    pub fn register_self_signed_server(
        &mut self,
        hostnames: Vec<String>,
        organization: &str,
        lifetime_years: u64,
    ) -> usize {
        let mut domain_rng = self.rng.derive(&format!("srv-ss/{}", hostnames[0]));
        let chain = self.universe.issue_self_signed(
            organization,
            &hostnames,
            lifetime_years,
            &mut domain_rng,
        );
        for h in &hostnames {
            self.whois.record(h, organization);
        }
        self.network.register(OriginServer::modern(
            hostnames,
            organization.to_string(),
            chain,
        ))
    }

    pub(crate) fn register_infrastructure(&mut self) {
        // Apple's always-on background services (§4.5).
        for d in pinning_netsim::APPLE_BACKGROUND_DOMAINS {
            self.register_public_server(vec![d.to_string()], "Apple Inc");
        }
        // SDK backends.
        for spec in sdk::registry() {
            for d in spec.domains {
                if !self.network.has_host(d) {
                    self.register_public_server(vec![d.to_string()], spec.name);
                }
            }
        }
        // Shared CDN / noise destinations contacted by many apps.
        for (d, org) in [
            ("fonts.gstatic.com", "Google LLC"),
            ("cdn.jsdelivr.net", "jsDelivr"),
            ("api.segment.io", "Segment"),
            ("sdk.split.io", "Split Software"),
            ("cdn.branch.io", "Branch Metrics"),
            ("logs.datadoghq.com", "Datadog"),
        ] {
            self.register_public_server(vec![d.to_string()], org);
        }
    }
}

/// The shared noise domains apps sprinkle into their traffic.
pub(crate) const NOISE_DOMAINS: [&str; 6] = [
    "fonts.gstatic.com",
    "cdn.jsdelivr.net",
    "api.segment.io",
    "sdk.split.io",
    "cdn.branch.io",
    "logs.datadoghq.com",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny(0x77))
    }

    #[test]
    fn world_has_expected_shape() {
        let w = tiny_world();
        assert_eq!(w.android_listing.len(), w.config.store_size);
        assert_eq!(w.ios_listing.len(), w.config.store_size);
        assert!(w.alternativeto.len() >= w.config.common_size);
        assert!(w.network.n_hostnames() > w.config.store_size); // ≥1 domain/app + infra
        assert!(!w.ctlog.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.apps.len(), b.apps.len());
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.pin_rules.len(), y.pin_rules.len());
            assert_eq!(x.behavior.connections.len(), y.behavior.connections.len());
        }
        assert_eq!(a.alternativeto, b.alternativeto);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_world();
        let b = World::generate(WorldConfig::tiny(0x78));
        let pins_a: usize = a.apps.iter().map(|x| x.pin_rules.len()).sum();
        let pins_b: usize = b.apps.iter().map(|x| x.pin_rules.len()).sum();
        // Structure identical, contents differ (allow rare coincidence in counts
        // but identities must differ).
        assert!(pins_a != pins_b || a.apps[0].developer_org != b.apps[0].developer_org);
    }

    #[test]
    fn cross_products_exist_on_both_platforms() {
        let w = tiny_world();
        let mut both = 0;
        for key in &w.alternativeto {
            let (a, i) = w.products[key];
            if a.is_some() && i.is_some() {
                both += 1;
            }
        }
        assert!(both >= w.config.common_size);
    }

    #[test]
    fn planned_connections_resolve() {
        let w = tiny_world();
        for app in &w.apps {
            for conn in &app.behavior.connections {
                assert!(
                    w.network.has_host(&conn.domain),
                    "unresolvable domain {} planned by {}",
                    conn.domain,
                    app.id
                );
            }
        }
    }

    #[test]
    fn pin_rules_match_served_chains() {
        // Ground-truth sanity: every active pin rule must accept the real
        // chain served at its pattern's destination (otherwise the app
        // would break in production).
        let w = tiny_world();
        for app in &w.apps {
            for conn in &app.behavior.connections {
                let Some((_, rule)) = app.pin_rule_for(&conn.domain) else {
                    continue;
                };
                let server = w.network.resolve(&conn.domain).unwrap();
                assert!(
                    rule.pins.matches_chain(server.chain.certs()),
                    "rule for {} in {} does not match served chain",
                    conn.domain,
                    app.id
                );
            }
        }
    }

    #[test]
    fn interner_covers_all_served_cas() {
        let w = tiny_world();
        assert!(!w.interner.is_empty());
        for server in w.network.servers() {
            for cert in server.chain.certs().iter().skip(1) {
                assert!(
                    w.interner.canonical(&cert.fingerprint_sha256()).is_some(),
                    "CA of {:?} not interned",
                    server.hostnames
                );
            }
        }
        // CA reuse across chains is the whole point: each CA slot is
        // interned once, so the reuses (slots - unique) must outnumber the
        // unique certificates.
        let ca_slots: usize = w
            .network
            .servers()
            .iter()
            .map(|s| s.chain.len().saturating_sub(1))
            .sum();
        assert!(ca_slots - w.interner.unique() > w.interner.unique());
    }

    #[test]
    fn some_apps_pin_and_most_do_not() {
        let w = tiny_world();
        let pinners = w.apps.iter().filter(|a| a.pins_at_runtime()).count();
        assert!(pinners > 0, "a world with no pinning reproduces nothing");
        assert!(pinners < w.apps.len() / 2, "pinning must be the minority");
    }

    #[test]
    fn ios_apps_are_encrypted_android_not() {
        let w = tiny_world();
        for app in &w.apps {
            match app.id.platform {
                Platform::Android => assert!(!app.package.encrypted),
                Platform::Ios => assert!(app.package.encrypted),
            }
        }
    }

    #[test]
    fn apple_background_domains_registered() {
        let w = tiny_world();
        for d in pinning_netsim::APPLE_BACKGROUND_DOMAINS {
            assert!(w.network.has_host(d));
        }
    }

    #[test]
    fn listings_are_permutations() {
        let w = tiny_world();
        let mut a = w.android_listing.clone();
        a.sort_unstable();
        a.dedup();
        assert_eq!(a.len(), w.config.store_size);
        for &i in &w.android_listing {
            assert_eq!(w.apps[i].id.platform, Platform::Android);
        }
        for &i in &w.ios_listing {
            assert_eq!(w.apps[i].id.platform, Platform::Ios);
        }
    }
}
