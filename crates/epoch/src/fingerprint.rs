//! Per-app content fingerprints: the dirty-tracking key of the
//! incremental re-study engine.
//!
//! Modeled on cargo's fingerprint module: each app's fingerprint digests
//! everything that can change its measured verdict — the package bytes,
//! the ground-truth pin rules and planned behaviour, and the *served
//! state* of every destination the measurement can observe (chain,
//! validity at the current simulation time, revocation, platform root
//! trust, TLS posture). Epoch N+1 re-measures an app iff its fingerprint
//! differs from epoch N's; everything else replays its journaled verdict.
//!
//! Two deliberate choices keep the fingerprint *minimal but sound*:
//!
//! - Set-like fields (SDK names, domain lists) are hashed in sorted
//!   order, so field permutations and `HashMap` iteration order never
//!   flip a fingerprint (the proptests pin this down).
//! - Absolute time is hashed only through `validity.contains(now)` bits,
//!   so a `TimeAdvance` epoch dirties exactly the apps whose destination
//!   certificates cross an expiry boundary — not the whole store.
//!
//! A destination's served state is digested once per (destination,
//! platform) by `ServedState` and only that 32-byte digest enters each
//! app's fingerprint, so shared SDK and iOS OS destinations are not
//! re-hashed for every app that contacts them.

use pinning_app::app::MobileApp;
use pinning_app::behavior::PlannedConnection;
use pinning_app::platform::Platform;
use pinning_crypto::{sha256, sha256_many, Sha256};
use pinning_netsim::network::Network;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_store::world::World;
use std::collections::{BTreeSet, HashMap};

/// Leads every app fingerprint. Fingerprints persist in epoch checkpoints;
/// a checkpoint written under another scheme holds digests of other
/// bytes, so none of its apps compares clean and all are re-measured.
const FINGERPRINT_SCHEME: &[u8] = b"pinning-epoch/app-fingerprint/2";

/// Every destination [`relevant_destinations`] collects, in declaration
/// order and with repeats.
pub(crate) fn destinations(app: &MobileApp) -> impl Iterator<Item = &str> {
    let os_domains: &[&'static str] = match app.id.platform {
        Platform::Ios => &pinning_netsim::APPLE_BACKGROUND_DOMAINS,
        Platform::Android => &[],
    };
    app.behavior
        .connections
        .iter()
        .map(|c| c.domain.as_str())
        .chain(app.associated_domains.iter().map(String::as_str))
        .chain(os_domains.iter().copied())
}

/// Destinations whose served state can influence this app's measurement:
/// planned connections, iOS associated domains, and (on iOS) the OS
/// background domains the device contacts during capture.
pub fn relevant_destinations(app: &MobileApp) -> BTreeSet<&str> {
    destinations(app).collect()
}

fn sorted(xs: &[String]) -> Vec<&str> {
    let mut v: Vec<&str> = xs.iter().map(|s| s.as_str()).collect();
    v.sort_unstable();
    v
}

/// Digests one planned connection field by field. The exhaustive
/// destructuring makes a new `PlannedConnection` field a compile error
/// here, so it cannot silently escape the fingerprint.
fn hash_connection(h: &mut Preimage, conn: &PlannedConnection) {
    let PlannedConnection {
        domain,
        at_secs,
        library,
        pin_rule,
        pii,
        extra_bytes,
        redundant,
        offers_weak_ciphers,
        requires_interaction,
        sends_sni,
    } = conn;
    h.update(domain.as_bytes());
    h.update(&[0]);
    h.update(&at_secs.to_le_bytes());
    h.update(&pin_rule.map_or(u64::MAX, |i| i as u64).to_le_bytes());
    h.update(&(*extra_bytes as u64).to_le_bytes());
    h.update(&(pii.len() as u64).to_le_bytes());
    h.update(&[
        *library as u8,
        *redundant as u8,
        *offers_weak_ciphers as u8,
        *requires_interaction as u8,
        *sends_sni as u8,
    ]);
    h.update(&pii.iter().map(|&p| p as u8).collect::<Vec<_>>());
}

/// The served state apps are fingerprinted against, with each
/// (destination, platform) digest computed on first use and reused after.
///
/// Build one per epoch (or per shard): every digest is a pure function of
/// the network, the platform's root store and `now`, so sharing them across
/// apps changes no fingerprint.
pub(crate) struct ServedState<'a> {
    network: &'a Network,
    android_store: &'a RootStore,
    ios_store: &'a RootStore,
    now: SimTime,
    /// Destination digests, indexed by [`platform_index`].
    digests: [HashMap<String, [u8; 32]>; 2],
}

fn platform_index(platform: Platform) -> usize {
    match platform {
        Platform::Android => 0,
        Platform::Ios => 1,
    }
}

impl<'a> ServedState<'a> {
    /// Served state from an explicit network, root stores and time.
    pub(crate) fn new(
        network: &'a Network,
        android_store: &'a RootStore,
        ios_store: &'a RootStore,
        now: SimTime,
    ) -> Self {
        ServedState {
            network,
            android_store,
            ios_store,
            now,
            digests: Default::default(),
        }
    }

    /// The materialized world's served state.
    pub(crate) fn of_world(world: &'a World) -> Self {
        Self::new(
            &world.network,
            &world.universe.aosp_oem,
            &world.universe.ios,
            world.now,
        )
    }

    /// Digest of what `domain` serves to an app on `platform`: chain,
    /// validity at `now`, revocation, root trust and TLS posture.
    fn digest(&mut self, domain: &str, platform: Platform) -> [u8; 32] {
        let memo = &mut self.digests[platform_index(platform)];
        if let Some(d) = memo.get(domain) {
            return *d;
        }
        let store = match platform {
            Platform::Android => self.android_store,
            Platform::Ios => self.ios_store,
        };
        let (network, now) = (self.network, self.now);
        let mut h = Sha256::new();
        match network.resolve(domain) {
            None => h.update(&[0]),
            Some(server) => {
                h.update(&[1]);
                for cert in server.chain.certs() {
                    h.update(&cert.fingerprint_sha256());
                    h.update(&[
                        cert.tbs.validity.contains(now) as u8,
                        network.crl.is_revoked(cert.tbs.serial) as u8,
                    ]);
                }
                let trusted = server
                    .chain
                    .certs()
                    .last()
                    .is_some_and(|top| store.contains(top));
                h.update(&[trusted as u8]);
                h.update(&(server.versions.len() as u64).to_le_bytes());
                h.update(&server.versions.iter().map(|&v| v as u8).collect::<Vec<_>>());
                h.update(&(server.ciphers.len() as u64).to_le_bytes());
                h.update(&server.ciphers.iter().map(|&c| c as u8).collect::<Vec<_>>());
                h.update(&server.reliability.to_bits().to_le_bytes());
                h.update(&(server.response_bytes as u64).to_le_bytes());
            }
        }
        let d = h.finalize();
        memo.insert(domain.to_string(), d);
        d
    }
}

/// Content fingerprint of one app at the world's current state.
pub fn app_fingerprint(world: &World, app_index: usize) -> [u8; 32] {
    let served = &mut ServedState::of_world(world);
    sha256(&preimage(&world.apps[app_index], served).0)
}

/// Content fingerprint of one app against an explicit served state.
///
/// [`app_fingerprint`] delegates here with the materialized world's
/// network and root stores; the streaming engine calls this directly with
/// a *shard's* network, since a streamed study never materializes a
/// `World`. The digest is a pure function of the arguments, so a shard's
/// fingerprints match the monolithic world's whenever the shard serves
/// the same state (the shard determinism contract).
pub fn app_fingerprint_in(
    app: &MobileApp,
    network: &Network,
    android_store: &RootStore,
    ios_store: &RootStore,
    now: SimTime,
) -> [u8; 32] {
    let served = &mut ServedState::new(network, android_store, ios_store, now);
    sha256(&preimage(app, served).0)
}

/// [`app_fingerprint_in`] for many apps against one `served`, in input
/// order: equal to fingerprinting each alone, but each destination is
/// digested once. The app digests go through [`sha256_many`] over
/// preimages grouped by length. The grouping only matters on portable
/// builds, where `sha256_many` hashes four at a time and equal lengths
/// keep the four lanes in step; on SHA-NI builds each preimage is hashed
/// on its own and the order is irrelevant.
pub(crate) fn app_fingerprints_with<'a>(
    apps: impl IntoIterator<Item = &'a MobileApp>,
    served: &mut ServedState<'_>,
) -> Vec<[u8; 32]> {
    let preimages: Vec<Preimage> = apps.into_iter().map(|app| preimage(app, served)).collect();
    let mut by_len: Vec<usize> = (0..preimages.len()).collect();
    by_len.sort_by_key(|&i| preimages[i].0.len());
    let digests = sha256_many(by_len.iter().map(|&i| preimages[i].0.as_slice()));
    let mut out = vec![[0u8; 32]; preimages.len()];
    for (&i, d) in by_len.iter().zip(digests) {
        out[i] = d;
    }
    out
}

/// The bytes an app fingerprint digests.
struct Preimage(Vec<u8>);

impl Preimage {
    fn update(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

fn preimage(app: &MobileApp, served: &mut ServedState<'_>) -> Preimage {
    let mut h = Preimage(Vec::with_capacity(2048));
    h.update(FINGERPRINT_SCHEME);

    // --- App-side content: manifest, package, rules, behaviour. ---
    h.update(&[match app.id.platform {
        Platform::Android => 0u8,
        Platform::Ios => 1u8,
    }]);
    h.update(&app.package.content_hash());
    h.update(&[app.uses_nsc as u8]);
    for name in sorted(&app.sdk_names) {
        h.update(name.as_bytes());
        h.update(&[0]);
    }
    for d in sorted(&app.first_party_domains) {
        h.update(d.as_bytes());
        h.update(&[0]);
    }
    for d in sorted(&app.associated_domains) {
        h.update(d.as_bytes());
        h.update(&[0]);
    }
    // Pin rules and connections are order-significant (connections carry
    // index references into the rule list), so they hash in order. A
    // rule's Debug encoding is deterministic and covers every field.
    for rule in &app.pin_rules {
        h.update(rule.pattern.as_bytes());
        h.update(&[rule.active_at_runtime as u8, rule.custom_pki as u8]);
        h.update(format!("{:?}|{:?}|{:?}", rule.target, rule.storage, rule.source).as_bytes());
        h.update(format!("{:?}", rule.pins).as_bytes());
        for c in &rule.pinned_certs {
            h.update(&c.fingerprint_sha256());
        }
    }
    for conn in &app.behavior.connections {
        hash_connection(&mut h, conn);
    }

    // --- Destination-side state, in BTreeSet (deterministic) order. ---
    for domain in relevant_destinations(app) {
        h.update(domain.as_bytes());
        h.update(&[0]);
        h.update(&served.digest(domain, app.id.platform));
    }

    h
}

/// Fingerprints of every app, in index order.
pub fn all_fingerprints(world: &World) -> Vec<[u8; 32]> {
    app_fingerprints_with(&world.apps, &mut ServedState::of_world(world))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_store::config::WorldConfig;

    #[test]
    fn fingerprint_is_deterministic_across_regeneration() {
        let a = World::generate(WorldConfig::tiny(0xE0));
        let b = World::generate(WorldConfig::tiny(0xE0));
        assert_eq!(all_fingerprints(&a), all_fingerprints(&b));
    }

    #[test]
    fn shared_served_state_matches_fingerprinting_each_app_alone() {
        let world = World::generate(WorldConfig::tiny(0xE4));
        let alone: Vec<[u8; 32]> = world
            .apps
            .iter()
            .map(|app| {
                app_fingerprint_in(
                    app,
                    &world.network,
                    &world.universe.aosp_oem,
                    &world.universe.ios,
                    world.now,
                )
            })
            .collect();
        assert_eq!(all_fingerprints(&world), alone);
    }

    #[test]
    fn streamed_fingerprints_are_invariant_to_shard_size() {
        // The streaming engine fingerprints apps against their *shard's*
        // network. The shard determinism contract says a product's served
        // state does not depend on which shard materialized it — so the
        // same app must fingerprint identically at any shard size.
        use pinning_store::shard::StreamWorld;
        use std::collections::BTreeMap;

        let collect = |shard_size: usize| -> BTreeMap<String, [u8; 32]> {
            let world = StreamWorld::new(WorldConfig::tiny(0xE2), shard_size);
            let mut out = BTreeMap::new();
            for k in 0..world.n_shards() {
                let shard = world.generate_shard(k);
                for sa in &shard.apps {
                    let fp = app_fingerprint_in(
                        &sa.app,
                        &shard.network,
                        &world.universe().aosp_oem,
                        &world.universe().ios,
                        shard.now,
                    );
                    out.insert(sa.app.id.to_string(), fp);
                }
            }
            out
        };

        let small = collect(5);
        let large = collect(64);
        assert_eq!(small.len(), large.len());
        assert_eq!(small, large, "shard size changed a streamed fingerprint");
    }

    #[test]
    fn fingerprint_tracks_every_connection_field() {
        use pinning_app::behavior::Interaction;
        use pinning_app::pii::PiiType;
        use pinning_tls::TlsLibrary;

        let world = World::generate(WorldConfig::tiny(0xE3));
        let victim = (0..world.apps.len())
            .find(|&i| !world.apps[i].behavior.connections.is_empty())
            .expect("tiny world has connecting apps");
        let before = app_fingerprint(&world, victim);
        let edits: [fn(&mut PlannedConnection); 10] = [
            |c| c.domain.push('x'),
            |c| c.at_secs += 1,
            |c| {
                c.library = match c.library {
                    TlsLibrary::CustomNative => TlsLibrary::OkHttp,
                    _ => TlsLibrary::CustomNative,
                }
            },
            |c| c.pin_rule = Some(c.pin_rule.map_or(0, |i| i + 1)),
            |c| c.pii.push(PiiType::LatLon),
            |c| c.extra_bytes += 1,
            |c| c.redundant = !c.redundant,
            |c| c.offers_weak_ciphers = !c.offers_weak_ciphers,
            |c| {
                c.requires_interaction = match c.requires_interaction {
                    Interaction::Login => Interaction::None,
                    _ => Interaction::Login,
                }
            },
            |c| c.sends_sni = !c.sends_sni,
        ];
        for (k, edit) in edits.iter().enumerate() {
            let mut edited = world.apps[victim].clone();
            edit(&mut edited.behavior.connections[0]);
            let after = app_fingerprint_in(
                &edited,
                &world.network,
                &world.universe.aosp_oem,
                &world.universe.ios,
                world.now,
            );
            assert_ne!(before, after, "connection edit {k} escaped the fingerprint");
        }
    }

    #[test]
    fn fingerprint_tracks_pin_rule_state() {
        let mut world = World::generate(WorldConfig::tiny(0xE1));
        let victim = (0..world.apps.len())
            .find(|&i| !world.apps[i].pin_rules.is_empty())
            .expect("tiny world has pinning apps");
        let before = app_fingerprint(&world, victim);
        world.apps[victim].pin_rules[0].active_at_runtime =
            !world.apps[victim].pin_rules[0].active_at_runtime;
        assert_ne!(before, app_fingerprint(&world, victim));
    }
}
