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

use pinning_app::app::MobileApp;
use pinning_app::behavior::PlannedConnection;
use pinning_app::platform::Platform;
use pinning_crypto::Sha256;
use pinning_store::world::World;
use std::collections::BTreeSet;

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
fn hash_connection(h: &mut Sha256, conn: &PlannedConnection) {
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

/// Content fingerprint of one app at the world's current state.
pub fn app_fingerprint(world: &World, app_index: usize) -> [u8; 32] {
    app_fingerprint_in(
        &world.apps[app_index],
        &world.network,
        &world.universe.aosp_oem,
        &world.universe.ios,
        world.now,
    )
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
    network: &pinning_netsim::network::Network,
    android_store: &pinning_pki::store::RootStore,
    ios_store: &pinning_pki::store::RootStore,
    now: pinning_pki::time::SimTime,
) -> [u8; 32] {
    let mut h = Sha256::new();

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
    let store = match app.id.platform {
        Platform::Android => android_store,
        Platform::Ios => ios_store,
    };
    for domain in relevant_destinations(app) {
        h.update(domain.as_bytes());
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
    }

    h.finalize()
}

/// Fingerprints of every app, in index order.
pub fn all_fingerprints(world: &World) -> Vec<[u8; 32]> {
    (0..world.apps.len())
        .map(|i| app_fingerprint(world, i))
        .collect()
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
