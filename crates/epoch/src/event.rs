//! The epoch event taxonomy: typed mutations that evolve a [`World`]
//! from one epoch to the next.
//!
//! Every event offers two views that MUST stay in lockstep (the
//! proptests compare them): [`EpochEvent::touched_apps`], a pure
//! pre-apply query for "whose fingerprint will this flip", and
//! [`EpochEvent::apply`], the actual mutation. An event that finds its
//! precondition gone (the app already dropped pinning, the hostname
//! does not resolve) is an honest no-op: it touches nobody and applies
//! nothing.
//!
//! Certificate mutations route through
//! [`Certificate::invalidate_derived`][pinning_pki::cert::Certificate::invalidate_derived]:
//! the same-key renewal path edits a cloned leaf in place (new serial,
//! fresh validity, re-signed by the same intermediate), exactly the
//! mutate-after-clone pattern the derived-value cache guard polices.

use crate::fingerprint::destinations;
use pinning_app::pinning::{DomainPinRule, PinSource, PinStorage, PinTarget};
use pinning_app::sdk;
use pinning_crypto::sig::KeyPair;
use pinning_crypto::SplitMix64;
use pinning_pki::chain::CertificateChain;
use pinning_pki::pin::{Pin, PinAlgorithm, PinSet, SpkiPin};
use pinning_pki::time::{Validity, DAY};
use pinning_pki::Certificate;
use pinning_store::world::World;
use std::collections::BTreeSet;

/// One typed mutation of the world between epochs.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochEvent {
    /// The simulation clock advances; certificates may cross expiry.
    TimeAdvance {
        /// Days to advance.
        days: u64,
    },
    /// An app version bump adopts runtime pinning for one of its
    /// existing destinations (obfuscated storage: the package bytes are
    /// unchanged, mirroring §5.6's statically-invisible channel).
    PinningAdopted {
        /// Index into `World::apps`.
        app_index: usize,
        /// The destination the new rule covers.
        domain: String,
    },
    /// An app version bump drops pinning: every rule goes inert (the
    /// code ships but no longer executes — Table 3's dead-code case).
    PinningDropped {
        /// Index into `World::apps`.
        app_index: usize,
    },
    /// The app's NSC `<pin-set>` expiration date passes: NSC-declared
    /// pins stop being enforced while the config file still scans
    /// statically.
    NscPinExpiry {
        /// Index into `World::apps`.
        app_index: usize,
    },
    /// A version bump swaps one bundled SDK for another: the old SDK's
    /// pin rules go dead, its connections move to the new SDK's
    /// backend.
    SdkSwap {
        /// Index into `World::apps`.
        app_index: usize,
        /// SDK being removed (must be bundled).
        old_sdk: String,
        /// SDK taking its place.
        new_sdk: String,
    },
    /// A server's certificate is reissued — either a same-key renewal
    /// (new serial and validity, same SPKI: key-pinning apps survive)
    /// or a key-rotating reissue (fresh keypair: leaf-SPKI pins break).
    ServerReissue {
        /// The hostname whose served chain is replaced.
        hostname: String,
        /// Whether the reissue rotates the keypair.
        rotate_key: bool,
    },
    /// Apps pinning `hostname` ship an update tracking the served
    /// chain: the primary pin moves to the new certificate and the old
    /// pin stays as a backup pin.
    PinRotation {
        /// The pinned hostname.
        hostname: String,
    },
    /// A root CA is distrusted: removed from every root store
    /// (Mozilla, AOSP, AOSP+OEM, iOS).
    RootDistrust {
        /// Common name of the distrusted root.
        root_cn: String,
    },
    /// A CT log backfills a server's chain into every shard whose
    /// temporal window covers it (log growth; touches no app).
    CtBackfill {
        /// The hostname whose chain is backfilled.
        hostname: String,
    },
}

/// The chain served for `hostname`, if it resolves.
fn chain_for<'w>(world: &'w World, hostname: &str) -> Option<&'w CertificateChain> {
    world.network.resolve(hostname).map(|s| &s.chain)
}

/// The chain certificate a rule of the given target pins.
fn target_cert(chain: &CertificateChain, target: PinTarget) -> Option<&Certificate> {
    let certs = chain.certs();
    match target {
        PinTarget::Leaf => certs.first(),
        PinTarget::Intermediate => {
            if certs.len() >= 3 {
                certs.get(1)
            } else {
                certs.first()
            }
        }
        PinTarget::Root => certs.last(),
    }
}

/// Indices of apps holding an *active* rule that applies to `hostname`.
fn apps_pinning(world: &World, hostname: &str) -> BTreeSet<usize> {
    (0..world.apps.len())
        .filter(|&i| world.apps[i].pin_rule_for(hostname).is_some())
        .collect()
}

/// Indices of apps whose relevant destination set contains `hostname`.
fn apps_reaching(world: &World, hostname: &str) -> BTreeSet<usize> {
    (0..world.apps.len())
        .filter(|&i| destinations(&world.apps[i]).any(|d| d == hostname))
        .collect()
}

impl EpochEvent {
    /// Stable label for the event-mix table.
    pub fn label(&self) -> &'static str {
        match self {
            EpochEvent::TimeAdvance { .. } => "time-advance",
            EpochEvent::PinningAdopted { .. } => "pinning-adopted",
            EpochEvent::PinningDropped { .. } => "pinning-dropped",
            EpochEvent::NscPinExpiry { .. } => "nsc-pin-expiry",
            EpochEvent::SdkSwap { .. } => "sdk-swap",
            EpochEvent::ServerReissue { .. } => "server-reissue",
            EpochEvent::PinRotation { .. } => "pin-rotation",
            EpochEvent::RootDistrust { .. } => "root-distrust",
            EpochEvent::CtBackfill { .. } => "ct-backfill",
        }
    }

    /// The apps whose fingerprint this event will flip, evaluated
    /// against the world state *before* [`EpochEvent::apply`]. Honest
    /// no-op semantics: if the precondition no longer holds, the set is
    /// empty and `apply` changes nothing.
    pub fn touched_apps(&self, world: &World) -> BTreeSet<usize> {
        match self {
            EpochEvent::TimeAdvance { days } => {
                let then = world.now + days * DAY;
                let crosses = |chain: &CertificateChain| {
                    chain.certs().iter().any(|c| {
                        c.tbs.validity.contains(world.now) != c.tbs.validity.contains(then)
                    })
                };
                // Most steps cross no expiry boundary at all: skip the
                // per-app destination walk when no served chain does.
                if !world.network.servers().iter().any(|s| crosses(&s.chain)) {
                    return BTreeSet::new();
                }
                (0..world.apps.len())
                    .filter(|&i| {
                        destinations(&world.apps[i])
                            .any(|d| chain_for(world, d).is_some_and(crosses))
                    })
                    .collect()
            }
            EpochEvent::PinningAdopted { app_index, domain } => {
                let app = &world.apps[*app_index];
                let applicable = chain_for(world, domain).is_some()
                    && app.behavior.connections.iter().any(|c| &c.domain == domain)
                    && app.pin_rule_for(domain).is_none();
                if applicable {
                    BTreeSet::from([*app_index])
                } else {
                    BTreeSet::new()
                }
            }
            EpochEvent::PinningDropped { app_index } => {
                let app = &world.apps[*app_index];
                if app.pin_rules.iter().any(|r| r.active_at_runtime) {
                    BTreeSet::from([*app_index])
                } else {
                    BTreeSet::new()
                }
            }
            EpochEvent::NscPinExpiry { app_index } => {
                let app = &world.apps[*app_index];
                let has_live_nsc = app
                    .pin_rules
                    .iter()
                    .any(|r| r.active_at_runtime && r.storage == PinStorage::NscPinSet);
                if has_live_nsc {
                    BTreeSet::from([*app_index])
                } else {
                    BTreeSet::new()
                }
            }
            EpochEvent::SdkSwap {
                app_index,
                old_sdk,
                new_sdk,
            } => {
                let app = &world.apps[*app_index];
                let applicable = app.sdk_names.iter().any(|s| s == old_sdk)
                    && !app.sdk_names.iter().any(|s| s == new_sdk)
                    && sdk::by_name(old_sdk).is_some()
                    && sdk::by_name(new_sdk).is_some_and(|s| s.available_on(app.id.platform));
                if applicable {
                    BTreeSet::from([*app_index])
                } else {
                    BTreeSet::new()
                }
            }
            EpochEvent::ServerReissue { hostname, .. } => {
                let reissuable = chain_for(world, hostname).is_some_and(|chain| {
                    chain
                        .leaf()
                        .is_some_and(|l| world.universe.intermediate_index(&l.tbs.issuer).is_some())
                });
                if reissuable {
                    apps_reaching(world, hostname)
                } else {
                    BTreeSet::new()
                }
            }
            EpochEvent::PinRotation { hostname } => {
                if chain_for(world, hostname).is_some() {
                    apps_pinning(world, hostname)
                } else {
                    BTreeSet::new()
                }
            }
            EpochEvent::RootDistrust { root_cn } => {
                let Some(root) = world
                    .universe
                    .mozilla
                    .iter()
                    .find(|c| c.tbs.subject.common_name == *root_cn)
                    .cloned()
                else {
                    return BTreeSet::new();
                };
                (0..world.apps.len())
                    .filter(|&i| {
                        let app = &world.apps[i];
                        let store = match app.id.platform {
                            pinning_app::platform::Platform::Android => &world.universe.aosp_oem,
                            pinning_app::platform::Platform::Ios => &world.universe.ios,
                        };
                        destinations(app).any(|d| {
                            chain_for(world, d).is_some_and(|chain| {
                                chain.certs().last().is_some_and(|top| {
                                    top.tbs.subject == root.tbs.subject && store.contains(top)
                                })
                            })
                        })
                    })
                    .collect()
            }
            EpochEvent::CtBackfill { .. } => BTreeSet::new(),
        }
    }

    /// Applies the event to the world. `rng` feeds only content
    /// decisions (keys, serials, lifetimes, pin targets) — never
    /// applicability, which must match [`EpochEvent::touched_apps`].
    pub fn apply(&self, world: &mut World, rng: &mut SplitMix64) {
        match self {
            EpochEvent::TimeAdvance { days } => {
                world.now = world.now + days * DAY;
                world.universe.set_now(world.now);
            }
            EpochEvent::PinningAdopted { app_index, domain } => {
                if self.touched_apps(world).is_empty() {
                    return;
                }
                let target = if rng.chance(0.7) {
                    PinTarget::Root
                } else {
                    PinTarget::Leaf
                };
                let cert = target_cert(chain_for(world, domain).expect("checked"), target)
                    .expect("served chains are non-empty")
                    .clone();
                let app = &mut world.apps[*app_index];
                app.pin_rules.push(DomainPinRule::spki(
                    domain.clone(),
                    &cert,
                    target,
                    PinAlgorithm::Sha256,
                    PinStorage::ObfuscatedCode,
                    PinSource::FirstParty,
                ));
                let idx = app.pin_rules.len() - 1;
                for conn in &mut app.behavior.connections {
                    if &conn.domain == domain {
                        conn.pin_rule = Some(idx);
                    }
                }
            }
            EpochEvent::PinningDropped { app_index } => {
                for rule in &mut world.apps[*app_index].pin_rules {
                    rule.active_at_runtime = false;
                }
            }
            EpochEvent::NscPinExpiry { app_index } => {
                for rule in &mut world.apps[*app_index].pin_rules {
                    if rule.storage == PinStorage::NscPinSet {
                        rule.active_at_runtime = false;
                    }
                }
            }
            EpochEvent::SdkSwap {
                app_index,
                old_sdk,
                new_sdk,
            } => {
                if self.touched_apps(world).is_empty() {
                    return;
                }
                let platform = world.apps[*app_index].id.platform;
                let old_spec = sdk::by_name(old_sdk).expect("checked");
                let new_spec = sdk::by_name(new_sdk).expect("checked");
                let app = &mut world.apps[*app_index];
                app.sdk_names.retain(|s| s != old_sdk);
                app.sdk_names.push(new_sdk.clone());
                for rule in &mut app.pin_rules {
                    if rule.source == PinSource::Sdk(old_sdk.clone()) {
                        rule.active_at_runtime = false;
                    }
                }
                for conn in &mut app.behavior.connections {
                    if old_spec.domains.contains(&conn.domain.as_str()) {
                        let pick = rng.next_below(new_spec.domains.len() as u64) as usize;
                        conn.domain = new_spec.domains[pick].to_string();
                        conn.library = new_spec.tls_on(platform);
                        conn.pin_rule = None;
                    }
                }
            }
            EpochEvent::ServerReissue {
                hostname,
                rotate_key,
            } => {
                if self.touched_apps(world).is_empty() {
                    return;
                }
                let (hostnames, organization, old_chain) = {
                    let s = world.network.resolve(hostname).expect("checked");
                    (s.hostnames.clone(), s.organization.clone(), s.chain.clone())
                };
                let leaf = old_chain.leaf().expect("non-empty chain");
                let inter_idx = world
                    .universe
                    .intermediate_index(&leaf.tbs.issuer)
                    .expect("checked");
                let lifetime_days = 90 + rng.next_below(300);
                let mut new_chain = if *rotate_key {
                    let key = KeyPair::generate(rng);
                    world.universe.issue_server_chain_via(
                        inter_idx,
                        &hostnames,
                        &organization,
                        &key,
                        lifetime_days,
                    )
                } else {
                    // Same-key renewal: clone the leaf, refresh serial and
                    // validity in place, re-sign with the same issuer key.
                    let mut renewed = leaf.clone();
                    renewed.tbs.serial = rng.next_u64();
                    renewed.tbs.validity =
                        Validity::starting(world.now - 30 * DAY, lifetime_days * DAY);
                    renewed.invalidate_derived(); // clones share the derived cache
                    renewed.signature = world
                        .universe
                        .intermediate(inter_idx)
                        .expect("index from intermediate_index")
                        .keypair()
                        .sign(&renewed.tbs.to_bytes());
                    let mut certs = vec![renewed];
                    certs.extend(old_chain.certs()[1..].iter().cloned());
                    CertificateChain::new(certs)
                };
                world.interner.intern_chain_cas(&mut new_chain);
                for cert in new_chain.certs() {
                    world.ctlog.submit(cert);
                }
                world.network.resolve_mut(hostname).expect("checked").chain = new_chain;
            }
            EpochEvent::PinRotation { hostname } => {
                let pinning = self.touched_apps(world);
                if pinning.is_empty() {
                    return;
                }
                let chain = chain_for(world, hostname).expect("checked").clone();
                for i in pinning {
                    let app = &mut world.apps[i];
                    for rule in &mut app.pin_rules {
                        if !(rule.active_at_runtime && rule.applies_to(hostname)) {
                            continue;
                        }
                        let Some(new_cert) = target_cert(&chain, rule.target).cloned() else {
                            continue;
                        };
                        let old_cert = rule.pinned_certs.first().cloned();
                        let mut pins = vec![Pin::Spki(SpkiPin::sha256_of(&new_cert))];
                        let mut certs = vec![new_cert];
                        if let Some(old) = old_cert {
                            pins.push(Pin::Spki(SpkiPin::sha256_of(&old))); // backup pin
                            certs.push(old);
                        }
                        rule.pins = PinSet::from_pins(pins);
                        rule.pinned_certs = certs;
                    }
                }
            }
            EpochEvent::RootDistrust { root_cn } => {
                let Some(subject) = world
                    .universe
                    .mozilla
                    .iter()
                    .find(|c| c.tbs.subject.common_name == *root_cn)
                    .map(|c| c.tbs.subject.clone())
                else {
                    return;
                };
                world.universe.mozilla.remove(&subject);
                world.universe.aosp.remove(&subject);
                world.universe.aosp_oem.remove(&subject);
                world.universe.ios.remove(&subject);
            }
            EpochEvent::CtBackfill { hostname } => {
                let Some(chain) = chain_for(world, hostname).cloned() else {
                    return;
                };
                for cert in chain.certs() {
                    world.ctlog.backfill(cert);
                }
            }
        }
    }
}
