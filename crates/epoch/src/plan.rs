//! Seeded epoch plans: how a store evolves over N epochs.
//!
//! [`EpochPlan::generate`] evolves a *scratch* world internally while
//! planning, so epoch k's events are drawn from the state the store will
//! actually be in at epoch k-1 (an app that dropped pinning in epoch 2
//! is never asked to drop it again in epoch 4; a reissued certificate's
//! new expiry drives later reissue picks). App-level mutation targets
//! are sampled without replacement across the whole plan, so no app's
//! manifest is rewritten twice — each event's `touched_apps` stays an
//! exact dirtiness predictor.

use crate::event::EpochEvent;
use crate::fingerprint::relevant_destinations;
use pinning_app::sdk;
use pinning_crypto::{sha256, SplitMix64};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::collections::BTreeSet;

/// Configuration of a longitudinal run: the baseline world plus the
/// evolution schedule.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// Baseline world-generation knobs (epoch 0 measures this world).
    pub world: WorldConfig,
    /// Evolution epochs beyond the baseline.
    pub epochs: usize,
    /// Plan seed (independent of the world seed).
    pub seed: u64,
    /// Simulated days between consecutive epochs.
    pub days_per_epoch: u64,
    /// App-level mutation events targeted per epoch.
    pub app_events_per_epoch: usize,
    /// Worker threads for each epoch's study.
    pub threads: usize,
}

impl EpochConfig {
    /// Miniature longitudinal run for tests.
    pub fn tiny(seed: u64) -> Self {
        EpochConfig {
            world: WorldConfig::tiny(seed),
            epochs: 3,
            seed: seed ^ 0xE70C,
            days_per_epoch: 14,
            app_events_per_epoch: 4,
            threads: 2,
        }
    }

    /// Identity of everything that determines the evolved worlds and
    /// verdicts. Threads are excluded (scheduling never changes
    /// observables), so a state written by an 8-worker run resumes on 1.
    pub fn identity(&self) -> [u8; 32] {
        let repr = format!(
            "{:?}|{}|{}|{}|{}",
            self.world, self.epochs, self.seed, self.days_per_epoch, self.app_events_per_epoch
        );
        sha256(repr.as_bytes())
    }
}

/// The full evolution schedule: one event list per epoch (epoch k ≥ 1
/// uses `epochs[k-1]`; epoch 0 is the baseline and has no events).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// Events per evolution epoch, in application order.
    pub epochs: Vec<Vec<EpochEvent>>,
}

/// Applies one epoch's events in order, deriving a fresh sub-rng per
/// event from `(seed, epoch, event index)` so an event's content
/// decisions never depend on how earlier events consumed randomness.
/// Returns each event's touched-app set, evaluated against the world
/// state at its application point.
pub fn apply_epoch(
    world: &mut World,
    events: &[EpochEvent],
    seed: u64,
    epoch: usize,
) -> Vec<BTreeSet<usize>> {
    let base = SplitMix64::new(seed).derive(&format!("apply/{epoch}"));
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let touched = ev.touched_apps(world);
            let mut sub = base.derive(&format!("ev/{i}"));
            ev.apply(world, &mut sub);
            touched
        })
        .collect()
}

/// Hostnames served with a universe-issued (reissuable) chain, sorted by
/// leaf expiry so soon-expiring certificates rotate first.
fn reissue_candidates(world: &World) -> Vec<String> {
    let mut hosts: Vec<(u64, String)> = world
        .network
        .servers()
        .iter()
        .filter_map(|s| {
            let leaf = s.chain.leaf()?;
            world.universe.intermediate_index(&leaf.tbs.issuer)?;
            Some((leaf.tbs.validity.not_after.0, s.hostnames.first()?.clone()))
        })
        .collect();
    hosts.sort();
    hosts.into_iter().map(|(_, h)| h).collect()
}

impl EpochPlan {
    /// Generates the schedule for `config`, evolving a scratch world so
    /// every event is consistent with the store state it will meet.
    pub fn generate(config: &EpochConfig) -> Self {
        let mut scratch = World::generate(config.world.clone());
        let hostile: BTreeSet<usize> = scratch.hostile_apps.iter().copied().collect();
        let mut used_apps: BTreeSet<usize> = BTreeSet::new();
        let mut epochs = Vec::with_capacity(config.epochs);

        for k in 1..=config.epochs {
            let mut rng = SplitMix64::new(config.seed).derive(&format!("plan/{k}"));
            let mut events = vec![EpochEvent::TimeAdvance {
                days: config.days_per_epoch,
            }];

            // --- App-level version bumps, sampled without replacement. ---
            let mut pool: Vec<usize> = (0..scratch.apps.len())
                .filter(|i| !hostile.contains(i) && !used_apps.contains(i))
                .collect();
            rng.shuffle(&mut pool);
            let mut added = 0;
            for &i in &pool {
                if added >= config.app_events_per_epoch {
                    break;
                }
                if let Some(ev) = pick_app_event(&scratch, i, &mut rng) {
                    if !ev.touched_apps(&scratch).is_empty() {
                        events.push(ev);
                        used_apps.insert(i);
                        added += 1;
                    }
                }
            }

            // --- Certificate lifecycle: reissue soon-expiring leaves,
            // plus one reissue of a *pinned* host so the rotation-survival
            // metric has subjects. Key-rotating reissues are chased by a
            // PinRotation (backup-pin app updates) most of the time.
            let candidates = reissue_candidates(&scratch);
            let pinned_hosts: Vec<&String> = candidates
                .iter()
                .filter(|h| scratch.apps.iter().any(|a| a.pin_rule_for(h).is_some()))
                .collect();
            let mut reissued: Vec<String> = Vec::new();
            if let Some(h) = pinned_hosts.first() {
                reissued.push((*h).clone());
            }
            for h in &candidates {
                if reissued.len() >= 2 {
                    break;
                }
                if !reissued.contains(h) {
                    reissued.push(h.clone());
                }
            }
            for h in reissued {
                let rotate_key = rng.chance(0.6);
                events.push(EpochEvent::ServerReissue {
                    hostname: h.clone(),
                    rotate_key,
                });
                if rotate_key && rng.chance(0.7) {
                    events.push(EpochEvent::PinRotation { hostname: h });
                }
            }

            // --- Trust-store churn: occasional root distrust. ---
            if k >= 2 && rng.chance(0.35) {
                let mut roots: Vec<String> = scratch
                    .universe
                    .mozilla
                    .iter()
                    .map(|c| c.tbs.subject.common_name.clone())
                    .collect();
                roots.sort();
                if !roots.is_empty() {
                    let pick = rng.next_below(roots.len() as u64) as usize;
                    events.push(EpochEvent::RootDistrust {
                        root_cn: roots[pick].clone(),
                    });
                }
            }

            // --- CT log growth: one backfill per epoch. ---
            let servers = scratch.network.servers();
            if !servers.is_empty() {
                let pick = rng.next_below(servers.len() as u64) as usize;
                if let Some(h) = servers[pick].hostnames.first() {
                    events.push(EpochEvent::CtBackfill {
                        hostname: h.clone(),
                    });
                }
            }

            // Advance the scratch world so epoch k+1 plans against the
            // post-epoch-k store.
            apply_epoch(&mut scratch, &events, config.seed, k);
            epochs.push(events);
        }

        EpochPlan { epochs }
    }
}

/// Picks a version-bump event for one app, or `None` if no mutation
/// kind applies to it.
fn pick_app_event(world: &World, app_index: usize, rng: &mut SplitMix64) -> Option<EpochEvent> {
    let app = &world.apps[app_index];
    let mut options: Vec<EpochEvent> = Vec::new();

    // Adopt pinning on an existing, currently-unpinned destination.
    if let Some(domain) = relevant_destinations(app).into_iter().find(|d| {
        world.network.resolve(d).is_some()
            && app.behavior.connections.iter().any(|c| c.domain == *d)
            && app.pin_rule_for(d).is_none()
    }) {
        options.push(EpochEvent::PinningAdopted {
            app_index,
            domain: domain.to_string(),
        });
    }
    if app.pin_rules.iter().any(|r| r.active_at_runtime) {
        options.push(EpochEvent::PinningDropped { app_index });
    }
    if app
        .pin_rules
        .iter()
        .any(|r| r.active_at_runtime && r.storage == pinning_app::pinning::PinStorage::NscPinSet)
    {
        options.push(EpochEvent::NscPinExpiry { app_index });
    }
    if let Some(old_sdk) = app.sdk_names.first().cloned() {
        // Swap to a non-pinning SDK not already bundled.
        let replacement = sdk::registry().iter().find(|s| {
            s.available_on(app.id.platform)
                && s.pinning_on(app.id.platform).is_none()
                && !app.sdk_names.iter().any(|n| n == s.name)
        });
        if let Some(new_spec) = replacement {
            options.push(EpochEvent::SdkSwap {
                app_index,
                old_sdk,
                new_sdk: new_spec.name.to_string(),
            });
        }
    }

    if options.is_empty() {
        return None;
    }
    let pick = rng.next_below(options.len() as u64) as usize;
    Some(options.swap_remove(pick))
}
