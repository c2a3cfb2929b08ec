//! Pinning circumvention (§4.3): Frida-style hooks that disable
//! certificate checks in known TLS stacks, so pinned connections can be
//! intercepted and their contents inspected.
//!
//! Circumvention is not guaranteed: apps using custom TLS implementations
//! resist hooking. The paper succeeded for ≈51.5% of unique pinned
//! destinations on Android and ≈66.2% on iOS.

use crate::dynamics::pipeline::DynamicEnv;
use pinning_app::app::MobileApp;
use pinning_netsim::device::RunConfig;
use std::collections::BTreeMap;

/// Outcome for one pinned destination under instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct CircumventedDestination {
    /// Destination hostname.
    pub destination: String,
    /// Whether interception succeeded once hooks were installed.
    pub succeeded: bool,
    /// Decrypted request bodies recovered (empty unless `succeeded`).
    pub plaintexts: Vec<String>,
}

/// Per-app circumvention result.
#[derive(Debug, Clone, Default)]
pub struct CircumventionResult {
    /// One entry per pinned destination attempted.
    pub destinations: Vec<CircumventedDestination>,
}

impl CircumventionResult {
    /// Destinations successfully opened.
    pub fn succeeded(&self) -> usize {
        self.destinations.iter().filter(|d| d.succeeded).count()
    }

    /// Destinations attempted.
    pub fn attempted(&self) -> usize {
        self.destinations.len()
    }
}

/// Runs the instrumented MITM pass against `app` for the given pinned
/// destinations (found earlier by the differential pipeline).
///
/// Under fault injection an aborted instrumented run simply reports every
/// destination as not circumvented — the paper's operators did not retry
/// this best-effort pass.
pub fn circumvent_app(
    env: &DynamicEnv<'_>,
    app: &MobileApp,
    pinned_destinations: &[&str],
) -> CircumventionResult {
    if pinned_destinations.is_empty() {
        return CircumventionResult::default();
    }
    let device = env.device(app.id.platform);
    let mut cfg = RunConfig::mitm(env.proxy());
    cfg.frida_disable_pinning = true;
    cfg.run_tag = "mitm-frida".to_string();
    cfg.faults = (!env.faults.is_quiet()).then_some(&env.faults);
    let capture = match device.try_run_app(app, &cfg) {
        Ok(capture) => capture,
        Err(_) => {
            // Run lost wholesale: nothing was opened.
            return CircumventionResult {
                destinations: pinned_destinations
                    .iter()
                    .map(|d| CircumventedDestination {
                        destination: d.to_string(),
                        succeeded: false,
                        plaintexts: vec![],
                    })
                    .collect(),
            };
        }
    };

    let mut per_dest: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for flow in &capture.flows {
        let Some(sni) = flow.transcript.sni.as_deref() else {
            continue;
        };
        if let Some(body) = &flow.decrypted_request {
            per_dest.entry(sni).or_default().push(body.clone());
        } else {
            per_dest.entry(sni).or_default();
        }
    }

    let destinations = pinned_destinations
        .iter()
        .map(|d| {
            let plaintexts = per_dest.get(*d).cloned().unwrap_or_default();
            CircumventedDestination {
                destination: d.to_string(),
                succeeded: !plaintexts.is_empty(),
                plaintexts,
            }
        })
        .collect();
    CircumventionResult { destinations }
}

/// Aggregate circumvention rate over many apps: unique pinned destinations
/// opened / attempted.
pub fn circumvention_rate(results: &[CircumventionResult]) -> f64 {
    let mut attempted = std::collections::BTreeSet::new();
    let mut succeeded = std::collections::BTreeSet::new();
    for r in results {
        for d in &r.destinations {
            attempted.insert(d.destination.clone());
            if d.succeeded {
                succeeded.insert(d.destination.clone());
            }
        }
    }
    if attempted.is_empty() {
        return 0.0;
    }
    succeeded.len() as f64 / attempted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::pipeline::{analyze_app, DynamicEnv};
    use pinning_store::config::WorldConfig;
    use pinning_store::world::World;

    #[test]
    fn circumvention_succeeds_only_for_hookable_stacks() {
        let w = World::generate(WorldConfig::tiny(0xF1DA));
        let env = DynamicEnv::new(
            &w.network,
            w.universe.aosp_oem.clone(),
            w.universe.ios.clone(),
            w.now,
            w.config.seed,
        );
        let mut any_success = false;
        let mut checked = 0;
        for app in &w.apps {
            let dynres = analyze_app(&env, app);
            let pinned = dynres.pinned_destinations();
            if pinned.is_empty() {
                continue;
            }
            let result = circumvent_app(&env, app, &pinned);
            assert_eq!(result.attempted(), pinned.len());
            for d in &result.destinations {
                checked += 1;
                // All libraries touching this destination with a pin rule.
                let libs: Vec<_> = app
                    .behavior
                    .connections
                    .iter()
                    .filter(|c| c.domain == d.destination && c.pin_rule.is_some())
                    .map(|c| c.library)
                    .collect();
                assert!(
                    !libs.is_empty(),
                    "pinned destination has a pinned connection"
                );
                if libs.iter().all(|l| !l.frida_hookable()) {
                    assert!(
                        !d.succeeded,
                        "unhookable stack must resist: {}",
                        d.destination
                    );
                } else if d.succeeded {
                    any_success = true;
                    assert!(!d.plaintexts.is_empty());
                }
            }
        }
        assert!(checked > 0, "tiny world must exercise circumvention");
        assert!(any_success, "some destinations must open");
    }

    #[test]
    fn rate_is_fraction_of_unique_destinations() {
        let results = vec![
            CircumventionResult {
                destinations: vec![
                    CircumventedDestination {
                        destination: "a.com".into(),
                        succeeded: true,
                        plaintexts: vec!["x".into()],
                    },
                    CircumventedDestination {
                        destination: "b.com".into(),
                        succeeded: false,
                        plaintexts: vec![],
                    },
                ],
            },
            CircumventionResult {
                destinations: vec![CircumventedDestination {
                    destination: "a.com".into(),
                    succeeded: true,
                    plaintexts: vec!["y".into()],
                }],
            },
        ];
        assert!((circumvention_rate(&results) - 0.5).abs() < 1e-9);
        assert_eq!(circumvention_rate(&[]), 0.0);
    }
}
