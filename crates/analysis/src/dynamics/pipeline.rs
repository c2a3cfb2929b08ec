//! The end-to-end dynamic pipeline for one app: baseline run, MITM run,
//! differential comparison — including the iOS associated-domain handling,
//! the two-minute-settle re-run (§4.5), and retry/degradation under
//! injected test-bed faults (§5.6).

use super::detect::{detect_pinned_destinations, DestinationVerdict, ExcludeReason, Exclusions};
use pinning_app::app::MobileApp;
use pinning_app::pii::DeviceIdentity;
use pinning_app::platform::Platform;
use pinning_app::xml;
use pinning_crypto::SplitMix64;
use pinning_netsim::breaker::{BreakerConfig, BreakerSet};
use pinning_netsim::device::{Device, RunConfig};
use pinning_netsim::faults::{FaultConfig, FaultPlan, InputLayer, MalformedKind, MeasurementError};
use pinning_netsim::flow::Capture;
use pinning_netsim::network::Network;
use pinning_netsim::proxy::MitmProxy;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_pki::validate::ValidationMemo;

/// Bounded retry with deterministic backoff for faulted run pairs
/// (shared with the serve layer; re-exported here for compatibility).
///
/// In this pipeline the jitter RNG handle is derived from the environment
/// seed and the app id, so replays stay bit-identical.
pub use pinning_resilience::RetryPolicy;

/// Shared environment for dynamic analysis: one network, one proxy, one
/// test device per platform.
///
/// Like the paper's prepared test phones (§4.2.1), each platform's device
/// is built once, with the proxy CA installed, and reused for every app the
/// environment analyzes. Everything a device was built from (network,
/// factory store, proxy, clock, seed) is fixed at construction.
pub struct DynamicEnv<'a> {
    proxy: MitmProxy,
    android: Device<'a>,
    ios: Device<'a>,
    /// Test identity: a copy of the one both devices were built with.
    /// Replacing it does not change what the devices send, so PII scans
    /// read the devices' own `identity` instead.
    pub identity: DeviceIdentity,
    seed: u64,
    /// Fault schedule applied to every run (quiet by default).
    pub faults: FaultPlan,
    /// Retry policy for faulted run pairs.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning; `None` (the default) never short-circuits.
    /// When set, each app gets a fresh per-endpoint [`BreakerSet`] spanning
    /// all of its runs, so persistently faulty hosts stop consuming
    /// attempts after a few consecutive injected faults.
    pub breaker: Option<BreakerConfig>,
}

impl<'a> DynamicEnv<'a> {
    /// Builds the environment (no faults, default retries, process-default
    /// memo): the proxy, the test identity, and one device per platform
    /// over its factory store with the proxy CA installed.
    pub fn new(
        network: &'a Network,
        android_factory: RootStore,
        ios_factory: RootStore,
        now: SimTime,
        seed: u64,
    ) -> Self {
        let mut rng = SplitMix64::new(seed).derive("dynenv");
        let proxy = MitmProxy::new(&mut rng, now);
        let identity = DeviceIdentity::generate(&mut rng.derive("identity"));
        let device = |platform, factory| {
            let mut d = Device::new(platform, network, factory, identity.clone(), now, seed);
            d.install_ca(proxy.ca_cert());
            d
        };
        let android = device(Platform::Android, android_factory);
        let ios = device(Platform::Ios, ios_factory);
        DynamicEnv {
            proxy,
            android,
            ios,
            identity,
            seed,
            faults: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
            breaker: None,
        }
    }

    /// Replaces the fault schedule (seeded from the environment seed).
    pub fn with_faults(mut self, config: FaultConfig) -> Self {
        self.faults = FaultPlan::new(self.seed, config);
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables per-endpoint circuit breakers with the given tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Validates both devices' chains through `memo` instead of the
    /// process default (`None` = no memo; verdicts are identical).
    pub fn with_memo(mut self, memo: Option<&'a ValidationMemo>) -> Self {
        self.android.memo = memo;
        self.ios.memo = memo;
        self
    }

    /// The MITM proxy whose CA is installed on both test devices.
    pub fn proxy(&self) -> &MitmProxy {
        &self.proxy
    }

    /// The test device for `platform`, with the proxy CA installed.
    pub fn device(&self, platform: Platform) -> &Device<'a> {
        match platform {
            Platform::Android => &self.android,
            Platform::Ios => &self.ios,
        }
    }
}

/// Dynamic analysis output for one app.
#[derive(Debug, Clone)]
pub struct AppDynamicResult {
    /// Per-destination verdicts (incl. excluded ones, for auditability).
    pub verdicts: Vec<DestinationVerdict>,
    /// The baseline capture (kept for connection-security analysis).
    pub baseline: Capture,
    /// The MITM capture (kept for PII analysis of intercepted plaintext).
    pub mitm: Capture,
    /// Whether the iOS settle re-run was applied.
    pub settled_rerun: bool,
    /// Circuit-breaker trips (closed→open) across this app's endpoints;
    /// 0 unless the environment enables breakers and faults persisted.
    pub breaker_trips: u32,
}

impl AppDynamicResult {
    /// Destinations detected as pinned.
    pub fn pinned_destinations(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| v.pinned)
            .map(|v| v.destination.as_str())
            .collect()
    }

    /// Destinations used (un-MITM'd) at least once, excluding OS noise.
    pub fn used_destinations(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| {
                v.used_baseline
                    && v.excluded.is_none_or(|e| {
                        !matches!(
                            e,
                            super::detect::ExcludeReason::AppleBackground
                                | super::detect::ExcludeReason::AssociatedDomain
                        )
                    })
            })
            .map(|v| v.destination.as_str())
            .collect()
    }

    /// The app pins iff at least one destination is pinned (§5's definition
    /// of a "pinning app").
    pub fn pins(&self) -> bool {
        self.verdicts.iter().any(|v| v.pinned)
    }
}

/// Extracts the entitlement-declared associated domains from an iOS
/// package (the plist stays plaintext even in encrypted IPAs).
pub fn associated_domains_from_package(app: &MobileApp) -> Vec<String> {
    let Some(file) = app.package.file("Payload/App.app/App.entitlements") else {
        return Vec::new();
    };
    let Some(text) = file.content.as_text() else {
        return Vec::new();
    };
    let Ok(root) = xml::parse(text) else {
        return Vec::new();
    };
    let mut strings = Vec::new();
    root.descendants("string", &mut strings);
    strings
        .iter()
        .filter_map(|s| {
            s.text_content()
                .strip_prefix("applinks:")
                .map(str::to_string)
        })
        .collect()
}

/// Runs one (baseline, MITM) pair with bounded retries on faults.
///
/// Attempt 0 uses the legacy run tags (`baseline…`/`mitm…`) so fault-free
/// environments reproduce historical captures bit-for-bit; retries append
/// an attempt marker, which re-keys the fault schedule — transient faults
/// can clear on retry. A pair still faulted on the last attempt is
/// *accepted*: detection marks the contaminated destinations
/// [`ExcludeReason::Unobserved`]. Run-level aborts (crash, missing proxy
/// CA) that persist through every attempt surface as errors, as does
/// blowing the per-app virtual-time deadline.
fn run_pair_with_retry(
    env: &DynamicEnv<'_>,
    device: &Device<'_>,
    app: &MobileApp,
    breaker: Option<&BreakerSet>,
    settle: u32,
    tag_suffix: &str,
    clock: &mut u64,
) -> Result<(Capture, Capture), MeasurementError> {
    let plan = (!env.faults.is_quiet()).then_some(&env.faults);
    let max_attempts = env.retry.max_attempts.max(1);
    let mut jitter_rng =
        SplitMix64::new(env.seed).derive(&format!("backoff/{}{tag_suffix}", app.id));
    for attempt in 0..max_attempts {
        let last = attempt + 1 == max_attempts;
        *clock += env.retry.backoff_before(attempt, &mut jitter_rng);

        let marker = if attempt == 0 {
            String::new()
        } else {
            format!("#r{attempt}")
        };
        let mut base_cfg = RunConfig::baseline();
        base_cfg.settle_secs = settle;
        base_cfg.run_tag = format!("baseline{tag_suffix}{marker}");
        base_cfg.faults = plan;
        base_cfg.breaker = breaker;
        let mut mitm_cfg = RunConfig::mitm(env.proxy());
        mitm_cfg.settle_secs = settle;
        mitm_cfg.run_tag = format!("mitm{tag_suffix}{marker}");
        mitm_cfg.faults = plan;
        mitm_cfg.breaker = breaker;

        *clock += 2 * (settle + base_cfg.window_secs) as u64;
        if *clock > env.retry.deadline_secs as u64 {
            return Err(MeasurementError::Deadline);
        }

        let baseline = device.try_run_app(app, &base_cfg);
        let mitm = device.try_run_app(app, &mitm_cfg);
        match (baseline, mitm) {
            (Ok(b), Ok(m)) => {
                if (!b.has_faults() && !m.has_faults()) || last {
                    return Ok((b, m));
                }
                // Faulted pair with retries left: run it again.
            }
            (b, m) => {
                let abort = b.err().or(m.err()).expect("at least one run aborted");
                if last {
                    return Err(abort.as_error());
                }
            }
        }
    }
    unreachable!("the final attempt always returns")
}

/// Whether a capture pair yielded *no* usable observation: faults fired
/// and every destination ended up unobserved. Such an app must be
/// recorded as degraded, not silently scored as "does not pin".
fn fully_unobserved(
    baseline: &Capture,
    mitm: &Capture,
    verdicts: &[DestinationVerdict],
) -> Option<MeasurementError> {
    if !baseline.has_faults() && !mitm.has_faults() {
        return None;
    }
    let all_unobserved = !verdicts.is_empty()
        && verdicts
            .iter()
            .all(|v| v.excluded == Some(ExcludeReason::Unobserved));
    if !all_unobserved {
        return None;
    }
    mitm.dominant_fault()
        .or_else(|| baseline.dominant_fault())
        .map(|k| k.as_error())
}

/// File extensions the screen treats as certificate material (mirrors the
/// static scanner's list).
const CERT_EXTENSIONS: [&str; 5] = ["der", "pem", "crt", "cert", "cer"];

fn classify_xml_error(e: &xml::XmlError) -> MalformedKind {
    match e {
        xml::XmlError::UnexpectedEof => MalformedKind::Truncated,
        xml::XmlError::MismatchedClose { .. } | xml::XmlError::Malformed(_) => {
            MalformedKind::BadStructure
        }
        xml::XmlError::NoRoot => MalformedKind::BadStructure,
        xml::XmlError::LimitExceeded(_) => MalformedKind::LimitExceeded,
    }
}

/// Pre-flight hostile-input screen for one app: every decoder-facing asset
/// in the package must decode, and every chain its planned destinations
/// serve must pass [`pinning_pki::limits::screen_chain`].
///
/// A rejection degrades the app as [`MeasurementError::MalformedInput`] —
/// the measurement is reported as lost, and the pipeline never fabricates
/// a pinning verdict from data it could not safely interpret (the same
/// contract as the Unobserved rule, §5.6). Honestly-generated worlds pass
/// this screen by construction, so it never perturbs clean studies.
fn screen_app_inputs(env: &DynamicEnv<'_>, app: &MobileApp) -> Result<(), MeasurementError> {
    // 1. Package assets. Encrypted iOS packages carry ciphertext assets a
    //    device decrypts transparently at install time; the screen can
    //    only inspect cleartext packages (the hostile cohort ships those).
    if !app.package.encrypted {
        for file in &app.package.files {
            let ext = file.path.rsplit('.').next().unwrap_or("");
            if CERT_EXTENSIONS.contains(&ext) {
                screen_cert_asset(file)?;
            }
            if file.path.ends_with("network_security_config.xml") {
                let text = match &file.content {
                    pinning_app::package::FileContent::Text(t) => t.as_str(),
                    pinning_app::package::FileContent::Binary(_) => {
                        return Err(MeasurementError::MalformedInput {
                            layer: InputLayer::Nsc,
                            reason: MalformedKind::BadEncoding,
                        })
                    }
                };
                pinning_app::nsc::NetworkSecurityConfig::from_xml(text).map_err(|e| {
                    MeasurementError::MalformedInput {
                        layer: InputLayer::Nsc,
                        reason: classify_xml_error(&e),
                    }
                })?;
            }
        }
    }

    // 2. Served chains: screen the structure of what each planned
    //    destination will present, before any run is attempted.
    let budget = pinning_pki::limits::Budget::STANDARD;
    let network = env.device(app.id.platform).network;
    for conn in &app.behavior.connections {
        if let Some(server) = network.resolve(&conn.domain) {
            pinning_pki::limits::screen_chain(server.chain.certs(), &budget).map_err(|defect| {
                MeasurementError::MalformedInput {
                    layer: InputLayer::Chain,
                    reason: if defect.is_budget_trip() {
                        MalformedKind::LimitExceeded
                    } else {
                        MalformedKind::BadStructure
                    },
                }
            })?;
        }
    }
    Ok(())
}

fn screen_cert_asset(file: &pinning_app::package::AppFile) -> Result<(), MeasurementError> {
    match &file.content {
        pinning_app::package::FileContent::Text(t) => {
            if !t.contains(pinning_pki::encode::PEM_BEGIN_CERT) {
                return Err(MeasurementError::MalformedInput {
                    layer: InputLayer::Pem,
                    reason: MalformedKind::BadStructure,
                });
            }
            let blobs = pinning_pki::encode::pem_decode_all(t).map_err(|e| {
                MeasurementError::MalformedInput {
                    layer: InputLayer::Pem,
                    reason: MalformedKind::from_decode_error(&e),
                }
            })?;
            for der in &blobs {
                pinning_pki::Certificate::from_der(der).map_err(|e| {
                    MeasurementError::MalformedInput {
                        layer: InputLayer::Der,
                        reason: MalformedKind::from_decode_error(&e),
                    }
                })?;
            }
        }
        pinning_app::package::FileContent::Binary(b) => {
            pinning_pki::Certificate::from_der(b).map_err(|e| {
                MeasurementError::MalformedInput {
                    layer: InputLayer::Der,
                    reason: MalformedKind::from_decode_error(&e),
                }
            })?;
        }
    }
    Ok(())
}

/// Runs the full differential pipeline for one app, surfacing measurement
/// degradation as an error instead of a mis-classification.
///
/// On iOS, runs once without settling; if pinning is detected, re-runs
/// with a 120 s settle so associated-domain traffic cannot contaminate the
/// result (§4.5's limited re-run applied automatically). Faulted pairs are
/// retried per [`DynamicEnv::retry`]; an app whose destinations all stayed
/// unobserved — or whose runs kept aborting — yields the responsible
/// [`MeasurementError`].
pub fn try_analyze_app(
    env: &DynamicEnv<'_>,
    app: &MobileApp,
) -> Result<AppDynamicResult, MeasurementError> {
    screen_app_inputs(env, app)?;
    let device = env.device(app.id.platform);
    let exclusions = match app.id.platform {
        Platform::Android => Exclusions::none(),
        Platform::Ios => Exclusions::ios(associated_domains_from_package(app)),
    };
    let mut clock: u64 = 0;
    // One breaker set per app, spanning all of its runs: state built up
    // during the initial pair carries into retries and the settle re-run.
    let breakers = env.breaker.map(BreakerSet::new);
    let breakers = breakers.as_ref();

    let (baseline, mitm) = run_pair_with_retry(env, device, app, breakers, 0, "", &mut clock)?;
    let verdicts = detect_pinned_destinations(&baseline, &mitm, &exclusions);
    if let Some(err) = fully_unobserved(&baseline, &mitm, &verdicts) {
        return Err(err);
    }
    let found_pinning = verdicts.iter().any(|v| v.pinned);

    if app.id.platform == Platform::Ios && found_pinning {
        // §4.5: re-run with a 2-minute settle; use the re-run's results.
        let (baseline2, mitm2) =
            run_pair_with_retry(env, device, app, breakers, 120, "-settled", &mut clock)?;
        let verdicts2 = detect_pinned_destinations(&baseline2, &mitm2, &exclusions);
        if let Some(err) = fully_unobserved(&baseline2, &mitm2, &verdicts2) {
            return Err(err);
        }
        return Ok(AppDynamicResult {
            verdicts: verdicts2,
            baseline: baseline2,
            mitm: mitm2,
            settled_rerun: true,
            breaker_trips: breakers.map(BreakerSet::trips).unwrap_or(0),
        });
    }

    Ok(AppDynamicResult {
        verdicts,
        baseline,
        mitm,
        settled_rerun: false,
        breaker_trips: breakers.map(BreakerSet::trips).unwrap_or(0),
    })
}

/// Infallible wrapper around [`try_analyze_app`] for fault-free
/// environments (the default): without a fault plan no run can abort and
/// the default deadline is never hit.
///
/// Panics if the environment has faults configured and the app degrades —
/// fault-injecting callers must use [`try_analyze_app`].
pub fn analyze_app(env: &DynamicEnv<'_>, app: &MobileApp) -> AppDynamicResult {
    try_analyze_app(env, app)
        .expect("measurement degraded under fault injection; use try_analyze_app")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_store::config::WorldConfig;
    use pinning_store::world::World;

    fn world() -> World {
        World::generate(WorldConfig::tiny(0xabc))
    }

    fn env(w: &World) -> DynamicEnv<'_> {
        DynamicEnv::new(
            &w.network,
            w.universe.aosp_oem.clone(),
            w.universe.ios.clone(),
            w.now,
            w.config.seed,
        )
    }

    #[test]
    fn reused_devices_capture_what_fresh_devices_capture() {
        let w = world();
        let env = env(&w);
        let proxy = env.proxy();
        let mut frida = RunConfig::mitm(proxy);
        frida.frida_disable_pinning = true;
        frida.run_tag = "mitm-frida".to_string();
        let configs = [RunConfig::baseline(), RunConfig::mitm(proxy), frida];
        for app in &w.apps {
            let platform = app.id.platform;
            let factory = match platform {
                Platform::Android => w.universe.aosp_oem.clone(),
                Platform::Ios => w.universe.ios.clone(),
            };
            let mut fresh = Device::new(
                platform,
                &w.network,
                factory,
                env.identity.clone(),
                w.now,
                env.seed,
            );
            fresh.install_ca(proxy.ca_cert());
            for cfg in &configs {
                let reused = env.device(platform).try_run_app(app, cfg);
                assert_eq!(
                    format!("{reused:?}"),
                    format!("{:?}", fresh.try_run_app(app, cfg)),
                    "{} / {}",
                    app.id,
                    cfg.run_tag
                );
            }
        }
    }

    #[test]
    fn pipeline_recovers_planted_pinning() {
        let w = world();
        let env = env(&w);
        let mut truth_pinners = 0;
        let mut detected = 0;
        let mut false_positives = 0;
        for app in &w.apps {
            let truth = app.pins_at_runtime();
            let result = analyze_app(&env, app);
            if truth {
                truth_pinners += 1;
                if result.pins() {
                    detected += 1;
                }
            } else if result.pins() {
                false_positives += 1;
            }
        }
        assert!(truth_pinners > 0, "tiny world must contain pinners");
        // Detection may miss a pinner whose pinned destination was flaky or
        // scheduled past the window (§5.6 "Partial Observation"); with a
        // single-digit pinner count in a tiny world the tolerance must be
        // loose — the paper-scale shape checks live in tests/end_to_end.rs.
        assert!(
            detected * 10 >= truth_pinners * 6,
            "detected {detected}/{truth_pinners}"
        );
        assert_eq!(false_positives, 0, "differential rule must not hallucinate");
    }

    #[test]
    fn pinned_destinations_match_ground_truth() {
        let w = world();
        let env = env(&w);
        let mut any_detected = false;
        for app in w.apps.iter().filter(|a| a.pins_at_runtime()) {
            let result = analyze_app(&env, app);
            let truth: std::collections::BTreeSet<&str> =
                app.runtime_pinned_domains().into_iter().collect();
            let detected: std::collections::BTreeSet<&str> =
                result.pinned_destinations().into_iter().collect();
            // Soundness: every detected destination is genuinely pinned.
            // (Completeness can miss: a pinned connection scheduled past
            // the 30 s window is simply not observed — §5.6 "Partial
            // Observation".)
            for d in &detected {
                assert!(
                    truth.contains(d),
                    "false pinned destination {d} in {}",
                    app.id
                );
            }
            any_detected |= !detected.is_empty();
        }
        assert!(
            any_detected,
            "at least one pinner must be caught in the window"
        );
    }

    #[test]
    fn ios_pinner_triggers_settled_rerun() {
        let w = world();
        let env = env(&w);
        let app = w
            .apps
            .iter()
            .find(|a| a.id.platform == Platform::Ios && a.pins_at_runtime());
        if let Some(app) = app {
            let result = analyze_app(&env, app);
            if result.pins() {
                assert!(result.settled_rerun);
            }
        }
    }

    #[test]
    fn associated_domains_roundtrip_through_entitlements() {
        let w = world();
        for app in w.apps.iter().filter(|a| a.id.platform == Platform::Ios) {
            let extracted = associated_domains_from_package(app);
            assert_eq!(extracted, app.associated_domains, "{}", app.id);
        }
    }
}
