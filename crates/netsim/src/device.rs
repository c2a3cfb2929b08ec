//! The device runtime: installs an app, launches it, and captures traffic.
//!
//! Mirrors the paper's §4.2.1 pipeline: one app at a time, a fixed capture
//! window (30 s by default; the 15/30/60 s calibration sweep is reproduced
//! in `pinning-analysis`), optional MITM interception, optional Frida
//! hooks, and — on iOS — the OS background traffic that §4.5 had to
//! engineer around.

use crate::breaker::{Admission, BreakerSet};
use crate::faults::{FaultKind, FaultPlan, RunAbort};
use crate::flow::{Capture, FaultEvent, FlowOrigin, FlowRecord};
use crate::network::Network;
use crate::proxy::MitmProxy;
use pinning_app::app::MobileApp;
use pinning_app::behavior::{Interaction, PlannedConnection};
use pinning_app::pii::DeviceIdentity;
use pinning_app::platform::Platform;
use pinning_crypto::SplitMix64;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_pki::validate::ValidationMemo;
use pinning_tls::record::{Direction, TcpEvent};
use pinning_tls::{
    establish, CertPolicy, CipherSuite, ClientConfig, ServerEndpoint, TlsLibrary, TlsVersion,
};

/// Configuration for one app run.
#[derive(Debug, Clone)]
pub struct RunConfig<'a> {
    /// Capture window after launch, seconds (paper default: 30).
    pub window_secs: u32,
    /// Wait between install and launch, seconds (0 normally; 120 in the
    /// paper's iOS re-run so associated-domain traffic settles, §4.5).
    pub settle_secs: u32,
    /// UI interaction mode.
    pub interaction: Interaction,
    /// Route through this MITM proxy (None = baseline non-MITM run).
    pub proxy: Option<&'a MitmProxy>,
    /// Attach Frida hooks that disable certificate checks in hookable TLS
    /// stacks (§4.3 circumvention runs).
    pub frida_disable_pinning: bool,
    /// Distinguishes randomness between repeated runs of the same app.
    /// Owned so callers can build attempt-specific tags without fighting
    /// the borrow checker.
    pub run_tag: String,
    /// Fault schedule applied to this run (`None` = no injection).
    pub faults: Option<&'a FaultPlan>,
    /// Per-endpoint circuit breakers shared across this app's runs
    /// (`None` = never short-circuit). Only injected faults feed them.
    pub breaker: Option<&'a BreakerSet>,
}

impl<'a> RunConfig<'a> {
    /// The baseline (non-MITM) configuration.
    pub fn baseline() -> Self {
        RunConfig {
            window_secs: 30,
            settle_secs: 0,
            interaction: Interaction::None,
            proxy: None,
            frida_disable_pinning: false,
            run_tag: "baseline".to_string(),
            faults: None,
            breaker: None,
        }
    }

    /// The interception configuration.
    pub fn mitm(proxy: &'a MitmProxy) -> Self {
        RunConfig {
            proxy: Some(proxy),
            run_tag: "mitm".to_string(),
            ..RunConfig::baseline()
        }
    }
}

/// A test device attached to the virtual network.
#[derive(Debug)]
pub struct Device<'a> {
    /// Platform of the device.
    pub platform: Platform,
    /// The network it reaches.
    pub network: &'a Network,
    /// Root store consulted by *apps* (factory store, plus the proxy CA
    /// once installed — the paper modified the system image / trust
    /// settings to do this).
    pub app_trust: RootStore,
    /// Root store consulted by *OS services* — never includes the proxy CA
    /// (why associated-domain verification "appears pinned", §4.5).
    pub os_trust: RootStore,
    /// The device/account identity whose PII apps may transmit.
    pub identity: DeviceIdentity,
    /// Wall-clock "now" used for certificate validity.
    pub now: SimTime,
    /// Chain-validation memo the device's TLS stacks validate through
    /// (`None` = none); [`Device::new`] starts with the process default.
    pub memo: Option<&'a ValidationMemo>,
    seed: u64,
}

impl<'a> Device<'a> {
    /// Creates a device with a factory root store.
    pub fn new(
        platform: Platform,
        network: &'a Network,
        factory_store: RootStore,
        identity: DeviceIdentity,
        now: SimTime,
        seed: u64,
    ) -> Self {
        Device {
            platform,
            network,
            app_trust: factory_store.clone(),
            os_trust: factory_store,
            identity,
            now,
            memo: Some(ValidationMemo::process_default()),
            seed,
        }
    }

    /// Installs a CA certificate into the app-visible trust store (the
    /// mitmproxy setup step).
    pub fn install_ca(&mut self, cert: pinning_pki::Certificate) {
        self.app_trust.add(cert);
    }

    /// Installs, launches and captures one app run, panicking if an
    /// injected run-level fault aborts it.
    ///
    /// Callers that configure a fault plan should prefer
    /// [`Device::try_run_app`]; without one this never panics. Panics if
    /// the app targets the other platform (you can't sideload an IPA onto
    /// a Pixel).
    pub fn run_app(&self, app: &MobileApp, cfg: &RunConfig<'_>) -> Capture {
        self.try_run_app(app, cfg)
            .expect("run aborted by an injected fault; use try_run_app to handle aborts")
    }

    /// Installs, launches and captures one app run, surfacing run-level
    /// fault aborts (device crash, missing proxy CA) as errors.
    ///
    /// An aborted run yields *no* capture — the paper's crashed runs lost
    /// their pcaps wholesale. Per-connection faults do not abort; they are
    /// journaled in [`Capture::faults`].
    ///
    /// Panics if the app targets the other platform.
    pub fn try_run_app(&self, app: &MobileApp, cfg: &RunConfig<'_>) -> Result<Capture, RunAbort> {
        assert_eq!(
            app.id.platform, self.platform,
            "app platform must match device platform"
        );
        let run_key = format!("{}/{}", app.id, cfg.run_tag);
        if let Some(plan) = cfg.faults {
            if let Some(abort) = plan.run_abort(&run_key, cfg.proxy.is_some(), cfg.window_secs) {
                return Err(abort);
            }
        }

        let mut flows = Vec::new();
        let mut faults = Vec::new();
        let mut rng = SplitMix64::new(self.seed).derive(&format!("run/{run_key}"));

        if self.platform == Platform::Ios {
            self.emit_os_background(cfg, &mut rng, &mut flows);
            self.emit_associated_domain_checks(app, cfg, &mut rng, &mut flows);
        }

        for conn in app.behavior.within_window(cfg.window_secs, cfg.interaction) {
            self.run_connection(app, conn, cfg, &run_key, &mut rng, &mut flows, &mut faults);
        }

        flows.sort_by_key(|f| f.at_secs);
        Ok(Capture {
            flows,
            window_secs: cfg.window_secs,
            faults,
        })
    }

    /// Always-on Apple service traffic spanning the whole capture (§4.5).
    fn emit_os_background(
        &self,
        cfg: &RunConfig<'_>,
        rng: &mut SplitMix64,
        flows: &mut Vec<FlowRecord>,
    ) {
        for domain in crate::APPLE_BACKGROUND_DOMAINS {
            // A couple of beacons spread across the window.
            for at in [0u32, cfg.window_secs / 2] {
                self.emit_os_flow(domain, at, FlowOrigin::OsBackground, cfg, rng, flows);
            }
        }
    }

    /// Associated-domain verification fetches triggered by app install
    /// (§4.5). They land shortly after install; with a long enough settle
    /// wait they finish *before* the capture window opens.
    fn emit_associated_domain_checks(
        &self,
        app: &MobileApp,
        cfg: &RunConfig<'_>,
        rng: &mut SplitMix64,
        flows: &mut Vec<FlowRecord>,
    ) {
        // Fetches happen ~5–60 s after install; capture starts at
        // `settle_secs` after install.
        for domain in &app.associated_domains {
            let fetch_at = 5 + rng.next_below(55) as u32;
            let Some(at_in_window) = fetch_at.checked_sub(cfg.settle_secs) else {
                continue; // finished before the capture window opened
            };
            if at_in_window > cfg.window_secs {
                continue;
            }
            self.emit_os_flow(
                domain,
                at_in_window,
                FlowOrigin::OsAssociatedDomains,
                cfg,
                rng,
                flows,
            );
        }
    }

    fn emit_os_flow(
        &self,
        domain: &str,
        at_secs: u32,
        origin: FlowOrigin,
        cfg: &RunConfig<'_>,
        rng: &mut SplitMix64,
        flows: &mut Vec<FlowRecord>,
    ) {
        let Some(server) = self.network.resolve(domain) else {
            return;
        };
        let client = ClientConfig::modern(TlsLibrary::NsUrlSession);
        let forged = cfg.proxy.map(|p| p.forge_chain(domain, &server.chain));
        let chain = forged.as_deref().unwrap_or(&server.chain);
        let endpoint = ServerEndpoint {
            chain,
            versions: server.versions.clone(),
            ciphers: server.ciphers.clone(),
        };
        // OS services validate against the OS store (no proxy CA).
        let mut out = establish(
            &client,
            &endpoint,
            domain,
            self.now,
            &self.os_trust,
            &self.network.crl,
            self.memo,
        );
        if let Ok(session) = out.result {
            session.send_client_data(&mut out.transcript, 300 + rng.next_below(200) as usize);
            session.send_server_data(&mut out.transcript, server.response_bytes);
            session.close(&mut out.transcript);
        }
        flows.push(FlowRecord {
            dest: domain.to_string(),
            at_secs,
            origin,
            transcript: out.transcript,
            mitm_attempted: cfg.proxy.is_some(),
            decrypted_request: None, // OS flows never complete under MITM
        });
    }

    /// An injected per-connection fault, rendered onto the wire. Returns
    /// the flow to record, or `None` when the fault leaves no trace (DNS).
    fn render_fault(
        &self,
        kind: FaultKind,
        conn: &PlannedConnection,
        cfg: &RunConfig<'_>,
        attempt: u32,
    ) -> Option<FlowRecord> {
        let mut t = pinning_tls::ConnectionTranscript::new();
        t.sni = conn.sends_sni.then(|| conn.domain.clone());
        match kind {
            // Resolution failed: nothing reaches the capture.
            FaultKind::Dns => return None,
            // The network killed the session: server-side RST, nothing
            // negotiated — classifies as inconclusive, like server drops.
            FaultKind::TcpReset => {
                t.push_tcp(TcpEvent::Established);
                t.push_tcp(TcpEvent::Rst {
                    from: Direction::ServerToClient,
                });
            }
            // The handshake hung: an established session with no records
            // and no teardown before the window closed.
            FaultKind::HandshakeTimeout => {
                t.push_tcp(TcpEvent::Established);
            }
            // Cut mid-stream before application data completed: the
            // client side shows a bare FIN.
            FaultKind::Truncation => {
                t.push_tcp(TcpEvent::Established);
                t.push_tcp(TcpEvent::Fin {
                    from: Direction::ClientToServer,
                });
            }
            // Run-level faults never reach per-connection rendering.
            FaultKind::ProxyCaUnavailable | FaultKind::DeviceCrash => unreachable!(),
        }
        Some(FlowRecord {
            dest: conn.domain.clone(),
            at_secs: conn.at_secs + attempt,
            origin: FlowOrigin::App,
            transcript: t,
            mitm_attempted: cfg.proxy.is_some(),
            decrypted_request: None,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_connection(
        &self,
        app: &MobileApp,
        conn: &PlannedConnection,
        cfg: &RunConfig<'_>,
        run_key: &str,
        rng: &mut SplitMix64,
        flows: &mut Vec<FlowRecord>,
        faults: &mut Vec<FaultEvent>,
    ) {
        let Some(server) = self.network.resolve(&conn.domain) else {
            return;
        };

        // Resolve the certificate policy this connection runs with.
        let active_rule = conn
            .pin_rule
            .and_then(|i| app.pin_rules.get(i))
            .filter(|r| r.active_at_runtime);
        let hooked = cfg.frida_disable_pinning && conn.library.frida_hookable();
        let policy = if hooked {
            // Frida hooks neuter certificate evaluation wholesale.
            CertPolicy {
                system_validation: false,
                validation_options: Default::default(),
                pins: None,
            }
        } else {
            match active_rule {
                Some(rule) => CertPolicy {
                    system_validation: !rule.custom_pki,
                    validation_options: Default::default(),
                    pins: Some(rule.pins.clone()),
                },
                None => CertPolicy::system_default(),
            }
        };

        let client = ClientConfig {
            offered_versions: vec![TlsVersion::V1_2, TlsVersion::V1_3],
            offered_ciphers: if conn.offers_weak_ciphers {
                CipherSuite::legacy_client_list()
            } else {
                CipherSuite::modern_client_list()
            },
            send_sni: conn.sends_sni,
            library: conn.library,
            policy,
        };

        let attempts = if cfg.proxy.is_some() { 2 } else { 1 };
        for attempt in 0..attempts {
            // An open circuit breaker short-circuits the attempt before any
            // packets move: journal the fault kind that tripped it so the
            // detector treats the destination as unobserved, same as a live
            // injected fault would.
            if let Some(b) = cfg.breaker {
                if let Admission::Skip(kind) = b.admit(&conn.domain) {
                    faults.push(FaultEvent {
                        domain: Some(conn.domain.clone()),
                        kind,
                        at_secs: conn.at_secs + attempt,
                    });
                    continue;
                }
            }

            // Injected test-bed faults take precedence over everything the
            // endpoints would do: the packets never make it that far.
            if let Some(kind) = cfg
                .faults
                .and_then(|p| p.connection_fault(run_key, &conn.domain, attempt))
            {
                if let Some(b) = cfg.breaker {
                    b.record_fault(&conn.domain, kind);
                }
                faults.push(FaultEvent {
                    domain: Some(conn.domain.clone()),
                    kind,
                    at_secs: conn.at_secs + attempt,
                });
                if let Some(flow) = self.render_fault(kind, conn, cfg, attempt) {
                    flows.push(flow);
                }
                continue; // the app retries, like any failed attempt
            }

            // No injected fault on this attempt: the breaker sees it as a
            // success regardless of what the endpoint does next, keeping
            // breaker state a pure function of the injected-fault sequence.
            if let Some(b) = cfg.breaker {
                b.record_success(&conn.domain);
            }

            // Server-side flakiness: a dropped attempt shows a server RST.
            if !rng.chance(server.reliability) {
                let mut t = pinning_tls::ConnectionTranscript::new();
                t.sni = conn.sends_sni.then(|| conn.domain.clone());
                t.push_tcp(TcpEvent::Established);
                t.push_tcp(TcpEvent::Rst {
                    from: Direction::ServerToClient,
                });
                flows.push(FlowRecord {
                    dest: conn.domain.clone(),
                    at_secs: conn.at_secs,
                    origin: FlowOrigin::App,
                    transcript: t,
                    mitm_attempted: cfg.proxy.is_some(),
                    decrypted_request: None,
                });
                continue;
            }

            let forged = cfg
                .proxy
                .map(|p| p.forge_chain(&conn.domain, &server.chain));
            let chain = forged.as_deref().unwrap_or(&server.chain);
            let endpoint = ServerEndpoint {
                chain,
                versions: server.versions.clone(),
                ciphers: server.ciphers.clone(),
            };
            let mut out = establish(
                &client,
                &endpoint,
                &conn.domain,
                self.now,
                &self.app_trust,
                &self.network.crl,
                self.memo,
            );

            let mut decrypted = None;
            match out.result {
                Ok(session) => {
                    if conn.redundant {
                        session.close(&mut out.transcript);
                    } else {
                        let payload = self
                            .identity
                            .render_payload(&conn.pii, rng.next_u64() & 0xffff_ffff);
                        let body_len = payload.len() + conn.extra_bytes;
                        session.send_client_data(&mut out.transcript, body_len);
                        session.send_server_data(&mut out.transcript, server.response_bytes);
                        session.close(&mut out.transcript);
                        if cfg.proxy.is_some() {
                            // Interception succeeded: the proxy sees plaintext.
                            decrypted = Some(payload);
                        }
                    }
                    flows.push(FlowRecord {
                        dest: conn.domain.clone(),
                        at_secs: conn.at_secs + attempt,
                        origin: FlowOrigin::App,
                        transcript: out.transcript,
                        mitm_attempted: cfg.proxy.is_some(),
                        decrypted_request: decrypted,
                    });
                    break; // success: no retry
                }
                Err(_) => {
                    flows.push(FlowRecord {
                        dest: conn.domain.clone(),
                        at_secs: conn.at_secs + attempt,
                        origin: FlowOrigin::App,
                        transcript: out.transcript,
                        mitm_attempted: cfg.proxy.is_some(),
                        decrypted_request: None,
                    });
                    // Failure under MITM: the app retries once (the retry
                    // noise §4.5 observed), then gives up.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::OriginServer;
    use pinning_app::app::MobileApp;
    use pinning_app::behavior::AppBehavior;
    use pinning_app::category::Category;
    use pinning_app::package::AppPackage;
    use pinning_app::pinning::{DomainPinRule, PinSource, PinStorage, PinTarget};
    use pinning_app::platform::AppId;
    use pinning_crypto::sig::KeyPair;
    use pinning_pki::pin::PinAlgorithm;
    use pinning_pki::universe::{PkiUniverse, UniverseConfig};

    struct World {
        network: Network,
        universe: PkiUniverse,
        proxy: MitmProxy,
        factory: RootStore,
    }

    fn world() -> World {
        let mut rng = SplitMix64::new(0xd0);
        let mut universe = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let mut network = Network::new();
        for host in ["api.shop.com", "pins.shop.com", "tracker.ads.com"] {
            let key = KeyPair::generate(&mut rng);
            let chain = universe.issue_server_chain_via(0, &[host.to_string()], "Org", &key, 398);
            network.register(OriginServer::modern(
                vec![host.to_string()],
                "Org".into(),
                chain,
            ));
        }
        let proxy = MitmProxy::new(&mut rng, universe.now());
        let factory = universe.aosp.clone();
        World {
            network,
            universe,
            proxy,
            factory,
        }
    }

    fn test_app(w: &World) -> MobileApp {
        let pinned_chain = w.network.resolve("pins.shop.com").unwrap().chain.clone();
        let rule = DomainPinRule::spki(
            "pins.shop.com",
            pinned_chain.top().unwrap(), // pin the root (CA pin)
            PinTarget::Root,
            PinAlgorithm::Sha256,
            PinStorage::SpkiStringInCode(PinAlgorithm::Sha256),
            PinSource::FirstParty,
        );
        let mut plain =
            pinning_app::behavior::PlannedConnection::simple("api.shop.com", TlsLibrary::OkHttp);
        plain.pii = vec![pinning_app::pii::PiiType::AdvertisingId];
        let mut pinned =
            pinning_app::behavior::PlannedConnection::simple("pins.shop.com", TlsLibrary::OkHttp);
        pinned.pin_rule = Some(0);
        let mut ads = pinning_app::behavior::PlannedConnection::simple(
            "tracker.ads.com",
            TlsLibrary::Conscrypt,
        );
        ads.redundant = true;
        MobileApp {
            id: AppId::new(Platform::Android, "com.shop.app"),
            product_key: "shop".into(),
            name: "Shop".into(),
            developer_org: "Shop Inc".into(),
            category: Category::Shopping,
            popularity_rank: 1,
            sdk_names: vec![],
            pin_rules: vec![rule],
            first_party_domains: vec!["api.shop.com".into(), "pins.shop.com".into()],
            associated_domains: vec![],
            uses_nsc: false,
            behavior: AppBehavior {
                connections: vec![plain, pinned, ads],
            },
            package: AppPackage::new(Platform::Android, vec![]),
        }
    }

    fn device<'a>(w: &'a World, with_ca: bool) -> Device<'a> {
        let mut rng = SplitMix64::new(0xd1);
        let mut d = Device::new(
            Platform::Android,
            &w.network,
            w.factory.clone(),
            DeviceIdentity::generate(&mut rng),
            w.universe.now(),
            42,
        );
        if with_ca {
            d.install_ca(w.proxy.ca_cert());
        }
        d
    }

    #[test]
    fn baseline_run_all_connections_succeed() {
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        let cap = d.run_app(&app, &RunConfig::baseline());
        assert_eq!(cap.flows.len(), 3);
        // Pinned destination succeeds against the genuine chain.
        let pinned_flow = cap
            .flows
            .iter()
            .find(|f| f.dest == "pins.shop.com")
            .unwrap();
        assert!(pinned_flow.transcript.client_appdata_bytes() > 0);
        // No plaintext without MITM.
        assert!(cap.flows.iter().all(|f| f.decrypted_request.is_none()));
    }

    #[test]
    fn mitm_run_splits_pinned_from_unpinned() {
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        let cap = d.run_app(&app, &RunConfig::mitm(&w.proxy));
        // Unpinned destination intercepted: plaintext visible, incl. the Ad ID.
        let api = cap.flows.iter().find(|f| f.dest == "api.shop.com").unwrap();
        let body = api.decrypted_request.as_ref().unwrap();
        assert!(body.contains("adid="));
        // Pinned destination fails (and is retried once).
        let pinned: Vec<_> = cap
            .flows
            .iter()
            .filter(|f| f.dest == "pins.shop.com")
            .collect();
        assert_eq!(pinned.len(), 2, "failure + one retry");
        assert!(pinned.iter().all(|f| f.decrypted_request.is_none()));
        assert!(
            pinned.iter().all(|f| f.transcript.client_rst()),
            "OkHttp pin failure → RST"
        );
    }

    #[test]
    fn frida_hooks_open_pinned_connections() {
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        let mut cfg = RunConfig::mitm(&w.proxy);
        cfg.frida_disable_pinning = true;
        cfg.run_tag = "mitm+frida".to_string();
        let cap = d.run_app(&app, &cfg);
        let pinned = cap
            .flows
            .iter()
            .find(|f| f.dest == "pins.shop.com")
            .unwrap();
        assert!(
            pinned.decrypted_request.is_some(),
            "hooked stack accepts the forged chain"
        );
    }

    #[test]
    fn unhookable_stack_resists_frida() {
        let w = world();
        let mut app = test_app(&w);
        // Switch the pinned connection to a custom native stack.
        app.behavior.connections[1].library = TlsLibrary::CustomNative;
        let d = device(&w, true);
        let mut cfg = RunConfig::mitm(&w.proxy);
        cfg.frida_disable_pinning = true;
        let cap = d.run_app(&app, &cfg);
        let pinned: Vec<_> = cap
            .flows
            .iter()
            .filter(|f| f.dest == "pins.shop.com")
            .collect();
        assert!(pinned.iter().all(|f| f.decrypted_request.is_none()));
    }

    #[test]
    fn without_installed_ca_everything_fails_under_mitm() {
        let w = world();
        let app = test_app(&w);
        let d = device(&w, false); // proxy CA NOT installed
        let cap = d.run_app(&app, &RunConfig::mitm(&w.proxy));
        assert!(cap.flows.iter().all(|f| f.decrypted_request.is_none()));
    }

    #[test]
    fn redundant_connection_shows_no_appdata() {
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        let cap = d.run_app(&app, &RunConfig::baseline());
        let ads = cap
            .flows
            .iter()
            .find(|f| f.dest == "tracker.ads.com")
            .unwrap();
        // TLS 1.3 shows only the disguised Finished + close alert; the paper's
        // ">2 packets" heuristic must not count this as used.
        assert!(ads.transcript.client_appdata_bytes() < 100);
    }

    #[test]
    fn window_excludes_late_connections() {
        let w = world();
        let mut app = test_app(&w);
        app.behavior.connections[0].at_secs = 50; // beyond the 30 s window
        let d = device(&w, true);
        let cap = d.run_app(&app, &RunConfig::baseline());
        assert!(cap.flows.iter().all(|f| f.dest != "api.shop.com"));
    }

    #[test]
    fn connection_faults_are_journaled_and_keep_the_run_alive() {
        use crate::faults::{FaultConfig, FaultPlan};
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        // Every connection attempt fails DNS: no app flows, all journaled.
        let plan = FaultPlan::new(
            5,
            FaultConfig {
                dns_failure: 1.0,
                ..FaultConfig::none()
            },
        );
        let mut cfg = RunConfig::baseline();
        cfg.faults = Some(&plan);
        let cap = d
            .try_run_app(&app, &cfg)
            .expect("no run-level fault configured");
        assert!(
            cap.flows.is_empty(),
            "DNS faults leave no trace on the wire"
        );
        assert_eq!(
            cap.faults.len(),
            3,
            "one journal entry per planned connection"
        );
        assert!(cap.faults.iter().all(|f| f.kind == FaultKind::Dns));
        let domains = cap.faulted_domains();
        assert!(domains.contains("pins.shop.com"));
    }

    #[test]
    fn device_crash_aborts_the_whole_run() {
        use crate::faults::{FaultConfig, FaultPlan};
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        let plan = FaultPlan::new(
            5,
            FaultConfig {
                device_crash: 1.0,
                ..FaultConfig::none()
            },
        );
        let mut cfg = RunConfig::baseline();
        cfg.faults = Some(&plan);
        match d.try_run_app(&app, &cfg) {
            Err(RunAbort::DeviceCrash { at_secs }) => assert!(at_secs < cfg.window_secs),
            other => panic!("crash rate 1.0 must abort, got {other:?}"),
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::faults::{FaultConfig, FaultPlan};
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        let plan = FaultPlan::new(11, FaultConfig::uniform(0.3));
        let mut cfg = RunConfig::mitm(&w.proxy);
        cfg.faults = Some(&plan);
        let a = d.try_run_app(&app, &cfg);
        let b = d.try_run_app(&app, &cfg);
        match (a, b) {
            (Ok(ca), Ok(cb)) => {
                assert_eq!(ca.faults, cb.faults);
                assert_eq!(ca.flows.len(), cb.flows.len());
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            other => panic!("replay diverged: {other:?}"),
        }
    }

    #[test]
    fn disabled_plan_changes_nothing() {
        use crate::faults::FaultPlan;
        let w = world();
        let app = test_app(&w);
        let d = device(&w, true);
        let plan = FaultPlan::disabled();
        let mut with = RunConfig::baseline();
        with.faults = Some(&plan);
        let faulted = d.try_run_app(&app, &with).unwrap();
        let clean = d.run_app(&app, &RunConfig::baseline());
        assert!(faulted.faults.is_empty());
        assert_eq!(faulted.flows.len(), clean.flows.len());
    }
}
