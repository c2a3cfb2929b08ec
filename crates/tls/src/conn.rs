//! The handshake driver: connect a client configuration to a server
//! endpoint and emit the wire transcript a capture point would record.

use crate::alert::{AlertDescription, AlertLevel, ENCRYPTED_ALERT_WIRE_LEN};
use crate::cipher::{select_cipher, CipherSuite};
use crate::handshake::{ClientHello, ServerHello};
use crate::library::{FailureSignal, PinCheckPhase, TlsLibrary};
use crate::record::{ContentType, Direction, RecordEvent, TcpEvent};
use crate::transcript::ConnectionTranscript;
use crate::verify::{CertPolicy, VerifyDecision};
use crate::version::{negotiate, TlsVersion};
use pinning_pki::chain::CertificateChain;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_pki::validate::{RevocationList, ValidationMemo};
use pinning_pki::ValidationError;

/// Client-side connection configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Versions offered in the ClientHello.
    pub offered_versions: Vec<TlsVersion>,
    /// Cipher suites offered in the ClientHello.
    pub offered_ciphers: Vec<CipherSuite>,
    /// Whether to send SNI (99% of real connections do).
    pub send_sni: bool,
    /// The TLS stack in use (determines failure wire behaviour and
    /// hookability).
    pub library: TlsLibrary,
    /// Certificate policy (system validation and/or pins).
    pub policy: CertPolicy,
}

impl ClientConfig {
    /// A typical modern client: TLS 1.2+1.3, modern ciphers, SNI, system
    /// validation via `library`.
    pub fn modern(library: TlsLibrary) -> Self {
        ClientConfig {
            offered_versions: vec![TlsVersion::V1_2, TlsVersion::V1_3],
            offered_ciphers: CipherSuite::modern_client_list(),
            send_sni: true,
            library,
            policy: CertPolicy::system_default(),
        }
    }
}

/// Server-side endpoint parameters for one handshake.
#[derive(Debug, Clone)]
pub struct ServerEndpoint<'a> {
    /// Chain presented in the Certificate message.
    pub chain: &'a CertificateChain,
    /// Versions the server supports.
    pub versions: Vec<TlsVersion>,
    /// Cipher suites the server supports, in preference order.
    pub ciphers: Vec<CipherSuite>,
}

impl<'a> ServerEndpoint<'a> {
    /// A typical modern server.
    pub fn modern(chain: &'a CertificateChain) -> Self {
        ServerEndpoint {
            chain,
            versions: vec![TlsVersion::V1_2, TlsVersion::V1_3],
            ciphers: CipherSuite::typical_server_list(),
        }
    }
}

/// Why a handshake failed.
#[derive(Debug, Clone, PartialEq)]
pub enum HandshakeError {
    /// No protocol version in common.
    NoCommonVersion,
    /// No cipher suite in common.
    NoCommonCipher,
    /// Standard certificate validation rejected the chain.
    CertRejected(ValidationError),
    /// Pin enforcement rejected the chain — the signal the study hunts.
    PinRejected,
}

/// An established session, able to move application data onto a transcript.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Negotiated version.
    pub version: TlsVersion,
    /// Negotiated cipher suite.
    pub cipher: CipherSuite,
}

impl Session {
    /// Records `len` bytes of client→server application data.
    pub fn send_client_data(&self, t: &mut ConnectionTranscript, len: usize) {
        t.push_record(RecordEvent::encrypted(
            Direction::ClientToServer,
            self.version,
            ContentType::ApplicationData,
            len,
        ));
    }

    /// Records `len` bytes of server→client application data.
    pub fn send_server_data(&self, t: &mut ConnectionTranscript, len: usize) {
        t.push_record(RecordEvent::encrypted(
            Direction::ServerToClient,
            self.version,
            ContentType::ApplicationData,
            len,
        ));
    }

    /// Orderly closure: encrypted close_notify then FIN.
    pub fn close(&self, t: &mut ConnectionTranscript) {
        t.push_record(RecordEvent::encrypted(
            Direction::ClientToServer,
            self.version,
            ContentType::Alert,
            ENCRYPTED_ALERT_WIRE_LEN,
        ));
        t.push_tcp(TcpEvent::Fin {
            from: Direction::ClientToServer,
        });
    }
}

/// Result of [`establish`].
#[derive(Debug, Clone, PartialEq)]
pub struct HandshakeOutcome {
    /// What the capture point saw.
    pub transcript: ConnectionTranscript,
    /// The session, or why it failed.
    pub result: Result<Session, HandshakeError>,
}

/// Drives a full handshake between `client` and `server` for `hostname`,
/// evaluating the client's certificate policy against `device_store`
/// (through the device's validation `memo`, if it has one).
///
/// Produces the same wire observables the paper's capture pipeline works
/// from — including TLS 1.3's disguised records and per-library failure
/// signals.
pub fn establish(
    client: &ClientConfig,
    server: &ServerEndpoint<'_>,
    hostname: &str,
    now: SimTime,
    device_store: &RootStore,
    crl: &RevocationList,
    memo: Option<&ValidationMemo>,
) -> HandshakeOutcome {
    let mut t = ConnectionTranscript::new();
    let hello = ClientHello {
        sni: client.send_sni.then(|| hostname.to_string()),
        offered_versions: client.offered_versions.clone(),
        offered_ciphers: client.offered_ciphers.clone(),
    };
    t.sni = hello.sni.clone();
    t.offered_versions = hello.offered_versions.clone();
    t.offered_ciphers = hello.offered_ciphers.clone();

    t.push_tcp(TcpEvent::Established);
    t.push_record(RecordEvent::handshake(
        Direction::ClientToServer,
        hello.wire_len(),
    ));

    // Version negotiation.
    let Some(version) = negotiate(&client.offered_versions, &server.versions) else {
        t.push_record(RecordEvent::plaintext_alert(
            Direction::ServerToClient,
            AlertLevel::Fatal,
            AlertDescription::ProtocolVersion,
        ));
        t.push_tcp(TcpEvent::Fin {
            from: Direction::ServerToClient,
        });
        return HandshakeOutcome {
            transcript: t,
            result: Err(HandshakeError::NoCommonVersion),
        };
    };

    // Cipher negotiation.
    let Some(cipher) = select_cipher(&client.offered_ciphers, &server.ciphers, version) else {
        t.push_record(RecordEvent::plaintext_alert(
            Direction::ServerToClient,
            AlertLevel::Fatal,
            AlertDescription::HandshakeFailure,
        ));
        t.push_tcp(TcpEvent::Fin {
            from: Direction::ServerToClient,
        });
        return HandshakeOutcome {
            transcript: t,
            result: Err(HandshakeError::NoCommonCipher),
        };
    };

    let server_hello = ServerHello { version, cipher };
    t.negotiated = Some((version, cipher));
    t.push_record(RecordEvent::handshake(
        Direction::ServerToClient,
        server_hello.wire_len(),
    ));

    // Certificate message: plaintext under ≤1.2, encrypted under 1.3.
    let chain_len: usize = server
        .chain
        .certs()
        .iter()
        .map(|c| c.der_bytes().len())
        .sum();
    if version.disguises_encrypted_records() {
        // EncryptedExtensions + Certificate + CertVerify + Finished, bundled.
        t.push_record(RecordEvent::encrypted(
            Direction::ServerToClient,
            version,
            ContentType::Handshake,
            chain_len + 220,
        ));
    } else {
        t.push_record(RecordEvent::handshake(
            Direction::ServerToClient,
            chain_len + 160,
        ));
    }

    // Client evaluates the chain.
    let decision =
        client
            .policy
            .evaluate(server.chain.certs(), hostname, now, device_store, crl, memo);

    let pin_phase = client.library.pin_check_phase();
    let fail =
        |t: &mut ConnectionTranscript, signal: FailureSignal, sent_finished: bool| match signal {
            FailureSignal::FatalAlert(desc) => {
                if version.disguises_encrypted_records() || sent_finished {
                    // Post-handshake (or 1.3 in-handshake) alerts are encrypted.
                    t.push_record(RecordEvent::encrypted(
                        Direction::ClientToServer,
                        version,
                        ContentType::Alert,
                        ENCRYPTED_ALERT_WIRE_LEN,
                    ));
                } else {
                    t.push_record(RecordEvent::plaintext_alert(
                        Direction::ClientToServer,
                        AlertLevel::Fatal,
                        desc,
                    ));
                }
                t.push_tcp(TcpEvent::Fin {
                    from: Direction::ClientToServer,
                });
            }
            FailureSignal::TcpRst => {
                t.push_tcp(TcpEvent::Rst {
                    from: Direction::ClientToServer,
                });
            }
            FailureSignal::SilentFin => {
                t.push_tcp(TcpEvent::Fin {
                    from: Direction::ClientToServer,
                });
            }
        };

    // In-handshake rejections (system validation always; pins for
    // during-handshake libraries).
    match &decision {
        VerifyDecision::RejectSystem(e) => {
            fail(&mut t, client.library.system_failure_signal(), false);
            return HandshakeOutcome {
                transcript: t,
                result: Err(HandshakeError::CertRejected(e.clone())),
            };
        }
        VerifyDecision::RejectPin if pin_phase == PinCheckPhase::DuringHandshake => {
            fail(&mut t, client.library.pin_failure_signal(), false);
            return HandshakeOutcome {
                transcript: t,
                result: Err(HandshakeError::PinRejected),
            };
        }
        _ => {}
    }

    // Client Finished. Under 1.3 this is the client's first encrypted record
    // and is disguised as application data (the heuristic's anchor).
    t.push_record(RecordEvent::encrypted(
        Direction::ClientToServer,
        version,
        ContentType::Handshake,
        if version.disguises_encrypted_records() {
            40
        } else {
            44
        },
    ));
    if !version.disguises_encrypted_records() {
        // TLS ≤1.2: server CCS + Finished back.
        t.push_record(RecordEvent::encrypted(
            Direction::ServerToClient,
            version,
            ContentType::Handshake,
            44,
        ));
    } else {
        // TLS 1.3: NewSessionTicket(s).
        t.push_record(RecordEvent::encrypted(
            Direction::ServerToClient,
            version,
            ContentType::Handshake,
            180,
        ));
    }

    // Post-handshake pin enforcement (OkHttp-style).
    if decision == VerifyDecision::RejectPin && pin_phase == PinCheckPhase::PostHandshake {
        fail(&mut t, client.library.pin_failure_signal(), true);
        return HandshakeOutcome {
            transcript: t,
            result: Err(HandshakeError::PinRejected),
        };
    }

    HandshakeOutcome {
        transcript: t,
        result: Ok(Session { version, cipher }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::pin::{Pin, PinSet, SpkiPin};
    use pinning_pki::time::{Validity, YEAR};

    struct Fixture {
        store: RootStore,
        chain: CertificateChain,
        mitm_chain: CertificateChain,
        root_cert: pinning_pki::Certificate,
        now: SimTime,
    }

    fn fixture() -> Fixture {
        let mut rng = SplitMix64::new(0xc0);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = root.issue_leaf(
            &["api.bank.com".to_string()],
            "Bank",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let chain = CertificateChain::new(vec![leaf, root.cert.clone()]);

        let mut mitm = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            &mut rng,
            SimTime(0),
        );
        let mk = KeyPair::generate(&mut rng);
        let forged = mitm.issue_leaf(
            &["api.bank.com".to_string()],
            "Bank",
            &mk,
            Validity::starting(SimTime(0), YEAR),
        );
        let mitm_chain = CertificateChain::new(vec![forged, mitm.cert.clone()]);

        let mut store = RootStore::new("device");
        store.add(root.cert.clone());
        store.add(mitm.cert.clone());
        Fixture {
            store,
            chain,
            mitm_chain,
            root_cert: root.cert.clone(),
            now: SimTime(100),
        }
    }

    fn run(f: &Fixture, client: &ClientConfig, chain: &CertificateChain) -> HandshakeOutcome {
        let server = ServerEndpoint::modern(chain);
        establish(
            client,
            &server,
            "api.bank.com",
            f.now,
            &f.store,
            &RevocationList::empty(),
            None,
        )
    }

    #[test]
    fn happy_path_tls13() {
        let f = fixture();
        let client = ClientConfig::modern(TlsLibrary::Conscrypt);
        let out = run(&f, &client, &f.chain);
        let session = out.result.unwrap();
        assert_eq!(session.version, TlsVersion::V1_3);
        assert!(out.transcript.handshake_reached_encryption());
        // First client encrypted record is the (disguised) Finished.
        let first = out.transcript.client_encrypted_appdata();
        assert_eq!(first[0].inner_type, ContentType::Handshake);
    }

    #[test]
    fn happy_path_tls12_when_13_unavailable() {
        let f = fixture();
        let client = ClientConfig::modern(TlsLibrary::Conscrypt);
        let mut server = ServerEndpoint::modern(&f.chain);
        server.versions = vec![TlsVersion::V1_2];
        let out = establish(
            &client,
            &server,
            "api.bank.com",
            f.now,
            &f.store,
            &RevocationList::empty(),
            None,
        );
        assert_eq!(out.result.unwrap().version, TlsVersion::V1_2);
        // Under 1.2 nothing is disguised: no app-data-looking client records yet.
        assert!(out.transcript.client_encrypted_appdata().is_empty());
    }

    #[test]
    fn version_mismatch_yields_protocol_alert_not_pin_signal() {
        let f = fixture();
        let mut client = ClientConfig::modern(TlsLibrary::Conscrypt);
        client.offered_versions = vec![TlsVersion::V1_0];
        let out = run(&f, &client, &f.chain);
        assert_eq!(out.result, Err(HandshakeError::NoCommonVersion));
        let alerts = out.transcript.plaintext_alerts();
        assert_eq!(
            alerts[0].plaintext_alert.unwrap().1,
            AlertDescription::ProtocolVersion
        );
    }

    #[test]
    fn pinned_app_rejects_mitm_conscrypt_during_handshake() {
        let f = fixture();
        let mut client = ClientConfig::modern(TlsLibrary::Conscrypt);
        client.policy = CertPolicy::pinned(PinSet::from_pins(vec![Pin::Spki(SpkiPin::sha256_of(
            &f.root_cert,
        ))]));
        let out = run(&f, &client, &f.mitm_chain);
        assert_eq!(out.result, Err(HandshakeError::PinRejected));
        // TLS 1.3: rejection appears as one encrypted (disguised) alert of
        // exactly the alert length, and it's the FIRST client encrypted record.
        let recs = out.transcript.client_encrypted_appdata();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload_len, ENCRYPTED_ALERT_WIRE_LEN);
        assert_eq!(recs[0].inner_type, ContentType::Alert);
    }

    #[test]
    fn pinned_app_rejects_mitm_okhttp_post_handshake() {
        let f = fixture();
        let mut client = ClientConfig::modern(TlsLibrary::OkHttp);
        client.policy = CertPolicy::pinned(PinSet::from_pins(vec![Pin::Spki(SpkiPin::sha256_of(
            &f.root_cert,
        ))]));
        let out = run(&f, &client, &f.mitm_chain);
        assert_eq!(out.result, Err(HandshakeError::PinRejected));
        // OkHttp completes the handshake (Finished seen), then RSTs.
        assert!(out.transcript.client_rst());
        let recs = out.transcript.client_encrypted_appdata();
        assert_eq!(recs.len(), 1, "only the Finished");
        assert_eq!(recs[0].inner_type, ContentType::Handshake);
    }

    #[test]
    fn pinned_app_accepts_genuine_chain_and_sends_data() {
        let f = fixture();
        let mut client = ClientConfig::modern(TlsLibrary::OkHttp);
        client.policy = CertPolicy::pinned(PinSet::from_pins(vec![Pin::Spki(SpkiPin::sha256_of(
            &f.root_cert,
        ))]));
        let mut out = run(&f, &client, &f.chain);
        let session = out.result.unwrap();
        session.send_client_data(&mut out.transcript, 900);
        session.send_server_data(&mut out.transcript, 4000);
        session.close(&mut out.transcript);
        assert!(out.transcript.client_appdata_bytes() >= 900);
        assert!(out.transcript.client_fin());
    }

    #[test]
    fn unpinned_app_accepts_mitm_when_ca_installed() {
        let f = fixture();
        let client = ClientConfig::modern(TlsLibrary::Conscrypt);
        let out = run(&f, &client, &f.mitm_chain);
        assert!(out.result.is_ok(), "{:?}", out.result);
    }

    #[test]
    fn system_reject_when_ca_not_installed() {
        let f = fixture();
        let mut bare = RootStore::new("factory");
        bare.add(f.chain.certs()[1].clone());
        let client = ClientConfig::modern(TlsLibrary::Conscrypt);
        let server = ServerEndpoint::modern(&f.mitm_chain);
        let out = establish(
            &client,
            &server,
            "api.bank.com",
            f.now,
            &bare,
            &RevocationList::empty(),
            None,
        );
        assert!(matches!(out.result, Err(HandshakeError::CertRejected(_))));
    }

    #[test]
    fn silent_fin_library_leaves_no_alert() {
        let f = fixture();
        let mut client = ClientConfig::modern(TlsLibrary::AfNetworking);
        client.policy = CertPolicy::pinned(PinSet::from_pins(vec![Pin::Spki(SpkiPin::sha256_of(
            &f.root_cert,
        ))]));
        let out = run(&f, &client, &f.mitm_chain);
        assert_eq!(out.result, Err(HandshakeError::PinRejected));
        assert!(out.transcript.plaintext_alerts().is_empty());
        assert!(!out.transcript.client_rst());
        assert!(out.transcript.client_fin());
    }

    #[test]
    fn sni_respects_config() {
        let f = fixture();
        let mut client = ClientConfig::modern(TlsLibrary::Conscrypt);
        client.send_sni = false;
        let out = run(&f, &client, &f.chain);
        assert_eq!(out.transcript.sni, None);
    }
}
