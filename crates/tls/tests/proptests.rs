//! Property-style tests for the TLS simulator, driven by a deterministic
//! SplitMix64 input sweep (no external crates, fully offline).

use pinning_crypto::sig::KeyPair;
use pinning_crypto::SplitMix64;
use pinning_pki::authority::CertificateAuthority;
use pinning_pki::chain::CertificateChain;
use pinning_pki::name::DistinguishedName;
use pinning_pki::pin::{Pin, PinSet, SpkiPin};
use pinning_pki::store::RootStore;
use pinning_pki::time::{SimTime, Validity, YEAR};
use pinning_pki::validate::RevocationList;
use pinning_tls::verify::CertPolicy;
use pinning_tls::{establish, CipherSuite, ClientConfig, ServerEndpoint, TlsLibrary, TlsVersion};

const CASES: u64 = 60;

struct Env {
    store: RootStore,
    chain: CertificateChain,
}

fn env(seed: u64) -> Env {
    let mut rng = SplitMix64::new(seed);
    let mut root = CertificateAuthority::new_root(
        DistinguishedName::new("Root", "Sim", "US"),
        &mut rng,
        SimTime(0),
    );
    let key = KeyPair::generate(&mut rng);
    let leaf = root.issue_leaf(
        &["h.example".to_string()],
        "H",
        &key,
        Validity::starting(SimTime(0), YEAR),
    );
    let mut store = RootStore::new("device");
    store.add(root.cert.clone());
    Env {
        store,
        chain: CertificateChain::new(vec![leaf, root.cert.clone()]),
    }
}

const LIBRARIES: [TlsLibrary; 7] = [
    TlsLibrary::Conscrypt,
    TlsLibrary::OkHttp,
    TlsLibrary::Cronet,
    TlsLibrary::NsUrlSession,
    TlsLibrary::AfNetworking,
    TlsLibrary::TrustKit,
    TlsLibrary::CustomNative,
];

fn pick_library(rng: &mut SplitMix64) -> TlsLibrary {
    LIBRARIES[rng.next_below(LIBRARIES.len() as u64) as usize]
}

#[test]
fn handshake_is_deterministic() {
    let mut rng = SplitMix64::new(0xde7);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let lib = pick_library(&mut rng);
        let e = env(seed);
        let client = ClientConfig::modern(lib);
        let server = ServerEndpoint::modern(&e.chain);
        let a = establish(
            &client,
            &server,
            "h.example",
            SimTime(10),
            &e.store,
            &RevocationList::empty(),
            None,
        );
        let b = establish(
            &client,
            &server,
            "h.example",
            SimTime(10),
            &e.store,
            &RevocationList::empty(),
            None,
        );
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(a.result.is_ok(), b.result.is_ok());
    }
}

#[test]
fn negotiated_version_is_offered_by_both() {
    let mut rng = SplitMix64::new(0x7e6);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let client_13 = rng.chance(0.5);
        let server_13 = rng.chance(0.5);
        let e = env(seed);
        let mut client = ClientConfig::modern(TlsLibrary::OkHttp);
        if !client_13 {
            client.offered_versions = &[TlsVersion::V1_2];
        }
        let mut server = ServerEndpoint::modern(&e.chain);
        if !server_13 {
            server.versions = &[TlsVersion::V1_2];
        }
        let out = establish(
            &client,
            &server,
            "h.example",
            SimTime(10),
            &e.store,
            &RevocationList::empty(),
            None,
        );
        let session = out.result.unwrap();
        assert!(client.offered_versions.contains(&session.version));
        assert!(server.versions.contains(&session.version));
        if client_13 && server_13 {
            assert_eq!(session.version, TlsVersion::V1_3);
        }
        assert!(session.cipher.valid_for(session.version));
    }
}

#[test]
fn pin_rejection_independent_of_library_outcome() {
    // Whatever the stack, a non-matching pin must abort the connection;
    // only the wire signature differs.
    let mut rng = SplitMix64::new(0x919);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let lib = pick_library(&mut rng);
        let e = env(seed);
        let mut other_rng = SplitMix64::new(seed ^ 0xdead);
        let other = CertificateAuthority::new_root(
            DistinguishedName::new("Other", "Sim", "US"),
            &mut other_rng,
            SimTime(0),
        );
        let pins = PinSet::from_pins(vec![Pin::Spki(SpkiPin::sha256_of(&other.cert))]);
        let mut client = ClientConfig::modern(lib);
        client.policy = CertPolicy::pinned(&pins);
        let server = ServerEndpoint::modern(&e.chain);
        let out = establish(
            &client,
            &server,
            "h.example",
            SimTime(10),
            &e.store,
            &RevocationList::empty(),
            None,
        );
        assert!(out.result.is_err());
        // The transcript must show a client-side teardown of some kind.
        let t = &out.transcript;
        assert!(
            t.client_rst() || t.client_fin() || !t.plaintext_alerts().is_empty(),
            "no teardown signal for {lib:?}"
        );
    }
}

#[test]
fn weak_cipher_flag_matches_offer() {
    let mut rng = SplitMix64::new(0xc1f);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let legacy = rng.chance(0.5);
        let e = env(seed);
        let mut client = ClientConfig::modern(TlsLibrary::OkHttp);
        client.offered_ciphers = if legacy {
            CipherSuite::legacy_client_list()
        } else {
            CipherSuite::modern_client_list()
        };
        let server = ServerEndpoint::modern(&e.chain);
        let out = establish(
            &client,
            &server,
            "h.example",
            SimTime(10),
            &e.store,
            &RevocationList::empty(),
            None,
        );
        let advertised_weak = out.transcript.offered_ciphers.iter().any(|c| c.is_weak());
        assert_eq!(advertised_weak, legacy);
        // The *negotiated* suite is never weak against a sane server.
        if let Ok(s) = out.result {
            assert!(!s.cipher.is_weak());
        }
    }
}
