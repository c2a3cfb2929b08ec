//! MITM lab: watch the record-level difference between an intercepted
//! unpinned connection and an intercepted pinned one.
//!
//! ```sh
//! cargo run --example mitm_lab
//! ```
//!
//! Builds a two-server network by hand (no world generator), configures a
//! pinned and an unpinned client, and dumps the resulting transcripts in
//! all four (pin × MITM) combinations — the observable basis of §4.2.2.

use app_tls_pinning::crypto::sig::KeyPair;
use app_tls_pinning::crypto::SplitMix64;
use app_tls_pinning::netsim::proxy::MitmProxy;
use app_tls_pinning::pki::pin::{Pin, PinSet, SpkiPin};
use app_tls_pinning::pki::store::RootStore;
use app_tls_pinning::pki::universe::{PkiUniverse, UniverseConfig};
use app_tls_pinning::pki::validate::RevocationList;
use app_tls_pinning::tls::verify::CertPolicy;
use app_tls_pinning::tls::{establish, ClientConfig, ServerEndpoint, TlsLibrary};

fn main() {
    let mut rng = SplitMix64::new(0x1ab);
    let mut universe = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
    let now = universe.now();

    // One genuine server.
    let key = KeyPair::generate(&mut rng);
    let genuine = universe.issue_server_chain(
        &["api.bank.example".to_string()],
        "Bank",
        &key,
        398,
        &mut rng,
    );

    // The proxy and the device trust store (factory + proxy CA, like the
    // paper's modified system image).
    let proxy = MitmProxy::new(&mut rng, now);
    let mut device_store = RootStore::new("device");
    for root in universe.aosp.iter() {
        device_store.add(root.clone());
    }
    device_store.add(proxy.ca_cert());
    let forged = proxy.forge_chain("api.bank.example", &genuine);

    // Two clients: one pinning the genuine root, one not.
    let unpinned = ClientConfig::modern(TlsLibrary::OkHttp);
    let mut pinned = ClientConfig::modern(TlsLibrary::OkHttp);
    pinned.policy = CertPolicy::pinned(PinSet::from_pins(vec![Pin::Spki(SpkiPin::sha256_of(
        genuine.top().expect("chain has a root"),
    ))]));

    let crl = RevocationList::empty();
    for (client_label, client) in [("unpinned app", &unpinned), ("pinned app", &pinned)] {
        for (path_label, chain) in [("direct", &genuine), ("through mitmproxy", &*forged)] {
            println!("=== {client_label}, {path_label} ===");
            let server = ServerEndpoint::modern(chain);
            let mut out = establish(
                client,
                &server,
                "api.bank.example",
                now,
                &device_store,
                &crl,
                None,
            );
            match out.result {
                Ok(session) => {
                    session.send_client_data(&mut out.transcript, 420);
                    session.send_server_data(&mut out.transcript, 2048);
                    session.close(&mut out.transcript);
                    println!("handshake OK — application data flows");
                }
                Err(e) => println!("handshake FAILED: {e:?}"),
            }
            print!("{}", out.transcript.dump());
            println!();
        }
    }

    println!(
        "takeaway: the unpinned app accepts the forged chain (proxy CA is in the\n\
         device store), while the pinned app completes the handshake and then\n\
         aborts — exactly the differential signature the detector keys on."
    );
}
