//! Deterministic, offline mutation fuzzer for every decoder in the
//! workspace.
//!
//! Each [`FuzzTarget`] pairs a small *valid* corpus with a decode closure;
//! [`run_target`] applies seeded byte-level and structure-aware mutations
//! (bit flips, truncations, length-field lies, slice duplication, garbage
//! splices) and asserts the decoder is **panic-free**: hostile bytes must
//! come back as a structured `Err`, never a crash, an unbounded
//! allocation, or a runaway loop. [`assert_budgets_respected`] separately
//! checks the **budget** contract — over-budget input is rejected with
//! `LimitExceeded` before any real work happens.
//!
//! Everything is seeded ([`SplitMix64`] chained from one `u64`), so a
//! failing case is reproducible from the (target, seed, case) triple the
//! failure report carries.

use pinning_crypto::{hex_encode, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A boxed decode closure: `true` = accepted, `false` = structured
/// rejection.
pub type DecodeFn = Box<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// One decoder under fuzz.
pub struct FuzzTarget {
    /// Target name; also the RNG domain-separation tag.
    pub name: &'static str,
    /// Valid inputs that mutations start from.
    pub corpus: Vec<Vec<u8>>,
    /// Runs the decoder: `true` = accepted, `false` = structured rejection.
    pub decode: DecodeFn,
}

/// Outcome of fuzzing one target: every case either decoded cleanly or
/// was rejected with a structured error — a panic aborts the run instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Target name.
    pub name: &'static str,
    /// Cases executed.
    pub cases: u32,
    /// Inputs the decoder accepted.
    pub accepted: u64,
    /// Inputs rejected with a structured error.
    pub rejected: u64,
}

/// A panic the fuzzer caught, with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Target that crashed.
    pub target: &'static str,
    /// Zero-based case index within the run.
    pub case: u32,
    /// Seed the run started from.
    pub seed: u64,
    /// Hex of the crashing input (truncated to 256 bytes).
    pub input_hex: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fuzz target `{}` panicked: seed={:#x} case={} input[..256]={}",
            self.target, self.seed, self.case, self.input_hex
        )
    }
}

/// Purely random input for the no-corpus fraction of cases.
///
/// Public so other harnesses (the serving load generator, ad-hoc tools)
/// can draw from the same hostile-input distribution the fuzzer uses.
pub fn random_input(rng: &mut SplitMix64) -> Vec<u8> {
    let len = rng.next_below(513) as usize;
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

/// Applies one mutation to `buf` in place (or replaces it): bit flip,
/// byte overwrite, truncation, length-field lie, slice duplication,
/// garbage splice, or mid-slice deletion, chosen by `rng`.
pub fn mutate_once(rng: &mut SplitMix64, buf: &mut Vec<u8>) {
    if buf.is_empty() {
        *buf = random_input(rng);
        return;
    }
    let len = buf.len();
    match rng.next_below(7) {
        // Bit flip.
        0 => {
            let i = rng.next_below(len as u64) as usize;
            buf[i] ^= 1 << rng.next_below(8);
        }
        // Byte overwrite.
        1 => {
            let i = rng.next_below(len as u64) as usize;
            buf[i] = rng.next_u64() as u8;
        }
        // Truncation.
        2 => {
            buf.truncate(rng.next_below(len as u64) as usize);
        }
        // Length-field lie: stamp a huge big-endian value over 8 bytes
        // (or whatever fits) at a random offset.
        3 => {
            let i = rng.next_below(len as u64) as usize;
            let lie = (u64::MAX - rng.next_below(1 << 16)).to_be_bytes();
            for (dst, src) in buf[i..].iter_mut().zip(lie.iter()) {
                *dst = *src;
            }
        }
        // Duplicate a slice and splice it back in.
        4 => {
            let a = rng.next_below(len as u64) as usize;
            let b = a + rng.next_below((len - a + 1).min(64) as u64) as usize;
            let slice = buf[a..b].to_vec();
            let at = rng.next_below(len as u64 + 1) as usize;
            buf.splice(at..at, slice);
        }
        // Insert a short garbage run.
        5 => {
            let mut garbage = vec![0u8; 1 + rng.next_below(16) as usize];
            rng.fill_bytes(&mut garbage);
            let at = rng.next_below(len as u64 + 1) as usize;
            buf.splice(at..at, garbage);
        }
        // Delete a middle slice.
        _ => {
            let a = rng.next_below(len as u64) as usize;
            let b = a + rng.next_below((len - a + 1) as u64) as usize;
            buf.drain(a..b);
        }
    }
}

/// One mutated case: a corpus pick with 1–4 stacked mutations, or (5% of
/// the time) pure noise.
///
/// This is the hostile-input distribution the whole workspace shares:
/// the decoder fuzzer feeds it straight to each decoder, and the serving
/// load generator ([`crate::load`]) uses it to corrupt real chain DER for
/// the hostile fraction of its traffic.
pub fn mutated_case(rng: &mut SplitMix64, corpus: &[Vec<u8>]) -> Vec<u8> {
    if corpus.is_empty() || rng.chance(0.05) {
        return random_input(rng);
    }
    let mut buf = corpus[rng.next_below(corpus.len() as u64) as usize].clone();
    for _ in 0..=rng.next_below(4) {
        mutate_once(rng, &mut buf);
    }
    buf
}

/// Fuzzes one target for `cases` iterations under `seed`.
///
/// Returns the accept/reject tally, or the caught panic as a
/// reproducible [`FuzzFailure`]. Run inside [`with_silent_panics`] to
/// keep the default hook from spamming stderr on each caught case.
pub fn run_target(t: &FuzzTarget, cases: u32, seed: u64) -> Result<FuzzReport, FuzzFailure> {
    let mut rng = SplitMix64::new(seed).derive(t.name);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for case in 0..cases {
        let input = mutated_case(&mut rng, &t.corpus);
        match catch_unwind(AssertUnwindSafe(|| (t.decode)(&input))) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => {
                return Err(FuzzFailure {
                    target: t.name,
                    case,
                    seed,
                    input_hex: hex_encode(&input[..input.len().min(256)]),
                })
            }
        }
    }
    Ok(FuzzReport {
        name: t.name,
        cases,
        accepted,
        rejected,
    })
}

/// Replaces the panic hook with a no-op for the duration of `f` (the
/// fuzzer *expects* to catch panics if a decoder regresses; the default
/// hook would print a backtrace per caught case).
pub fn with_silent_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// Builds the full target list: every decoder in the workspace, each with
/// a valid corpus generated from public APIs (no fixtures on disk — the
/// fuzzer is fully offline and deterministic).
pub fn all_targets() -> Vec<FuzzTarget> {
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::time::{SimTime, Validity, YEAR};
    use pinning_pki::Certificate;

    let mut rng = SplitMix64::new(0xF0_22).derive("fuzz-corpus");

    // --- PKI material -------------------------------------------------
    let mut root = CertificateAuthority::new_root(
        DistinguishedName::new("Fuzz Root", "Sim", "US"),
        &mut rng,
        SimTime(0),
    );
    let mut ders: Vec<Vec<u8>> = Vec::new();
    let mut pems: Vec<Vec<u8>> = Vec::new();
    for i in 0..4 {
        let key = pinning_crypto::sig::KeyPair::generate(&mut rng);
        let leaf = root.issue_leaf(
            &[format!("h{i}.fuzz.example")],
            "Fuzz Org",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        ders.push(leaf.to_der());
        pems.push(leaf.to_pem().into_bytes());
    }
    ders.push(root.cert.to_der());
    // A multi-block bundle exercises the PEM scanner's loop.
    pems.push(
        format!(
            "{}{}",
            root.cert.to_pem(),
            String::from_utf8_lossy(&pems[0])
        )
        .into_bytes(),
    );

    // --- XML / NSC ----------------------------------------------------
    let nsc_xml = r#"<?xml version="1.0" encoding="utf-8"?>
<network-security-config>
    <domain-config>
        <domain includeSubdomains="true">example.com</domain>
        <pin-set expiration="2025-06-01">
            <pin digest="SHA-256">7HIpactkIAq2Y49orFOOQKurWxmmSFZhBCoQYcRhJ3Y=</pin>
            <pin digest="SHA-256">fwza0LRMXouZHRC8Ei+4PyuldPDcf3UKgO/04cDM1oE=</pin>
        </pin-set>
        <trust-anchors>
            <certificates src="system" overridePins="true" />
        </trust-anchors>
    </domain-config>
    <base-config>
        <trust-anchors><certificates src="user" /></trust-anchors>
    </base-config>
</network-security-config>"#;
    let deep_xml = {
        let mut s = String::new();
        for _ in 0..6 {
            s.push_str("<a b=\"c\">");
        }
        s.push_str("text");
        for _ in 0..6 {
            s.push_str("</a>");
        }
        s
    };
    let xml_corpus = vec![
        nsc_xml.as_bytes().to_vec(),
        deep_xml.into_bytes(),
        b"<x/>".to_vec(),
    ];

    // --- simcap -------------------------------------------------------
    let capture = sample_capture();
    let simcap_corpus = vec![pinning_netsim::simcap::serialize(&capture)];

    // --- journal ------------------------------------------------------
    let journal_corpus = vec![sample_journal_bytes()];

    // --- text codecs --------------------------------------------------
    let mut blob = vec![0u8; 48];
    rng.fill_bytes(&mut blob);
    let b64_corpus = vec![
        pinning_crypto::b64encode(&blob).into_bytes(),
        pinning_crypto::b64encode(b"shorter").into_bytes(),
    ];
    let hex_corpus = vec![hex_encode(&blob).into_bytes()];

    // --- static scan ---------------------------------------------------
    let statics_corpus = statics_corpus(&root.cert, &mut rng);

    let strict = pinning_pki::limits::Budget::strict();
    vec![
        FuzzTarget {
            name: "der",
            corpus: ders,
            decode: Box::new(move |b| {
                Certificate::from_der_with_budget(b, &strict)
                    .inspect(|c| assert_der_contract(b, c))
                    .is_ok()
            }),
        },
        FuzzTarget {
            name: "pem",
            corpus: pems,
            decode: Box::new(move |b| match std::str::from_utf8(b) {
                Ok(s) => pinning_pki::encode::pem_decode_all_with_budget(s, &strict)
                    .inspect(|ders| {
                        for der in ders {
                            if let Ok(c) = Certificate::from_der_with_budget(der, &strict) {
                                assert_der_contract(der, &c);
                            }
                        }
                    })
                    .is_ok(),
                Err(_) => false,
            }),
        },
        FuzzTarget {
            name: "xml",
            corpus: xml_corpus.clone(),
            decode: Box::new(move |b| match std::str::from_utf8(b) {
                Ok(s) => pinning_app::xml::parse_with_budget(s, &strict).is_ok(),
                Err(_) => false,
            }),
        },
        FuzzTarget {
            name: "nsc",
            corpus: xml_corpus,
            decode: Box::new(move |b| match std::str::from_utf8(b) {
                Ok(s) => pinning_app::nsc::NetworkSecurityConfig::from_xml_with_budget(s, &strict)
                    .is_ok(),
                Err(_) => false,
            }),
        },
        FuzzTarget {
            name: "simcap",
            corpus: simcap_corpus,
            decode: Box::new(move |b| {
                pinning_netsim::simcap::deserialize_with_budget(b, &strict).is_ok()
            }),
        },
        FuzzTarget {
            name: "journal",
            corpus: journal_corpus,
            decode: Box::new(|b| {
                pinning_core::journal::ResultJournal::open(b).is_ok_and(|r| !r.truncated())
            }),
        },
        FuzzTarget {
            name: "statics",
            corpus: statics_corpus,
            decode: Box::new(scan_blob),
        },
        FuzzTarget {
            name: "base64",
            corpus: b64_corpus,
            decode: Box::new(move |b| match std::str::from_utf8(b) {
                Ok(s) => pinning_crypto::b64decode_bounded(s, strict.max_input_bytes).is_ok(),
                Err(_) => false,
            }),
        },
        FuzzTarget {
            name: "hex",
            corpus: hex_corpus,
            decode: Box::new(move |b| match std::str::from_utf8(b) {
                Ok(s) => pinning_crypto::hex_decode_bounded(s, strict.max_input_bytes).is_ok(),
                Err(_) => false,
            }),
        },
    ]
}

/// The DER contract of `pki::encode`, checked on every certificate a
/// target decodes from `input`: the certificate's encoding is its fresh
/// re-encoding, and its DER cell starts out holding `input` exactly when
/// that re-encoding is `input`. A breach panics, which the fuzzer reports
/// as a [`FuzzFailure`].
fn assert_der_contract(input: &[u8], cert: &pinning_pki::Certificate) {
    let kept = cert.der_is_cached();
    let fresh = pinning_pki::Certificate::new(cert.tbs.clone(), cert.signature.clone()).to_der();
    assert_eq!(
        *cert.der_bytes(),
        *fresh,
        "encoding differs from re-encoding"
    );
    assert_eq!(kept, fresh == input, "DER cell kept non-canonical input");
}

/// Dex-like blobs for the `statics` target: string pools with planted
/// pins (base64 and hex bodies, one past the 64-character cap), a
/// single-line PEM block, and a BEGIN line that no END closes.
fn statics_corpus(cert: &pinning_pki::Certificate, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    use pinning_app::package::binary_with_strings;
    let der = cert.to_der();
    let b64_pin = cert.spki_pin_string();
    let hex_pin = format!("sha1/{}", hex_encode(&pinning_crypto::sha256(&der)));
    let capped = format!("sha256/{}", "Q".repeat(70));
    let pem_line = format!(
        "{}{}{}",
        pinning_pki::encode::PEM_BEGIN_CERT,
        pinning_crypto::b64encode(&der),
        pinning_pki::encode::PEM_END_CERT
    );
    let open_begin = format!("{} {}AAAA", pem_line, pinning_pki::encode::PEM_BEGIN_CERT);
    [
        vec![b64_pin.clone(), "okhttp3/CertificatePinner".to_string()],
        vec![hex_pin, pem_line.clone(), capped],
        vec![open_begin, b64_pin, pem_line],
    ]
    .iter()
    .map(|strings| binary_with_strings(strings, rng, 256))
    .collect()
}

/// The `statics` target: scans `blob` as a dex file and, when it is UTF-8,
/// as a text file. Every pin found must be a substring of `blob` with a
/// 28–64-character body; a breach panics. Accepted = anything was found.
fn scan_blob(blob: &[u8]) -> bool {
    use pinning_analysis::statics::analyze_package;
    use pinning_app::package::{AppFile, AppPackage};
    use pinning_app::platform::Platform;

    let mut files = vec![AppFile::binary("classes.dex", blob.to_vec())];
    if let Ok(text) = std::str::from_utf8(blob) {
        files.push(AppFile::text("assets/strings.txt", text));
    }
    let findings = analyze_package(&AppPackage::new(Platform::Android, files), None);
    for found in &findings.pin_strings {
        let raw = found.value.raw.as_bytes();
        let body = raw
            .strip_prefix(b"sha256/")
            .or_else(|| raw.strip_prefix(b"sha1/"))
            .unwrap_or_default();
        assert!(
            (28..=64).contains(&body.len()),
            "pin {:?} has a {}-character body",
            found.value.raw,
            body.len()
        );
        assert!(
            blob.windows(raw.len()).any(|w| w == raw),
            "pin {:?} is not in the input",
            found.value.raw
        );
    }
    findings.has_pin_material()
}

/// A realistic capture for the simcap corpus: two flows, mixed events,
/// one fault.
fn sample_capture() -> pinning_netsim::flow::Capture {
    use pinning_netsim::flow::{Capture, FaultEvent, FlowOrigin, FlowRecord};
    use pinning_netsim::FaultKind;
    use pinning_tls::record::RecordEvent;
    use pinning_tls::{
        AlertDescription, AlertLevel, CipherSuite, ConnectionTranscript, ContentType, Direction,
        TcpEvent, TlsVersion,
    };

    let mut t = ConnectionTranscript {
        sni: Some("api.fuzz.example".into()),
        offered_versions: vec![TlsVersion::V1_2, TlsVersion::V1_3],
        offered_ciphers: CipherSuite::legacy_client_list().to_vec(),
        negotiated: Some((TlsVersion::V1_3, CipherSuite::TLS_AES_128_GCM_SHA256)),
        ..Default::default()
    };
    t.push_tcp(TcpEvent::Established);
    t.push_record(RecordEvent::handshake(Direction::ClientToServer, 230));
    t.push_record(RecordEvent::encrypted(
        Direction::ClientToServer,
        TlsVersion::V1_3,
        ContentType::ApplicationData,
        512,
    ));
    t.push_record(RecordEvent::plaintext_alert(
        Direction::ServerToClient,
        AlertLevel::Fatal,
        AlertDescription::UnknownCa,
    ));
    t.push_tcp(TcpEvent::Fin {
        from: Direction::ClientToServer,
    });
    let mut t2 = ConnectionTranscript::new();
    t2.push_tcp(TcpEvent::Established);
    t2.push_tcp(TcpEvent::Rst {
        from: Direction::ServerToClient,
    });
    Capture {
        flows: vec![
            FlowRecord {
                dest: "api.fuzz.example".into(),
                at_secs: 2,
                origin: FlowOrigin::App,
                transcript: t,
                mitm_attempted: true,
                decrypted_request: Some("adid=abc&event=launch".into()),
            },
            FlowRecord {
                dest: "cdn.fuzz.example".into(),
                at_secs: 9,
                origin: FlowOrigin::OsBackground,
                transcript: t2,
                mitm_attempted: false,
                decrypted_request: None,
            },
        ],
        window_secs: 30,
        faults: vec![FaultEvent {
            domain: Some("cdn.fuzz.example".into()),
            kind: FaultKind::TcpReset,
            at_secs: 9,
        }],
    }
}

/// A small valid journal (all outcome shapes) for the journal corpus.
fn sample_journal_bytes() -> Vec<u8> {
    use pinning_core::journal::{AppOutcome, JournalEntry, MeasuredApp, ResultJournal};
    use pinning_netsim::{InputLayer, MalformedKind, MeasurementError};

    let mut j = ResultJournal::create([7u8; 32]);
    j.append(&JournalEntry {
        app_index: 0,
        outcome: AppOutcome::Measured(Box::new(MeasuredApp {
            pinned_destinations: vec!["api.fuzz.example".into()],
            used_destinations: vec!["api.fuzz.example".into(), "cdn.fuzz.example".into()],
            weak_overall: true,
            weak_pinned: false,
            pinned_bodies: vec![],
            unpinned_bodies: vec!["k=v".into()],
            circumvention: Some((vec!["api.fuzz.example".into()], vec![])),
            n_handshakes_baseline: 12,
            settled_rerun: false,
            breaker_trips: 1,
        })),
    });
    j.append(&JournalEntry {
        app_index: 3,
        outcome: AppOutcome::Failed(MeasurementError::MalformedInput {
            layer: InputLayer::Chain,
            reason: MalformedKind::LimitExceeded,
        }),
    });
    j.into_bytes()
}

/// Asserts every budgeted decoder rejects over-budget input with a
/// structured `LimitExceeded`-class error *before* doing real work.
/// Returns the number of contracts checked.
pub fn assert_budgets_respected() -> usize {
    use pinning_crypto::base64::B64Error;
    use pinning_crypto::hex::HexError;
    use pinning_pki::error::DecodeError;
    use pinning_pki::limits::{Budget, Limit};

    let strict = Budget::strict();
    let big_bytes = vec![0u8; strict.max_input_bytes + 1];
    let big_text = "A".repeat(strict.max_input_bytes + 1);
    let mut n = 0;

    assert!(matches!(
        pinning_pki::Certificate::from_der_with_budget(&big_bytes, &strict),
        Err(DecodeError::LimitExceeded(Limit::InputBytes))
    ));
    n += 1;
    assert!(matches!(
        pinning_pki::encode::pem_decode_all_with_budget(&big_text, &strict),
        Err(DecodeError::LimitExceeded(Limit::InputBytes))
    ));
    n += 1;
    assert!(matches!(
        pinning_app::xml::parse_with_budget(&big_text, &strict),
        Err(pinning_app::xml::XmlError::LimitExceeded(Limit::InputBytes))
    ));
    n += 1;
    assert!(matches!(
        pinning_app::nsc::NetworkSecurityConfig::from_xml_with_budget(&big_text, &strict),
        Err(pinning_app::xml::XmlError::LimitExceeded(Limit::InputBytes))
    ));
    n += 1;
    assert!(matches!(
        pinning_netsim::simcap::deserialize_with_budget(&big_bytes, &strict),
        Err(DecodeError::LimitExceeded(Limit::InputBytes))
    ));
    n += 1;
    assert!(matches!(
        pinning_crypto::b64decode_bounded(&big_text, strict.max_input_bytes),
        Err(B64Error::TooLong { .. })
    ));
    n += 1;
    assert!(matches!(
        pinning_crypto::hex_decode_bounded(&big_text, strict.max_input_bytes),
        Err(HexError::TooLong { .. })
    ));
    n += 1;
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_entry_is_accepted_unmutated() {
        for t in all_targets() {
            for (i, input) in t.corpus.iter().enumerate() {
                assert!(
                    (t.decode)(input),
                    "target {} rejects its own corpus entry {i}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn smoke_run_is_panic_free_and_rejects_something() {
        with_silent_panics(|| {
            for t in all_targets() {
                let r = run_target(&t, 500, 0x5EED).unwrap_or_else(|f| panic!("{f}"));
                assert_eq!(r.cases as u64, r.accepted + r.rejected);
                assert!(r.rejected > 0, "target {} rejected nothing", t.name);
            }
        });
    }

    #[test]
    fn runs_are_deterministic_under_a_fixed_seed() {
        let (a, b) = with_silent_panics(|| {
            let ta = all_targets();
            let a: Vec<_> = ta
                .iter()
                .map(|t| run_target(t, 300, 0xD5).expect("panic-free"))
                .collect();
            let tb = all_targets();
            let b: Vec<_> = tb
                .iter()
                .map(|t| run_target(t, 300, 0xD5).expect("panic-free"))
                .collect();
            (a, b)
        });
        assert_eq!(a, b);
    }

    #[test]
    fn budget_contracts_hold() {
        assert_eq!(assert_budgets_respected(), 7);
    }
}
