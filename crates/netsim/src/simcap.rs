//! `simcap`: a compact binary serialization for captures.
//!
//! The paper publishes its dataset alongside the code; this module is the
//! equivalent artifact format for the simulated study — every capture can
//! be written to bytes, shipped, and re-analyzed without re-running the
//! pipeline. The encoding reuses the deterministic TLV machinery from
//! `pinning-pki` and is versioned by a magic header.

use crate::faults::FaultKind;
use crate::flow::{Capture, FaultEvent, FlowOrigin, FlowRecord};
use pinning_pki::encode::{Reader, Writer};
use pinning_pki::error::DecodeError;
use pinning_tls::alert::{AlertDescription, AlertLevel};
use pinning_tls::cipher::CipherSuite;
use pinning_tls::record::{ContentType, Direction, RecordEvent, TcpEvent, WireEvent};
use pinning_tls::{ConnectionTranscript, TlsVersion};

/// Magic + version header. `SIMCAP02` added the fault journal; `SIMCAP01`
/// streams (no journal) are still readable.
pub const MAGIC: &[u8; 8] = b"SIMCAP02";

/// The previous format version: identical, minus the fault-event list.
pub const MAGIC_V1: &[u8; 8] = b"SIMCAP01";

// TLV tags local to this format (distinct from the certificate tags so a
// mixed stream fails loudly instead of mis-parsing).
const TAG_CAPTURE: u8 = 0x50;
const TAG_FLOW: u8 = 0x51;
const TAG_TRANSCRIPT: u8 = 0x52;
const TAG_EVENT: u8 = 0x53;
const TAG_FAULT: u8 = 0x54;

fn version_id(v: TlsVersion) -> u64 {
    match v {
        TlsVersion::V1_0 => 0,
        TlsVersion::V1_1 => 1,
        TlsVersion::V1_2 => 2,
        TlsVersion::V1_3 => 3,
    }
}

fn version_from(id: u64) -> Result<TlsVersion, DecodeError> {
    Ok(match id {
        0 => TlsVersion::V1_0,
        1 => TlsVersion::V1_1,
        2 => TlsVersion::V1_2,
        3 => TlsVersion::V1_3,
        _ => return Err(DecodeError::BadFieldSize),
    })
}

/// Stable numeric ids for cipher suites (wire format only).
const CIPHERS: [CipherSuite; 15] = [
    CipherSuite::TLS_AES_128_GCM_SHA256,
    CipherSuite::TLS_AES_256_GCM_SHA384,
    CipherSuite::TLS_CHACHA20_POLY1305_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384,
    CipherSuite::TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
    CipherSuite::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256,
    CipherSuite::TLS_RSA_WITH_AES_128_CBC_SHA,
    CipherSuite::TLS_RSA_WITH_AES_256_CBC_SHA,
    CipherSuite::TLS_RSA_WITH_DES_CBC_SHA,
    CipherSuite::TLS_RSA_WITH_3DES_EDE_CBC_SHA,
    CipherSuite::TLS_RSA_WITH_RC4_128_SHA,
    CipherSuite::TLS_RSA_WITH_RC4_128_MD5,
    CipherSuite::TLS_RSA_EXPORT_WITH_DES40_CBC_SHA,
    CipherSuite::TLS_RSA_EXPORT_WITH_RC4_40_MD5,
];

// Exhaustive so a new suite is a compile error here, not a runtime panic.
fn cipher_id(c: CipherSuite) -> u64 {
    match c {
        CipherSuite::TLS_AES_128_GCM_SHA256 => 0,
        CipherSuite::TLS_AES_256_GCM_SHA384 => 1,
        CipherSuite::TLS_CHACHA20_POLY1305_SHA256 => 2,
        CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 => 3,
        CipherSuite::TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384 => 4,
        CipherSuite::TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256 => 5,
        CipherSuite::TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256 => 6,
        CipherSuite::TLS_RSA_WITH_AES_128_CBC_SHA => 7,
        CipherSuite::TLS_RSA_WITH_AES_256_CBC_SHA => 8,
        CipherSuite::TLS_RSA_WITH_DES_CBC_SHA => 9,
        CipherSuite::TLS_RSA_WITH_3DES_EDE_CBC_SHA => 10,
        CipherSuite::TLS_RSA_WITH_RC4_128_SHA => 11,
        CipherSuite::TLS_RSA_WITH_RC4_128_MD5 => 12,
        CipherSuite::TLS_RSA_EXPORT_WITH_DES40_CBC_SHA => 13,
        CipherSuite::TLS_RSA_EXPORT_WITH_RC4_40_MD5 => 14,
    }
}

fn cipher_from(id: u64) -> Result<CipherSuite, DecodeError> {
    CIPHERS
        .get(id as usize)
        .copied()
        .ok_or(DecodeError::BadFieldSize)
}

fn content_id(c: ContentType) -> u64 {
    match c {
        ContentType::Handshake => 0,
        ContentType::Alert => 1,
        ContentType::ApplicationData => 2,
        ContentType::ChangeCipherSpec => 3,
    }
}

fn content_from(id: u64) -> Result<ContentType, DecodeError> {
    Ok(match id {
        0 => ContentType::Handshake,
        1 => ContentType::Alert,
        2 => ContentType::ApplicationData,
        3 => ContentType::ChangeCipherSpec,
        _ => return Err(DecodeError::BadFieldSize),
    })
}

fn direction_id(d: Direction) -> u64 {
    match d {
        Direction::ClientToServer => 0,
        Direction::ServerToClient => 1,
    }
}

fn direction_from(id: u64) -> Result<Direction, DecodeError> {
    Ok(match id {
        0 => Direction::ClientToServer,
        1 => Direction::ServerToClient,
        _ => return Err(DecodeError::BadFieldSize),
    })
}

fn alert_desc_id(d: AlertDescription) -> u64 {
    d.code() as u64
}

fn alert_desc_from(id: u64) -> Result<AlertDescription, DecodeError> {
    Ok(match id {
        0 => AlertDescription::CloseNotify,
        40 => AlertDescription::HandshakeFailure,
        42 => AlertDescription::BadCertificate,
        46 => AlertDescription::CertificateUnknown,
        48 => AlertDescription::UnknownCa,
        70 => AlertDescription::ProtocolVersion,
        112 => AlertDescription::UnrecognizedName,
        _ => return Err(DecodeError::BadFieldSize),
    })
}

fn origin_id(o: FlowOrigin) -> u64 {
    match o {
        FlowOrigin::App => 0,
        FlowOrigin::OsAssociatedDomains => 1,
        FlowOrigin::OsBackground => 2,
    }
}

fn origin_from(id: u64) -> Result<FlowOrigin, DecodeError> {
    Ok(match id {
        0 => FlowOrigin::App,
        1 => FlowOrigin::OsAssociatedDomains,
        2 => FlowOrigin::OsBackground,
        _ => return Err(DecodeError::BadFieldSize),
    })
}

fn fault_kind_id(k: FaultKind) -> u64 {
    match k {
        FaultKind::Dns => 0,
        FaultKind::TcpReset => 1,
        FaultKind::HandshakeTimeout => 2,
        FaultKind::Truncation => 3,
        FaultKind::ProxyCaUnavailable => 4,
        FaultKind::DeviceCrash => 5,
    }
}

fn fault_kind_from(id: u64) -> Result<FaultKind, DecodeError> {
    Ok(match id {
        0 => FaultKind::Dns,
        1 => FaultKind::TcpReset,
        2 => FaultKind::HandshakeTimeout,
        3 => FaultKind::Truncation,
        4 => FaultKind::ProxyCaUnavailable,
        5 => FaultKind::DeviceCrash,
        _ => return Err(DecodeError::BadFieldSize),
    })
}

fn write_fault(w: &mut Writer, f: &FaultEvent) {
    w.nested(TAG_FAULT, |w| {
        match &f.domain {
            Some(d) => {
                w.boolean(true);
                w.string(d);
            }
            None => w.boolean(false),
        }
        w.u64(fault_kind_id(f.kind));
        w.u64(f.at_secs as u64);
    });
}

fn read_fault(r: &mut Reader<'_>) -> Result<FaultEvent, DecodeError> {
    let mut f = r.nested(TAG_FAULT)?;
    let domain = if f.boolean()? {
        Some(f.string()?)
    } else {
        None
    };
    let kind = fault_kind_from(f.u64()?)?;
    let at_secs = f.u64()? as u32;
    Ok(FaultEvent {
        domain,
        kind,
        at_secs,
    })
}

fn write_event(w: &mut Writer, ev: &WireEvent) {
    w.nested(TAG_EVENT, |w| match ev {
        WireEvent::Tcp(t) => {
            w.u64(0);
            match t {
                TcpEvent::Established => {
                    w.u64(0);
                    w.u64(0);
                }
                TcpEvent::Rst { from } => {
                    w.u64(1);
                    w.u64(direction_id(*from));
                }
                TcpEvent::Fin { from } => {
                    w.u64(2);
                    w.u64(direction_id(*from));
                }
            }
        }
        WireEvent::Record(r) => {
            w.u64(1);
            w.u64(direction_id(r.direction));
            w.u64(content_id(r.wire_type));
            w.u64(content_id(r.inner_type));
            w.boolean(r.encrypted);
            w.u64(r.payload_len as u64);
            match r.plaintext_alert {
                Some((level, desc)) => {
                    w.boolean(true);
                    w.boolean(level == AlertLevel::Fatal);
                    w.u64(alert_desc_id(desc));
                }
                None => w.boolean(false),
            }
        }
    });
}

fn read_event(r: &mut Reader<'_>) -> Result<WireEvent, DecodeError> {
    let mut e = r.nested(TAG_EVENT)?;
    Ok(match e.u64()? {
        0 => {
            let kind = e.u64()?;
            let dir = e.u64()?;
            WireEvent::Tcp(match kind {
                0 => TcpEvent::Established,
                1 => TcpEvent::Rst {
                    from: direction_from(dir)?,
                },
                2 => TcpEvent::Fin {
                    from: direction_from(dir)?,
                },
                _ => return Err(DecodeError::BadFieldSize),
            })
        }
        1 => {
            let direction = direction_from(e.u64()?)?;
            let wire_type = content_from(e.u64()?)?;
            let inner_type = content_from(e.u64()?)?;
            let encrypted = e.boolean()?;
            let payload_len = e.u64()? as usize;
            let plaintext_alert = if e.boolean()? {
                let fatal = e.boolean()?;
                let desc = alert_desc_from(e.u64()?)?;
                Some((
                    if fatal {
                        AlertLevel::Fatal
                    } else {
                        AlertLevel::Warning
                    },
                    desc,
                ))
            } else {
                None
            };
            WireEvent::Record(RecordEvent {
                direction,
                wire_type,
                inner_type,
                encrypted,
                payload_len,
                plaintext_alert,
            })
        }
        _ => return Err(DecodeError::BadFieldSize),
    })
}

fn write_transcript(w: &mut Writer, t: &ConnectionTranscript) {
    w.nested(TAG_TRANSCRIPT, |w| {
        match &t.sni {
            Some(s) => {
                w.boolean(true);
                w.string(s);
            }
            None => w.boolean(false),
        }
        w.list(&t.offered_versions, |w, v| w.u64(version_id(*v)));
        w.list(&t.offered_ciphers, |w, c| w.u64(cipher_id(*c)));
        match t.negotiated {
            Some((v, c)) => {
                w.boolean(true);
                w.u64(version_id(v));
                w.u64(cipher_id(c));
            }
            None => w.boolean(false),
        }
        w.list(&t.events, write_event);
    });
}

fn read_transcript(r: &mut Reader<'_>) -> Result<ConnectionTranscript, DecodeError> {
    let mut t = r.nested(TAG_TRANSCRIPT)?;
    let sni = if t.boolean()? {
        Some(t.string()?)
    } else {
        None
    };
    let offered_versions = t.list(|r| version_from(r.u64()?))?;
    let offered_ciphers = t.list(|r| cipher_from(r.u64()?))?;
    let negotiated = if t.boolean()? {
        let v = version_from(t.u64()?)?;
        let c = cipher_from(t.u64()?)?;
        Some((v, c))
    } else {
        None
    };
    let events = t.list(read_event)?;
    Ok(ConnectionTranscript {
        sni,
        offered_versions,
        offered_ciphers,
        negotiated,
        events,
    })
}

/// Serializes a capture to bytes.
pub fn serialize(capture: &Capture) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    let mut w = Writer::new();
    w.nested(TAG_CAPTURE, |w| {
        w.u64(capture.window_secs as u64);
        w.list(&capture.flows, |w, f| {
            w.nested(TAG_FLOW, |w| {
                w.string(&f.dest);
                w.u64(f.at_secs as u64);
                w.u64(origin_id(f.origin));
                w.boolean(f.mitm_attempted);
                match &f.decrypted_request {
                    Some(body) => {
                        w.boolean(true);
                        w.string(body);
                    }
                    None => w.boolean(false),
                }
                write_transcript(w, &f.transcript);
            });
        });
        w.list(&capture.faults, write_fault);
    });
    out.extend_from_slice(&w.into_bytes());
    out
}

/// Deserializes a capture (current or previous format version) under the
/// workspace-standard hostile-input budget.
pub fn deserialize(bytes: &[u8]) -> Result<Capture, DecodeError> {
    deserialize_with_budget(bytes, &pinning_pki::limits::Budget::STANDARD)
}

/// Deserializes a capture under an explicit [`pinning_pki::limits::Budget`].
///
/// Every length prefix in the stream is validated against the remaining
/// input before any allocation, so a lying length field (claiming, say,
/// 2^60 flows) is rejected up front instead of reserving memory for it.
pub fn deserialize_with_budget(
    bytes: &[u8],
    budget: &pinning_pki::limits::Budget,
) -> Result<Capture, DecodeError> {
    if bytes.len() > budget.max_input_bytes {
        return Err(DecodeError::LimitExceeded(
            pinning_pki::limits::Limit::InputBytes,
        ));
    }
    let (body, has_faults) = if let Some(b) = bytes.strip_prefix(MAGIC.as_slice()) {
        (b, true)
    } else if let Some(b) = bytes.strip_prefix(MAGIC_V1.as_slice()) {
        (b, false)
    } else {
        return Err(DecodeError::BadMagic);
    };
    let mut r = Reader::with_budget(body, *budget);
    let mut c = r.nested(TAG_CAPTURE)?;
    let window_secs = c.u64()? as u32;
    let flows = c.list(|r| {
        let mut f = r.nested(TAG_FLOW)?;
        let dest = f.string()?;
        let at_secs = f.u64()? as u32;
        let origin = origin_from(f.u64()?)?;
        let mitm_attempted = f.boolean()?;
        let decrypted_request = if f.boolean()? {
            Some(f.string()?)
        } else {
            None
        };
        let transcript = read_transcript(&mut f)?;
        Ok(FlowRecord {
            dest,
            at_secs,
            origin,
            transcript,
            mitm_attempted,
            decrypted_request,
        })
    })?;
    let faults = if has_faults {
        c.list(read_fault)?
    } else {
        Vec::new()
    };
    Ok(Capture {
        flows,
        window_secs,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_tls::record::RecordEvent;

    fn sample_capture() -> Capture {
        let mut t = ConnectionTranscript {
            sni: Some("api.x.com".into()),
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
                    dest: "api.x.com".into(),
                    at_secs: 2,
                    origin: FlowOrigin::App,
                    transcript: t,
                    mitm_attempted: true,
                    decrypted_request: Some("adid=abc&event=launch".into()),
                },
                FlowRecord {
                    dest: "gateway.icloud.com".into(),
                    at_secs: 0,
                    origin: FlowOrigin::OsBackground,
                    transcript: t2,
                    mitm_attempted: true,
                    decrypted_request: None,
                },
            ],
            window_secs: 30,
            faults: vec![
                FaultEvent {
                    domain: Some("api.x.com".into()),
                    kind: FaultKind::TcpReset,
                    at_secs: 4,
                },
                FaultEvent {
                    domain: None,
                    kind: FaultKind::DeviceCrash,
                    at_secs: 12,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let cap = sample_capture();
        let bytes = serialize(&cap);
        let back = deserialize(&bytes).unwrap();
        assert_eq!(back.window_secs, cap.window_secs);
        assert_eq!(back.flows.len(), cap.flows.len());
        for (a, b) in cap.flows.iter().zip(&back.flows) {
            assert_eq!(a.dest, b.dest);
            assert_eq!(a.at_secs, b.at_secs);
            assert_eq!(a.origin, b.origin);
            assert_eq!(a.mitm_attempted, b.mitm_attempted);
            assert_eq!(a.decrypted_request, b.decrypted_request);
            assert_eq!(a.transcript, b.transcript);
        }
        assert_eq!(back.faults, cap.faults);
    }

    #[test]
    fn v1_streams_without_fault_journal_still_parse() {
        // A SIMCAP01 stream is the same encoding minus the trailing fault
        // list; re-encode the sample by hand to prove back-compat.
        let cap = sample_capture();
        let mut out = MAGIC_V1.to_vec();
        let mut w = Writer::new();
        w.nested(TAG_CAPTURE, |w| {
            w.u64(cap.window_secs as u64);
            w.list(&cap.flows, |w, f| {
                w.nested(TAG_FLOW, |w| {
                    w.string(&f.dest);
                    w.u64(f.at_secs as u64);
                    w.u64(origin_id(f.origin));
                    w.boolean(f.mitm_attempted);
                    match &f.decrypted_request {
                        Some(body) => {
                            w.boolean(true);
                            w.string(body);
                        }
                        None => w.boolean(false),
                    }
                    write_transcript(w, &f.transcript);
                });
            });
        });
        out.extend_from_slice(&w.into_bytes());
        let back = deserialize(&out).unwrap();
        assert_eq!(back.flows.len(), cap.flows.len());
        assert!(back.faults.is_empty(), "v1 streams carry no journal");
    }

    #[test]
    fn rejects_bad_magic() {
        let cap = sample_capture();
        let mut bytes = serialize(&cap);
        bytes[0] ^= 0xff;
        assert_eq!(deserialize(&bytes).err(), Some(DecodeError::BadMagic));
    }

    #[test]
    fn lying_flow_count_rejected_without_allocation() {
        // A stream whose flow-list claims 2^60 entries but carries none:
        // the reader must reject it from the length check alone, never
        // pre-allocating for the claimed count.
        let mut out = MAGIC.to_vec();
        let mut w = Writer::new();
        w.nested(TAG_CAPTURE, |w| {
            w.u64(30); // window_secs
            w.nested(pinning_pki::encode::tag::LIST, |w| {
                w.u64(1 << 60); // lying element count, zero elements follow
            });
        });
        out.extend_from_slice(&w.into_bytes());
        assert_eq!(deserialize(&out).err(), Some(DecodeError::BadLength));
    }

    #[test]
    fn oversized_stream_rejected_by_budget() {
        let strict = pinning_pki::limits::Budget::strict();
        let bytes = vec![0u8; strict.max_input_bytes + 1];
        assert_eq!(
            deserialize_with_budget(&bytes, &strict).err(),
            Some(DecodeError::LimitExceeded(
                pinning_pki::limits::Limit::InputBytes
            ))
        );
    }

    #[test]
    fn rejects_truncation() {
        let bytes = serialize(&sample_capture());
        for cut in [9, 20, bytes.len() - 1] {
            assert!(deserialize(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_capture_roundtrip() {
        let cap = Capture {
            flows: vec![],
            window_secs: 15,
            faults: vec![],
        };
        let back = deserialize(&serialize(&cap)).unwrap();
        assert_eq!(back.window_secs, 15);
        assert!(back.flows.is_empty());
    }

    #[test]
    fn all_cipher_ids_roundtrip() {
        for (i, &c) in CIPHERS.iter().enumerate() {
            assert_eq!(cipher_from(i as u64).unwrap(), c);
            assert_eq!(cipher_id(c), i as u64);
        }
        assert!(cipher_from(CIPHERS.len() as u64).is_err());
    }
}
