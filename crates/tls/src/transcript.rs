//! Connection transcripts: the pcap-equivalent unit of capture.

use crate::cipher::CipherSuite;
use crate::record::{ContentType, Direction, RecordEvent, TcpEvent, WireEvent};
use crate::version::TlsVersion;

/// Everything a passive capture point records about one TCP+TLS connection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConnectionTranscript {
    /// SNI from the ClientHello (None if the client omitted it — ~1% of
    /// connections in the paper's captures).
    pub sni: Option<String>,
    /// Versions offered in the ClientHello.
    pub offered_versions: Vec<TlsVersion>,
    /// Cipher suites offered in the ClientHello.
    pub offered_ciphers: Vec<CipherSuite>,
    /// Negotiated (version, cipher), if the handshake got that far.
    pub negotiated: Option<(TlsVersion, CipherSuite)>,
    /// Ordered wire events.
    pub events: Vec<WireEvent>,
}

impl ConnectionTranscript {
    /// Creates an empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a TCP event.
    pub fn push_tcp(&mut self, ev: TcpEvent) {
        self.events.push(WireEvent::Tcp(ev));
    }

    /// Appends a TLS record.
    pub fn push_record(&mut self, rec: RecordEvent) {
        self.events.push(WireEvent::Record(rec));
    }

    /// All TLS records in order.
    pub fn records(&self) -> impl Iterator<Item = &RecordEvent> {
        self.events.iter().filter_map(|e| match e {
            WireEvent::Record(r) => Some(r),
            WireEvent::Tcp(_) => None,
        })
    }

    /// Client→server records that a passive observer would classify as
    /// "Encrypted Application Data" (i.e. wire type ApplicationData and
    /// encrypted). This is the paper's raw observable for used-connection
    /// detection.
    pub fn client_encrypted_appdata(&self) -> Vec<&RecordEvent> {
        self.records()
            .filter(|r| {
                r.direction == Direction::ClientToServer
                    && r.encrypted
                    && r.wire_type == ContentType::ApplicationData
            })
            .collect()
    }

    /// Whether the client aborted with a TCP RST.
    pub fn client_rst(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                WireEvent::Tcp(TcpEvent::Rst {
                    from: Direction::ClientToServer
                })
            )
        })
    }

    /// Whether the client closed with a FIN.
    pub fn client_fin(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                WireEvent::Tcp(TcpEvent::Fin {
                    from: Direction::ClientToServer
                })
            )
        })
    }

    /// Whether any *visible* (plaintext) fatal alert was seen, and from whom.
    pub fn plaintext_alerts(&self) -> Vec<&RecordEvent> {
        self.records()
            .filter(|r| r.plaintext_alert.is_some())
            .collect()
    }

    /// Total bytes in client→server application-data-looking records.
    pub fn client_appdata_bytes(&self) -> usize {
        self.client_encrypted_appdata()
            .iter()
            .map(|r| r.payload_len)
            .sum()
    }

    /// Renders a compact tcpdump-style dump (for examples and debugging).
    pub fn dump(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let sni = self.sni.as_deref().unwrap_or("<no-sni>");
        let _ = writeln!(out, "connection to {sni}");
        if let Some((v, c)) = self.negotiated {
            let _ = writeln!(out, "  negotiated {v} {c}");
        }
        for ev in &self.events {
            match ev {
                WireEvent::Tcp(t) => {
                    let _ = writeln!(out, "  tcp {t:?}");
                }
                WireEvent::Record(r) => {
                    let dir = match r.direction {
                        Direction::ClientToServer => ">",
                        Direction::ServerToClient => "<",
                    };
                    let enc = if r.encrypted { "enc" } else { "plain" };
                    let _ = writeln!(
                        out,
                        "  {dir} {:?} ({enc}, {} bytes)",
                        r.wire_type, r.payload_len
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertDescription, AlertLevel};

    fn base() -> ConnectionTranscript {
        let mut t = ConnectionTranscript {
            sni: Some("x.com".into()),
            negotiated: Some((TlsVersion::V1_3, CipherSuite::TLS_AES_128_GCM_SHA256)),
            ..Default::default()
        };
        t.push_tcp(TcpEvent::Established);
        t
    }

    #[test]
    fn appdata_counting_honours_wire_type_only() {
        let mut t = base();
        // TLS 1.3 Finished — disguised as app data on the wire.
        t.push_record(RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_3,
            ContentType::Handshake,
            40,
        ));
        // Real data.
        t.push_record(RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_3,
            ContentType::ApplicationData,
            512,
        ));
        assert_eq!(t.client_encrypted_appdata().len(), 2);
        assert_eq!(t.client_appdata_bytes(), 552);
    }

    #[test]
    fn tls12_appdata_not_confused_with_handshake() {
        let mut t = base();
        t.negotiated = Some((
            TlsVersion::V1_2,
            CipherSuite::TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256,
        ));
        t.push_record(RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_2,
            ContentType::Handshake,
            40,
        ));
        assert!(t.client_encrypted_appdata().is_empty());
        t.push_record(RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_2,
            ContentType::ApplicationData,
            100,
        ));
        assert_eq!(t.client_encrypted_appdata().len(), 1);
    }

    #[test]
    fn tcp_flags() {
        let mut t = base();
        assert!(!t.client_rst());
        t.push_tcp(TcpEvent::Rst {
            from: Direction::ClientToServer,
        });
        assert!(t.client_rst());
        t.push_tcp(TcpEvent::Fin {
            from: Direction::ClientToServer,
        });
        assert!(t.client_fin());
    }

    #[test]
    fn alerts_visible_only_when_plaintext() {
        let mut t = base();
        t.push_record(RecordEvent::plaintext_alert(
            Direction::ClientToServer,
            AlertLevel::Fatal,
            AlertDescription::UnknownCa,
        ));
        assert_eq!(t.plaintext_alerts().len(), 1);
        t.push_record(RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_3,
            ContentType::Alert,
            crate::alert::ENCRYPTED_ALERT_WIRE_LEN,
        ));
        assert_eq!(
            t.plaintext_alerts().len(),
            1,
            "encrypted alert must stay invisible"
        );
    }

    #[test]
    fn dump_contains_sni() {
        let t = base();
        assert!(t.dump().contains("x.com"));
    }
}
