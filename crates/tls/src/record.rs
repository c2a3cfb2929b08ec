//! The record layer: what a passive observer (the capture point) sees.

use crate::alert::{AlertDescription, AlertLevel};
use crate::version::TlsVersion;

/// Direction of a wire event relative to the device under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Device → server.
    ClientToServer,
    /// Server → device.
    ServerToClient,
}

/// Record-layer content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    /// Handshake messages.
    Handshake,
    /// Alert records.
    Alert,
    /// Application data.
    ApplicationData,
    /// ChangeCipherSpec (legacy; also sent by TLS 1.3 for middlebox compat).
    ChangeCipherSpec,
}

/// A single TLS record as seen on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordEvent {
    /// Direction of travel.
    pub direction: Direction,
    /// The content type stamped on the wire. For encrypted TLS 1.3 records
    /// this is always [`ContentType::ApplicationData`] regardless of the
    /// inner type — the disguise the paper's heuristic must see through.
    pub wire_type: ContentType,
    /// The true inner content type. A passive observer cannot read this for
    /// encrypted records; analysis code must not consult it when
    /// implementing the paper's heuristics (it exists for oracle/ablation
    /// benches only).
    pub inner_type: ContentType,
    /// Whether the record is encrypted.
    pub encrypted: bool,
    /// Payload length in bytes (observable).
    pub payload_len: usize,
    /// If this record carries a *plaintext* alert, its contents (observable).
    pub plaintext_alert: Option<(AlertLevel, AlertDescription)>,
}

impl RecordEvent {
    /// Builds a plaintext handshake record.
    pub fn handshake(direction: Direction, payload_len: usize) -> Self {
        RecordEvent {
            direction,
            wire_type: ContentType::Handshake,
            inner_type: ContentType::Handshake,
            encrypted: false,
            payload_len,
            plaintext_alert: None,
        }
    }

    /// Builds a plaintext alert record.
    pub fn plaintext_alert(
        direction: Direction,
        level: AlertLevel,
        desc: AlertDescription,
    ) -> Self {
        RecordEvent {
            direction,
            wire_type: ContentType::Alert,
            inner_type: ContentType::Alert,
            encrypted: false,
            payload_len: crate::alert::PLAINTEXT_ALERT_LEN,
            plaintext_alert: Some((level, desc)),
        }
    }

    /// Builds an encrypted record under `version`; the wire type is
    /// disguised for TLS 1.3.
    pub fn encrypted(
        direction: Direction,
        version: TlsVersion,
        inner_type: ContentType,
        payload_len: usize,
    ) -> Self {
        let wire_type = if version.disguises_encrypted_records() {
            ContentType::ApplicationData
        } else {
            inner_type
        };
        RecordEvent {
            direction,
            wire_type,
            inner_type,
            encrypted: true,
            payload_len,
            plaintext_alert: None,
        }
    }
}

/// TCP-level events interleaved with TLS records in a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpEvent {
    /// Three-way handshake completed.
    Established,
    /// Abortive reset.
    Rst {
        /// Which side sent the RST.
        from: Direction,
    },
    /// Orderly FIN teardown.
    Fin {
        /// Which side initiated the FIN.
        from: Direction,
    },
}

/// Anything observable on the wire: a TCP event or a TLS record.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// TCP-level event.
    Tcp(TcpEvent),
    /// TLS record.
    Record(RecordEvent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tls12_encrypted_alert_visible_as_alert() {
        let r = RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_2,
            ContentType::Alert,
            24,
        );
        assert_eq!(r.wire_type, ContentType::Alert);
    }

    #[test]
    fn tls13_encrypted_alert_disguised() {
        let r = RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_3,
            ContentType::Alert,
            24,
        );
        assert_eq!(r.wire_type, ContentType::ApplicationData);
        assert_eq!(r.inner_type, ContentType::Alert);
    }

    #[test]
    fn tls13_finished_disguised() {
        let r = RecordEvent::encrypted(
            Direction::ClientToServer,
            TlsVersion::V1_3,
            ContentType::Handshake,
            40,
        );
        assert_eq!(r.wire_type, ContentType::ApplicationData);
    }

    #[test]
    fn plaintext_alert_observable() {
        let r = RecordEvent::plaintext_alert(
            Direction::ServerToClient,
            AlertLevel::Fatal,
            AlertDescription::UnknownCa,
        );
        assert_eq!(
            r.plaintext_alert,
            Some((AlertLevel::Fatal, AlertDescription::UnknownCa))
        );
        assert_eq!(r.payload_len, 2);
    }
}
