//! TLS protocol versions.

/// A TLS protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TlsVersion {
    /// TLS 1.0 (legacy).
    V1_0,
    /// TLS 1.1 (legacy).
    V1_1,
    /// TLS 1.2.
    V1_2,
    /// TLS 1.3 — encrypted records are disguised as application data.
    V1_3,
}

impl TlsVersion {
    /// All versions, oldest first.
    pub const ALL: [TlsVersion; 4] = [
        TlsVersion::V1_0,
        TlsVersion::V1_1,
        TlsVersion::V1_2,
        TlsVersion::V1_3,
    ];

    /// What a modern client offers and a modern server supports: 1.2 and
    /// 1.3.
    pub const MODERN: [TlsVersion; 2] = [TlsVersion::V1_2, TlsVersion::V1_3];

    /// Whether encrypted records on this version hide their content type
    /// (the TLS 1.3 middlebox-compatibility disguise, §4.2.2).
    pub fn disguises_encrypted_records(self) -> bool {
        self == TlsVersion::V1_3
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TlsVersion::V1_0 => "TLSv1.0",
            TlsVersion::V1_1 => "TLSv1.1",
            TlsVersion::V1_2 => "TLSv1.2",
            TlsVersion::V1_3 => "TLSv1.3",
        }
    }
}

impl core::fmt::Display for TlsVersion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Picks the highest version offered by both sides, if any.
pub fn negotiate(
    client_offers: &[TlsVersion],
    server_supports: &[TlsVersion],
) -> Option<TlsVersion> {
    client_offers
        .iter()
        .filter(|v| server_supports.contains(v))
        .max()
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        assert!(TlsVersion::V1_0 < TlsVersion::V1_2);
        assert!(TlsVersion::V1_2 < TlsVersion::V1_3);
    }

    #[test]
    fn negotiate_picks_highest_common() {
        let client = [TlsVersion::V1_2, TlsVersion::V1_3];
        let server = [TlsVersion::V1_0, TlsVersion::V1_2];
        assert_eq!(negotiate(&client, &server), Some(TlsVersion::V1_2));
    }

    #[test]
    fn negotiate_none_when_disjoint() {
        assert_eq!(negotiate(&[TlsVersion::V1_3], &[TlsVersion::V1_0]), None);
    }

    #[test]
    fn only_tls13_disguises() {
        for v in TlsVersion::ALL {
            assert_eq!(v.disguises_encrypted_records(), v == TlsVersion::V1_3);
        }
    }

    #[test]
    fn names() {
        assert_eq!(TlsVersion::V1_3.to_string(), "TLSv1.3");
    }
}
