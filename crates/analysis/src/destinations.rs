//! Pinned vs unpinned destinations, first- vs third-party (§5.2, Figure 5).

use pinning_store::whois::Party;

/// One destination row in an app's Figure-5 bar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestinationEntry {
    /// Hostname.
    pub domain: String,
    /// Detected as pinned.
    pub pinned: bool,
    /// First or third party relative to the app developer.
    pub party: Party,
}

/// Figure-5 data for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct AppDestinationProfile {
    /// App display name.
    pub app_name: String,
    /// Entries for every used destination.
    pub entries: Vec<DestinationEntry>,
}

impl AppDestinationProfile {
    /// Percentage of destinations pinned.
    pub fn pct_pinned(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        100.0 * self.entries.iter().filter(|e| e.pinned).count() as f64 / self.entries.len() as f64
    }

    /// Counts split four ways:
    /// (first-pinned, first-unpinned, third-pinned, third-unpinned).
    pub fn quad_counts(&self) -> (usize, usize, usize, usize) {
        let mut q = (0, 0, 0, 0);
        for e in &self.entries {
            match (e.party, e.pinned) {
                (Party::First, true) => q.0 += 1,
                (Party::First, false) => q.1 += 1,
                (Party::Third, true) => q.2 += 1,
                (Party::Third, false) => q.3 += 1,
            }
        }
        q
    }

    /// Whether the app pins every first-party destination it contacts.
    pub fn pins_all_first_party(&self) -> bool {
        let fp: Vec<_> = self
            .entries
            .iter()
            .filter(|e| e.party == Party::First)
            .collect();
        !fp.is_empty() && fp.iter().all(|e| e.pinned)
    }

    /// Whether the app pins *every* destination it contacts (the 5 Android
    /// / 4 iOS apps of §5.2).
    pub fn pins_everything(&self) -> bool {
        !self.entries.is_empty() && self.entries.iter().all(|e| e.pinned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(domain: &str, pinned: bool, party: Party) -> DestinationEntry {
        DestinationEntry {
            domain: domain.into(),
            pinned,
            party,
        }
    }

    #[test]
    fn quad_counts_and_pcts() {
        let p = AppDestinationProfile {
            app_name: "A".into(),
            entries: vec![
                entry("api.a.com", true, Party::First),
                entry("www.a.com", false, Party::First),
                entry("t.ads.com", true, Party::Third),
                entry("g.cdn.com", false, Party::Third),
            ],
        };
        assert_eq!(p.quad_counts(), (1, 1, 1, 1));
        assert!((p.pct_pinned() - 50.0).abs() < 1e-9);
        assert!(!p.pins_all_first_party());
        assert!(!p.pins_everything());
    }

    #[test]
    fn pins_everything_detection() {
        let p = AppDestinationProfile {
            app_name: "B".into(),
            entries: vec![
                entry("api.b.com", true, Party::First),
                entry("t.ads.com", true, Party::Third),
            ],
        };
        assert!(p.pins_everything());
        assert!(p.pins_all_first_party());
    }

    #[test]
    fn empty_profile_is_zero_pct() {
        let p = AppDestinationProfile {
            app_name: "E".into(),
            entries: vec![],
        };
        assert_eq!(p.pct_pinned(), 0.0);
        assert!(!p.pins_everything());
        assert!(!p.pins_all_first_party());
    }
}
