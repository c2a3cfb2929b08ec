//! PII detection in decrypted traffic and the Table 9 significance test
//! (§4.4, §5.5).

use pinning_app::pii::{DeviceIdentity, PiiType};
use pinning_pki::cache::CacheCounter;
use std::collections::BTreeMap;

/// Detects which PII types appear in a request body, by matching the test
/// device's known identifier values (the paper controls the device, so
/// value matching is exact).
pub fn detect_pii(identity: &DeviceIdentity, body: &str) -> Vec<PiiType> {
    PiiType::ALL
        .into_iter()
        .filter(|p| body.contains(identity.value_of(*p)))
        .collect()
}

/// Inert: the PII-scan memo is gone; this counter stays at zero.
#[deprecated(note = "the PII-scan memo was removed; this counter stays at zero")]
pub static PII_SCAN: CacheCounter = CacheCounter::new("pii-scan");

/// Inert: the PII-scan memo is gone, so there is nothing to clear.
#[deprecated(note = "the PII-scan memo was removed; this does nothing")]
pub fn clear_pii_scan_cache() {}

/// A 2×2 contingency table: PII presence × pinned/non-pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Contingency {
    /// Pinned flows carrying the PII.
    pub pinned_with: u64,
    /// Pinned flows without it.
    pub pinned_without: u64,
    /// Non-pinned flows carrying the PII.
    pub unpinned_with: u64,
    /// Non-pinned flows without it.
    pub unpinned_without: u64,
}

impl Contingency {
    /// Prevalence among pinned flows, percent.
    pub fn pinned_pct(&self) -> f64 {
        pct(self.pinned_with, self.pinned_with + self.pinned_without)
    }

    /// Prevalence among non-pinned flows, percent.
    pub fn unpinned_pct(&self) -> f64 {
        pct(
            self.unpinned_with,
            self.unpinned_with + self.unpinned_without,
        )
    }

    /// Pearson chi-square statistic for independence (1 d.f.).
    pub fn chi_square(&self) -> f64 {
        let a = self.pinned_with as f64;
        let b = self.pinned_without as f64;
        let c = self.unpinned_with as f64;
        let d = self.unpinned_without as f64;
        let n = a + b + c + d;
        if n == 0.0 {
            return 0.0;
        }
        let denom = (a + b) * (c + d) * (a + c) * (b + d);
        if denom == 0.0 {
            return 0.0;
        }
        n * (a * d - b * c).powi(2) / denom
    }

    /// Whether the association is significant at p < 0.05 (χ² > 3.841 with
    /// one degree of freedom — the paper's test).
    pub fn significant(&self) -> bool {
        self.chi_square() > 3.841
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Table 9's per-PII summary for one platform.
#[derive(Debug, Clone, Default)]
pub struct PiiComparison {
    /// Per-PII contingency tables.
    pub tables: BTreeMap<PiiType, Contingency>,
    /// Total pinned request bodies inspected.
    pub pinned_bodies: u64,
    /// Total non-pinned request bodies inspected.
    pub unpinned_bodies: u64,
}

impl PiiComparison {
    /// Folds one decrypted body into the comparison.
    pub fn add_body(&mut self, identity: &DeviceIdentity, body: &str, pinned: bool) {
        self.add_detected(&detect_pii(identity, body), pinned);
    }

    /// Folds one body's detected PII types (a [`detect_pii`] result) into
    /// the comparison: [`PiiComparison::add_body`] without the scan.
    pub fn add_detected(&mut self, found: &[PiiType], pinned: bool) {
        if pinned {
            self.pinned_bodies += 1;
        } else {
            self.unpinned_bodies += 1;
        }
        for p in PiiType::ALL {
            let t = self.tables.entry(p).or_default();
            let has = found.contains(&p);
            match (pinned, has) {
                (true, true) => t.pinned_with += 1,
                (true, false) => t.pinned_without += 1,
                (false, true) => t.unpinned_with += 1,
                (false, false) => t.unpinned_without += 1,
            }
        }
    }

    /// Folds another comparison into this one. Entrywise sums, so the
    /// operation is associative and commutative — the streaming engine's
    /// sharded accumulators rely on both laws.
    pub fn merge(&mut self, other: &PiiComparison) {
        self.pinned_bodies += other.pinned_bodies;
        self.unpinned_bodies += other.unpinned_bodies;
        for (p, o) in &other.tables {
            let t = self.tables.entry(*p).or_default();
            t.pinned_with += o.pinned_with;
            t.pinned_without += o.pinned_without;
            t.unpinned_with += o.unpinned_with;
            t.unpinned_without += o.unpinned_without;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::SplitMix64;

    fn identity() -> DeviceIdentity {
        DeviceIdentity::generate(&mut SplitMix64::new(0x1d))
    }

    #[test]
    fn detects_planted_pii() {
        let id = identity();
        let body = id.render_payload(&[PiiType::AdvertisingId, PiiType::Email], 1);
        let found = detect_pii(&id, &body);
        assert!(found.contains(&PiiType::AdvertisingId));
        assert!(found.contains(&PiiType::Email));
        assert!(!found.contains(&PiiType::Imei));
    }

    #[test]
    fn no_false_positives_on_clean_body() {
        let id = identity();
        assert!(detect_pii(&id, "event=launch&ts=1").is_empty());
    }

    #[test]
    fn chi_square_known_value() {
        // Classic example: ((20,30),(40,10)) → χ² ≈ 16.67.
        let t = Contingency {
            pinned_with: 20,
            pinned_without: 30,
            unpinned_with: 40,
            unpinned_without: 10,
        };
        assert!(
            (t.chi_square() - 16.6667).abs() < 0.01,
            "{}",
            t.chi_square()
        );
        assert!(t.significant());
    }

    #[test]
    fn chi_square_independent_data_not_significant() {
        let t = Contingency {
            pinned_with: 25,
            pinned_without: 75,
            unpinned_with: 250,
            unpinned_without: 750,
        };
        assert!(t.chi_square() < 0.01);
        assert!(!t.significant());
    }

    #[test]
    fn chi_square_degenerate_cases() {
        assert_eq!(Contingency::default().chi_square(), 0.0);
        let t = Contingency {
            pinned_with: 5,
            pinned_without: 5,
            ..Default::default()
        };
        assert_eq!(t.chi_square(), 0.0); // empty unpinned margin
    }

    #[test]
    fn comparison_accumulates() {
        let id = identity();
        let mut cmp = PiiComparison::default();
        let with_adid = id.render_payload(&[PiiType::AdvertisingId], 1);
        let without = id.render_payload(&[], 2);
        cmp.add_body(&id, &with_adid, true);
        cmp.add_body(&id, &without, true);
        cmp.add_body(&id, &with_adid, false);
        cmp.add_body(&id, &without, false);
        cmp.add_body(&id, &without, false);
        let t = cmp.tables[&PiiType::AdvertisingId];
        assert_eq!(t.pinned_with, 1);
        assert_eq!(t.pinned_without, 1);
        assert_eq!(t.unpinned_with, 1);
        assert_eq!(t.unpinned_without, 2);
        assert_eq!(cmp.pinned_bodies, 2);
        assert_eq!(cmp.unpinned_bodies, 3);
        assert!((t.pinned_pct() - 50.0).abs() < 1e-9);
        assert!((t.unpinned_pct() - 33.333).abs() < 0.01);
    }

    #[test]
    fn merge_matches_sequential_fold() {
        let id = identity();
        let bodies: Vec<(String, bool)> = (0..12)
            .map(|i| {
                let kinds: &[PiiType] = match i % 3 {
                    0 => &[PiiType::AdvertisingId],
                    1 => &[PiiType::Email, PiiType::City],
                    _ => &[],
                };
                (id.render_payload(kinds, i), i % 2 == 0)
            })
            .collect();

        let mut whole = PiiComparison::default();
        for (b, pinned) in &bodies {
            whole.add_body(&id, b, *pinned);
        }

        let (left, right) = bodies.split_at(5);
        let mut a = PiiComparison::default();
        for (b, pinned) in left {
            a.add_body(&id, b, *pinned);
        }
        let mut b2 = PiiComparison::default();
        for (b, pinned) in right {
            b2.add_body(&id, b, *pinned);
        }

        // Commutative: fold in either order, same tables.
        let mut ab = a.clone();
        ab.merge(&b2);
        let mut ba = b2.clone();
        ba.merge(&a);
        assert_eq!(ab.tables, whole.tables);
        assert_eq!(ba.tables, whole.tables);
        assert_eq!(ab.pinned_bodies, whole.pinned_bodies);
        assert_eq!(ba.unpinned_bodies, whole.unpinned_bodies);
    }
}
