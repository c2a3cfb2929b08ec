//! Mergeable sharded accumulators for the streaming engine.
//!
//! The monolithic study materializes a `BTreeMap<usize, AppRecord>` and
//! every table scans it. At streaming scale the records cannot stay
//! resident, so each worker folds its shards into a [`StreamAccum`]
//! partial and the engine merges partials at the end. [`StreamAccum::merge`]
//! is associative and commutative — every field is a sum (or an
//! entrywise-summing map union) — so the fold result is independent of
//! shard size, worker count, and completion order. The rendered report is
//! a pure function of the merged accumulator, which is what the
//! byte-identity gates in `benches/stream.rs` check.

use crate::record::AppRecord;
use pinning_analysis::pii::{detect_pii, PiiComparison};
use pinning_app::pii::DeviceIdentity;
use pinning_app::platform::Platform;
use pinning_pki::encode::{Reader, Writer};
use pinning_pki::error::DecodeError;
use pinning_report::text::{Align, TextTable};
use pinning_store::datasets::DatasetKind;
use std::collections::BTreeMap;

/// Per-(dataset, platform) tallies behind the streamed prevalence table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetTally {
    /// Apps drawn into this dataset.
    pub apps: u64,
    /// Apps detected pinning dynamically.
    pub pinned: u64,
    /// Apps with embedded-certificate static signal.
    pub static_embedded: u64,
    /// Apps with an NSC configuration signal (Android only).
    pub nsc: u64,
    /// Apps whose dynamic measurement degraded.
    pub degraded: u64,
}

impl DatasetTally {
    fn merge(&mut self, o: &DatasetTally) {
        self.apps += o.apps;
        self.pinned += o.pinned;
        self.static_embedded += o.static_embedded;
        self.nsc += o.nsc;
        self.degraded += o.degraded;
    }
}

/// Per-platform tallies over *every* measured app (dataset member or not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformTally {
    /// Apps measured.
    pub apps: u64,
    /// Apps detected pinning dynamically.
    pub pinned: u64,
    /// Baseline TLS handshakes observed.
    pub handshakes: u64,
    /// iOS settle re-runs applied.
    pub settled_reruns: u64,
    /// Apps with ≥1 weak-cipher offer overall.
    pub weak_overall: u64,
    /// Apps with ≥1 weak-cipher offer on a pinned connection.
    pub weak_pinned: u64,
    /// Apps where circumvention was attempted.
    pub circ_attempted: u64,
    /// Apps where ≥1 pinned destination was successfully opened.
    pub circ_succeeded: u64,
    /// Apps whose dynamic measurement degraded.
    pub degraded: u64,
    /// Circuit-breaker trips summed over apps.
    pub breaker_trips: u64,
}

impl PlatformTally {
    fn merge(&mut self, o: &PlatformTally) {
        self.apps += o.apps;
        self.pinned += o.pinned;
        self.handshakes += o.handshakes;
        self.settled_reruns += o.settled_reruns;
        self.weak_overall += o.weak_overall;
        self.weak_pinned += o.weak_pinned;
        self.circ_attempted += o.circ_attempted;
        self.circ_succeeded += o.circ_succeeded;
        self.degraded += o.degraded;
        self.breaker_trips += o.breaker_trips;
    }
}

/// Per-category pinning tallies (streamed Tables 4/5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryTally {
    /// Apps in the category.
    pub apps: u64,
    /// Of those, apps detected pinning.
    pub pinned: u64,
}

/// One worker's (or one run's) mergeable measurement summary.
#[derive(Debug, Clone, Default)]
pub struct StreamAccum {
    /// Shards folded into this accumulator.
    pub shards: u64,
    /// Apps folded in (all platforms).
    pub apps: u64,
    /// `[platform][dataset-kind]` prevalence tallies.
    pub dataset: [[DatasetTally; 3]; 2],
    /// Per-platform totals.
    pub platform: [PlatformTally; 2],
    /// Per-platform, per-category-label tallies.
    pub categories: [BTreeMap<String, CategoryTally>; 2],
    /// Degradation histogram keyed by error label.
    pub errors: BTreeMap<String, u64>,
    /// Per-platform PII contingency tables (streamed Table 9).
    pub pii: [PiiComparison; 2],
}

/// Index of a platform in the accumulator's fixed arrays.
fn pidx(platform: Platform) -> usize {
    match platform {
        Platform::Android => 0,
        Platform::Ios => 1,
    }
}

/// Index of a dataset kind in the accumulator's fixed arrays.
fn kidx(kind: DatasetKind) -> usize {
    DatasetKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind in ALL")
}

impl StreamAccum {
    /// Folds one measured app into the accumulator.
    ///
    /// `datasets` is the app's streamed-dataset membership;
    /// `identity` is the test device whose PII values the decrypted
    /// bodies are scanned for.
    pub fn add_app(
        &mut self,
        datasets: &[DatasetKind],
        category_label: &str,
        record: &AppRecord,
        identity: &DeviceIdentity,
    ) {
        let platform = record.id.platform;
        let pi = pidx(platform);
        self.apps += 1;

        let pins = record.pins();
        let degraded = record.degraded();
        let nsc = platform == Platform::Android && record.static_findings.nsc_signal();
        let embedded = record.static_findings.has_pin_material();

        let p = &mut self.platform[pi];
        p.apps += 1;
        p.pinned += pins as u64;
        p.handshakes += record.n_handshakes_baseline as u64;
        p.settled_reruns += record.settled_rerun as u64;
        p.weak_overall += record.weak_overall as u64;
        p.weak_pinned += record.weak_pinned as u64;
        p.degraded += degraded as u64;
        p.breaker_trips += record.breaker_trips as u64;
        if let Some(c) = &record.circumvention {
            p.circ_attempted += (!c.attempted.is_empty()) as u64;
            p.circ_succeeded += (!c.succeeded.is_empty()) as u64;
        }

        for &kind in datasets {
            let t = &mut self.dataset[pi][kidx(kind)];
            t.apps += 1;
            t.pinned += pins as u64;
            t.static_embedded += embedded as u64;
            t.nsc += nsc as u64;
            t.degraded += degraded as u64;
        }

        let cat = self.categories[pi]
            .entry(category_label.to_string())
            .or_default();
        cat.apps += 1;
        cat.pinned += pins as u64;

        if let Some(error) = record.error {
            *self.errors.entry(error.label().to_string()).or_default() += 1;
        }

        for body in &record.pinned_bodies {
            self.pii[pi].add_detected(&detect_pii(identity, body), true);
        }
        for body in &record.unpinned_bodies {
            self.pii[pi].add_detected(&detect_pii(identity, body), false);
        }
    }

    /// Folds another accumulator into this one. Associative and
    /// commutative: every field is a sum or an entrywise-summing union.
    pub fn merge(&mut self, other: &StreamAccum) {
        self.shards += other.shards;
        self.apps += other.apps;
        for pi in 0..2 {
            for ki in 0..3 {
                self.dataset[pi][ki].merge(&other.dataset[pi][ki]);
            }
            self.platform[pi].merge(&other.platform[pi]);
            for (label, o) in &other.categories[pi] {
                let t = self.categories[pi].entry(label.clone()).or_default();
                t.apps += o.apps;
                t.pinned += o.pinned;
            }
            self.pii[pi].merge(&other.pii[pi]);
        }
        for (label, n) in &other.errors {
            *self.errors.entry(label.clone()).or_default() += n;
        }
    }

    /// TLV encoding for the stream journal (same `pinning_pki::encode`
    /// machinery as the per-app journal).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.shards);
        w.u64(self.apps);
        for pi in 0..2 {
            for ki in 0..3 {
                let t = &self.dataset[pi][ki];
                for v in [t.apps, t.pinned, t.static_embedded, t.nsc, t.degraded] {
                    w.u64(v);
                }
            }
            let p = &self.platform[pi];
            for v in [
                p.apps,
                p.pinned,
                p.handshakes,
                p.settled_reruns,
                p.weak_overall,
                p.weak_pinned,
                p.circ_attempted,
                p.circ_succeeded,
                p.degraded,
                p.breaker_trips,
            ] {
                w.u64(v);
            }
            let cats: Vec<(&String, &CategoryTally)> = self.categories[pi].iter().collect();
            w.list(&cats, |w, (label, t)| {
                w.string(label);
                w.u64(t.apps);
                w.u64(t.pinned);
            });
            let cmp = &self.pii[pi];
            w.u64(cmp.pinned_bodies);
            w.u64(cmp.unpinned_bodies);
            let tables: Vec<_> = cmp.tables.iter().collect();
            w.list(&tables, |w, (ty, t)| {
                w.string(&format!("{ty:?}"));
                w.u64(t.pinned_with);
                w.u64(t.pinned_without);
                w.u64(t.unpinned_with);
                w.u64(t.unpinned_without);
            });
        }
        let errors: Vec<(&String, &u64)> = self.errors.iter().collect();
        w.list(&errors, |w, (label, n)| {
            w.string(label);
            w.u64(**n);
        });
        w.into_bytes()
    }

    /// Decodes an accumulator written by [`StreamAccum::encode`].
    pub fn decode(payload: &[u8]) -> Result<StreamAccum, DecodeError> {
        use pinning_app::pii::PiiType;
        let mut r = Reader::new(payload);
        let mut acc = StreamAccum {
            shards: r.u64()?,
            apps: r.u64()?,
            ..Default::default()
        };
        for pi in 0..2 {
            for ki in 0..3 {
                let t = &mut acc.dataset[pi][ki];
                t.apps = r.u64()?;
                t.pinned = r.u64()?;
                t.static_embedded = r.u64()?;
                t.nsc = r.u64()?;
                t.degraded = r.u64()?;
            }
            let p = &mut acc.platform[pi];
            p.apps = r.u64()?;
            p.pinned = r.u64()?;
            p.handshakes = r.u64()?;
            p.settled_reruns = r.u64()?;
            p.weak_overall = r.u64()?;
            p.weak_pinned = r.u64()?;
            p.circ_attempted = r.u64()?;
            p.circ_succeeded = r.u64()?;
            p.degraded = r.u64()?;
            p.breaker_trips = r.u64()?;
            let cats = r.list(|r| {
                let label = r.string()?;
                let apps = r.u64()?;
                let pinned = r.u64()?;
                Ok((label, CategoryTally { apps, pinned }))
            })?;
            acc.categories[pi] = cats.into_iter().collect();
            acc.pii[pi].pinned_bodies = r.u64()?;
            acc.pii[pi].unpinned_bodies = r.u64()?;
            let tables = r.list(|r| {
                let name = r.string()?;
                let ty = PiiType::ALL
                    .into_iter()
                    .find(|t| format!("{t:?}") == name)
                    .ok_or(DecodeError::BadFieldSize)?;
                let t = pinning_analysis::pii::Contingency {
                    pinned_with: r.u64()?,
                    pinned_without: r.u64()?,
                    unpinned_with: r.u64()?,
                    unpinned_without: r.u64()?,
                };
                Ok((ty, t))
            })?;
            acc.pii[pi].tables = tables.into_iter().collect();
        }
        let errors = r.list(|r| {
            let label = r.string()?;
            let n = r.u64()?;
            Ok((label, n))
        })?;
        acc.errors = errors.into_iter().collect();
        if !r.is_empty() {
            return Err(DecodeError::BadLength);
        }
        Ok(acc)
    }

    /// Renders the deterministic streamed report: a pure function of the
    /// merged accumulator, byte-identical across thread counts and shard
    /// sizes. Volatile telemetry (timings, RSS) is rendered separately by
    /// the engine's health report.
    pub fn render(&self) -> String {
        // `shards` is deliberately absent: it varies with the schedule
        // (shard size), and the report must not.
        let mut out = String::from("=== Streamed study report ===\n");
        out.push_str(&format!("apps measured: {}\n\n", self.apps));

        let mut t = TextTable::new(
            "Stream prevalence by dataset (Bernoulli-membership family)",
            &["Dataset", "Platform", "n", "Dynamic", "Embedded", "NSC"],
        )
        .aligns(&[
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for kind in DatasetKind::ALL {
            for platform in Platform::BOTH {
                let d = &self.dataset[pidx(platform)][kidx(kind)];
                t.row(&[
                    kind.to_string(),
                    platform.to_string(),
                    d.apps.to_string(),
                    pct_of(d.pinned, d.apps),
                    pct_of(d.static_embedded, d.apps),
                    if platform == Platform::Android {
                        pct_of(d.nsc, d.apps)
                    } else {
                        "-".into()
                    },
                ]);
            }
        }
        out.push_str(&t.render());

        let mut t = TextTable::new(
            "Stream totals per platform (every generated app)",
            &[
                "Platform",
                "Apps",
                "Pinning",
                "Handshakes",
                "Weak",
                "Weak+pin",
                "Circ ok",
                "Degraded",
            ],
        )
        .aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for platform in Platform::BOTH {
            let p = &self.platform[pidx(platform)];
            t.row(&[
                platform.to_string(),
                p.apps.to_string(),
                pct_of(p.pinned, p.apps),
                p.handshakes.to_string(),
                p.weak_overall.to_string(),
                p.weak_pinned.to_string(),
                format!("{}/{}", p.circ_succeeded, p.circ_attempted),
                p.degraded.to_string(),
            ]);
        }
        out.push_str(&t.render());

        for platform in Platform::BOTH {
            let mut rows: Vec<(&String, &CategoryTally)> = self.categories[pidx(platform)]
                .iter()
                .filter(|(_, t)| t.pinned > 0)
                .collect();
            rows.sort_by(|a, b| b.1.pinned.cmp(&a.1.pinned).then(a.0.cmp(b.0)));
            let mut t = TextTable::new(
                format!("Top pinning categories, {platform} (streamed)"),
                &["Category", "Pinning %", "Apps"],
            )
            .aligns(&[Align::Left, Align::Right, Align::Right]);
            for (label, c) in rows.iter().take(10) {
                t.row(&[
                    label.to_string(),
                    pct_of(c.pinned, c.apps),
                    c.pinned.to_string(),
                ]);
            }
            out.push_str(&t.render());
        }

        for platform in Platform::BOTH {
            let cmp = &self.pii[pidx(platform)];
            let mut t = TextTable::new(
                format!(
                    "PII exposure, {platform} (streamed Table 9; pinned n={}, unpinned n={})",
                    cmp.pinned_bodies, cmp.unpinned_bodies
                ),
                &["PII", "Pinned %", "Unpinned %", "chi2", "p<0.05"],
            )
            .aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
            ]);
            for (ty, c) in &cmp.tables {
                t.row(&[
                    format!("{ty:?}"),
                    format!("{:.2}", c.pinned_pct()),
                    format!("{:.2}", c.unpinned_pct()),
                    format!("{:.3}", c.chi_square()),
                    if c.significant() { "yes" } else { "no" }.to_string(),
                ]);
            }
            out.push_str(&t.render());
        }

        if !self.errors.is_empty() {
            let mut t = TextTable::new("Degradation histogram", &["Error", "Apps"])
                .aligns(&[Align::Left, Align::Right]);
            for (label, n) in &self.errors {
                t.row(&[label.to_string(), n.to_string()]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

fn pct_of(num: u64, den: u64) -> String {
    if den == 0 {
        "0.00% (0)".to_string()
    } else {
        format!("{:.2}% ({num})", 100.0 * num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::SplitMix64;

    /// Builds a pseudo-random accumulator from a seed — the generator for
    /// the property tests below.
    fn arb_accum(seed: u64) -> StreamAccum {
        let mut rng = SplitMix64::new(seed);
        let mut acc = StreamAccum {
            shards: rng.next_below(5),
            apps: rng.next_below(100),
            ..Default::default()
        };
        for pi in 0..2 {
            for ki in 0..3 {
                acc.dataset[pi][ki] = DatasetTally {
                    apps: rng.next_below(50),
                    pinned: rng.next_below(20),
                    static_embedded: rng.next_below(20),
                    nsc: rng.next_below(10),
                    degraded: rng.next_below(5),
                };
            }
            acc.platform[pi] = PlatformTally {
                apps: rng.next_below(100),
                pinned: rng.next_below(40),
                handshakes: rng.next_below(1000),
                settled_reruns: rng.next_below(10),
                weak_overall: rng.next_below(10),
                weak_pinned: rng.next_below(5),
                circ_attempted: rng.next_below(20),
                circ_succeeded: rng.next_below(20),
                degraded: rng.next_below(5),
                breaker_trips: rng.next_below(5),
            };
            for label in ["Games", "Finance", "Social", "Tools"] {
                if rng.chance(0.7) {
                    acc.categories[pi].insert(
                        label.to_string(),
                        CategoryTally {
                            apps: rng.next_below(30),
                            pinned: rng.next_below(10),
                        },
                    );
                }
            }
            acc.pii[pi].pinned_bodies = rng.next_below(40);
            acc.pii[pi].unpinned_bodies = rng.next_below(40);
            for ty in pinning_app::pii::PiiType::ALL {
                if rng.chance(0.6) {
                    acc.pii[pi].tables.insert(
                        ty,
                        pinning_analysis::pii::Contingency {
                            pinned_with: rng.next_below(10),
                            pinned_without: rng.next_below(10),
                            unpinned_with: rng.next_below(10),
                            unpinned_without: rng.next_below(10),
                        },
                    );
                }
            }
        }
        for label in ["timeout", "worker-panic", "dns"] {
            if rng.chance(0.5) {
                acc.errors.insert(label.to_string(), rng.next_below(7));
            }
        }
        acc
    }

    fn merged(parts: &[&StreamAccum]) -> StreamAccum {
        let mut out = StreamAccum::default();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Accumulators compare by their canonical encoding (render would work
    /// too, but encode covers fields render elides).
    fn eq(a: &StreamAccum, b: &StreamAccum) -> bool {
        a.encode() == b.encode()
    }

    #[test]
    fn prop_merge_commutative() {
        for seed in 0..64u64 {
            let a = arb_accum(seed);
            let b = arb_accum(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            assert!(
                eq(&merged(&[&a, &b]), &merged(&[&b, &a])),
                "merge not commutative for seed {seed}"
            );
        }
    }

    #[test]
    fn prop_merge_associative() {
        for seed in 0..64u64 {
            let a = arb_accum(seed);
            let b = arb_accum(seed ^ 0xABCD);
            let c = arb_accum(seed ^ 0x1234_5678);
            let mut ab = merged(&[&a, &b]);
            ab.merge(&c);
            let mut bc = merged(&[&b, &c]);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert!(eq(&ab, &a_bc), "merge not associative for seed {seed}");
            bc = merged(&[&b, &c]);
            let mut bc_a = bc.clone();
            bc_a.merge(&a);
            assert!(eq(&ab, &bc_a), "assoc+comm composition broke for {seed}");
        }
    }

    #[test]
    fn prop_merge_identity() {
        for seed in 0..16u64 {
            let a = arb_accum(seed);
            let mut with_zero = a.clone();
            with_zero.merge(&StreamAccum::default());
            assert!(eq(&a, &with_zero), "default must be a merge identity");
        }
    }

    #[test]
    fn prop_encode_decode_roundtrip() {
        for seed in 0..64u64 {
            let a = arb_accum(seed);
            let decoded = StreamAccum::decode(&a.encode()).expect("roundtrip decodes");
            assert!(eq(&a, &decoded), "roundtrip changed accumulator {seed}");
            assert_eq!(a.render(), decoded.render());
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = arb_accum(1).encode();
        bytes.extend_from_slice(&[0, 1, 2, 3]);
        assert!(StreamAccum::decode(&bytes).is_err());
    }

    #[test]
    fn render_mentions_every_section() {
        let s = arb_accum(3).render();
        assert!(s.contains("Stream prevalence"));
        assert!(s.contains("Stream totals"));
        assert!(s.contains("Top pinning categories"));
        assert!(s.contains("PII exposure"));
    }
}
