//! Table/figure computations over [`StudyResults`].
//!
//! Every number below is *measured* by the pipeline — nothing here reads
//! the world's planted ground truth except through the same channels the
//! paper had (packages, captures, CT logs, whois).

use crate::study::StudyResults;
use pinning_analysis::categories::{category_table, CategoryRow};
use pinning_analysis::certs::{classify_destination_pki, PkiClass};
use pinning_analysis::consistency::{
    compare, summarize_common, CommonDatasetSummary, ConsistencyClass, PlatformObservation,
};
use pinning_analysis::destinations::{AppDestinationProfile, DestinationEntry};
use pinning_analysis::pii::PiiComparison;
use pinning_analysis::security::WeakCipherRow;
use pinning_analysis::statics::attribution::{attribute, FrameworkCount};
use pinning_app::platform::Platform;
use pinning_crypto::SplitMix64;
use pinning_report::figures::{self, Figure3Row, Figure4Row};
use pinning_report::tables::{self, PriorWorkRow, Table1, Table3Row, Table6Row, Table8Row};
use pinning_store::datasets::DatasetKind;
use std::collections::{BTreeMap, BTreeSet};

/// §5.3.2's pin-level summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinLevelSummary {
    /// Pinned destinations matched to CA certificates.
    pub ca: usize,
    /// Pinned destinations matched to leaf certificates.
    pub leaf: usize,
    /// Pinning apps with at least one static↔dynamic certificate match.
    pub apps_matched: usize,
    /// Total pinning apps.
    pub pinning_apps: usize,
}

/// The CT-ecosystem coverage summary behind the "CT resolution & log
/// coverage" report section.
#[derive(Debug, Clone)]
pub struct CtCoverageSummary {
    /// Per-(dataset, platform) resolved/total unique pins.
    pub datasets: Vec<tables::CtCoverageRow>,
    /// Per-shard entry counts.
    pub shards: Vec<tables::CtShardRow>,
    /// Resolver cache statistics for the pass that produced `datasets`.
    pub cache: pinning_ctlog::ResolverStats,
    /// Auditor findings, pre-rendered (empty = clean ecosystem).
    pub findings: Vec<String>,
}

/// §5.3.3's SPKI-vs-raw summary for leaf pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpkiVsRawSummary {
    /// Leaf pins committed via SPKI hash strings.
    pub leaf_via_spki: usize,
    /// Leaf pins shipped as raw certificates.
    pub leaf_via_raw: usize,
    /// Of the raw ones, how many survive a key-reusing renewal (the
    /// "developers likely pinned public keys" finding).
    pub raw_surviving_renewal: usize,
}

impl StudyResults {
    // ---------------------------------------------------------------
    // Table 1
    // ---------------------------------------------------------------

    /// Computes Table 1's category mixes.
    pub fn table1(&self) -> Table1 {
        let mut columns = Vec::new();
        for platform in Platform::BOTH {
            for kind in DatasetKind::ALL {
                let ds = self.dataset(kind, platform);
                let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
                for &i in &ds.app_indices {
                    *counts
                        .entry(self.world.apps[i].category.label_on(platform))
                        .or_default() += 1;
                }
                let n = ds.app_indices.len().max(1);
                let mut rows: Vec<(String, f64)> = counts
                    .into_iter()
                    .map(|(c, k)| (c.to_string(), 100.0 * k as f64 / n as f64))
                    .collect();
                rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
                columns.push((format!("{platform} / {kind}"), rows));
            }
        }
        Table1 { columns }
    }

    /// Renders Table 1.
    pub fn render_table1(&self) -> String {
        tables::table1(&self.table1())
    }

    // ---------------------------------------------------------------
    // Table 2
    // ---------------------------------------------------------------

    /// This pipeline's NSC-technique rows, to append to the prior-work
    /// table: the same metric prior studies used, on our datasets.
    pub fn table2_rows(&self) -> Vec<PriorWorkRow> {
        DatasetKind::ALL
            .iter()
            .map(|&kind| {
                let recs = self.dataset_records(kind, Platform::Android);
                let n = recs.len();
                let nsc = recs
                    .iter()
                    .filter(|r| r.static_findings.nsc_signal())
                    .count();
                PriorWorkRow {
                    study: format!("This pipeline (NSC, {kind})"),
                    year: 2022,
                    prevalence: format!("{:.2}%", 100.0 * nsc as f64 / n.max(1) as f64),
                    analysis: "Static".into(),
                    dataset_size: n.to_string(),
                    source: format!("{kind} Android dataset"),
                }
            })
            .collect()
    }

    /// Renders Table 2.
    pub fn render_table2(&self) -> String {
        tables::table2(&self.table2_rows())
    }

    // ---------------------------------------------------------------
    // Table 3
    // ---------------------------------------------------------------

    /// Computes the headline prevalence rows.
    pub fn table3(&self) -> Vec<Table3Row> {
        let mut rows = Vec::new();
        for kind in DatasetKind::ALL {
            for platform in Platform::BOTH {
                let recs = self.dataset_records(kind, platform);
                rows.push(Table3Row {
                    dataset: kind,
                    platform,
                    n: recs.len(),
                    dynamic: recs.iter().filter(|r| r.pins()).count(),
                    static_embedded: recs
                        .iter()
                        .filter(|r| r.static_findings.has_pin_material())
                        .count(),
                    nsc: (platform == Platform::Android).then(|| {
                        recs.iter()
                            .filter(|r| r.static_findings.nsc_signal())
                            .count()
                    }),
                });
            }
        }
        rows
    }

    /// Renders Table 3.
    pub fn render_table3(&self) -> String {
        tables::table3(&self.table3())
    }

    // ---------------------------------------------------------------
    // Tables 4 & 5
    // ---------------------------------------------------------------

    /// Category rows for one platform (union of all datasets, §5's
    /// "across all datasets" framing).
    pub fn category_rows(&self, platform: Platform) -> Vec<CategoryRow> {
        let apps: Vec<(pinning_app::category::Category, bool)> = self
            .platform_records(platform)
            .iter()
            .map(|r| (self.world.apps[r.app_index].category, r.pins()))
            .collect();
        category_table(&apps, 10)
    }

    /// Renders Table 4 (Android) or Table 5 (iOS).
    pub fn render_table_categories(&self, platform: Platform) -> String {
        tables::table_categories(platform, &self.category_rows(platform))
    }

    // ---------------------------------------------------------------
    // Table 6
    // ---------------------------------------------------------------

    /// Classifies the PKI of every pinned destination per platform.
    ///
    /// A small fraction of chain fetches fail (the paper's "Data
    /// Unavailable" column); failure is simulated deterministically per
    /// destination.
    pub fn table6(&self) -> Vec<Table6Row> {
        let stores = [&self.world.universe.aosp_oem, &self.world.universe.ios];
        let mut rows = Vec::new();
        for platform in Platform::BOTH {
            let fetch_rng = SplitMix64::new(self.world.config.seed).derive("chain-fetch");
            let dests: BTreeSet<&str> = self
                .platform_records(platform)
                .iter()
                .flat_map(|r| r.pinned_destinations.iter().map(String::as_str))
                .collect();
            let mut row = Table6Row {
                platform,
                default_pki: 0,
                custom_pki: 0,
                unavailable: 0,
            };
            for dest in dests {
                let mut dest_rng = fetch_rng.derive(dest);
                if dest_rng.chance(0.055) {
                    row.unavailable += 1;
                    continue;
                }
                match classify_destination_pki(
                    &self.world.network,
                    &self.world.universe.mozilla,
                    &stores,
                    dest,
                    self.world.now,
                ) {
                    PkiClass::DefaultPki => row.default_pki += 1,
                    PkiClass::CustomPki => row.custom_pki += 1,
                    PkiClass::DataUnavailable => row.unavailable += 1,
                }
            }
            rows.push(row);
        }
        rows
    }

    /// Renders Table 6.
    pub fn render_table6(&self) -> String {
        tables::table6(&self.table6())
    }

    // ---------------------------------------------------------------
    // Table 7
    // ---------------------------------------------------------------

    /// Framework attribution per platform.
    pub fn table7(&self) -> (Vec<FrameworkCount>, Vec<FrameworkCount>) {
        let rows: Vec<(&pinning_analysis::statics::StaticFindings, Platform)> = self
            .records
            .values()
            .map(|r| (&r.static_findings, r.id.platform))
            .collect();
        let mut reports = attribute(&rows);
        (
            reports
                .remove(&Platform::Android)
                .unwrap_or_default()
                .frameworks,
            reports
                .remove(&Platform::Ios)
                .unwrap_or_default()
                .frameworks,
        )
    }

    /// Renders Table 7.
    pub fn render_table7(&self) -> String {
        let (android, ios) = self.table7();
        tables::table7(&android, &ios, 5)
    }

    // ---------------------------------------------------------------
    // Table 8
    // ---------------------------------------------------------------

    /// Weak-cipher rows per dataset × platform.
    pub fn table8(&self) -> Vec<Table8Row> {
        let mut rows = Vec::new();
        for kind in DatasetKind::ALL {
            for platform in Platform::BOTH {
                let recs = self.dataset_records(kind, platform);
                let total_apps = recs.len();
                let overall = recs.iter().filter(|r| r.weak_overall).count();
                let pinners: Vec<_> = recs.iter().filter(|r| r.pins()).collect();
                let pinning_weak = pinners.iter().filter(|r| r.weak_pinned).count();
                let pct = |n: usize, d: usize| {
                    if d == 0 {
                        0.0
                    } else {
                        100.0 * n as f64 / d as f64
                    }
                };
                rows.push(Table8Row {
                    dataset: kind,
                    platform,
                    row: WeakCipherRow {
                        overall_pct: pct(overall, total_apps),
                        pinning_pct: pct(pinning_weak, pinners.len()),
                        total_apps,
                        pinning_apps: pinners.len(),
                    },
                });
            }
        }
        rows
    }

    /// Renders Table 8.
    pub fn render_table8(&self) -> String {
        tables::table8(&self.table8())
    }

    // ---------------------------------------------------------------
    // Table 9
    // ---------------------------------------------------------------

    /// PII comparison per platform from the decrypted request bodies.
    pub fn table9(&self) -> Vec<(Platform, PiiComparison)> {
        Platform::BOTH
            .into_iter()
            .map(|platform| {
                let mut cmp = PiiComparison::default();
                for r in self.platform_records(platform) {
                    for body in &r.pinned_bodies {
                        cmp.add_body(&self.identity, body, true);
                    }
                    for body in &r.unpinned_bodies {
                        cmp.add_body(&self.identity, body, false);
                    }
                }
                (platform, cmp)
            })
            .collect()
    }

    /// Renders Table 9.
    pub fn render_table9(&self) -> String {
        tables::table9(&self.table9())
    }

    // ---------------------------------------------------------------
    // Figures 2–4 (Common dataset)
    // ---------------------------------------------------------------

    /// Paired (android, ios) observations for every Common-dataset product.
    pub fn common_observations(&self) -> Vec<(PlatformObservation, PlatformObservation, String)> {
        let ca = self.dataset(DatasetKind::Common, Platform::Android);
        let ci = self.dataset(DatasetKind::Common, Platform::Ios);
        ca.app_indices
            .iter()
            .zip(&ci.app_indices)
            .map(|(&a, &i)| {
                let obs = |idx: usize| {
                    let r = &self.records[&idx];
                    PlatformObservation::new(
                        r.pinned_destinations.iter().cloned(),
                        r.used_destinations.iter().cloned(),
                    )
                };
                (obs(a), obs(i), self.world.apps[a].name.clone())
            })
            .collect()
    }

    /// Figure 2's aggregate.
    pub fn figure2_summary(&self) -> CommonDatasetSummary {
        let obs: Vec<_> = self
            .common_observations()
            .into_iter()
            .map(|(a, i, _)| (a, i))
            .collect();
        summarize_common(&obs)
    }

    /// Renders Figure 2.
    pub fn render_figure2(&self) -> String {
        figures::figure2(&self.figure2_summary())
    }

    /// Figure 3's rows: inconsistent both-platform pinners.
    pub fn figure3_rows(&self) -> Vec<Figure3Row> {
        self.common_observations()
            .into_iter()
            .filter(|(a, i, _)| !a.pinned.is_empty() && !i.pinned.is_empty())
            .filter_map(|(a, i, name)| {
                let rep = compare(&a, &i);
                (rep.class == ConsistencyClass::Inconsistent).then_some(Figure3Row {
                    app: name,
                    jaccard: rep.jaccard_pinned,
                    android_unpinned_on_ios: rep.android_pinned_unpinned_on_ios,
                    ios_unpinned_on_android: rep.ios_pinned_unpinned_on_android,
                })
            })
            .collect()
    }

    /// Renders Figure 3.
    pub fn render_figure3(&self) -> String {
        figures::figure3(&self.figure3_rows())
    }

    /// Figure 4's rows: exclusive-platform pinners with contradictions.
    pub fn figure4_rows(&self) -> (Vec<Figure4Row>, Vec<Figure4Row>) {
        let mut android_only = Vec::new();
        let mut ios_only = Vec::new();
        for (a, i, name) in self.common_observations() {
            match (!a.pinned.is_empty(), !i.pinned.is_empty()) {
                (true, false) => {
                    let rep = compare(&a, &i);
                    if rep.android_pinned_unpinned_on_ios > 0.0 {
                        android_only.push(Figure4Row {
                            app: name,
                            pct_unpinned_on_other: rep.android_pinned_unpinned_on_ios,
                        });
                    }
                }
                (false, true) => {
                    let rep = compare(&a, &i);
                    if rep.ios_pinned_unpinned_on_android > 0.0 {
                        ios_only.push(Figure4Row {
                            app: name,
                            pct_unpinned_on_other: rep.ios_pinned_unpinned_on_android,
                        });
                    }
                }
                _ => {}
            }
        }
        (android_only, ios_only)
    }

    /// Renders Figure 4.
    pub fn render_figure4(&self) -> String {
        let (a, i) = self.figure4_rows();
        figures::figure4(&a, &i)
    }

    // ---------------------------------------------------------------
    // Figure 5
    // ---------------------------------------------------------------

    /// Destination profiles for pinning apps of one platform
    /// (Popular + Random datasets, as in the figure).
    pub fn figure5_profiles(&self, platform: Platform) -> Vec<AppDestinationProfile> {
        let mut seen = BTreeSet::new();
        let mut profiles = Vec::new();
        for kind in [DatasetKind::Popular, DatasetKind::Random] {
            for r in self.dataset_records(kind, platform) {
                if !r.pins() || !seen.insert(r.app_index) {
                    continue;
                }
                let app = &self.world.apps[r.app_index];
                let pinned: BTreeSet<&str> =
                    r.pinned_destinations.iter().map(String::as_str).collect();
                let entries = r
                    .used_destinations
                    .iter()
                    .map(|d| DestinationEntry {
                        domain: d.clone(),
                        pinned: pinned.contains(d.as_str()),
                        party: self.world.whois.attribute(&app.developer_org, d),
                    })
                    .collect();
                profiles.push(AppDestinationProfile {
                    app_name: app.name.clone(),
                    entries,
                });
            }
        }
        profiles
    }

    /// Renders Figure 5 for one platform.
    pub fn render_figure5(&self, platform: Platform) -> String {
        figures::figure5(platform.name(), &self.figure5_profiles(platform))
    }

    // ---------------------------------------------------------------
    // §4.3 / §5.3 extras
    // ---------------------------------------------------------------

    /// Circumvention rate per platform: unique destinations
    /// (succeeded, attempted).
    pub fn circumvention_rate(&self, platform: Platform) -> (usize, usize) {
        let mut attempted = BTreeSet::new();
        let mut succeeded = BTreeSet::new();
        for r in self.platform_records(platform) {
            if let Some(c) = &r.circumvention {
                attempted.extend(c.attempted.iter().cloned());
                succeeded.extend(c.succeeded.iter().cloned());
            }
        }
        (succeeded.len(), attempted.len())
    }

    /// §5.3.2: root-vs-leaf pin classification via static↔dynamic matching.
    ///
    /// Counted over *unique certificates* (the paper's 80/110 CA vs leaf is
    /// a certificate count): one SDK root pinned by fifty apps is one CA
    /// certificate.
    pub fn pin_level(&self) -> PinLevelSummary {
        let mut s = PinLevelSummary::default();
        let resolver = pinning_ctlog::PinResolver::new(&self.world.ctlog);
        let mut seen: BTreeMap<[u8; 32], bool> = BTreeMap::new();
        for r in self.records.values() {
            if !r.pins() {
                continue;
            }
            s.pinning_apps += 1;
            let mut matched = false;
            let static_cns = pinning_analysis::certs::static_pin_cns(&r.static_findings, &resolver);
            for dest in &r.pinned_destinations {
                let Some(server) = self.world.network.resolve(dest) else {
                    continue;
                };
                let level = pinning_analysis::certs::pin_level_with_cns(&static_cns, &server.chain);
                let Some(is_ca) = level else { continue };
                matched = true;
                // Identify the matched certificate for dedup: the first
                // chain cert whose CN appears statically — re-derive it the
                // same way pin_level_with_cns does, via position.
                let cert = if is_ca {
                    server.chain.certs().iter().find(|c| c.tbs.is_ca)
                } else {
                    server.chain.leaf()
                };
                if let Some(cert) = cert {
                    seen.entry(cert.fingerprint_sha256()).or_insert(is_ca);
                }
            }
            if matched {
                s.apps_matched += 1;
            }
        }
        for is_ca in seen.values() {
            if *is_ca {
                s.ca += 1;
            } else {
                s.leaf += 1;
            }
        }
        s
    }

    /// §5.3.3: of leaf pins, SPKI vs raw storage, and renewal survival.
    pub fn spki_vs_raw(&self) -> SpkiVsRawSummary {
        let mut s = SpkiVsRawSummary::default();
        let resolver = pinning_ctlog::PinResolver::new(&self.world.ctlog);
        for r in self.records.values() {
            let static_cns = pinning_analysis::certs::static_pin_cns(&r.static_findings, &resolver);
            for dest in &r.pinned_destinations {
                let Some(server) = self.world.network.resolve(dest) else {
                    continue;
                };
                let Some(leaf) = server.chain.leaf() else {
                    continue;
                };
                // Only destinations whose *leaf* is the pinned certificate.
                match pinning_analysis::certs::pin_level_with_cns(&static_cns, &server.chain) {
                    Some(false) => {}
                    _ => continue,
                }
                let leaf_spki = leaf.spki_sha256();
                let via_spki = r
                    .static_findings
                    .pin_strings
                    .iter()
                    .any(|p| p.value.parsed.as_ref().is_some_and(|pin| pin.matches(leaf)));
                if via_spki {
                    s.leaf_via_spki += 1;
                    continue;
                }
                let via_raw = r
                    .static_findings
                    .embedded_certs
                    .iter()
                    .any(|c| c.value.spki_sha256() == leaf_spki);
                if via_raw {
                    s.leaf_via_raw += 1;
                    // Renewal probe: same key, new serial — does the app's
                    // enforcement still accept it?
                    let mut renewed = leaf.clone();
                    renewed.tbs.serial = renewed.tbs.serial.wrapping_add(1);
                    renewed.invalidate_derived(); // clones share the derived cache
                    let app = &self.world.apps[r.app_index];
                    if let Some((_, rule)) = app.pin_rule_for(dest) {
                        if rule.pins.matches_chain(&[renewed]) {
                            s.raw_surviving_renewal += 1;
                        }
                    }
                }
            }
        }
        s
    }

    /// §4.1.3: CT-log resolution of statically-found pins.
    pub fn ct_resolution(&self) -> (usize, usize) {
        let findings: Vec<&pinning_analysis::statics::StaticFindings> =
            self.records.values().map(|r| &r.static_findings).collect();
        let resolver = pinning_ctlog::PinResolver::new(&self.world.ctlog);
        pinning_analysis::certs::ct_resolution_rate(&findings, &resolver)
    }

    /// The full CT-ecosystem picture: per-dataset pin resolution through a
    /// single shared [`pinning_ctlog::PinResolver`] (so the cache hit rate
    /// reflects pin reuse across datasets), per-shard entry counts, and an
    /// auditor pass (STH consistency + mis-issuance against the network's
    /// served leaves).
    pub fn ct_coverage(&self) -> CtCoverageSummary {
        let resolver = pinning_ctlog::PinResolver::new(&self.world.ctlog);
        let mut datasets = Vec::new();
        for platform in Platform::BOTH {
            for kind in DatasetKind::ALL {
                let recs = self.dataset_records(kind, platform);
                let findings: Vec<&pinning_analysis::statics::StaticFindings> =
                    recs.iter().map(|r| &r.static_findings).collect();
                let (resolved, total) =
                    pinning_analysis::certs::ct_resolution_rate(&findings, &resolver);
                datasets.push(tables::CtCoverageRow {
                    dataset: kind,
                    platform,
                    resolved,
                    total,
                });
            }
        }
        let shards = self
            .world
            .ctlog
            .shards()
            .iter()
            .map(|s| tables::CtShardRow {
                shard: s.name.clone(),
                operator: s.operator.clone(),
                entries: s.log.len(),
            })
            .collect();
        // Auditor pass: tail every shard (signature + consistency +
        // inclusion), then cross-check logged leaves against the keys the
        // network actually serves.
        let mut monitor = pinning_ctlog::Monitor::new();
        monitor.observe_set(&self.world.ctlog, self.world.now);
        let truth: BTreeMap<String, [u8; 32]> = self
            .world
            .network
            .servers()
            .iter()
            .filter_map(|s| s.chain.leaf().map(|l| (s, l.spki_sha256())))
            .flat_map(|(s, spki)| s.hostnames.iter().map(move |h| (h.clone(), spki)))
            .collect();
        monitor.audit_misissuance(&self.world.ctlog, &truth);
        CtCoverageSummary {
            datasets,
            shards,
            cache: resolver.stats(),
            findings: monitor.findings().iter().map(|f| f.to_string()).collect(),
        }
    }

    /// Renders the CT resolution & log coverage section.
    pub fn render_ct(&self) -> String {
        let s = self.ct_coverage();
        tables::table_ct(&s.datasets, &s.shards, s.cache.hit_rate(), &s.findings)
    }

    /// Renders the degraded-apps summary: how many measurements were lost
    /// to test-bed faults, by error class (§5.6 "Partial Observation" made
    /// explicit instead of silent).
    pub fn render_degraded(&self) -> String {
        let summary = self.degraded_summary();
        let degraded: usize = summary.values().sum();
        let mut out = String::from("Degraded measurements (test-bed faults)\n");
        if degraded == 0 {
            out.push_str("  none — every app measured cleanly\n");
            return out;
        }
        for (err, n) in &summary {
            out.push_str(&format!("  {:<16} {n:>4}\n", err.label()));
        }
        out.push_str(&format!(
            "  {:<16} {degraded:>4} of {} apps unobserved\n",
            "total",
            self.records.len()
        ));
        out
    }

    /// Per-decode-layer histogram of structured [`MalformedInput`]
    /// rejections: one row per [`InputLayer`], counting apps the layer
    /// rejected and how many of those rejections were parse-budget trips.
    ///
    /// [`MalformedInput`]: pinning_netsim::MeasurementError::MalformedInput
    /// [`InputLayer`]: pinning_netsim::InputLayer
    pub fn resilience_summary(&self) -> Vec<tables::ResilienceRow> {
        use pinning_netsim::{InputLayer, MalformedKind};
        let mut rows: Vec<tables::ResilienceRow> = InputLayer::ALL
            .iter()
            .map(|l| tables::ResilienceRow {
                layer: l.label(),
                rejected: 0,
                budget_trips: 0,
            })
            .collect();
        for (_, e) in self.degraded_apps() {
            let Some((layer, reason)) = e.malformed_parts() else {
                continue;
            };
            for (row, l) in rows.iter_mut().zip(InputLayer::ALL) {
                if l == layer {
                    row.rejected += 1;
                    if reason == MalformedKind::LimitExceeded {
                        row.budget_trips += 1;
                    }
                }
            }
        }
        rows
    }

    /// Renders the "Malformed-input resilience" table: per-layer rejection
    /// counts for the adversarial cohort, budget-trip counts, and the
    /// zero-crash attestation.
    pub fn render_resilience(&self) -> String {
        tables::table_resilience(
            &self.resilience_summary(),
            self.world.hostile_apps.len(),
            self.health.panics_recovered,
        )
    }

    /// Renders the "Run health" table: supervision and journal telemetry
    /// for this run (panics recovered, breaker trips, truncations, resumed
    /// vs fresh apps).
    ///
    /// Deliberately *not* part of [`StudyResults::render_all`]: run health
    /// describes how this particular process survived, so a killed-and-
    /// resumed run legitimately differs from an uninterrupted one here
    /// while every deterministic report byte stays identical.
    pub fn render_run_health(&self) -> String {
        crate::study::table_run_health(&self.health)
    }

    /// A one-paragraph abstract with the headline numbers, mirroring the
    /// paper's "To summarize our key results" list (§1).
    pub fn summary(&self) -> String {
        let rows = self.table3();
        let cell = |kind: DatasetKind, platform: Platform| -> (f64, f64) {
            let r = rows
                .iter()
                .find(|r| r.dataset == kind && r.platform == platform)
                .expect("all rows present");
            let pct = |n: usize| {
                if r.n == 0 {
                    0.0
                } else {
                    100.0 * n as f64 / r.n as f64
                }
            };
            (pct(r.dynamic), pct(r.static_embedded))
        };
        let (pop_a_dyn, pop_a_static) = cell(DatasetKind::Popular, Platform::Android);
        let (pop_i_dyn, pop_i_static) = cell(DatasetKind::Popular, Platform::Ios);
        let (rand_a_dyn, _) = cell(DatasetKind::Random, Platform::Android);
        let (rand_i_dyn, _) = cell(DatasetKind::Random, Platform::Ios);
        let fig2 = self.figure2_summary();
        let pl = self.pin_level();
        let t9 = self.table9();
        let ios_adid_significant = t9
            .iter()
            .find(|(p, _)| *p == Platform::Ios)
            .and_then(|(_, cmp)| cmp.tables.get(&pinning_app::pii::PiiType::AdvertisingId))
            .is_some_and(|c| c.significant());
        format!(
            "Summary: {pop_i_dyn:.1}% of popular iOS apps and {pop_a_dyn:.1}% of popular \
             Android apps pin at run time (static analysis flags up to {pop_a_static:.1}% / \
             {pop_i_static:.1}% as potential pinning); random apps pin far less \
             ({rand_a_dyn:.1}% / {rand_i_dyn:.1}%). Of {} apps pinning on both platforms, \
             {} pin consistently ({} with identical pinned sets). {} of {} matched pinned \
             certificates are CAs. iOS advertising-ID prevalence in pinned traffic is{} \
             statistically significant.",
            fig2.pin_both,
            fig2.both_consistent,
            fig2.both_identical,
            pl.ca,
            pl.ca + pl.leaf,
            if ios_adid_significant { "" } else { " not" },
        )
    }

    /// Renders the complete report: every table and figure plus the §4.3 /
    /// §5.3 extras.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        out.push_str(&figures::figure1_ascii());
        out.push('\n');
        for section in [
            self.render_table1(),
            self.render_table2(),
            self.render_table3(),
            self.render_table_categories(Platform::Android),
            self.render_table_categories(Platform::Ios),
            self.render_table6(),
            self.render_table7(),
            self.render_table8(),
            self.render_table9(),
            self.render_figure2(),
            self.render_figure3(),
            self.render_figure4(),
            self.render_figure5(Platform::Android),
            self.render_figure5(Platform::Ios),
        ] {
            out.push_str(&section);
            out.push('\n');
        }
        let (sa, aa) = self.circumvention_rate(Platform::Android);
        let (si, ai) = self.circumvention_rate(Platform::Ios);
        out.push_str(&tables::share_bar("circumvented (Android)", sa, aa, 20));
        out.push('\n');
        out.push_str(&tables::share_bar("circumvented (iOS)", si, ai, 20));
        out.push('\n');
        let pl = self.pin_level();
        out.push_str(&format!(
            "pin level: {} CA vs {} leaf (matched apps: {}/{})\n",
            pl.ca, pl.leaf, pl.apps_matched, pl.pinning_apps
        ));
        let sr = self.spki_vs_raw();
        out.push_str(&format!(
            "leaf pins: {} via SPKI, {} raw ({} raw survive key-reusing renewal)\n",
            sr.leaf_via_spki, sr.leaf_via_raw, sr.raw_surviving_renewal
        ));
        let (resolved, total) = self.ct_resolution();
        out.push_str(&tables::share_bar(
            "pins resolved via CT",
            resolved,
            total,
            20,
        ));
        out.push('\n');
        out.push_str(&self.render_ct());
        out.push_str(&format!(
            "dataset collisions: Common∩Popular = {:?}, unique apps = {} (Android) + {} (iOS) = {}\n",
            self.collisions.common_popular,
            self.collisions.unique_android,
            self.collisions.unique_ios,
            self.collisions.total_unique,
        ));
        out.push('\n');
        out.push_str(&self.render_degraded());
        out.push('\n');
        out.push_str(&self.render_resilience());
        out.push('\n');
        out.push_str(&self.summary());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};

    fn results() -> StudyResults {
        Study::new(StudyConfig::tiny(0x7AB1)).run()
    }

    #[test]
    fn table3_counts_are_bounded_and_ordered() {
        let r = results();
        for row in r.table3() {
            assert!(row.dynamic <= row.n);
            assert!(row.static_embedded <= row.n);
            // Static embedded ⊇ is not guaranteed per-app, but in aggregate
            // static potential must not be *smaller* than dynamic truth
            // minus the obfuscated tail; sanity-bound it loosely.
            if let Some(nsc) = row.nsc {
                assert!(nsc <= row.n);
            }
        }
    }

    #[test]
    fn static_exceeds_dynamic_in_aggregate() {
        // Table 3's headline shape: static "potential pinning" ≫ dynamic.
        let r = results();
        let rows = r.table3();
        let dynamic: usize = rows.iter().map(|x| x.dynamic).sum();
        let embedded: usize = rows.iter().map(|x| x.static_embedded).sum();
        assert!(
            embedded > dynamic,
            "embedded {embedded} vs dynamic {dynamic}"
        );
    }

    #[test]
    fn table6_majority_default_pki() {
        let r = results();
        for row in r.table6() {
            if row.default_pki + row.custom_pki + row.unavailable > 3 {
                assert!(row.default_pki > row.custom_pki, "{row:?}");
            }
        }
    }

    #[test]
    fn table9_has_adid_rows() {
        let r = results();
        let t9 = r.table9();
        let (_, cmp) = t9.iter().find(|(p, _)| *p == Platform::Android).unwrap();
        assert!(
            cmp.pinned_bodies + cmp.unpinned_bodies > 0,
            "bodies must be captured"
        );
    }

    #[test]
    fn figure2_totals_match_common_pinners() {
        let r = results();
        let s = r.figure2_summary();
        let obs = r.common_observations();
        let manual = obs
            .iter()
            .filter(|(a, i, _)| !a.pinned.is_empty() || !i.pinned.is_empty())
            .count();
        assert_eq!(s.total_pinners(), manual);
    }

    #[test]
    fn render_all_contains_every_section() {
        let r = results();
        let report = r.render_all();
        for needle in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Table 8",
            "Table 9",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "circumvented",
            "pin level",
            "pins resolved via CT",
            "CT resolution & log coverage",
            "Log shards",
            "resolver cache hit rate",
            "Degraded measurements",
            "Malformed-input resilience",
            "zero-crash attestation",
        ] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn ct_coverage_is_partial_cached_and_audited_clean() {
        // Tiny worlds can carry a single parsable pin, for which "partial"
        // coverage is undefined — use a scale with a real pin population.
        let mut config = StudyConfig::tiny(0x7AB1);
        config.world.store_size = 300;
        config.world.n_cross_products = 60;
        config.world.common_size = 40;
        config.world.popular_size = 80;
        config.world.random_size = 80;
        let r = Study::new(config).run();
        let s = r.ct_coverage();
        // Coverage must stay partial in aggregate: some pins resolve, some
        // don't (the paper resolved ~50%).
        let resolved: usize = s.datasets.iter().map(|d| d.resolved).sum();
        let total: usize = s.datasets.iter().map(|d| d.total).sum();
        assert!(total > 0);
        assert!(resolved > 0, "no pin resolved through CT");
        assert!(resolved < total, "CT coverage must not be complete");
        // Every shard topology slot is reported; entries land in shards.
        assert_eq!(s.shards.len(), r.world.ctlog.shards().len());
        assert!(s.shards.iter().any(|sh| sh.entries > 0));
        // Pins repeat across datasets, so the shared resolver must hit,
        // and misses stay bounded by one per unique pin in the whole study.
        assert!(s.cache.hits > 0, "{:?}", s.cache);
        let (_, unique_overall) = r.ct_resolution();
        assert_eq!(s.cache.misses as usize, unique_overall, "{:?}", s.cache);
        // An honestly-generated world has a clean CT ecosystem.
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn circumvention_attempts_cover_pinned_destinations() {
        let r = results();
        for platform in Platform::BOTH {
            let (succeeded, attempted) = r.circumvention_rate(platform);
            assert!(succeeded <= attempted);
            let pinned: std::collections::BTreeSet<&String> = r
                .platform_records(platform)
                .iter()
                .flat_map(|rec| rec.pinned_destinations.iter())
                .collect();
            assert_eq!(attempted, pinned.len());
        }
    }
}
