//! Result plumbing shared by the workloads: the metric catalogue, order
//! statistics, output digests, cache-counter deltas and the JSON line.

use crate::trace::Tracer;
use pinning_pki::cache::CacheStat;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload never enters reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Stream: the per-shard path of `StreamEngine`.
    ("store.shard.self_s", "s"),
    ("store.shard.shards", "count"),
    ("analysis.dynamics.self_s", "s"),
    ("analysis.dynamics.apps", "count"),
    ("analysis.dynamics.handshakes", "count"),
    ("analysis.dynamics.settled_reruns", "count"),
    ("analysis.statics.self_s", "s"),
    ("analysis.statics.packages", "count"),
    ("analysis.circumvent.self_s", "s"),
    ("analysis.circumvent.apps", "count"),
    ("core.record.self_s", "s"),
    ("core.accum.self_s", "s"),
    ("core.accum.bodies_scanned", "count"),
    ("core.stream.journal.self_s", "s"),
    ("core.stream.journal.bytes", "bytes"),
    // Study: world generation, the per-app replica, and rendering.
    ("store.world.self_s", "s"),
    ("core.study.run_s", "s"),
    ("core.datasets.self_s", "s"),
    ("analysis.statics_cached.self_s", "s"),
    ("core.journal.self_s", "s"),
    ("core.journal.bytes", "bytes"),
    ("report.render_all.self_s", "s"),
    ("report.table3.self_s", "s"),
    ("report.table6.self_s", "s"),
    ("report.table9.self_s", "s"),
    ("report.ct.self_s", "s"),
    // Epoch: the public `Evolution` calls.
    ("epoch.next_epoch.self_s", "s"),
    ("epoch.full_report.self_s", "s"),
    ("epoch.replayed", "count"),
    ("epoch.reanalyzed", "count"),
    // Serve: one `PinService` pass and its summary.
    ("serve.run.self_s", "s"),
    ("serve.requests", "count"),
    ("serve.served_ok", "count"),
    ("serve.degraded", "count"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_breaker_open", "count"),
    ("serve.shed_degraded", "count"),
    ("serve.timed_out", "count"),
    ("serve.backend_failed", "count"),
    ("serve.retries", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.brownout_entries", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.latency_p99_ticks", "ticks"),
    // Process-global memo traffic (hit/miss deltas over one round).
    ("pki.validate.chain_validation.hits", "count"),
    ("pki.validate.chain_validation.misses", "count"),
    ("analysis.certs.pki_classification.hits", "count"),
    ("analysis.certs.pki_classification.misses", "count"),
    ("analysis.statics.static_scan.hits", "count"),
    ("analysis.statics.static_scan.misses", "count"),
    ("analysis.pii.pii_scan.hits", "count"),
    ("analysis.pii.pii_scan.misses", "count"),
    ("ctlog.merkle.proof_batch.hits", "count"),
    ("ctlog.merkle.proof_batch.misses", "count"),
    ("pki.cert.der.hits", "count"),
    ("pki.cert.der.misses", "count"),
    ("pki.cert.fingerprint.hits", "count"),
    ("pki.cert.fingerprint.misses", "count"),
    ("pki.cert.spki_sha256.hits", "count"),
    ("pki.cert.spki_sha256.misses", "count"),
    ("pki.cert.spki_sha1.hits", "count"),
    ("pki.cert.spki_sha1.misses", "count"),
    ("pki.cert.pin_string.hits", "count"),
    ("pki.cert.pin_string.misses", "count"),
    // Traced round time over untraced round time, minus one, in percent.
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks, one line each (empty = correct).
    pub failures: Vec<String>,
    /// Observations worth a look that do not make the run incorrect.
    pub notes: Vec<String>,
    /// Items attempted over the timed (or traced) rounds.
    pub attempted: u64,
    /// Items that came back as degraded records or wrong answers.
    pub failed: u64,
    /// Metric values by name; units come from the catalogue.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets a metric, which must be in `catalogue`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Renders the result line for `catalogue`: every catalogued metric,
    /// 0 for a layer this workload never entered. Names outside the
    /// catalogue are a bug in the benchmark and fail the run.
    pub fn json_line(&self, catalogue: &[(&str, &str)]) -> String {
        let unknown: Vec<&String> = self
            .metrics
            .keys()
            .filter(|k| !catalogue.iter().any(|(n, _)| n == k))
            .collect();
        let correct = self.failures.is_empty() && unknown.is_empty();
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(*name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile (`num/den`) of a sample.
pub fn percentile(values: &[u64], num: u64, den: u64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = (v.len() as u64 * num).div_ceil(den).max(1) as usize;
    v[rank.min(v.len()) - 1]
}

/// Hex SHA-256 of an output.
pub fn digest(bytes: &[u8]) -> String {
    pinning_crypto::sha256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Peak resident-set size (VmHWM) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    pinning_core::stream::peak_rss_kib().map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Clears every process-global memo through its public `clear_*`
/// function, so the next round pays what a fresh process pays.
pub fn clear_memos() {
    pinning_pki::validate::clear_validation_cache();
    pinning_analysis::certs::clear_classification_cache();
    pinning_analysis::statics::clear_static_scan_cache();
    pinning_analysis::pii::clear_pii_scan_cache();
}

/// Every counted process-global memo, paired with its metric prefix.
fn counters() -> [(&'static str, CacheStat); 10] {
    use pinning_pki::cache as c;
    [
        (
            "pki.validate.chain_validation",
            c::CHAIN_VALIDATION.snapshot(),
        ),
        (
            "analysis.certs.pki_classification",
            pinning_analysis::certs::PKI_CLASSIFICATION.snapshot(),
        ),
        (
            "analysis.statics.static_scan",
            pinning_analysis::statics::STATIC_SCAN.snapshot(),
        ),
        (
            "analysis.pii.pii_scan",
            pinning_analysis::pii::PII_SCAN.snapshot(),
        ),
        (
            "ctlog.merkle.proof_batch",
            pinning_ctlog::merkle::PROOF_BATCH.snapshot(),
        ),
        ("pki.cert.der", c::CERT_DER.snapshot()),
        ("pki.cert.fingerprint", c::CERT_FINGERPRINT.snapshot()),
        ("pki.cert.spki_sha256", c::CERT_SPKI_SHA256.snapshot()),
        ("pki.cert.spki_sha1", c::CERT_SPKI_SHA1.snapshot()),
        ("pki.cert.pin_string", c::CERT_PIN_STRING.snapshot()),
    ]
}

/// A reading of every memo counter, to diff against a later one.
pub struct CacheMark([(&'static str, CacheStat); 10]);

impl CacheMark {
    /// Reads the counters now.
    pub fn now() -> CacheMark {
        CacheMark(counters())
    }

    /// Hit and miss counts since this mark, as `(metric name, count)`
    /// pairs in catalogue order.
    pub fn delta(&self) -> Vec<(String, f64)> {
        counters()
            .iter()
            .zip(&self.0)
            .flat_map(|((prefix, now), (_, base))| {
                let d = now.delta_since(base);
                [
                    (format!("{prefix}.hits"), d.hits as f64),
                    (format!("{prefix}.misses"), d.misses as f64),
                ]
            })
            .collect()
    }
}

/// Per-round values of each named count or time, reduced at the end.
#[derive(Debug, Default)]
pub struct Rounds {
    values: BTreeMap<String, Vec<f64>>,
}

impl Rounds {
    /// Adds one round's value of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push(value);
    }

    /// Adds one traced round's self time per layer, as `<layer>.self_s`.
    pub fn spans(&mut self, tracer: &Tracer) {
        for (name, value) in tracer.self_times() {
            self.push(&format!("{name}.self_s"), value);
        }
    }

    /// Adds one round's worth of `(name, value)` pairs.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = (String, f64)>) {
        for (name, value) in pairs {
            self.push(&name, value);
        }
    }

    /// Writes each value's median into `out`. Names ending in `_s` or
    /// `_pct` are timings; every other name is a count, which must read
    /// the same in every round. With `memo_exact` false, a memo hit/miss
    /// count that differs is only noted.
    pub fn finish(self, out: &mut Outcome, memo_exact: bool) {
        for (name, values) in self.values {
            if !is_timing(&name) && values.iter().any(|v| *v != values[0]) {
                let what = format!("count {name} differs between rounds: {values:?}");
                if memo_exact || !is_memo_count(&name) {
                    out.failures.push(what);
                } else {
                    out.notes.push(what);
                }
            }
            out.set(&name, median(&values));
        }
    }
}

/// `trace.overhead_pct`: median traced round time over median untraced
/// round time, minus one, in percent.
pub fn set_overhead(out: &mut Outcome, traced: &[f64], untraced: &[f64]) {
    out.set(
        "trace.overhead_pct",
        (median(traced) / median(untraced) - 1.0) * 100.0,
    );
}

/// Whether a metric is a timing (as opposed to a count).
pub fn is_timing(name: &str) -> bool {
    name.ends_with("_s") || name.ends_with("_pct")
}

/// Whether a metric counts process-global memo hits or misses.
pub fn is_memo_count(name: &str) -> bool {
    name.ends_with(".hits") || name.ends_with(".misses")
}

/// Checks that every round produced the same output digest.
pub fn check_digests(out: &mut Outcome, what: &str, digests: &[String]) {
    let first = digests.first();
    out.check(
        first.is_some() && digests.iter().all(|d| Some(d) == first),
        || format!("{what} digest differs between rounds: {digests:?}"),
    );
}
