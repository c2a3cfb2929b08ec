//! Connection security (§5.4, Table 8): weak-cipher advertisement in
//! pinned vs all connections.

use crate::dynamics::pipeline::AppDynamicResult;
use pinning_netsim::flow::Capture;
use std::collections::BTreeSet;

/// Whether any flow in `capture` advertised a weak cipher suite.
pub fn any_weak_offer(capture: &Capture) -> bool {
    capture
        .flows
        .iter()
        .any(|f| f.transcript.offered_ciphers.iter().any(|c| c.is_weak()))
}

/// Whether any flow *to a pinned destination* advertised a weak suite.
pub fn any_weak_pinned_offer(result: &AppDynamicResult) -> bool {
    let pinned: BTreeSet<&str> = result.pinned_destinations().into_iter().collect();
    result
        .baseline
        .flows
        .iter()
        .filter(|f| {
            f.transcript
                .sni
                .as_deref()
                .is_some_and(|s| pinned.contains(s))
        })
        .any(|f| f.transcript.offered_ciphers.iter().any(|c| c.is_weak()))
}

/// One Table 8 row: a (dataset, platform) cell pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeakCipherRow {
    /// Apps with ≥1 weak-advertising connection / total apps.
    pub overall_pct: f64,
    /// Pinning apps with ≥1 weak-advertising *pinned* connection / pinning
    /// apps.
    pub pinning_pct: f64,
    /// Denominators, for auditability.
    pub total_apps: usize,
    /// Number of pinning apps.
    pub pinning_apps: usize,
}
