//! Compact per-app measurement records.
//!
//! The raw dynamic pipeline keeps full packet transcripts; at paper scale
//! that is gigabytes. [`AppRecord`] keeps exactly the observables the
//! tables and figures consume, so a full study fits comfortably in memory.

use crate::journal::{AppOutcome, JournalEntry, MeasuredApp};
use pinning_analysis::circumvent::{circumvent_app, CircumventionResult};
use pinning_analysis::dynamics::pipeline::{try_analyze_app, AppDynamicResult, DynamicEnv};
use pinning_analysis::security::{any_weak_offer, any_weak_pinned_offer};
use pinning_analysis::statics::StaticFindings;
use pinning_app::app::MobileApp;
use pinning_app::platform::AppId;
use pinning_netsim::faults::MeasurementError;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Summary of §4.3 circumvention for one app.
#[derive(Debug, Clone, Default)]
pub struct CircumventionSummary {
    /// Pinned destinations attempted.
    pub attempted: Vec<String>,
    /// Destinations successfully opened.
    pub succeeded: Vec<String>,
}

/// Everything the study keeps per app.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// Index into the world's app list.
    pub app_index: usize,
    /// App identity.
    pub id: AppId,
    /// §4.1 static findings (paths kept for Table 7 attribution).
    pub static_findings: StaticFindings,
    /// Destinations detected as pinned (§4.2).
    pub pinned_destinations: Vec<String>,
    /// Destinations used at least once in the baseline run (OS noise
    /// excluded).
    pub used_destinations: Vec<String>,
    /// ≥1 connection advertised a weak cipher (Table 8 "Overall").
    pub weak_overall: bool,
    /// ≥1 *pinned* connection advertised a weak cipher (Table 8 "Pinning").
    pub weak_pinned: bool,
    /// Decrypted request bodies from circumvented pinned connections.
    pub pinned_bodies: Vec<String>,
    /// Decrypted request bodies from ordinary MITM'd (unpinned) flows.
    pub unpinned_bodies: Vec<String>,
    /// §4.3 circumvention summary (None when the app does not pin).
    pub circumvention: Option<CircumventionSummary>,
    /// TLS handshakes observed in the baseline capture (§4.2.1).
    pub n_handshakes_baseline: usize,
    /// Whether the iOS settle re-run was applied (§4.5).
    pub settled_rerun: bool,
    /// Circuit-breaker trips across this app's endpoints (0 when breakers
    /// are disabled or no endpoint faulted persistently).
    pub breaker_trips: u32,
    /// Why the dynamic measurement degraded, if it did. Degraded apps
    /// keep their static findings but contribute nothing to the dynamic
    /// tables — they are *unobserved*, not "not pinning".
    pub error: Option<MeasurementError>,
}

impl AppRecord {
    /// Builds the compact record, discarding the transcripts.
    pub fn assemble(
        app_index: usize,
        id: AppId,
        static_findings: StaticFindings,
        dynamic: &AppDynamicResult,
        circumvention: Option<&CircumventionResult>,
    ) -> Self {
        let pinned_destinations: Vec<String> = dynamic
            .pinned_destinations()
            .into_iter()
            .map(str::to_string)
            .collect();
        let pinned_set: BTreeSet<&str> = pinned_destinations.iter().map(String::as_str).collect();
        let used_destinations: Vec<String> = dynamic
            .used_destinations()
            .into_iter()
            .map(str::to_string)
            .collect();

        // Unpinned plaintext comes from the ordinary MITM capture.
        let unpinned_bodies: Vec<String> = dynamic
            .mitm
            .flows
            .iter()
            .filter(|f| {
                f.transcript
                    .sni
                    .as_deref()
                    .is_some_and(|s| !pinned_set.contains(s))
            })
            .filter_map(|f| f.decrypted_request.clone())
            .collect();

        // Pinned plaintext requires circumvention.
        let mut pinned_bodies = Vec::new();
        let circumvention_summary = circumvention.map(|c| {
            let mut s = CircumventionSummary::default();
            for d in &c.destinations {
                s.attempted.push(d.destination.clone());
                if d.succeeded {
                    s.succeeded.push(d.destination.clone());
                    pinned_bodies.extend(d.plaintexts.iter().cloned());
                }
            }
            s
        });

        AppRecord {
            app_index,
            id,
            weak_overall: any_weak_offer(&dynamic.baseline),
            weak_pinned: any_weak_pinned_offer(dynamic),
            n_handshakes_baseline: dynamic.baseline.n_handshakes(),
            settled_rerun: dynamic.settled_rerun,
            breaker_trips: dynamic.breaker_trips,
            static_findings,
            pinned_destinations,
            used_destinations,
            pinned_bodies,
            unpinned_bodies,
            circumvention: circumvention_summary,
            error: None,
        }
    }

    /// A record for an app whose dynamic measurement could not be
    /// completed (every retry faulted). Static findings are kept — the
    /// package was still analyzed — but all dynamic observables are empty.
    pub fn failed(
        app_index: usize,
        id: AppId,
        static_findings: StaticFindings,
        error: MeasurementError,
    ) -> Self {
        AppRecord {
            app_index,
            id,
            static_findings,
            pinned_destinations: Vec::new(),
            used_destinations: Vec::new(),
            weak_overall: false,
            weak_pinned: false,
            pinned_bodies: Vec::new(),
            unpinned_bodies: Vec::new(),
            circumvention: None,
            n_handshakes_baseline: 0,
            settled_rerun: false,
            breaker_trips: 0,
            error: Some(error),
        }
    }

    /// The journal entry this record commits: its dynamic observables, or
    /// the error that degraded it.
    pub fn to_entry(&self) -> JournalEntry {
        JournalEntry {
            app_index: self.app_index as u64,
            outcome: match self.error {
                Some(error) => AppOutcome::Failed(error),
                None => AppOutcome::Measured(Box::new(self.to_measured())),
            },
        }
    }

    /// Rebuilds the record a journal entry committed for `app`, with the
    /// app's static findings. Inverse of [`AppRecord::to_entry`].
    pub fn replay(entry: &JournalEntry, app: &MobileApp, static_findings: StaticFindings) -> Self {
        let app_index = entry.app_index as usize;
        match &entry.outcome {
            AppOutcome::Measured(m) => {
                AppRecord::from_measured(app_index, app.id.clone(), static_findings, m)
            }
            AppOutcome::Failed(error) => {
                AppRecord::failed(app_index, app.id.clone(), static_findings, *error)
            }
        }
    }

    /// The journal image of this record's dynamic observables. Everything
    /// else ([`AppRecord::id`], [`AppRecord::static_findings`]) is
    /// recomputed from the regenerated world on replay.
    pub fn to_measured(&self) -> MeasuredApp {
        MeasuredApp {
            pinned_destinations: self.pinned_destinations.clone(),
            used_destinations: self.used_destinations.clone(),
            weak_overall: self.weak_overall,
            weak_pinned: self.weak_pinned,
            pinned_bodies: self.pinned_bodies.clone(),
            unpinned_bodies: self.unpinned_bodies.clone(),
            circumvention: self
                .circumvention
                .as_ref()
                .map(|c| (c.attempted.clone(), c.succeeded.clone())),
            n_handshakes_baseline: self.n_handshakes_baseline as u64,
            settled_rerun: self.settled_rerun,
            breaker_trips: self.breaker_trips,
        }
    }

    /// Rebuilds a record from a journaled [`MeasuredApp`] plus the
    /// world-derived fields. Inverse of [`AppRecord::to_measured`].
    pub fn from_measured(
        app_index: usize,
        id: AppId,
        static_findings: StaticFindings,
        m: &MeasuredApp,
    ) -> Self {
        AppRecord {
            app_index,
            id,
            static_findings,
            pinned_destinations: m.pinned_destinations.clone(),
            used_destinations: m.used_destinations.clone(),
            weak_overall: m.weak_overall,
            weak_pinned: m.weak_pinned,
            pinned_bodies: m.pinned_bodies.clone(),
            unpinned_bodies: m.unpinned_bodies.clone(),
            circumvention: m.circumvention.as_ref().map(|(attempted, succeeded)| {
                CircumventionSummary {
                    attempted: attempted.clone(),
                    succeeded: succeeded.clone(),
                }
            }),
            n_handshakes_baseline: m.n_handshakes_baseline as usize,
            settled_rerun: m.settled_rerun,
            breaker_trips: m.breaker_trips,
            error: None,
        }
    }

    /// §5's pinning-app definition.
    pub fn pins(&self) -> bool {
        !self.pinned_destinations.is_empty()
    }

    /// Whether the dynamic measurement degraded.
    pub fn degraded(&self) -> bool {
        self.error.is_some()
    }
}

/// Measures one app (§4.2–4.3): the baseline and MITM runs, then
/// circumvention of every destination found pinned, kept as a compact
/// record with `static_findings`. An app whose runs keep degrading past
/// the retry budget becomes an [`AppRecord::failed`] record.
pub(crate) fn measure_app(
    env: &DynamicEnv<'_>,
    app_index: usize,
    app: &MobileApp,
    static_findings: StaticFindings,
) -> AppRecord {
    match try_analyze_app(env, app) {
        Ok(dynamic) => {
            let pinned = dynamic.pinned_destinations();
            let circ = (!pinned.is_empty()).then(|| circumvent_app(env, app, &pinned));
            AppRecord::assemble(
                app_index,
                app.id.clone(),
                static_findings,
                &dynamic,
                circ.as_ref(),
            )
        }
        Err(error) => AppRecord::failed(app_index, app.id.clone(), static_findings, error),
    }
}

/// Runs `measure` under panic isolation: a measurement that panics
/// degrades this one app to a [`MeasurementError::WorkerPanic`] record
/// (no static findings) instead of unwinding through the run.
pub(crate) fn isolated(
    app_index: usize,
    app: &MobileApp,
    measure: impl FnOnce() -> AppRecord,
) -> AppRecord {
    catch_unwind(AssertUnwindSafe(measure)).unwrap_or_else(|_| {
        AppRecord::failed(
            app_index,
            app.id.clone(),
            StaticFindings::default(),
            MeasurementError::WorkerPanic,
        )
    })
}
