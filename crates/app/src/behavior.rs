//! Runtime network behaviour: what an app does when launched.

use crate::pii::PiiType;
use pinning_tls::TlsLibrary;

/// UI interaction mode for a dynamic run.
///
/// The paper experimented with random UI automation and found no
/// significant change in contacted domains (§4.2.1), so the main pipeline
/// runs with [`Interaction::None`]; the other modes exist so the
/// calibration experiment can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interaction {
    /// Launch only, no input (the study default).
    None,
    /// Random monkey-style taps.
    RandomUi,
    /// Scripted login (out of the paper's scope; extension hook).
    Login,
}

/// One connection the app plans to open after launch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedConnection {
    /// Destination hostname.
    pub domain: String,
    /// Seconds after launch at which the connection starts.
    pub at_secs: u32,
    /// TLS stack used for this connection.
    pub library: TlsLibrary,
    /// Index into the app's pin-rule list if this connection enforces a pin
    /// rule at run time.
    pub pin_rule: Option<usize>,
    /// PII carried in the request body.
    pub pii: Vec<PiiType>,
    /// Additional request payload bytes beyond the PII fields.
    pub extra_bytes: usize,
    /// Connection is opened but never used for application data (the
    /// "redundant connections" confounder of §4.2.2).
    pub redundant: bool,
    /// Whether the ClientHello advertises legacy/weak cipher suites
    /// (Table 8's per-connection predicate).
    pub offers_weak_ciphers: bool,
    /// Only fires when the run uses at least this interaction level.
    pub requires_interaction: Interaction,
    /// Whether the client sends SNI (a fixed property of the app's HTTP
    /// stack; ~99% of real connections carry it, §4.2.2).
    pub sends_sni: bool,
}

impl PlannedConnection {
    /// A simple used connection to `domain` at launch.
    pub fn simple(domain: impl Into<String>, library: TlsLibrary) -> Self {
        PlannedConnection {
            domain: domain.into(),
            at_secs: 1,
            library,
            pin_rule: None,
            pii: Vec::new(),
            extra_bytes: 256,
            redundant: false,
            offers_weak_ciphers: false,
            requires_interaction: Interaction::None,
            sends_sni: true,
        }
    }

    /// Whether the connection fires under `mode`.
    pub fn fires_under(&self, mode: Interaction) -> bool {
        match self.requires_interaction {
            Interaction::None => true,
            Interaction::RandomUi => mode != Interaction::None,
            Interaction::Login => mode == Interaction::Login,
        }
    }
}

/// The complete launch-time behaviour of an app.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppBehavior {
    /// Planned connections in schedule order.
    pub connections: Vec<PlannedConnection>,
}

impl AppBehavior {
    /// Connections that fire within `window_secs` of launch under `mode`.
    pub fn within_window(
        &self,
        window_secs: u32,
        mode: Interaction,
    ) -> impl Iterator<Item = &PlannedConnection> {
        self.connections
            .iter()
            .filter(move |c| c.at_secs <= window_secs && c.fires_under(mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn behavior() -> AppBehavior {
        let mut early = PlannedConnection::simple("a.com", TlsLibrary::OkHttp);
        early.at_secs = 2;
        let mut late = PlannedConnection::simple("b.com", TlsLibrary::OkHttp);
        late.at_secs = 45;
        let mut ui_only = PlannedConnection::simple("c.com", TlsLibrary::OkHttp);
        ui_only.requires_interaction = Interaction::RandomUi;
        AppBehavior {
            connections: vec![early, late, ui_only],
        }
    }

    fn domains_within(b: &AppBehavior, window_secs: u32, mode: Interaction) -> Vec<&str> {
        b.within_window(window_secs, mode)
            .map(|c| c.domain.as_str())
            .collect()
    }

    #[test]
    fn window_filters_by_time() {
        let b = behavior();
        assert_eq!(domains_within(&b, 30, Interaction::None), vec!["a.com"]);
        assert_eq!(
            domains_within(&b, 60, Interaction::None),
            vec!["a.com", "b.com"]
        );
    }

    #[test]
    fn interaction_gating() {
        let b = behavior();
        assert_eq!(
            domains_within(&b, 30, Interaction::RandomUi),
            vec!["a.com", "c.com"]
        );
        assert_eq!(
            domains_within(&b, 30, Interaction::Login),
            vec!["a.com", "c.com"]
        );
    }

    #[test]
    fn login_only_connection() {
        let mut c = PlannedConnection::simple("secure.com", TlsLibrary::OkHttp);
        c.requires_interaction = Interaction::Login;
        assert!(!c.fires_under(Interaction::None));
        assert!(!c.fires_under(Interaction::RandomUi));
        assert!(c.fires_under(Interaction::Login));
    }
}
