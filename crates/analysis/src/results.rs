//! Shared per-app result record.

use crate::circumvent::CircumventionResult;
use crate::dynamics::pipeline::AppDynamicResult;
use crate::statics::StaticFindings;
use pinning_app::platform::AppId;

/// Everything the pipelines produced for one app.
#[derive(Debug, Clone)]
pub struct AppAnalysis {
    /// Index into the world's app list.
    pub app_index: usize,
    /// The app's identity.
    pub id: AppId,
    /// §4.1 static findings.
    pub static_findings: StaticFindings,
    /// §4.2 dynamic result.
    pub dynamic: AppDynamicResult,
    /// §4.3 circumvention result (only for apps with pinned destinations).
    pub circumvention: Option<CircumventionResult>,
}

impl AppAnalysis {
    /// §5's definition: the app pins iff dynamic analysis saw a pinned
    /// connection.
    pub fn pins(&self) -> bool {
        self.dynamic.pins()
    }
}
