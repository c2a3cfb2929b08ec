//! Sleep-time calibration (§4.2.1): how long to capture after launch.
//!
//! The paper tried 15/30/60 s windows on a small random app sample and
//! measured average TLS handshake counts of 20.78 / 23.5 / 24.62,
//! concluding 30 s captures the vast majority of connections. This module
//! reruns that sweep on the simulated devices.

use super::pipeline::DynamicEnv;
use pinning_app::app::MobileApp;
use pinning_netsim::device::RunConfig;

/// Result of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepSweep {
    /// The windows tested, seconds.
    pub windows: Vec<u32>,
    /// Mean handshake count per window, same order.
    pub mean_handshakes: Vec<f64>,
    /// Number of apps sampled.
    pub sample_size: usize,
}

/// Runs the sweep over `apps` with the given windows (paper: 15/30/60).
pub fn sleep_time_sweep(env: &DynamicEnv<'_>, apps: &[&MobileApp], windows: &[u32]) -> SleepSweep {
    let mut mean_handshakes = Vec::with_capacity(windows.len());
    for &w in windows {
        let mut total = 0usize;
        for app in apps {
            let device = env.device(app.id.platform);
            let mut cfg = RunConfig::baseline();
            cfg.window_secs = w;
            cfg.run_tag = "calibration".to_string();
            let capture = device.run_app(app, &cfg);
            total += capture.n_handshakes();
        }
        mean_handshakes.push(total as f64 / apps.len().max(1) as f64);
    }
    SleepSweep {
        windows: windows.to_vec(),
        mean_handshakes,
        sample_size: apps.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_store::config::WorldConfig;
    use pinning_store::world::World;

    #[test]
    fn longer_windows_capture_more_with_diminishing_returns() {
        let w = World::generate(WorldConfig::tiny(0x515));
        let env = DynamicEnv::new(
            &w.network,
            w.universe.aosp_oem.clone(),
            w.universe.ios.clone(),
            w.now,
            1,
        );
        let apps: Vec<&_> = w.apps.iter().take(12).collect();
        let sweep = sleep_time_sweep(&env, &apps, &[15, 30, 60]);
        assert_eq!(sweep.mean_handshakes.len(), 3);
        // Monotone non-decreasing.
        assert!(sweep.mean_handshakes[0] <= sweep.mean_handshakes[1]);
        assert!(sweep.mean_handshakes[1] <= sweep.mean_handshakes[2]);
        // Diminishing returns: the 15→30 jump exceeds the 30→60 jump, and
        // 30 s already captures ≥90% (the paper's rationale for choosing it).
        let f: Vec<f64> = sweep
            .mean_handshakes
            .iter()
            .map(|m| m / sweep.mean_handshakes[2])
            .collect();
        assert!(f[1] >= 0.90, "30s fraction {}", f[1]);
        assert!(f[0] >= 0.70, "15s fraction {}", f[0]);
    }
}
