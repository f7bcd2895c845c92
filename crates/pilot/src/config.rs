//! Autopilot tuning parameters.

use std::time::Duration;

/// Configuration of the [`crate::Pilot`] control loop.
///
/// The defaults are sized for an interactive server (second-scale
/// cadence); tests and benches shrink every interval so the loop can be
/// stepped deterministically with [`crate::Pilot::run_once`].
#[derive(Debug, Clone)]
pub struct PilotConfig {
    /// How often the background thread wakes up to run one tick.
    pub cadence: Duration,
    /// Width of the sliding arrival-rate window the forecaster keeps.
    pub forecast_window: Duration,
    /// Ring-bucket count inside the forecast window.
    pub forecast_buckets: usize,
    /// Worker threads the forecast assumes the workload spreads over
    /// (feeds the interference model's per-thread totals).
    pub forecast_threads: usize,
    /// Minimum arrivals inside the window before the pilot plans at all —
    /// pricing a forecast of one stray query is noise, not signal.
    pub min_arrivals: u64,
    /// Minimum predicted relative gain (0.05 = 5% faster) an action must
    /// show before the pilot applies it.
    pub min_gain: f64,
    /// Quiet period after an action (applied, accepted, or reverted)
    /// before the next one may deploy.
    pub cooldown: Duration,
    /// How long observed statement latency is accumulated after an apply
    /// before the verify step judges the action.
    pub verify_window: Duration,
    /// Observed mean-latency regression (relative to the pre-apply
    /// window) that triggers a revert; 0.5 = revert when queries got
    /// more than 50% slower.
    pub revert_threshold: f64,
    /// Parallelism requested for pilot-built index builds.
    pub index_build_threads: usize,
    /// Seed for deterministic tie-breaking among equal-gain candidates.
    pub seed: u64,
}

impl Default for PilotConfig {
    fn default() -> PilotConfig {
        PilotConfig {
            cadence: Duration::from_secs(1),
            forecast_window: Duration::from_secs(10),
            forecast_buckets: 10,
            forecast_threads: 2,
            min_arrivals: 10,
            min_gain: 0.05,
            cooldown: Duration::from_secs(5),
            verify_window: Duration::from_secs(2),
            revert_threshold: 0.5,
            index_build_threads: 2,
            seed: 0,
        }
    }
}

impl PilotConfig {
    /// A configuration with every interval collapsed so tests can drive
    /// the loop tick-by-tick through [`crate::Pilot::run_once`] without
    /// real-time waits.
    pub fn fast() -> PilotConfig {
        PilotConfig {
            cadence: Duration::from_millis(5),
            forecast_window: Duration::from_secs(60),
            forecast_buckets: 6,
            min_arrivals: 1,
            cooldown: Duration::ZERO,
            verify_window: Duration::ZERO,
            ..PilotConfig::default()
        }
    }
}
