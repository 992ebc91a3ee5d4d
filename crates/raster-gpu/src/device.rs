//! GPU device model: the limits of the device a query runs on, and the
//! closed form that charges its bus.
//!
//! The paper limits GPU memory to 3 GB with a maximum FBO resolution of
//! 8192² (§7.1). [`Device`] holds exactly those two limits — the memory
//! budget sets the points per out-of-core batch, the FBO cap sets the
//! canvas tiles — and nothing else: it is a plain `Copy` value that any
//! number of concurrent queries may share.
//!
//! The paper's experiments also split query time into *processing* and
//! *memory transfer* (Figs. 9, 11, 13). Running on a software rasterizer
//! there is no PCIe bus, and the §5 contract — every point byte crosses
//! the bus once per query — makes the transfer a closed form of bytes:
//! each executor counts the bytes it ships into its own
//! `ExecStats::{upload_bytes, download_bytes}` and charges them through
//! [`modelled_transfer`].

use std::time::Duration;

/// The modelled bandwidth divides the physical PCIe figure by this
/// calibration constant: the software rasterizer's fragment/point
/// throughput is roughly this factor below the paper's GTX 1060, so
/// scaling the bus by the same factor keeps the **transfer : processing
/// ratio** — the quantity Figs. 9/11/13 actually report — faithful.
pub const SIM_SLOWDOWN: f64 = 256.0;

/// Modelled host↔device bandwidth in bytes/second: 12 GB/s (PCIe 3.0 ×16
/// achievable) ÷ [`SIM_SLOWDOWN`].
pub const PCIE_BANDWIDTH: f64 = 12e9 / SIM_SLOWDOWN;

/// Modelled time to ship `bytes` across the bus at [`PCIE_BANDWIDTH`].
/// Never slept: it is reported beside measured time, not inside it.
pub fn modelled_transfer(bytes: u64) -> Duration {
    Duration::from_secs_f64(bytes as f64 / PCIE_BANDWIDTH)
}

/// Static device limits (defaults follow §7.1's configuration).
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// GPU memory budget for point data, in bytes (paper: 3 GB).
    pub memory_budget: usize,
    /// Maximum FBO dimension per axis (paper: 8192).
    pub max_fbo_dim: u32,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::small(3 << 30, 8192)
    }
}

impl DeviceConfig {
    /// A small test/bench configuration that forces multi-batch execution
    /// at laptop-scale point counts.
    pub fn small(memory_budget: usize, max_fbo_dim: u32) -> Self {
        DeviceConfig {
            memory_budget,
            max_fbo_dim,
        }
    }
}

/// The device: its limits, nothing more.
#[derive(Debug, Clone, Copy, Default)]
pub struct Device {
    config: DeviceConfig,
}

impl Device {
    pub fn new(config: DeviceConfig) -> Self {
        Device { config }
    }

    pub fn config(&self) -> DeviceConfig {
        self.config
    }

    /// Largest number of points (each `point_bytes` wide) resident at once.
    pub fn points_per_batch(&self, point_bytes: usize) -> usize {
        (self.config.memory_budget / point_bytes.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_config() {
        let c = DeviceConfig::default();
        assert_eq!(c.memory_budget, 3 << 30);
        assert_eq!(c.max_fbo_dim, 8192);
    }

    #[test]
    fn points_per_batch_floor() {
        let d = Device::new(DeviceConfig::small(100, 64));
        assert_eq!(d.points_per_batch(8), 12);
        assert_eq!(d.points_per_batch(0), 100); // degenerate width clamps
    }

    #[test]
    fn modelled_time_is_bytes_over_bandwidth() {
        assert_eq!(modelled_transfer(0), Duration::ZERO);
        let t = modelled_transfer(2 * PCIE_BANDWIDTH as u64);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
    }
}
