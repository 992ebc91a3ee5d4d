//! Execution statistics.
//!
//! The paper's figures break total query time into *processing* (time on
//! the GPU) and *memory transfer* (Fig. 9 right, Fig. 11, Fig. 13 right).
//! Each executor fills an [`ExecStats`] so the bench harness can print the
//! same decomposition.
//!
//! # Streamed scans
//!
//! A streamed scan (`stream.rs`) bins its chunks on a pool, absorbs their
//! deltas on one consumer into canvases it keeps for the whole scan and
//! draws the polygons once — the in-memory joins' lifecycle, whose
//! batches are upload accounting. In its merged stats:
//!
//! * the point-stage timers (`binning`, `point_stage`) fold additively
//!   across chunks and workers, so they report *cumulative worker time*
//!   and may sum past wall clock when chunks overlap; `batches` counts
//!   chunks;
//! * `polygon_stage`, `spans` and `fragments` come from the one resolve —
//!   reported once, not once per chunk — and `passes` is the canvas tile
//!   count (not tiles × chunks), plus one for the accurate outline pass,
//!   as in memory;
//! * the measured split stays wall-clock honest: `processing` is the
//!   union of the intervals during which planning ran or ≥ 1 thread was
//!   decoding, binning, blending or resolving, and `disk` is the rest of
//!   the scan's wall clock, so `processing + disk` tracks the scan's
//!   elapsed time; `total()` adds the modelled transfer, which is never
//!   slept, on top of it.

use raster_gpu::device::modelled_transfer;
use std::time::Duration;

/// Statistics of one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Wall-clock compute time (the "GPU processing" component).
    pub processing: Duration,
    /// Modelled CPU↔GPU transfer time: `upload_bytes + download_bytes`
    /// through `raster_gpu::device::modelled_transfer`, set once at the
    /// run's exit (`settle_transfer`). Never slept, so not
    /// part of any measured time.
    pub transfer: Duration,
    /// Wall-clock time spent reading from disk (Fig. 13 only; zero for
    /// in-memory executions).
    pub disk: Duration,
    /// Bytes shipped host→device.
    pub upload_bytes: u64,
    /// Bytes shipped device→host (results, materialized pairs).
    pub download_bytes: u64,
    /// Wall-clock time classifying points into the binner's (tile × band)
    /// staging (subset of `point_stage`).
    pub binning: Duration,
    /// Entries the binner staged for the canvas (points kept, on the
    /// canvas and — in the exact join — off its outline).
    pub binned_points: u64,
    /// Wall-clock time of the point stage — binning points, blending them
    /// into dense canvases or staging them for runs tiles and building
    /// those runs, including binning time (subset of `processing`;
    /// recorded per run by the planner's calibration bench as a sanity
    /// check on the fitted stage weights).
    pub point_stage: Duration,
    /// Wall-clock time of the polygon stage — folding the prepared span
    /// tables' pixel partials into result slots, plus the accurate join's
    /// outline pass where a run charges it (subset of `processing`;
    /// recorded per run by the planner's calibration bench as a sanity
    /// check on the fitted stage weights). Scan conversion is
    /// preparation, in `triangulation`.
    pub polygon_stage: Duration,
    /// Out-of-core point batches executed (§5).
    pub batches: u32,
    /// Rendering passes executed (Fig. 5): the canvas tiles, once per
    /// query however many batches or chunks it took.
    pub passes: u32,
    /// Of `passes`, those whose canvas tile was a runs tile — its kept
    /// batches, each band blended and folded in the resolve's band pass —
    /// rather than a dense FBO: the density gate of
    /// `raster_gpu::ResidentCanvases` at work, in memory as streamed.
    pub runs_passes: u32,
    /// Point-in-polygon tests performed (the cost the paper eliminates).
    pub pip_tests: u64,
    /// Polygon fragments processed by the fragment shader: pixels of the
    /// spans folded.
    pub fragments: u64,
    /// Polygon spans folded: a span table's length per polygon pass.
    pub spans: u64,
    /// Join pairs materialized (materializing baselines only).
    pub materialized_pairs: u64,
    /// Candidate pairs produced by the filtering step (two-step baseline
    /// only): MBR hits handed to refinement, before PIP pruning.
    pub candidate_pairs: u64,
    /// Polygon preparation, reported separately (Table 1): reading the
    /// rings and scan-converting them into one span table per canvas tile
    /// (`polygon_pass::PolygonSide::prepare`) in every raster join and
    /// every composition of one. Nothing in `raster-join` triangulates;
    /// the field keeps the paper's name for the step.
    pub triangulation: Duration,
    /// Time spent building the polygon index (reported separately, Table 1).
    pub index_build: Duration,
}

impl ExecStats {
    /// The paper's "total time": processing + transfer (+ disk when
    /// present). Polygon preprocessing is excluded, as in §7.1
    /// ("we do not include the polygon processing time in the reported
    /// query execution time").
    pub fn total(&self) -> Duration {
        self.processing + self.transfer + self.disk
    }

    /// Fold in the stats of another run against the same preparation — a
    /// chunk of a streamed scan, or one pass of a composition of the
    /// bounded join (`multi`, `moments`, `temporal`): the per-run
    /// quantities (times, bytes, batches, passes, work counters) add; the
    /// per-query preparation times (`triangulation`, `index_build`) take
    /// the maximum, since every run reports the same one-off preparation.
    pub(crate) fn fold(&mut self, o: &ExecStats) {
        self.processing += o.processing;
        self.transfer += o.transfer;
        self.disk += o.disk;
        self.upload_bytes += o.upload_bytes;
        self.download_bytes += o.download_bytes;
        self.binning += o.binning;
        self.binned_points += o.binned_points;
        self.point_stage += o.point_stage;
        self.polygon_stage += o.polygon_stage;
        self.batches += o.batches;
        self.passes += o.passes;
        self.runs_passes += o.runs_passes;
        self.pip_tests += o.pip_tests;
        self.fragments += o.fragments;
        self.spans += o.spans;
        self.materialized_pairs += o.materialized_pairs;
        self.candidate_pairs += o.candidate_pairs;
        self.triangulation = self.triangulation.max(o.triangulation);
        self.index_build = self.index_build.max(o.index_build);
    }

    /// Charge the bytes this run shipped: `transfer` becomes their
    /// modelled bus time. Called once, at the run's exit.
    pub(crate) fn settle_transfer(&mut self) {
        self.transfer = modelled_transfer(self.upload_bytes + self.download_bytes);
    }

    /// Total including the polygon preprocessing components.
    pub fn total_with_preprocessing(&self) -> Duration {
        self.total() + self.triangulation + self.index_build
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_compose() {
        let s = ExecStats {
            processing: Duration::from_millis(100),
            transfer: Duration::from_millis(40),
            disk: Duration::from_millis(10),
            triangulation: Duration::from_millis(5),
            index_build: Duration::from_millis(3),
            ..Default::default()
        };
        assert_eq!(s.total(), Duration::from_millis(150));
        assert_eq!(s.total_with_preprocessing(), Duration::from_millis(158));
    }

    #[test]
    fn default_is_zeroed() {
        let s = ExecStats::default();
        assert_eq!(s.total(), Duration::ZERO);
        assert_eq!(s.pip_tests, 0);
        assert_eq!(s.fragments, 0);
        assert_eq!(s.binning, Duration::ZERO);
        assert_eq!(s.binned_points, 0);
        assert_eq!(s.point_stage, Duration::ZERO);
        assert_eq!(s.polygon_stage, Duration::ZERO);
    }

    #[test]
    fn binning_and_merge_are_subsets_of_processing() {
        // They are sub-measurements, not additional components: total()
        // must not double-count them.
        let s = ExecStats {
            processing: Duration::from_millis(100),
            binning: Duration::from_millis(30),
            point_stage: Duration::from_millis(50),
            ..Default::default()
        };
        assert_eq!(s.total(), Duration::from_millis(100));
    }
}
