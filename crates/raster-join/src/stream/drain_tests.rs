//! The scan holds its canvases from the first chunk to the resolve, so
//! every way out of it must hand them back, and only the healthy way may
//! resolve them. `tests/chaos_properties.rs` sweeps failpoints through
//! the public entry point; these tests run the same `scan` against a
//! preparation they can still see afterwards. The faults here are in the
//! data (a garbled block of a required column), not in the process-wide
//! failpoint table, so the other unit tests' scans never see them: the
//! blocking arm meets the block in its reader (which re-reads it once,
//! to no avail), the pool meets it on a worker, at every width — over
//! canvases whose bands keep their entries and canvases with resident
//! bands, whose planes come from the pool.

use super::*;
use crate::optimizer::Variant;
use raster_data::disk::{table_meta, write_table_compressed};
use raster_data::generators::{nyc_extent, TaxiModel};
use raster_data::polygons::synthetic_polygons;
use raster_gpu::DeviceConfig;
use std::cell::Cell;

thread_local! {
    /// Resolves run on this thread (a scan resolves on its caller's).
    pub(super) static RESOLVES: Cell<u32> = const { Cell::new(0) };
}

#[test]
fn every_exit_returns_the_canvases_and_only_success_resolves() {
    let polys = synthetic_polygons(6, &nyc_extent(), 0xD8A1);
    let pts = TaxiModel::default().generate(6_000, 0xD8A1);
    let fare = pts.attr_index("fare").unwrap();
    let dev = Device::new(DeviceConfig::small(
        1_500 * PointTable::point_bytes(1),
        2048,
    ));
    let mut clean = std::env::temp_dir();
    clean.push(format!("rjr-drain-{}.bin", std::process::id()));
    let garbled = clean.with_extension("bad");
    write_table_compressed(&clean, &pts, 700).unwrap();
    // An unknown codec id on `fare` in stored chunk 7 — past the planning
    // sample, so the table opens and plans and the scan fails mid-stream.
    let mut bytes = std::fs::read(&clean).unwrap();
    let (off, _) = table_meta(&clean)
        .unwrap()
        .column_block_range(7, 2 + fare)
        .unwrap();
    bytes[off as usize] = 99;
    std::fs::write(&garbled, &bytes).unwrap();

    // Failures met on a pool worker / in the blocking arm's reader, and
    // healthy bounded scans whose bands all kept their entries / some of
    // whose bands turned resident.
    let (mut on_worker, mut in_reader) = (0, 0);
    let (mut over_runs, mut over_dense) = (0, 0);
    // ε = 150 m: one 547² tile, every band keeping its share of 6 000
    // rows; ε = 1.5 km: bands the rows outnumber.
    for (eps, exact) in [(150.0, false), (1_500.0, false), (150.0, true)] {
        let q = Query::avg(fare).with_epsilon(eps);
        for width in [1usize, 2, 4] {
            for blocking in [false, true] {
                for (path, healthy) in [(&clean, true), (&garbled, false)] {
                    let ctx =
                        format!("ε={eps} exact={exact} width={width} blocking={blocking} {path:?}");
                    let mut stream = StreamingRasterJoin::new(width).with_chunk_rows(451);
                    if blocking {
                        stream = stream.blocking();
                    }
                    let mut setup = stream.open_and_plan(path, &polys, &q, &dev).unwrap();
                    if exact {
                        setup.plan.variant = Variant::Accurate;
                    }
                    let pooled = !blocking;
                    let prepared = setup
                        .plan
                        .prepare(&polys, &setup.exec_query, &dev, setup.width);
                    let before = RESOLVES.with(Cell::get);
                    let res = stream.scan(setup, &prepared);
                    let resolves = RESOLVES.with(Cell::get) - before;
                    let stranded = prepared.outstanding_canvases();
                    assert_eq!(stranded, 0, "{ctx}: canvases stranded");
                    match res {
                        Ok(out) => {
                            assert!(healthy, "{ctx}: a garbled block was swallowed");
                            assert_eq!(resolves, 1, "{ctx}: a scan resolves exactly once");
                            assert_eq!(out.rows, 6_000, "{ctx}");
                            if !exact {
                                let resident = out.output.stats.resident_bands;
                                *(if resident == 0 {
                                    &mut over_runs
                                } else {
                                    &mut over_dense
                                }) += 1;
                            }
                        }
                        Err(e) => {
                            assert!(!healthy, "{ctx}: {e}");
                            assert_eq!(resolves, 0, "{ctx}: resolved a partial canvas");
                            *(if pooled {
                                &mut on_worker
                            } else {
                                &mut in_reader
                            }) += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(on_worker > 0 && in_reader > 0, "{on_worker} / {in_reader}");
    assert!(
        over_runs > 0 && over_dense > 0,
        "{over_runs} / {over_dense}"
    );
    std::fs::remove_file(&clean).ok();
    std::fs::remove_file(&garbled).ok();
}
