//! Tile-edge detection regressions (DESIGN.md §11.3).
//!
//! Campaigns are tile-local: comparison groups (Tr/Tc) never span shard
//! edges, and the mod-16 ADC reference grid restarts at each shard
//! origin. These tests pin the two consequences that matter:
//!
//! 1. **Remainder shards sweep remainder groups.** A test size that
//!    divides neither the shard rows nor the shard columns must still
//!    sweep `ceil(rows/t) + ceil(cols/t)` groups per pass *per shard*,
//!    and a fault parked in the trailing corner of the trailing remainder
//!    shard must be localized.
//! 2. **Aliasing is shard-local.** The §4.2 mod-16 false negative (group
//!    deviations summing to 0 mod 16) happens inside one shard's group;
//!    the same run of faulty cells split across a tile edge lands in two
//!    half-full groups whose deviations no longer alias — tile edges
//!    *break up* aliasing runs.
#![expect(
    clippy::unwrap_used,
    reason = "test-fixture helpers outside #[test] fns fail loudly by design"
)]

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use ftt_tile::{ChipConfig, TiledChip, TiledMapping};
use rram::fault::{FaultKind, FaultMap};

/// A chip + mapping with every cell programmed to `level` (of 8),
/// variation-free — the deterministic substrate the faultdet regressions
/// use, sharded.
fn uniform_tiled(
    rows: usize,
    cols: usize,
    tile_size: usize,
    level: u16,
) -> (TiledChip, TiledMapping) {
    let mut chip = TiledChip::new(ChipConfig::new(tile_size, 8, 99)).unwrap();
    let tiled = TiledMapping::allocate(&mut chip, rows, cols).unwrap();
    let g = f64::from(level) / 7.0;
    tiled.program(&mut chip, &vec![g; rows * cols]).unwrap();
    (chip, tiled)
}

#[test]
fn remainder_groups_sweep_at_shard_boundaries() {
    // 10×7 on 4×4 tiles: a 3×2 shard grid with 4×4, 4×3, 2×4, and 2×3
    // shards. Tr = 3 divides none of the edge-shard dimensions.
    let (rows, cols, ts, t) = (10usize, 7usize, 4usize, 3usize);
    let (mut chip, tiled) = uniform_tiled(rows, cols, ts, 3);

    // One fault in the logical far corner — the trailing 2×3 remainder
    // shard's trailing remainder group in both directions.
    let mut injected = FaultMap::healthy(rows, cols);
    injected.set(rows - 1, cols - 1, Some(FaultKind::StuckAt0));
    tiled.apply_fault_map(&mut chip, &injected).unwrap();

    let detector = OnlineFaultDetector::new(DetectorConfig::new(t).unwrap());
    let stats = chip.run_campaigns(&detector, tiled.tile_ids());
    assert_eq!(stats.campaigns_run as usize, tiled.tile_ids().len());
    assert_eq!(
        stats.untested_groups, 0,
        "every remainder group must be swept"
    );
    assert_eq!(stats.flagged_cells, 1, "exactly the injected fault");

    // Per-shard cycle accounting: groups never span tile edges, so each
    // shard's SA0 pass sweeps ceil(sr/t) + ceil(sc/t) groups of its own.
    for (shard, &id) in tiled.grid().iter().zip(tiled.tile_ids()) {
        let outcome = chip.last_detection(id).unwrap().expect("campaign ran");
        let expected = (shard.rows.div_ceil(t) + shard.cols.div_ceil(t)) as u64;
        assert_eq!(
            outcome.sa0_cycles, expected,
            "shard at ({},{}) [{}x{}]: a remainder group was dropped",
            shard.row0, shard.col0, shard.rows, shard.cols
        );
    }

    // The composed logical prediction localizes the corner fault exactly.
    let corner_tile = *tiled.tile_ids().last().unwrap();
    let outcome = chip.last_detection(corner_tile).unwrap().unwrap();
    // The trailing shard is 2×3; the fault sits at its local corner.
    assert_eq!(outcome.predicted.get(1, 2), Some(FaultKind::StuckAt0));
    assert_eq!(outcome.predicted.count_faulty(), 1);
}

#[test]
fn mod16_aliasing_is_shard_local() {
    // 32×16 on 16×16 tiles: two stacked shards, each a single 16-row
    // group at Tr = 16. 16 SA0 cells at level 3 lose 48 levels on the
    // column sum — 48 ≡ 0 (mod 16), the §4.2 aliasing escape.
    let run = |fault_rows: std::ops::Range<usize>| {
        let (mut chip, tiled) = uniform_tiled(32, 16, 16, 3);
        let mut injected = FaultMap::healthy(32, 16);
        for r in fault_rows {
            injected.set(r, 5, Some(FaultKind::StuckAt0));
        }
        tiled.apply_fault_map(&mut chip, &injected).unwrap();
        let detector =
            OnlineFaultDetector::new(DetectorConfig::new(16).unwrap().with_modulo_divisor(16));
        let stats = chip.run_campaigns(&detector, tiled.tile_ids());
        assert_eq!(stats.campaigns_run, 2);
        stats.flagged_cells
    };

    // All 16 faults inside one shard's group: the deviation aliases to
    // 0 mod 16 and every fault escapes — the paper's recall ceiling,
    // unchanged by tiling when the run fits in a shard.
    assert_eq!(
        run(0..16),
        0,
        "the documented in-shard mod-16 false negative disappeared"
    );

    // The same 16 faults crossing the tile edge: 8 land in each shard's
    // group, each deviating 24 ≡ 8 (mod 16) — visible in both shards, so
    // the tile edge breaks the aliasing run and all 16 are localized.
    assert_eq!(
        run(8..24),
        16,
        "a tile-edge-split aliasing run must be fully localized"
    );
}

#[test]
fn shard_local_adc_grid_restarts_at_tile_origin() {
    // A control for the aliasing case: with divisor 32 the in-shard run
    // is visible too, and the composed logical fault map equals the
    // injected ground truth on both geometries.
    for fault_rows in [0usize..16, 8..24] {
        let (mut chip, tiled) = uniform_tiled(32, 16, 16, 3);
        let mut injected = FaultMap::healthy(32, 16);
        for r in fault_rows.clone() {
            injected.set(r, 5, Some(FaultKind::StuckAt0));
        }
        tiled.apply_fault_map(&mut chip, &injected).unwrap();
        let detector =
            OnlineFaultDetector::new(DetectorConfig::new(16).unwrap().with_modulo_divisor(32));
        let stats = chip.run_campaigns(&detector, tiled.tile_ids());
        assert_eq!(stats.flagged_cells, 16, "rows {fault_rows:?}");
        // Compose per-shard predictions into logical coordinates and
        // compare against the injected map.
        let mut composed = FaultMap::healthy(32, 16);
        for (shard, &id) in tiled.grid().iter().zip(tiled.tile_ids()) {
            let outcome = chip.last_detection(id).unwrap().unwrap();
            for (r, c, kind) in outcome.predicted.iter_faulty() {
                composed.set(shard.row0 + r, shard.col0 + c, Some(kind));
            }
        }
        assert_eq!(composed, injected, "rows {fault_rows:?}");
    }
}
