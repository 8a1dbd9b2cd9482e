//! Mapping a network's weight matrices onto the tiled RRAM chip.
//!
//! Each mapped weight layer is sharded into crossbar tiles of at most
//! `tile_size × tile_size` cells (inputs on rows, output neurons on
//! columns). One *logical cell per weight* stores the weight magnitude as a
//! normalized conductance (`g = |w| / w_max`); the sign lives in the digital
//! periphery. This is exactly the granularity the paper's re-mapping
//! reasons at: a pruned zero weight corresponds to a minimum-conductance
//! cell, which is why a zero can *reuse* an SA0 cell, and an SA1 fault pins
//! the weight at full scale.
//!
//! Since PR 5 the physical arrays live in an [`ftt_tile::TiledChip`]: the
//! mapping holds chip-global tile *ids* (plus each shard's logical
//! offset), the chip owns the arrays, the spare pool, and the retirement
//! policy. Tile seeds and allocation order are unchanged from the
//! pre-chip mapper (the chip uses the same
//! `seed · 0x9E37_79B9 + counter` stream), so seeded runs reproduce
//! bit-identically across the refactor.
//!
//! The mapped network is the single point through which training touches
//! hardware: effective (fault- and variation-corrupted) weights are read
//! back into the software network before every forward pass, and every
//! weight update is an analog write that consumes endurance.

use std::collections::BTreeSet;

use faultdet::detector::OnlineFaultDetector;
use ftt_tile::{ChipConfig, ChipState, ShardGrid, SpareOutcome, TiledChip};
use nn::network::Network;
use rram::cell::WriteOutcome;
use rram::crossbar::Crossbar;
use rram::fault::{FaultKind, FaultMap};
use rram::spatial::FaultInjection;

use crate::config::{MappingConfig, MappingScope};
use crate::error::FttError;

/// One shard of a mapped layer: where it sits logically and which chip
/// tile backs it (spare substitution re-points `id`).
#[derive(Debug, Clone, Copy)]
struct TileRef {
    row0: usize,
    col0: usize,
    id: usize,
}

/// One weight layer placed on RRAM.
#[derive(Debug, Clone)]
pub struct MappedLayer {
    /// Position among the network's weight layers (0-based).
    pub weight_layer: usize,
    /// Raw layer index inside the [`Network`].
    pub layer_index: usize,
    /// Logical weight-matrix rows (crossbar inputs).
    pub rows: usize,
    /// Logical weight-matrix columns (output neurons).
    pub cols: usize,
    /// Full-scale weight magnitude for this layer.
    pub w_max: f64,
    signs: Vec<i8>,
    /// The *software* weight state (Algorithm 1's `Current_w`): what
    /// training intends each cell to hold. Stuck cells silently refuse the
    /// writes, so the effective (hardware) weights diverge from these.
    targets: Vec<f32>,
    tiles: Vec<TileRef>,
    /// Second (negative-polarity) shard grid under differential coding;
    /// empty for unipolar coding.
    neg_tiles: Vec<TileRef>,
}

impl MappedLayer {
    fn tile_of(&self, row: usize, col: usize, tile_size: usize) -> usize {
        let tiles_per_row = self.cols.div_ceil(tile_size);
        (row / tile_size) * tiles_per_row + col / tile_size
    }

    /// Dimensions of the shard at `tile_idx` (remainder-aware).
    fn shard_dims(&self, tile_idx: usize, tile_size: usize) -> (usize, usize) {
        let t = &self.tiles[tile_idx];
        (
            tile_size.min(self.rows - t.row0),
            tile_size.min(self.cols - t.col0),
        )
    }

    /// Whether this layer uses differential (two-cell) coding.
    pub fn is_differential(&self) -> bool {
        !self.neg_tiles.is_empty()
    }

    /// The effective weight currently realized by the hardware at the given
    /// logical coordinates (includes faults and write variation).
    ///
    /// Kept as the per-cell reference for
    /// [`MappedNetwork::load_effective_weights`], whose plane-backed bulk
    /// copy must reproduce this value bit-for-bit (asserted in tests).
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "per-cell reference used only by tests")
    )]
    #[expect(
        clippy::expect_used,
        reason = "test-only reference path; `tile_of` maps logical coordinates onto the tile that covers them by construction"
    )]
    fn effective(&self, chip: &TiledChip, row: usize, col: usize, tile_size: usize) -> f64 {
        let ti = self.tile_of(row, col, tile_size);
        let t = &self.tiles[ti];
        let g = chip
            .tile(t.id)
            .expect("mapped tile exists on the chip")
            .conductance(row - t.row0, col - t.col0)
            .expect("tile coordinates are in range by construction");
        if self.is_differential() {
            let n = &self.neg_tiles[ti];
            let g_neg = chip
                .tile(n.id)
                .expect("mapped tile exists on the chip")
                .conductance(row - n.row0, col - n.col0)
                .expect("tile coordinates are in range by construction");
            (g - g_neg) * self.w_max
        } else {
            f64::from(self.signs[row * self.cols + col]) * g * self.w_max
        }
    }

    /// Ground-truth fault map of this layer in logical coordinates. Under
    /// differential coding a logical cell is faulty when *either* polarity
    /// cell is stuck; SA1 (the severe kind — it pins full-scale current)
    /// wins when the pair disagrees.
    pub fn fault_map(&self, chip: &TiledChip) -> FaultMap {
        let mut map = FaultMap::healthy(self.rows, self.cols);
        for tile in self.tiles.iter().chain(&self.neg_tiles) {
            let Ok(xbar) = chip.tile(tile.id) else {
                continue;
            };
            let sub = xbar.fault_map();
            for (r, c, kind) in sub.iter_faulty() {
                let (lr, lc) = (tile.row0 + r, tile.col0 + c);
                let merged = match (map.get(lr, lc), kind) {
                    (Some(FaultKind::StuckAt1), _) | (_, FaultKind::StuckAt1) => {
                        FaultKind::StuckAt1
                    }
                    _ => FaultKind::StuckAt0,
                };
                map.set(lr, lc, Some(merged));
            }
        }
        map
    }

    /// Fraction of this layer's *physical* cells carrying hard faults.
    pub fn fraction_faulty(&self, chip: &TiledChip) -> f64 {
        let faulty: usize = self
            .tiles
            .iter()
            .chain(&self.neg_tiles)
            .filter_map(|t| chip.tile(t.id).ok())
            .map(|x| x.fault_map().count_faulty())
            .sum();
        let cells = self.rows * self.cols * if self.is_differential() { 2 } else { 1 };
        faulty as f64 / cells as f64
    }

    /// The software (intended) weights, row-major.
    pub fn targets(&self) -> &[f32] {
        &self.targets
    }

    /// Target conductances of the shard at `tile_idx`, shard-local
    /// row-major, for the given polarity — what a freshly attached spare
    /// must be programmed with.
    fn shard_conductances(&self, tile_idx: usize, neg: bool, tile_size: usize) -> Vec<f64> {
        let t = if neg {
            &self.neg_tiles[tile_idx]
        } else {
            &self.tiles[tile_idx]
        };
        let (t_rows, t_cols) = self.shard_dims(tile_idx, tile_size);
        let differential = self.is_differential();
        let mut g = Vec::with_capacity(t_rows * t_cols);
        for r in 0..t_rows {
            for c in 0..t_cols {
                let w = f64::from(self.targets[(t.row0 + r) * self.cols + (t.col0 + c)]);
                let target = if differential {
                    if neg {
                        ((-w).max(0.0) / self.w_max).min(1.0)
                    } else {
                        (w.max(0.0) / self.w_max).min(1.0)
                    }
                } else {
                    (w.abs() / self.w_max).min(1.0)
                };
                g.push(target);
            }
        }
        g
    }
}

/// Result of running the on-line detector over one mapped layer.
#[derive(Debug, Clone)]
pub struct LayerDetection {
    /// Position among the network's weight layers.
    pub weight_layer: usize,
    /// Predicted fault map in logical layer coordinates.
    pub predicted: FaultMap,
    /// Total test cycles over the layer's tiles (tiles test sequentially).
    pub cycles: u64,
    /// Write pulses the detection itself spent.
    pub write_pulses: u64,
    /// Group sweeps that failed and were skipped across this layer's tiles,
    /// plus whole tiles whose campaign errored out — both degrade coverage
    /// instead of aborting the campaign (see
    /// [`faultdet::detector::DetectionOutcome::untested_groups`]).
    pub untested_groups: u64,
}

/// Aggregate result of one tile-sparing pass (see
/// [`MappedNetwork::apply_sparing`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparingOutcome {
    /// Tiles retired this pass.
    pub tiles_retired: u64,
    /// Spares attached this pass (equals `tiles_retired`).
    pub spares_attached: u64,
    /// Tiles over the threshold left in service because the pool is empty.
    pub spares_exhausted: u64,
    /// Test cycles spent verifying freshly attached spares.
    pub verify_cycles: u64,
    /// Write pulses spent by the verification campaigns.
    pub verify_write_pulses: u64,
    /// Write pulses spent programming the spares with the shard targets.
    pub reprogram_pulses: u64,
}

/// The error raised when a `MappedNetwork` operation is handed a network
/// whose layer at `layer_index` carries no parameters — i.e. a network the
/// mapping was not built from.
fn foreign_network_error(layer_index: usize) -> FttError {
    FttError::InvalidConfig(format!(
        "mapped layer {layer_index} has no parameters in this network \
         (mapping built from a different network?)"
    ))
}

/// Verify-then-write: reprogram one cell only when it drifted beyond
/// `epsilon` of the target conductance.
fn verify_write(
    xbar: &mut Crossbar,
    row: usize,
    col: usize,
    g: f64,
    epsilon: f64,
    writes: &mut u64,
) -> Result<(), FttError> {
    let current = xbar.conductance(row, col)?;
    if (current - g).abs() > epsilon {
        let outcome = xbar.write_analog(row, col, g)?;
        if outcome.changed() {
            *writes += 1;
        }
    }
    Ok(())
}

/// Translates the mapping config into the chip's own config — used both
/// by the initial mapper and by checkpoint restore, which must rebuild
/// the chip under the exact same policies (endurance, variation, spare
/// screening, retirement threshold).
fn chip_config(config: &MappingConfig) -> Result<ChipConfig, FttError> {
    let mut chip_cfg = ChipConfig::new(config.tile_size, config.levels, config.seed)
        .with_endurance(config.endurance)
        .with_variation(config.variation)
        .with_spare_tiles(config.spare_tiles);
    if config.initial_fault_fraction > 0.0 {
        let injection =
            FaultInjection::new(config.fault_distribution, config.initial_fault_fraction)?
                .with_sa0_prob(config.initial_sa0_prob)?;
        chip_cfg = chip_cfg.with_injection(injection);
    }
    if let Some(density) = config.retire_fault_density {
        chip_cfg = chip_cfg.with_retire_fault_density(density);
    }
    Ok(chip_cfg)
}

/// Plain-data capture of one [`MappedLayer`], for checkpointing. Shard
/// entries are `(row0, col0, chip_tile_id)` in the mapper's row-major
/// grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedLayerState {
    /// Position among the network's weight layers.
    pub weight_layer: usize,
    /// Raw layer index inside the network.
    pub layer_index: usize,
    /// Logical weight-matrix rows.
    pub rows: usize,
    /// Logical weight-matrix columns.
    pub cols: usize,
    /// Full-scale weight magnitude.
    pub w_max: f64,
    /// Periphery sign bits (unipolar coding).
    pub signs: Vec<i8>,
    /// Software (intended) weights, row-major.
    pub targets: Vec<f32>,
    /// Positive-polarity shards: `(row0, col0, chip_tile_id)`.
    pub tiles: Vec<(usize, usize, usize)>,
    /// Negative-polarity shards (empty for unipolar coding).
    pub neg_tiles: Vec<(usize, usize, usize)>,
}

/// Complete capture of a [`MappedNetwork`]: the chip (every tile's cells,
/// wear, journal, campaign outcomes, stores, spare pool) plus each mapped
/// layer's logical placement and software weight state. The
/// [`MappingConfig`] is *not* part of the state — restore is handed the
/// same config the run was built with.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedState {
    /// The tiled chip's full state.
    pub chip: ChipState,
    /// Per-layer placement and software weights.
    pub layers: Vec<MappedLayerState>,
}

/// A network whose selected weight layers live on a simulated tiled RRAM
/// chip.
#[derive(Debug)]
pub struct MappedNetwork {
    config: MappingConfig,
    chip: TiledChip,
    layers: Vec<MappedLayer>,
}

impl MappedNetwork {
    /// Places the network's weights onto chip tiles per the mapping config
    /// and programs the initial values.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] for an empty or out-of-range
    /// scope, or any crossbar construction failure.
    pub fn from_network(net: &mut Network, config: MappingConfig) -> Result<Self, FttError> {
        let weight_layers = net.weight_layer_indices();
        let selected: Vec<usize> = match &config.scope {
            MappingScope::EntireNetwork => (0..weight_layers.len()).collect(),
            MappingScope::FcOnly => (0..weight_layers.len())
                .filter(|&k| net.layer_kind(weight_layers[k]) == "dense")
                .collect(),
            MappingScope::WeightLayers(list) => {
                for &k in list {
                    if k >= weight_layers.len() {
                        return Err(FttError::InvalidConfig(format!(
                            "weight layer {k} out of range ({} layers)",
                            weight_layers.len()
                        )));
                    }
                }
                list.clone()
            }
        };
        if selected.is_empty() {
            return Err(FttError::InvalidConfig(
                "mapping scope selects no layers".into(),
            ));
        }
        if config.tile_size == 0 {
            return Err(FttError::InvalidConfig("tile size must be non-zero".into()));
        }

        let mut chip = TiledChip::new(chip_config(&config)?)?;

        let mut layers = Vec::with_capacity(selected.len());
        for &k in &selected {
            let layer_index = weight_layers[k];
            #[expect(
                clippy::expect_used,
                reason = "`layer_index` comes from `weight_layer_indices` on this same network, which only lists layers with parameters"
            )]
            let params = net
                .layer_params_mut(layer_index)
                .expect("weight layer has parameters");
            let (rows, cols) = params.weight_shape;
            let absmax = params.weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
            let w_max = (f64::from(absmax) * config.w_max_factor).max(1e-3);
            let signs: Vec<i8> = params
                .weights
                .iter()
                .map(|&w| if w < 0.0 { -1 } else { 1 })
                .collect();
            let weights: Vec<f32> = params.weights.to_vec();
            let differential = config.coding == crate::config::WeightCoding::Differential;
            // Normalized initial conductances, per polarity.
            let pos_g: Vec<f64> = weights
                .iter()
                .map(|&w| (f64::from(w.max(0.0)) / w_max).min(1.0))
                .collect();
            let neg_g: Vec<f64> = weights
                .iter()
                .map(|&w| (f64::from((-w).max(0.0)) / w_max).min(1.0))
                .collect();
            let mag_g: Vec<f64> = weights
                .iter()
                .map(|&w| (f64::from(w.abs()) / w_max).min(1.0))
                .collect();

            let ts = config.tile_size;
            let grid = ShardGrid::new(rows, cols, ts, ts).ok_or_else(|| {
                FttError::InvalidConfig(format!(
                    "layer {layer_index} has a zero-sized weight matrix"
                ))
            })?;
            // Shards allocate and program in row-major grid order — the
            // same build/program interleaving (and hence the same per-tile
            // RNG streams) as the pre-chip mapper.
            let build_grid =
                |initial: &[f64], chip: &mut TiledChip| -> Result<Vec<TileRef>, FttError> {
                    let mut tiles = Vec::with_capacity(grid.shard_count());
                    for shard in grid.iter() {
                        let id = chip.allocate(shard.rows, shard.cols)?;
                        let xbar = chip.tile_mut(id)?;
                        for r in 0..shard.rows {
                            for c in 0..shard.cols {
                                let g = initial[(shard.row0 + r) * cols + (shard.col0 + c)];
                                let _ = xbar.write_analog(r, c, g)?;
                            }
                        }
                        tiles.push(TileRef {
                            row0: shard.row0,
                            col0: shard.col0,
                            id,
                        });
                    }
                    Ok(tiles)
                };
            let (tiles, neg_tiles) = if differential {
                let t = build_grid(&pos_g, &mut chip)?;
                let n = build_grid(&neg_g, &mut chip)?;
                (t, n)
            } else {
                (build_grid(&mag_g, &mut chip)?, Vec::new())
            };
            layers.push(MappedLayer {
                weight_layer: k,
                layer_index,
                rows,
                cols,
                w_max,
                signs,
                targets: weights,
                tiles,
                neg_tiles,
            });
        }
        Ok(Self {
            config,
            chip,
            layers,
        })
    }

    /// The mapping configuration.
    pub fn config(&self) -> &MappingConfig {
        &self.config
    }

    /// The chip backing this mapping (tile pool, spares, health).
    pub fn chip(&self) -> &TiledChip {
        &self.chip
    }

    /// The mapped layers, in weight-layer order.
    pub fn layers(&self) -> &[MappedLayer] {
        &self.layers
    }

    /// Positions (among the network's weight layers) that are mapped.
    pub fn mapped_weight_layers(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.weight_layer).collect()
    }

    /// Whether weight layer `k` is mapped, and at which internal position.
    pub fn position_of(&self, weight_layer: usize) -> Option<usize> {
        self.layers
            .iter()
            .position(|l| l.weight_layer == weight_layer)
    }

    /// Copies the hardware's *effective* weights (faults, variation,
    /// clamping included) into the software network — run before every
    /// forward pass so training sees what the chip actually computes.
    ///
    /// This is the flow's hottest hardware read, so instead of one
    /// [`MappedLayer::effective`] call per cell (tile lookup + bounds-checked
    /// conductance read each), it streams every tile's cached `f64`
    /// conductance plane row-by-row into the weight buffer. The arithmetic
    /// per cell is the exact expression `effective` evaluates, so the loaded
    /// weights are bit-identical to the per-cell path.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net` is not the network
    /// this mapping was built from (a mapped layer index has no parameters).
    pub fn load_effective_weights(&self, net: &mut Network) -> Result<(), FttError> {
        for layer in &self.layers {
            let mut params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.rows * layer.cols {
                return Err(foreign_network_error(layer.layer_index));
            }
            let cols = layer.cols;
            let w_max = layer.w_max;
            let out = &mut params.weights;
            if layer.is_differential() {
                // `tiles` and `neg_tiles` share one grid geometry.
                for (pos, neg) in layer.tiles.iter().zip(&layer.neg_tiles) {
                    let px = self.chip.tile(pos.id)?;
                    let nx = self.chip.tile(neg.id)?;
                    let (t_rows, t_cols) = (px.rows(), px.cols());
                    let gp = px.conductance_plane_f64();
                    let gn = nx.conductance_plane_f64();
                    for r in 0..t_rows {
                        let dst = &mut out[(pos.row0 + r) * cols + pos.col0..][..t_cols];
                        let gp_row = &gp[r * t_cols..(r + 1) * t_cols];
                        let gn_row = &gn[r * t_cols..(r + 1) * t_cols];
                        for ((d, &p), &n) in dst.iter_mut().zip(gp_row).zip(gn_row) {
                            *d = ((p - n) * w_max) as f32;
                        }
                    }
                }
            } else {
                for tile in &layer.tiles {
                    let xbar = self.chip.tile(tile.id)?;
                    let (t_rows, t_cols) = (xbar.rows(), xbar.cols());
                    let plane = xbar.conductance_plane_f64();
                    for r in 0..t_rows {
                        let base = (tile.row0 + r) * cols + tile.col0;
                        let dst = &mut out[base..base + t_cols];
                        let signs = &layer.signs[base..base + t_cols];
                        let g_row = &plane[r * t_cols..(r + 1) * t_cols];
                        for ((d, &s), &g) in dst.iter_mut().zip(signs).zip(g_row) {
                            *d = (f64::from(s) * g * w_max) as f32;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Programs one weight with an unconditional training pulse (no
    /// write-verify — the paper's original on-line training pulses the cell
    /// even for a vanishing update, which is the wear threshold training
    /// eliminates). The magnitude is clamped to the layer's full scale; the
    /// sign is stored in the periphery. Returns the hardware write outcome
    /// (stuck cells ignore the write; the write may wear the cell out).
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] if `position` or `idx` is out of
    /// range, and propagates crossbar errors (including a non-finite
    /// `value`, which the hardware layer rejects).
    pub fn write_weight(
        &mut self,
        position: usize,
        idx: usize,
        value: f32,
    ) -> Result<WriteOutcome, FttError> {
        let ts = self.config.tile_size;
        let layer = self.layers.get_mut(position).ok_or_else(|| {
            FttError::InvalidConfig(format!("mapped position {position} out of range"))
        })?;
        if idx >= layer.rows * layer.cols {
            return Err(FttError::InvalidConfig(format!(
                "weight index {idx} out of range for {}x{} layer",
                layer.rows, layer.cols
            )));
        }
        let (row, col) = (idx / layer.cols, idx % layer.cols);
        layer.targets[idx] = value;
        if value != 0.0 {
            layer.signs[idx] = if value < 0.0 { -1 } else { 1 };
        }
        let tile_idx = layer.tile_of(row, col, ts);
        if layer.is_differential() {
            // One-sided differential programming: two pulses per update.
            let gp = (f64::from(value.max(0.0)) / layer.w_max).min(1.0);
            let gn = (f64::from((-value).max(0.0)) / layer.w_max).min(1.0);
            let tile = layer.tiles[tile_idx];
            let pos =
                self.chip
                    .tile_mut(tile.id)?
                    .pulse_analog(row - tile.row0, col - tile.col0, gp)?;
            let tile = layer.neg_tiles[tile_idx];
            let neg =
                self.chip
                    .tile_mut(tile.id)?
                    .pulse_analog(row - tile.row0, col - tile.col0, gn)?;
            // Report the more severe outcome (a new fault on either side).
            Ok(match (pos, neg) {
                (WriteOutcome::WoreOut(k), _) | (_, WriteOutcome::WoreOut(k)) => {
                    WriteOutcome::WoreOut(k)
                }
                (WriteOutcome::Stuck(k), _) | (_, WriteOutcome::Stuck(k)) => WriteOutcome::Stuck(k),
                (p, _) => p,
            })
        } else {
            let g = (f64::from(value.abs()) / layer.w_max).min(1.0);
            let tile = layer.tiles[tile_idx];
            Ok(self
                .chip
                .tile_mut(tile.id)?
                .pulse_analog(row - tile.row0, col - tile.col0, g)?)
        }
    }

    /// Copies the *software* (intended) weights into the network — the view
    /// the pruning and re-mapping phases reason about, independent of which
    /// cells happen to be stuck.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net` is not the network
    /// this mapping was built from.
    pub fn load_target_weights(&self, net: &mut Network) -> Result<(), FttError> {
        for layer in &self.layers {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.targets.len() {
                return Err(foreign_network_error(layer.layer_index));
            }
            params.weights.copy_from_slice(&layer.targets);
        }
        Ok(())
    }

    /// Rewrites every mapped weight from the software network, skipping
    /// cells already within `epsilon` of the target conductance — used to
    /// reprogram the array after a re-mapping permutation. Returns the
    /// number of write pulses issued.
    pub fn reprogram_from(&mut self, net: &mut Network, epsilon: f64) -> Result<u64, FttError> {
        let ts = self.config.tile_size;
        let mut writes = 0u64;
        for layer in &mut self.layers {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.rows * layer.cols {
                return Err(foreign_network_error(layer.layer_index));
            }
            let differential = layer.is_differential();
            for idx in 0..layer.rows * layer.cols {
                let target = params.weights[idx];
                layer.targets[idx] = target;
                if target != 0.0 {
                    layer.signs[idx] = if target < 0.0 { -1 } else { 1 };
                }
                let (row, col) = (idx / layer.cols, idx % layer.cols);
                let tile_idx = layer.tile_of(row, col, ts);
                if differential {
                    let gp = (f64::from(target.max(0.0)) / layer.w_max).min(1.0);
                    let gn = (f64::from((-target).max(0.0)) / layer.w_max).min(1.0);
                    let t = layer.tiles[tile_idx];
                    verify_write(
                        self.chip.tile_mut(t.id)?,
                        row - t.row0,
                        col - t.col0,
                        gp,
                        epsilon,
                        &mut writes,
                    )?;
                    let t = layer.neg_tiles[tile_idx];
                    verify_write(
                        self.chip.tile_mut(t.id)?,
                        row - t.row0,
                        col - t.col0,
                        gn,
                        epsilon,
                        &mut writes,
                    )?;
                } else {
                    let g = (f64::from(target.abs()) / layer.w_max).min(1.0);
                    let t = layer.tiles[tile_idx];
                    verify_write(
                        self.chip.tile_mut(t.id)?,
                        row - t.row0,
                        col - t.col0,
                        g,
                        epsilon,
                        &mut writes,
                    )?;
                }
            }
        }
        Ok(writes)
    }

    /// Composes the logical per-layer detection view from the chip's
    /// stored per-tile campaign outcomes. Failed tiles degrade coverage
    /// (their groups count untested); the layer errors out only when *no*
    /// tile produced an outcome and at least one failed.
    fn compose_layer(&mut self, li: usize, test_size: usize) -> Result<LayerDetection, FttError> {
        let layer = &self.layers[li];
        let mut predicted = FaultMap::healthy(layer.rows, layer.cols);
        let mut cycles = 0u64;
        let mut write_pulses = 0u64;
        let mut untested_groups = 0u64;
        let mut first_err: Option<FttError> = None;
        let mut any_ok = false;
        let t = test_size.max(1);
        for tile in layer.tiles.iter().chain(&layer.neg_tiles) {
            let slot = self.chip.slot(tile.id)?;
            if let Some(e) = &slot.last_campaign_error {
                // Graceful degradation: the failed tile's groups are
                // counted untested and the campaign continues with the
                // remaining tiles.
                untested_groups +=
                    2 * (slot.xbar.rows().div_ceil(t) + slot.xbar.cols().div_ceil(t)) as u64;
                if first_err.is_none() {
                    first_err = Some(FttError::from(e.clone()));
                }
                continue;
            }
            let Some(outcome) = &slot.last_detection else {
                continue;
            };
            any_ok = true;
            cycles += outcome.cycles();
            write_pulses += outcome.write_pulses;
            untested_groups += outcome.untested_groups;
            for (r, c, kind) in outcome.predicted.iter_faulty() {
                // Differential pairs merge onto the logical cell; the
                // severe kind (SA1) wins on disagreement.
                let (lr, lc) = (tile.row0 + r, tile.col0 + c);
                let merged = match (predicted.get(lr, lc), kind) {
                    (Some(FaultKind::StuckAt1), _) | (_, FaultKind::StuckAt1) => {
                        FaultKind::StuckAt1
                    }
                    _ => FaultKind::StuckAt0,
                };
                predicted.set(lr, lc, Some(merged));
            }
        }
        if !any_ok {
            if let Some(e) = first_err {
                // Every tile failed the same way — a systematic
                // configuration error, not a partial campaign.
                return Err(e);
            }
        }
        Ok(LayerDetection {
            weight_layer: layer.weight_layer,
            predicted,
            cycles,
            write_pulses,
            untested_groups,
        })
    }

    /// Runs the on-line fault detector over every tile of every mapped
    /// layer and composes per-layer logical fault predictions.
    ///
    /// Campaigns run tile-locally (comparison groups never span tile
    /// edges) and fan out across the [`par`] worker budget via
    /// [`ftt_tile::TiledChip::run_campaigns`]; outcomes compose
    /// sequentially in shard order, so results are identical at any thread
    /// count.
    pub fn detect(
        &mut self,
        detector: &OnlineFaultDetector,
    ) -> Result<Vec<LayerDetection>, FttError> {
        self.detect_with(detector, false)
    }

    /// Incremental variant of [`detect`]: campaigns go through
    /// [`ftt_tile::TiledChip::run_campaigns_incremental`], so each tile
    /// keeps a persistent off-chip store and only retests the cells written
    /// since its previous campaign (training updates, reprogramming,
    /// wear-outs), carrying prior verdicts forward for untouched cells.
    /// The first call behaves like a full [`detect`]; later calls between
    /// sparse weight updates cost a fraction of the cycles.
    ///
    /// [`detect`]: Self::detect
    ///
    /// # Errors
    ///
    /// Same failure modes as [`detect`].
    pub fn detect_incremental(
        &mut self,
        detector: &OnlineFaultDetector,
    ) -> Result<Vec<LayerDetection>, FttError> {
        self.detect_with(detector, true)
    }

    fn detect_with(
        &mut self,
        detector: &OnlineFaultDetector,
        incremental: bool,
    ) -> Result<Vec<LayerDetection>, FttError> {
        let ids: Vec<usize> = self
            .layers
            .iter()
            .flat_map(|l| l.tiles.iter().chain(&l.neg_tiles))
            .map(|t| t.id)
            .collect();
        let _ = if incremental {
            self.chip.run_campaigns_incremental(detector, &ids)
        } else {
            self.chip.run_campaigns(detector, &ids)
        };
        let t = detector.config().test_size;
        let mut results = Vec::with_capacity(self.layers.len());
        for li in 0..self.layers.len() {
            results.push(self.compose_layer(li, t)?);
        }
        Ok(results)
    }

    /// The §5-style sparing pass: retire every mapped tile whose
    /// *predicted* fault density (from the latest campaigns) crosses
    /// `retire_fault_density`, attach a spare, program it with the shard's
    /// target weights, verify it with a fresh tile-local campaign, and
    /// re-point the shard. With an exhausted pool the tile degrades in
    /// service (counted in the outcome). Dirty layers' entries in
    /// `detections` get their `predicted` maps recomposed so the
    /// downstream re-mapping search sees the post-sparing fault state.
    ///
    /// No-op (all-zero outcome) when `retire_fault_density` is `None`.
    ///
    /// # Errors
    ///
    /// Device failures while programming or verifying a spare propagate.
    pub fn apply_sparing(
        &mut self,
        detector: &OnlineFaultDetector,
        detections: &mut [LayerDetection],
    ) -> Result<SparingOutcome, FttError> {
        let Some(threshold) = self.config.retire_fault_density else {
            return Ok(SparingOutcome::default());
        };
        self.apply_sparing_at(threshold, detector, detections)
    }

    /// Like [`MappedNetwork::apply_sparing`], but retires every tile whose
    /// predicted fault density crossed the explicit `threshold` instead of
    /// consulting `retire_fault_density` — the entry point for strategies
    /// (e.g. redundant-column correction) that own their retirement policy.
    ///
    /// # Errors
    ///
    /// Device failures while programming or verifying a spare propagate.
    pub fn apply_sparing_at(
        &mut self,
        threshold: f64,
        detector: &OnlineFaultDetector,
        detections: &mut [LayerDetection],
    ) -> Result<SparingOutcome, FttError> {
        let mut out = SparingOutcome::default();
        let ts = self.config.tile_size;
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for id in self.chip.tiles_over_density(threshold) {
            // Locate the shard this tile backs (spare-pool tiles that
            // back nothing are not retirable — nothing to re-point).
            let located = self.layers.iter().enumerate().find_map(|(li, l)| {
                l.tiles
                    .iter()
                    .position(|t| t.id == id)
                    .map(|ti| (li, false, ti))
                    .or_else(|| {
                        l.neg_tiles
                            .iter()
                            .position(|t| t.id == id)
                            .map(|ti| (li, true, ti))
                    })
            });
            let Some((li, neg, tile_idx)) = located else {
                continue;
            };
            match self.chip.substitute(id)? {
                SpareOutcome::Exhausted => {
                    out.spares_exhausted += 1;
                    continue;
                }
                SpareOutcome::Attached { new_id } => {
                    out.tiles_retired += 1;
                    out.spares_attached += 1;
                    // Program the spare with the shard's target weights.
                    let g = self.layers[li].shard_conductances(tile_idx, neg, ts);
                    let before = self.chip.tile(new_id)?.write_pulses();
                    self.chip.tile_mut(new_id)?.program_conductances(&g)?;
                    out.reprogram_pulses += self.chip.tile(new_id)?.write_pulses() - before;
                    // Verify the spare with a tile-local campaign so the
                    // recomposed prediction covers its (injected) faults.
                    let stats = self.chip.run_campaigns(detector, &[new_id]);
                    out.verify_cycles += stats.cycles;
                    out.verify_write_pulses += stats.write_pulses;
                    // Re-point the shard.
                    let layer = &mut self.layers[li];
                    if neg {
                        layer.neg_tiles[tile_idx].id = new_id;
                    } else {
                        layer.tiles[tile_idx].id = new_id;
                    }
                    // Hand the incremental store over: the retired tile's
                    // store describes hardware no shard points at any more
                    // (its aggregates would sit stale in the slot — and in
                    // any snapshot of it — forever), and warm-attaching a
                    // store on the just-verified spare lets the next
                    // incremental campaign trust the verify outcome as its
                    // baseline instead of lazily attaching all-pending and
                    // retesting the whole tile.
                    self.chip.refresh_spare_store(id, new_id)?;
                    dirty.insert(li);
                }
            }
        }
        // Recompose dirty layers' predictions for the re-mapping search.
        let t = detector.config().test_size;
        for li in dirty {
            let recomposed = self.compose_layer(li, t)?;
            let weight_layer = self.layers[li].weight_layer;
            if let Some(d) = detections
                .iter_mut()
                .find(|d| d.weight_layer == weight_layer)
            {
                d.predicted = recomposed.predicted;
            }
        }
        Ok(out)
    }

    /// Ground-truth fault maps per mapped layer (for oracle experiments and
    /// precision/recall scoring).
    pub fn ground_truth(&self) -> Vec<FaultMap> {
        self.layers
            .iter()
            .map(|l| l.fault_map(&self.chip))
            .collect()
    }

    /// Total write pulses across the whole chip (training + detection +
    /// initial programming; retired tiles included — the logical
    /// write-pulse clock is monotonic across retirement).
    pub fn total_write_pulses(&self) -> u64 {
        self.chip.total_write_pulses()
    }

    /// Fraction of all *in-service* mapped cells that carry hard faults.
    pub fn fraction_faulty(&self) -> f64 {
        let mut faulty = 0usize;
        let mut total = 0usize;
        for layer in &self.layers {
            for tile in layer.tiles.iter().chain(&layer.neg_tiles) {
                let Ok(xbar) = self.chip.tile(tile.id) else {
                    continue;
                };
                faulty += xbar.fault_map().count_faulty();
                total += xbar.rows() * xbar.cols();
            }
        }
        faulty as f64 / total.max(1) as f64
    }

    /// Instruments the chip (every tile, the spare pool counters, and the
    /// `TileRetired` / `SpareAttached` events) with `recorder`; see
    /// [`ftt_tile::TiledChip::attach_recorder`].
    pub fn attach_recorder(&mut self, recorder: &obs::Recorder) {
        self.chip.attach_recorder(recorder);
    }

    /// Number of cells that wore out (endurance faults) since construction,
    /// chip-wide (retired tiles included).
    pub fn wear_faults(&self) -> u64 {
        self.chip.wear_faults()
    }

    /// Captures the complete mapping state for checkpointing: the chip
    /// plus every layer's placement, signs, and software weights.
    pub fn export_state(&self) -> MappedState {
        let layer_state = |l: &MappedLayer| MappedLayerState {
            weight_layer: l.weight_layer,
            layer_index: l.layer_index,
            rows: l.rows,
            cols: l.cols,
            w_max: l.w_max,
            signs: l.signs.clone(),
            targets: l.targets.clone(),
            tiles: l.tiles.iter().map(|t| (t.row0, t.col0, t.id)).collect(),
            neg_tiles: l.neg_tiles.iter().map(|t| (t.row0, t.col0, t.id)).collect(),
        };
        MappedState {
            chip: self.chip.export_state(),
            layers: self.layers.iter().map(layer_state).collect(),
        }
    }

    /// Rebuilds a mapping from a [`MappedState`] capture and the same
    /// `config` the original run was built with. Unlike
    /// [`MappedNetwork::from_network`] this performs no allocation or
    /// programming — the chip restores cell-exact and the layers re-point
    /// at their captured tiles, so behavior after restore is bit-identical
    /// to the exporting run's. Telemetry is not re-attached; call
    /// [`MappedNetwork::attach_recorder`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when the capture is internally
    /// incoherent (mismatched lengths, unknown tile ids, out-of-range
    /// shard origins) and propagates chip-level restore failures.
    pub fn restore_state(config: MappingConfig, state: &MappedState) -> Result<Self, FttError> {
        let chip = TiledChip::restore_state(chip_config(&config)?, &state.chip)?;
        let mut layers = Vec::with_capacity(state.layers.len());
        for (li, l) in state.layers.iter().enumerate() {
            let cells = l.rows * l.cols;
            if l.rows == 0 || l.cols == 0 {
                return Err(FttError::InvalidConfig(format!(
                    "snapshot layer {li} has a zero-sized weight matrix"
                )));
            }
            if l.signs.len() != cells || l.targets.len() != cells {
                return Err(FttError::InvalidConfig(format!(
                    "snapshot layer {li} carries {} signs / {} targets for {} cells",
                    l.signs.len(),
                    l.targets.len(),
                    cells
                )));
            }
            if !(l.w_max.is_finite() && l.w_max > 0.0) {
                return Err(FttError::InvalidConfig(format!(
                    "snapshot layer {li} has non-positive w_max {}",
                    l.w_max
                )));
            }
            if l.tiles.is_empty() || (!l.neg_tiles.is_empty() && l.neg_tiles.len() != l.tiles.len())
            {
                return Err(FttError::InvalidConfig(format!(
                    "snapshot layer {li} has {} positive and {} negative shards",
                    l.tiles.len(),
                    l.neg_tiles.len()
                )));
            }
            let as_refs = |shards: &[(usize, usize, usize)]| -> Result<Vec<TileRef>, FttError> {
                let mut refs = Vec::with_capacity(shards.len());
                for &(row0, col0, id) in shards {
                    if chip.tile(id).is_err() {
                        return Err(FttError::InvalidConfig(format!(
                            "snapshot layer {li} references unknown tile {id}"
                        )));
                    }
                    if row0 >= l.rows || col0 >= l.cols {
                        return Err(FttError::InvalidConfig(format!(
                            "snapshot layer {li} shard origin ({row0},{col0}) is outside \
                             its {}x{} matrix",
                            l.rows, l.cols
                        )));
                    }
                    refs.push(TileRef { row0, col0, id });
                }
                Ok(refs)
            };
            layers.push(MappedLayer {
                weight_layer: l.weight_layer,
                layer_index: l.layer_index,
                rows: l.rows,
                cols: l.cols,
                w_max: l.w_max,
                signs: l.signs.clone(),
                targets: l.targets.clone(),
                tiles: as_refs(&l.tiles)?,
                neg_tiles: as_refs(&l.neg_tiles)?,
            });
        }
        Ok(Self {
            config,
            chip,
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
    use nn::init::init_rng;
    use nn::layers::{Dense, Relu};
    use nn::models::vgg11_cifar;
    use rram::endurance::EnduranceModel;

    fn mlp() -> Network {
        let mut rng = init_rng(5);
        let mut net = Network::new();
        net.push(Dense::new(6, 10, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(10, 4, &mut rng));
        net
    }

    #[test]
    fn clean_mapping_roundtrips_weights() {
        let mut net = mlp();
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6, "{b} vs {a}");
        }
    }

    #[test]
    fn fc_only_scope_skips_convs() {
        let mut net = vgg11_cifar(64, 0);
        let mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::FcOnly))
                .unwrap();
        assert_eq!(mapped.mapped_weight_layers(), vec![8, 9, 10]);
        assert_eq!(mapped.position_of(8), Some(0));
        assert_eq!(mapped.position_of(0), None);
    }

    #[test]
    fn explicit_scope_is_validated() {
        let mut net = mlp();
        let bad = MappingConfig::new(MappingScope::WeightLayers(vec![0, 7]));
        assert!(MappedNetwork::from_network(&mut net, bad).is_err());
        let empty = MappingConfig::new(MappingScope::WeightLayers(vec![]));
        assert!(MappedNetwork::from_network(&mut net, empty).is_err());
    }

    #[test]
    fn faults_corrupt_effective_weights() {
        let mut net = mlp();
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.3)
                .with_seed(11),
        )
        .unwrap();
        assert!((mapped.fraction_faulty() - 0.3).abs() < 0.05);
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let changed = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| (*b - *a).abs() > 1e-4)
            .count();
        assert!(changed > 0, "stuck cells must displace weights");
        // SA1-stuck weights sit at ±w_max.
        let w_max = mapped.layers()[0].w_max as f32;
        let truth = &mapped.ground_truth()[0];
        let mut saw_sa1 = false;
        for (r, c, kind) in truth.iter_faulty() {
            let idx = r * 10 + c;
            match kind {
                rram::FaultKind::StuckAt1 => {
                    saw_sa1 = true;
                    assert!((after[idx].abs() - w_max).abs() < 1e-4);
                }
                rram::FaultKind::StuckAt0 => {
                    assert_eq!(after[idx], 0.0);
                }
            }
        }
        assert!(saw_sa1);
    }

    #[test]
    fn plane_backed_load_matches_per_cell_effective() {
        use crate::config::WeightCoding;
        // The bulk plane copy must reproduce the per-cell reference exactly,
        // for both codings, across tile boundaries, with faults present.
        for coding in [WeightCoding::Unipolar, WeightCoding::Differential] {
            let mut net = mlp();
            let mut config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(coding)
                .with_initial_fault_fraction(0.2)
                .with_seed(21);
            config.tile_size = 4; // force tiling
            let mapped = MappedNetwork::from_network(&mut net, config).unwrap();
            mapped.load_effective_weights(&mut net).unwrap();
            for layer in mapped.layers() {
                let loaded: Vec<f32> = net
                    .layer_params_mut(layer.layer_index)
                    .unwrap()
                    .weights
                    .to_vec();
                for r in 0..layer.rows {
                    for c in 0..layer.cols {
                        let reference = layer.effective(mapped.chip(), r, c, 4) as f32;
                        assert_eq!(
                            loaded[r * layer.cols + c],
                            reference,
                            "({r},{c}) must match bit-for-bit under {coding:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detect_is_thread_count_invariant() {
        // Tile campaigns fan out across workers; each tile owns its RNG, so
        // the merged predictions must not depend on the thread count.
        let build = || {
            let mut net = mlp();
            let mut config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.1)
                .with_seed(3);
            config.tile_size = 4;
            MappedNetwork::from_network(&mut net, config).unwrap()
        };
        let detector = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
        let run_with = |threads: usize| {
            par::set_thread_count(threads);
            let out = build().detect(&detector).unwrap();
            par::set_thread_count(0);
            out
        };
        let seq = run_with(1);
        let par4 = run_with(4);
        assert_eq!(seq.len(), par4.len());
        for (a, b) in seq.iter().zip(&par4) {
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.write_pulses, b.write_pulses);
        }
    }

    #[test]
    fn write_weight_updates_hardware() {
        let mut net = mlp();
        let mut mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        let w_max = mapped.layers()[0].w_max as f32;
        let target = -0.5 * w_max;
        mapped.write_weight(0, 3, target).unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let read = net.layer_params_mut(0).unwrap().weights[3];
        assert!((read - target).abs() < 1e-5, "{read} vs {target}");
        // Magnitudes beyond full scale clamp.
        mapped.write_weight(0, 3, 10.0 * w_max).unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let read = net.layer_params_mut(0).unwrap().weights[3];
        assert!((read - w_max).abs() < 1e-5);
    }

    #[test]
    fn tiling_covers_large_layers() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork);
        config.tile_size = 4; // force tiling of the 6x10 and 10x4 layers
        let mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        // Effective read equals the written value across tile boundaries.
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6);
        }
    }

    #[test]
    fn detection_runs_over_tiles() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.1)
            .with_seed(3);
        config.tile_size = 5;
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let detections = mapped.detect(&detector).unwrap();
        assert_eq!(detections.len(), 2);
        // Test size 1 is exact: predictions equal ground truth.
        let truth = mapped.ground_truth();
        for (det, truth) in detections.iter().zip(&truth) {
            assert_eq!(&det.predicted, truth);
            assert!(det.cycles > 0);
        }
    }

    #[test]
    fn endurance_wear_creates_faults_through_mapping() {
        let mut net = mlp();
        let mut mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_endurance(EnduranceModel::new(5.0, 0.0))
                .with_seed(1),
        )
        .unwrap();
        // Repeatedly rewriting one weight exhausts its 5-write budget
        // (1 write spent on initial programming).
        let mut worn = false;
        for i in 0..10 {
            let v = if i % 2 == 0 { 0.01 } else { 0.02 };
            if let WriteOutcome::WoreOut(_) = mapped.write_weight(0, 0, v).unwrap() {
                worn = true;
                break;
            }
        }
        assert!(worn, "cell should wear out");
        assert_eq!(mapped.wear_faults(), 1);
    }

    #[test]
    fn differential_mapping_roundtrips_weights() {
        use crate::config::WeightCoding;
        let mut net = mlp();
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork).with_coding(WeightCoding::Differential),
        )
        .unwrap();
        assert!(mapped.layers()[0].is_differential());
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6, "{b} vs {a}");
        }
    }

    #[test]
    fn differential_write_costs_two_pulses() {
        use crate::config::WeightCoding;
        let mut net = mlp();
        let mut uni =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        let mut net2 = mlp();
        let mut diff = MappedNetwork::from_network(
            &mut net2,
            MappingConfig::new(MappingScope::EntireNetwork).with_coding(WeightCoding::Differential),
        )
        .unwrap();
        let uni_before = uni.total_write_pulses();
        let diff_before = diff.total_write_pulses();
        uni.write_weight(0, 0, 0.01).unwrap();
        diff.write_weight(0, 0, 0.01).unwrap();
        assert_eq!(uni.total_write_pulses() - uni_before, 1);
        assert_eq!(
            diff.total_write_pulses() - diff_before,
            2,
            "differential coding pulses both polarities"
        );
    }

    #[test]
    fn differential_fault_semantics() {
        use crate::config::WeightCoding;
        // With enough injected faults the merged logical map must be
        // non-empty, and effective weights stay within full scale.
        let mut net = mlp();
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(WeightCoding::Differential)
                .with_initial_fault_fraction(0.3)
                .with_seed(4),
        )
        .unwrap();
        let truth = &mapped.ground_truth()[0];
        assert!(truth.count_faulty() > 0);
        mapped.load_effective_weights(&mut net).unwrap();
        let w_max = mapped.layers()[0].w_max as f32;
        let effective: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        assert!(effective.iter().all(|w| w.abs() <= w_max + 1e-5));
    }

    #[test]
    fn differential_detection_merges_pairs() {
        use crate::config::WeightCoding;
        use faultdet::detector::DetectorConfig;
        let mut net = mlp();
        let mut mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(WeightCoding::Differential)
                .with_initial_fault_fraction(0.1)
                .with_seed(8),
        )
        .unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let detections = mapped.detect(&detector).unwrap();
        let truth = mapped.ground_truth();
        for (det, truth) in detections.iter().zip(&truth) {
            // Test size 1 is exact per array; the merged logical map must
            // match the merged ground truth.
            assert_eq!(&det.predicted, truth);
        }
    }

    #[test]
    fn reprogram_skips_unchanged_cells() {
        let mut net = mlp();
        let mut mapped =
            MappedNetwork::from_network(&mut net, MappingConfig::new(MappingScope::EntireNetwork))
                .unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let writes = mapped.reprogram_from(&mut net, 1e-9).unwrap();
        assert_eq!(writes, 0, "nothing changed, nothing written");
        // Change one weight and reprogram: exactly one write.
        net.layer_params_mut(0).unwrap().weights[7] = 0.123;
        let writes = mapped.reprogram_from(&mut net, 1e-9).unwrap();
        assert_eq!(writes, 1);
    }

    #[test]
    fn sparing_replaces_dense_fault_tiles() {
        // Heavy faults, a spare pool, and an aggressive threshold: after
        // one detect + sparing pass the faulty tiles are swapped for
        // spares and the effective weights recover toward the targets.
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.25)
            .with_seed(17)
            .with_spare_tiles(64)
            .with_retire_fault_density(0.05);
        config.tile_size = 4;
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let faulty_before = mapped.fraction_faulty();
        assert!(faulty_before > 0.1);
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut detections = mapped.detect(&detector).unwrap();
        let flagged_before: usize = detections.iter().map(|d| d.predicted.count_faulty()).sum();
        assert!(flagged_before > 0);
        let outcome = mapped.apply_sparing(&detector, &mut detections).unwrap();
        assert!(outcome.tiles_retired > 0, "{outcome:?}");
        assert_eq!(outcome.tiles_retired, outcome.spares_attached);
        assert!(outcome.reprogram_pulses > 0);
        assert!(outcome.verify_cycles > 0);
        assert_eq!(mapped.chip().tiles_retired(), outcome.tiles_retired);
        // Spares come from the screened pool (fault-free at attach), so
        // swapping them in strictly lowers the in-service fault density.
        let faulty_after = mapped.fraction_faulty();
        assert!(
            faulty_after < faulty_before,
            "{faulty_after} vs {faulty_before}"
        );
        // The recomposed detections mirror the post-sparing ground truth
        // (test size 1 is exact, and each spare was verified).
        let truth = mapped.ground_truth();
        for (det, truth) in detections.iter().zip(&truth) {
            assert_eq!(&det.predicted, truth);
        }
    }

    #[test]
    fn sparing_degrades_when_pool_is_exhausted() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.3)
            .with_seed(13)
            .with_spare_tiles(1)
            .with_retire_fault_density(0.05);
        config.tile_size = 4;
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut detections = mapped.detect(&detector).unwrap();
        let outcome = mapped.apply_sparing(&detector, &mut detections).unwrap();
        assert_eq!(outcome.spares_attached, 1, "one spare, one attachment");
        assert!(outcome.spares_exhausted > 0, "the rest degrade in service");
        // Detection still works over the mixed old/spare tile set.
        let after = mapped.detect(&detector).unwrap();
        let truth = mapped.ground_truth();
        for (det, truth) in after.iter().zip(&truth) {
            assert_eq!(&det.predicted, truth);
        }
    }

    #[test]
    fn sparing_hands_over_incremental_store() {
        // Regression: apply_sparing must drop the retired tile's store
        // (stale aggregates for hardware no shard points at) and
        // warm-attach one on the verified spare, so post-sparing training
        // writes land in a journal some store is watching and the next
        // incremental campaign stays byte-equal to a full sweep.
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.25)
            .with_seed(17)
            .with_spare_tiles(64)
            .with_retire_fault_density(0.05)
            .with_endurance(EnduranceModel::new(30.0, 0.0));
        config.tile_size = 4;
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut detections = mapped.detect_incremental(&detector).unwrap();
        let before: Vec<Vec<usize>> = mapped
            .layers
            .iter()
            .map(|l| l.tiles.iter().map(|t| t.id).collect())
            .collect();
        let outcome = mapped.apply_sparing(&detector, &mut detections).unwrap();
        assert!(outcome.spares_attached > 0, "{outcome:?}");
        // Locate a shard that was re-pointed at a spare, and wear out its
        // first cell with repeated post-verify training pulses.
        let (li, ti) = mapped
            .layers
            .iter()
            .enumerate()
            .find_map(|(li, l)| {
                l.tiles
                    .iter()
                    .enumerate()
                    .find(|(ti, t)| before[li][*ti] != t.id)
                    .map(|(ti, _)| (li, ti))
            })
            .unwrap();
        // The handover itself: the retired slot's store is gone, the spare
        // carries a warm one with nothing pending (verify covered it).
        let retired_id = before[li][ti];
        let new_id = mapped.layers[li].tiles[ti].id;
        assert!(mapped.chip().slot(retired_id).unwrap().store.is_none());
        let spare_store = mapped.chip().slot(new_id).unwrap().store.as_ref().unwrap();
        assert_eq!(spare_store.pending_count(), 0, "verified baseline is warm");
        let t = mapped.layers[li].tiles[ti];
        let idx = t.row0 * mapped.layers[li].cols + t.col0;
        let mut worn = false;
        for i in 0..80 {
            let v = if i % 2 == 0 { 0.01 } else { 0.02 };
            if let WriteOutcome::WoreOut(_) = mapped.write_weight(li, idx, v).unwrap() {
                worn = true;
                break;
            }
        }
        assert!(worn, "spare cell should wear out after verification");
        // Test size 1 is exact over pending cells, so the next incremental
        // campaign's predictions must match the post-wear ground truth —
        // the worn cell must have been journaled as pending by the store
        // the sparing pass attached.
        let after = mapped.detect_incremental(&detector).unwrap();
        let truth = mapped.ground_truth();
        for (det, truth) in after.iter().zip(&truth) {
            assert_eq!(&det.predicted, truth);
        }
    }

    #[test]
    fn mapped_state_roundtrip_is_behavior_identical() {
        let mut net = mlp();
        let mut config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.25)
            .with_seed(17)
            .with_spare_tiles(8)
            .with_retire_fault_density(0.05);
        config.tile_size = 4;
        let mut mapped = MappedNetwork::from_network(&mut net, config.clone()).unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
        let mut detections = mapped.detect_incremental(&detector).unwrap();
        mapped.apply_sparing(&detector, &mut detections).unwrap();
        mapped.write_weight(0, 3, 0.05).unwrap();

        let state = mapped.export_state();
        let mut back = MappedNetwork::restore_state(config, &state).unwrap();
        assert_eq!(back.export_state(), state, "double roundtrip is lossless");

        let mut net_a = mlp();
        let mut net_b = mlp();
        mapped.load_effective_weights(&mut net_a).unwrap();
        back.load_effective_weights(&mut net_b).unwrap();
        assert_eq!(
            net_a.layer_params_mut(0).unwrap().weights.to_vec(),
            net_b.layer_params_mut(0).unwrap().weights.to_vec()
        );
        assert_eq!(mapped.ground_truth(), back.ground_truth());
        // Identical future campaigns: per-tile RNG streams, stores, and
        // carried baselines all restore mid-sequence.
        let a = mapped.detect_incremental(&detector).unwrap();
        let b = back.detect_incremental(&detector).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.predicted, y.predicted);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.write_pulses, y.write_pulses);
        }
    }

    #[test]
    fn restore_state_rejects_incoherent_captures() {
        let mut net = mlp();
        let config = MappingConfig::new(MappingScope::EntireNetwork).with_seed(3);
        let mapped = MappedNetwork::from_network(&mut net, config.clone()).unwrap();
        let good = mapped.export_state();
        assert!(MappedNetwork::restore_state(config.clone(), &good).is_ok());

        let mut bad = good.clone();
        bad.layers[0].tiles[0].2 = 999;
        assert!(MappedNetwork::restore_state(config.clone(), &bad).is_err());

        let mut bad = good.clone();
        bad.layers[0].targets.pop();
        assert!(MappedNetwork::restore_state(config.clone(), &bad).is_err());

        let mut bad = good.clone();
        bad.layers[0].w_max = f64::NAN;
        assert!(MappedNetwork::restore_state(config, &bad).is_err());
    }

    #[test]
    fn sparing_is_a_noop_without_a_threshold() {
        let mut net = mlp();
        let mut mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.3)
                .with_seed(2)
                .with_spare_tiles(8),
        )
        .unwrap();
        let detector = OnlineFaultDetector::new(DetectorConfig::new(1).unwrap());
        let mut detections = mapped.detect(&detector).unwrap();
        let outcome = mapped.apply_sparing(&detector, &mut detections).unwrap();
        assert_eq!(outcome, SparingOutcome::default());
        assert_eq!(mapped.chip().tiles_retired(), 0);
    }
}
