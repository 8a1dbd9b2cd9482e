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
use rram::bits::BitPlane;
use rram::cell::WriteOutcome;
use rram::fault::FaultMap;
use rram::spatial::FaultInjection;
use rram::RramError;

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
    /// Mirror of the effective (hardware) weights, row-major: always
    /// exactly what [`MappedLayer::shard_from_planes`] would compute from
    /// the chip now. Every `MappedNetwork` method that changes a
    /// mapped cell or re-points a shard refreshes it (DESIGN.md §6.11).
    effective: Vec<f32>,
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
    /// [`MappedLayer::shard_from_planes`] and the mirror it fills, which
    /// must reproduce this value bit-for-bit (asserted in tests).
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

    /// Writes the effective weights of shard `tile_idx` into `out` (the
    /// layer's row-major weights) by streaming its tiles' cached `f64`
    /// conductance planes row by row. The arithmetic per cell is the exact
    /// expression [`MappedLayer::effective`] evaluates, so the result is
    /// bit-identical to the per-cell path. Shards must match the layer's
    /// grid (checked at construction and restore).
    fn shard_from_planes(
        &self,
        chip: &TiledChip,
        tile_idx: usize,
        out: &mut [f32],
    ) -> Result<(), FttError> {
        let (cols, w_max) = (self.cols, self.w_max);
        let pos = self.tiles[tile_idx];
        let px = chip.tile(pos.id)?;
        let (t_rows, t_cols) = (px.rows(), px.cols());
        let gp = px.conductance_plane_f64();
        if self.is_differential() {
            // `tiles` and `neg_tiles` share one grid geometry.
            let gn = chip
                .tile(self.neg_tiles[tile_idx].id)?
                .conductance_plane_f64();
            for r in 0..t_rows {
                let dst = &mut out[(pos.row0 + r) * cols + pos.col0..][..t_cols];
                let gp_row = &gp[r * t_cols..(r + 1) * t_cols];
                let gn_row = &gn[r * t_cols..(r + 1) * t_cols];
                for ((d, &p), &n) in dst.iter_mut().zip(gp_row).zip(gn_row) {
                    *d = ((p - n) * w_max) as f32;
                }
            }
        } else {
            for r in 0..t_rows {
                let base = (pos.row0 + r) * cols + pos.col0;
                let dst = &mut out[base..base + t_cols];
                let signs = &self.signs[base..base + t_cols];
                let g_row = &gp[r * t_cols..(r + 1) * t_cols];
                for ((d, &s), &g) in dst.iter_mut().zip(signs).zip(g_row) {
                    *d = (f64::from(s) * g * w_max) as f32;
                }
            }
        }
        Ok(())
    }

    /// Refreshes the effective-weight mirror over the given shards from
    /// their tile planes.
    fn refresh_shards(
        &mut self,
        chip: &TiledChip,
        shards: impl IntoIterator<Item = usize>,
    ) -> Result<(), FttError> {
        let mut mirror = std::mem::take(&mut self.effective);
        mirror.resize(self.rows * self.cols, 0.0);
        let filled = shards
            .into_iter()
            .try_for_each(|ti| self.shard_from_planes(chip, ti, &mut mirror));
        self.effective = mirror;
        filled
    }

    /// Rebuilds the whole effective-weight mirror from the tile planes:
    /// the cost of one full reload, paid once per campaign instead of
    /// once per step.
    fn rebuild_effective(&mut self, chip: &TiledChip) -> Result<(), FttError> {
        self.refresh_shards(chip, 0..self.tiles.len())
    }

    /// Ground-truth fault map of this layer in logical coordinates. Under
    /// differential coding a logical cell is faulty when *either* polarity
    /// cell is stuck; SA1 (the severe kind — it pins full-scale current)
    /// wins when the pair disagrees.
    pub fn fault_map(&self, chip: &TiledChip) -> FaultMap {
        let mut map = FaultMap::healthy(self.rows, self.cols);
        for tile in self.tiles.iter().chain(&self.neg_tiles) {
            if let Ok(xbar) = chip.tile(tile.id) {
                map.overlay_at(tile.row0, tile.col0, &xbar.fault_map());
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

/// The outcome a differential pair reports for one logical write: a new
/// fault on either side wins, then a stuck cell, else the positive side's.
fn more_severe(pos: WriteOutcome, neg: WriteOutcome) -> WriteOutcome {
    match (pos, neg) {
        (WriteOutcome::WoreOut(k), _) | (_, WriteOutcome::WoreOut(k)) => WriteOutcome::WoreOut(k),
        (WriteOutcome::Stuck(k), _) | (_, WriteOutcome::Stuck(k)) => WriteOutcome::Stuck(k),
        (p, _) => p,
    }
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
            let mut layer = MappedLayer {
                weight_layer: k,
                layer_index,
                rows,
                cols,
                w_max,
                signs,
                targets: weights,
                tiles,
                neg_tiles,
                effective: Vec::new(),
            };
            layer.rebuild_effective(&chip)?;
            layers.push(layer);
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
    /// Each layer keeps a mirror of its effective weights that the
    /// mapping's own write, campaign, reprogram, sparing and restore paths
    /// refresh as they change cells (DESIGN.md §6.11), so the reload is one
    /// `copy_from_slice` per layer. The mirror holds exactly what
    /// [`MappedLayer::effective`] computes per cell, so the loaded weights
    /// are bit-identical to reading every cell back.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net` is not the network
    /// this mapping was built from (a mapped layer index has no parameters).
    pub fn load_effective_weights(&self, net: &mut Network) -> Result<(), FttError> {
        for layer in &self.layers {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.effective.len() {
                return Err(foreign_network_error(layer.layer_index));
            }
            params.weights.copy_from_slice(&layer.effective);
        }
        Ok(())
    }

    /// The reload as it was before the mirror: every tile plane walked
    /// into the network. The oracle the mirror is checked against.
    #[cfg(test)]
    fn load_effective_weights_from_planes(&self, net: &mut Network) -> Result<(), FttError> {
        for layer in &self.layers {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.rows * layer.cols {
                return Err(foreign_network_error(layer.layer_index));
            }
            for tile_idx in 0..layer.tiles.len() {
                layer.shard_from_planes(&self.chip, tile_idx, params.weights)?;
            }
        }
        Ok(())
    }

    /// Rebuilds the effective-weight mirrors of the given layer positions
    /// from the tile planes.
    fn rebuild_effective(
        &mut self,
        positions: impl IntoIterator<Item = usize>,
    ) -> Result<(), FttError> {
        for li in positions {
            self.layers[li].rebuild_effective(&self.chip)?;
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
    /// A one-element [`MappedNetwork::write_weights`].
    ///
    /// # Errors
    ///
    /// As [`MappedNetwork::write_weights`].
    pub fn write_weight(
        &mut self,
        position: usize,
        idx: usize,
        value: f32,
    ) -> Result<WriteOutcome, FttError> {
        let mut outcomes = Vec::with_capacity(1);
        self.write_weights(position, &[(idx, value)], &mut outcomes)?;
        outcomes
            .pop()
            .ok_or_else(|| FttError::InvalidConfig("write produced no outcome".into()))
    }

    /// Programs a batch of weights of one mapped layer, each with an
    /// unconditional training pulse (see [`MappedNetwork::write_weight`]),
    /// appending one outcome per `(idx, value)` update to `outcomes`, in
    /// issue order.
    ///
    /// Every index and value is checked before anything is written, so a
    /// failing batch writes nothing: no target, sign or cell changes. The
    /// updates are then split into maximal runs of consecutive updates
    /// that land on the same shard, and each run is one
    /// [`rram::crossbar::Crossbar::pulse_batch`] on that shard's tile.
    /// Every tile draws from its own RNG, in issue order within the tile,
    /// so the result is bit-identical to issuing the updates one at a
    /// time. Under
    /// differential coding each run pulses its positive-polarity cells,
    /// then its negative-polarity cells, and reports the more severe
    /// outcome of each pair (a new fault on either side wins, then a stuck
    /// cell). Each run then refreshes its entries of the layer's
    /// effective-weight mirror from the tile planes, so no later reload
    /// has to walk them.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] if `position` or any `idx` is
    /// out of range, and [`FttError::Rram`] with
    /// [`rram::RramError::NonFiniteValue`] for a NaN/infinite value.
    pub fn write_weights(
        &mut self,
        position: usize,
        updates: &[(usize, f32)],
        outcomes: &mut Vec<WriteOutcome>,
    ) -> Result<(), FttError> {
        let ts = self.config.tile_size;
        let layer = self.layers.get_mut(position).ok_or_else(|| {
            FttError::InvalidConfig(format!("mapped position {position} out of range"))
        })?;
        for &(idx, value) in updates {
            if idx >= layer.rows * layer.cols {
                return Err(FttError::InvalidConfig(format!(
                    "weight index {idx} out of range for {}x{} layer",
                    layer.rows, layer.cols
                )));
            }
            if !value.is_finite() {
                return Err(RramError::NonFiniteValue {
                    context: "write_weights value",
                }
                .into());
            }
        }
        for &(idx, value) in updates {
            layer.targets[idx] = value;
            if value != 0.0 {
                layer.signs[idx] = if value < 0.0 { -1 } else { 1 };
            }
        }
        let differential = layer.is_differential();
        let w_max = layer.w_max;
        // Unipolar coding stores |w|; differential coding stores the
        // positive part on `tiles` and the negative part on `neg_tiles`.
        let pos_g = |w: f32| {
            let mag = if differential { w.max(0.0) } else { w.abs() };
            (f64::from(mag) / w_max).min(1.0)
        };
        let neg_g = |w: f32| (f64::from((-w).max(0.0)) / w_max).min(1.0);
        let cols = layer.cols;
        let mut cells = Vec::with_capacity(updates.len().min(ts.saturating_mul(ts)));
        let mut neg_outcomes = Vec::new();
        let mut rest = updates;
        while let Some(&(first, _)) = rest.first() {
            let (mut row, mut row_base) = (first / cols, first / cols * cols);
            let tile_idx = layer.tile_of(row, first - row_base, ts);
            let (t_rows, t_cols) = layer.shard_dims(tile_idx, ts);
            let pos = layer.tiles[tile_idx];
            let (row_span, col_span) = (pos.row0..pos.row0 + t_rows, pos.col0..pos.col0 + t_cols);
            cells.clear();
            let mut run_len = 0;
            for &(idx, value) in rest {
                // Updates usually arrive in ascending order, so the row
                // cursor walks forward (at most to the shard's last row)
                // instead of dividing per update; an earlier index falls
                // back to one division.
                if idx < row_base {
                    (row, row_base) = (idx / cols, idx / cols * cols);
                }
                while idx - row_base >= cols && row < row_span.end {
                    row += 1;
                    row_base += cols;
                }
                let col = idx - row_base;
                if !row_span.contains(&row) || !col_span.contains(&col) {
                    break;
                }
                cells.push((row - pos.row0, col - pos.col0, pos_g(value)));
                run_len += 1;
            }
            let (run, tail) = rest.split_at(run_len);
            rest = tail;
            let run_start = outcomes.len();
            self.chip.tile_mut(pos.id)?.pulse_batch(&cells, outcomes)?;
            if differential {
                // `neg_tiles` shares the grid geometry of `tiles`.
                for (cell, &(_, value)) in cells.iter_mut().zip(run) {
                    cell.2 = neg_g(value);
                }
                neg_outcomes.clear();
                let neg = layer.neg_tiles[tile_idx];
                self.chip
                    .tile_mut(neg.id)?
                    .pulse_batch(&cells, &mut neg_outcomes)?;
                for (pair, &neg) in outcomes[run_start..].iter_mut().zip(&neg_outcomes) {
                    *pair = more_severe(*pair, neg);
                }
            }
            // Refresh the run's mirror entries from the planes the batches
            // just settled (a stuck cell keeps its conductance but may have
            // flipped sign). A run at least as long as its shard streams the
            // whole shard instead: no more entries, and no gather.
            if run_len >= t_rows * t_cols {
                layer.refresh_shards(&self.chip, [tile_idx])?;
            } else if differential {
                let gp = self.chip.tile(pos.id)?.conductance_plane_f64();
                let neg = layer.neg_tiles[tile_idx];
                let gn = self.chip.tile(neg.id)?.conductance_plane_f64();
                for (&(r, c, _), &(idx, _)) in cells.iter().zip(run) {
                    let i = r * t_cols + c;
                    layer.effective[idx] = ((gp[i] - gn[i]) * w_max) as f32;
                }
            } else {
                let g = self.chip.tile(pos.id)?.conductance_plane_f64();
                for (&(r, c, _), &(idx, _)) in cells.iter().zip(run) {
                    let s = f64::from(layer.signs[idx]);
                    layer.effective[idx] = (s * g[r * t_cols + c] * w_max) as f32;
                }
            }
        }
        Ok(())
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
    ///
    /// Each shard's target conductances go to its tile as one
    /// [`rram::crossbar::Crossbar::reprogram_conductances`] batch. Every
    /// tile draws from its own RNG and the batch visits its cells in
    /// row-major order, the order a row-major walk over the layer reaches
    /// them, so the writes are bit-identical to reprogramming one weight
    /// at a time.
    ///
    /// # Errors
    ///
    /// Returns [`FttError::InvalidConfig`] when `net` is not the network
    /// this mapping was built from.
    pub fn reprogram_from(&mut self, net: &mut Network, epsilon: f64) -> Result<u64, FttError> {
        let written = self.reprogram_layers(net, epsilon);
        // Rebuild every mirror even when a layer failed part-way: the
        // layers before it were rewritten.
        let rebuilt = self.rebuild_effective(0..self.layers.len());
        let writes = written?;
        rebuilt?;
        Ok(writes)
    }

    /// The writes of [`MappedNetwork::reprogram_from`], mirrors left stale.
    fn reprogram_layers(&mut self, net: &mut Network, epsilon: f64) -> Result<u64, FttError> {
        let ts = self.config.tile_size;
        let mut writes = 0u64;
        let mut plane = Vec::new();
        for layer in &mut self.layers {
            let params = net
                .layer_params_mut(layer.layer_index)
                .ok_or_else(|| foreign_network_error(layer.layer_index))?;
            if params.weights.len() != layer.rows * layer.cols {
                return Err(foreign_network_error(layer.layer_index));
            }
            // Selects, not branches: the signs of trained weights are
            // random.
            for ((t, s), &w) in layer
                .targets
                .iter_mut()
                .zip(layer.signs.iter_mut())
                .zip(params.weights.iter())
            {
                *t = w;
                let sign = if w < 0.0 { -1 } else { 1 };
                *s = if w != 0.0 { sign } else { *s };
            }
            let (cols, w_max) = (layer.cols, layer.w_max);
            // Unipolar coding stores |w|; differential coding stores the
            // positive part on `tiles` and the negative part on `neg_tiles`.
            let differential = layer.is_differential();
            let g = |w: f32, neg: bool| {
                let mag = match (differential, neg) {
                    (false, _) => w.abs(),
                    (true, false) => w.max(0.0),
                    (true, true) => (-w).max(0.0),
                };
                (f64::from(mag) / w_max).min(1.0)
            };
            for tile_idx in 0..layer.tiles.len() {
                let (t_rows, t_cols) = layer.shard_dims(tile_idx, ts);
                // `neg_tiles` shares the grid geometry of `tiles`.
                let shards = std::iter::once((layer.tiles[tile_idx], false))
                    .chain(differential.then(|| (layer.neg_tiles[tile_idx], true)));
                for (tile, neg) in shards {
                    plane.clear();
                    for r in 0..t_rows {
                        let base = (tile.row0 + r) * cols + tile.col0;
                        plane.extend(
                            layer.targets[base..base + t_cols]
                                .iter()
                                .map(|&w| g(w, neg)),
                        );
                    }
                    writes += self
                        .chip
                        .tile_mut(tile.id)?
                        .reprogram_conductances(&plane, epsilon)?;
                }
            }
        }
        Ok(writes)
    }

    /// [`MappedNetwork::reprogram_from`] one weight at a time: a tile
    /// lookup, a conductance read and maybe a write per cell, in row-major
    /// order over each layer. The oracle of the batched path.
    #[cfg(test)]
    pub(crate) fn reprogram_from_per_cell(
        &mut self,
        net: &mut Network,
        epsilon: f64,
    ) -> Result<u64, FttError> {
        fn verify_write(
            xbar: &mut rram::crossbar::Crossbar,
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
                let cells = if differential {
                    vec![
                        (
                            layer.tiles[tile_idx],
                            (f64::from(target.max(0.0)) / layer.w_max).min(1.0),
                        ),
                        (
                            layer.neg_tiles[tile_idx],
                            (f64::from((-target).max(0.0)) / layer.w_max).min(1.0),
                        ),
                    ]
                } else {
                    vec![(
                        layer.tiles[tile_idx],
                        (f64::from(target.abs()) / layer.w_max).min(1.0),
                    )]
                };
                for (t, g) in cells {
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
        self.rebuild_effective(0..self.layers.len())?;
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
            // Differential pairs merge onto the logical cell; the severe
            // kind (SA1) wins on disagreement.
            predicted.overlay_at(tile.row0, tile.col0, &outcome.predicted);
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
        // Test writes and restores can move cells (write variation, wear).
        self.rebuild_effective(0..self.layers.len())?;
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
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        let spared = self.attach_spares(threshold, detector, &mut out, &mut dirty);
        // A re-pointed shard reads its spare's cells: rebuild those layers'
        // mirrors even when a later spare failed.
        let rebuilt = self.rebuild_effective(dirty.iter().copied());
        spared?;
        rebuilt?;
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

    /// Retires, replaces and re-points every mapped tile over `threshold`
    /// (see [`MappedNetwork::apply_sparing_at`]), tallying into `out` and
    /// recording each layer with a re-pointed shard in `dirty`.
    fn attach_spares(
        &mut self,
        threshold: f64,
        detector: &OnlineFaultDetector,
        out: &mut SparingOutcome,
        dirty: &mut BTreeSet<usize>,
    ) -> Result<(), FttError> {
        let ts = self.config.tile_size;
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
                    dirty.insert(li);
                    // Hand the incremental store over: the retired tile's
                    // store describes hardware no shard points at any more
                    // (its aggregates would sit stale in the slot — and in
                    // any snapshot of it — forever), and warm-attaching a
                    // store on the just-verified spare lets the next
                    // incremental campaign trust the verify outcome as its
                    // baseline instead of lazily attaching all-pending and
                    // retesting the whole tile.
                    self.chip.refresh_spare_store(id, new_id)?;
                }
            }
        }
        Ok(())
    }

    /// Ground-truth fault maps per mapped layer (for oracle experiments and
    /// precision/recall scoring).
    pub fn ground_truth(&self) -> Vec<FaultMap> {
        self.layers
            .iter()
            .map(|l| l.fault_map(&self.chip))
            .collect()
    }

    /// Ground truth per mapped layer as bit planes of the faulty logical
    /// cells: the kind-agnostic view of [`MappedNetwork::ground_truth`]
    /// (a differential pair is faulty when either cell is stuck), built by
    /// ORing each tile's stuck-cell plane in at its shard origin.
    pub fn ground_truth_planes(&self) -> Vec<BitPlane> {
        self.layers
            .iter()
            .map(|l| {
                let mut plane = BitPlane::new(l.rows, l.cols);
                for tile in l.tiles.iter().chain(&l.neg_tiles) {
                    if let Ok(xbar) = self.chip.tile(tile.id) {
                        plane.or_at(tile.row0, tile.col0, xbar.fault_plane());
                    }
                }
                plane
            })
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
    /// incoherent (mismatched lengths, unknown tile ids, shards that differ
    /// from the layer's grid under `config.tile_size` in count, order,
    /// origin or tile size, a tile backing two shards) and propagates
    /// chip-level restore failures.
    pub fn restore_state(config: MappingConfig, state: &MappedState) -> Result<Self, FttError> {
        let chip = TiledChip::restore_state(chip_config(&config)?, &state.chip)?;
        let mut layers = Vec::with_capacity(state.layers.len());
        let mut seen = BTreeSet::new();
        let ts = config.tile_size;
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
            let grid = ShardGrid::new(l.rows, l.cols, ts, ts).ok_or_else(|| {
                FttError::InvalidConfig(format!("tile size {ts} cannot shard snapshot layer {li}"))
            })?;
            // Each shard list must be the layer's grid, in grid order, on
            // tiles of the shard's size, and no tile may back two shards:
            // the reload, the writes and the mirror all rely on it.
            let as_refs = |shards: &[(usize, usize, usize)],
                           seen: &mut BTreeSet<usize>|
             -> Result<Vec<TileRef>, FttError> {
                if shards.len() != grid.shard_count() {
                    return Err(FttError::InvalidConfig(format!(
                        "snapshot layer {li} has {} shards where its {}x{} grid on {ts}-cell \
                         tiles has {}",
                        shards.len(),
                        l.rows,
                        l.cols,
                        grid.shard_count()
                    )));
                }
                let mut refs = Vec::with_capacity(shards.len());
                for (&(row0, col0, id), shard) in shards.iter().zip(grid.iter()) {
                    let xbar = chip.tile(id).map_err(|_| {
                        FttError::InvalidConfig(format!(
                            "snapshot layer {li} references unknown tile {id}"
                        ))
                    })?;
                    if (row0, col0, xbar.rows(), xbar.cols())
                        != (shard.row0, shard.col0, shard.rows, shard.cols)
                    {
                        return Err(FttError::InvalidConfig(format!(
                            "snapshot layer {li} places a {}x{} tile at ({row0},{col0}) where \
                             its grid has a {}x{} shard at ({},{})",
                            xbar.rows(),
                            xbar.cols(),
                            shard.rows,
                            shard.cols,
                            shard.row0,
                            shard.col0
                        )));
                    }
                    if !seen.insert(id) {
                        return Err(FttError::InvalidConfig(format!(
                            "snapshot layer {li} maps tile {id}, which already backs a shard"
                        )));
                    }
                    refs.push(TileRef { row0, col0, id });
                }
                Ok(refs)
            };
            let tiles = as_refs(&l.tiles, &mut seen)?;
            let neg_tiles = if l.neg_tiles.is_empty() {
                Vec::new()
            } else {
                as_refs(&l.neg_tiles, &mut seen)?
            };
            let mut layer = MappedLayer {
                weight_layer: l.weight_layer,
                layer_index: l.layer_index,
                rows: l.rows,
                cols: l.cols,
                w_max: l.w_max,
                signs: l.signs.clone(),
                targets: l.targets.clone(),
                tiles,
                neg_tiles,
                effective: Vec::new(),
            };
            layer.rebuild_effective(&chip)?;
            layers.push(layer);
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

    /// Every weight of every mapped layer as raw bits (`-0.0` and `0.0`
    /// differ), after `load` filled `net`.
    fn loaded_bits(
        mapped: &MappedNetwork,
        load: fn(&MappedNetwork, &mut Network) -> Result<(), FttError>,
    ) -> Vec<Vec<u32>> {
        let mut net = mlp();
        load(mapped, &mut net).unwrap();
        mapped
            .layers()
            .iter()
            .map(|l| {
                let params = net.layer_params_mut(l.layer_index).unwrap();
                params.weights.iter().map(|w| w.to_bits()).collect()
            })
            .collect()
    }

    /// The mirror, the reload that copies it and the plane-walk oracle all
    /// hold, bit for bit, what the per-cell reference reads off the chip.
    fn assert_mirror_coherent(mapped: &MappedNetwork, context: &str) {
        let copied = loaded_bits(mapped, MappedNetwork::load_effective_weights);
        let walked = loaded_bits(mapped, MappedNetwork::load_effective_weights_from_planes);
        assert_eq!(copied, walked, "reload vs plane walk after {context}");
        let ts = mapped.config.tile_size;
        for (layer, copied) in mapped.layers().iter().zip(&copied) {
            let mirror: Vec<u32> = layer.effective.iter().map(|w| w.to_bits()).collect();
            assert_eq!(&mirror, copied, "mirror vs reload after {context}");
            for r in 0..layer.rows {
                for c in 0..layer.cols {
                    let reference = layer.effective(mapped.chip(), r, c, ts) as f32;
                    assert_eq!(
                        copied[r * layer.cols + c],
                        reference.to_bits(),
                        "({r},{c}) of layer {} after {context}",
                        layer.weight_layer
                    );
                }
            }
        }
    }

    #[test]
    fn plane_backed_load_matches_per_cell_effective() {
        use crate::config::WeightCoding;
        // The mirror and the plane walk must reproduce the per-cell
        // reference exactly, for both codings, across tile boundaries,
        // with faults present.
        for coding in [WeightCoding::Unipolar, WeightCoding::Differential] {
            let mut net = mlp();
            let mut config = MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(coding)
                .with_initial_fault_fraction(0.2)
                .with_seed(21);
            config.tile_size = 4; // force tiling
            let mapped = MappedNetwork::from_network(&mut net, config).unwrap();
            assert_mirror_coherent(&mapped, &format!("mapping under {coding:?}"));
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
    fn differential_pair_reports_the_more_severe_outcome() {
        use rram::fault::FaultKind::{StuckAt0, StuckAt1};
        use WriteOutcome::{Applied, Stuck, WoreOut};
        for (pos, neg, want) in [
            (Applied, Applied, Applied),
            (Applied, Stuck(StuckAt0), Stuck(StuckAt0)),
            (Stuck(StuckAt1), Applied, Stuck(StuckAt1)),
            (Applied, WoreOut(StuckAt1), WoreOut(StuckAt1)),
            (Stuck(StuckAt0), WoreOut(StuckAt1), WoreOut(StuckAt1)),
            (WoreOut(StuckAt0), WoreOut(StuckAt1), WoreOut(StuckAt0)),
            (Stuck(StuckAt0), Stuck(StuckAt1), Stuck(StuckAt0)),
        ] {
            assert_eq!(more_severe(pos, neg), want, "({pos:?}, {neg:?})");
        }
        // Through the write path: whichever polarity wears out first, the
        // logical write reports it.
        let mut net = mlp();
        let config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_coding(crate::config::WeightCoding::Differential)
            .with_endurance(EnduranceModel::new(6.0, 3.0))
            .with_seed(5);
        let mut mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        let mut neg_first = 0;
        for idx in 0..mapped.layers()[0].rows * mapped.layers()[0].cols {
            for step in 0..64 {
                let worn_before = mapped.wear_faults();
                let value = if step % 2 == 0 { 0.02 } else { -0.02 };
                let outcome = mapped.write_weight(0, idx, value).unwrap();
                if mapped.wear_faults() > worn_before {
                    assert!(matches!(outcome, WriteOutcome::WoreOut(_)), "{outcome:?}");
                    let layer = &mapped.layers()[0];
                    let (row, col) = (idx / layer.cols, idx % layer.cols);
                    let neg = layer.neg_tiles[layer.tile_of(row, col, mapped.config.tile_size)];
                    let neg_cell = mapped.chip.tile(neg.id).unwrap();
                    if neg_cell
                        .cell(row - neg.row0, col - neg.col0)
                        .unwrap()
                        .state()
                        .is_faulty()
                    {
                        neg_first += 1;
                    }
                    break;
                }
            }
        }
        assert!(
            neg_first > 0,
            "some pair must wear out on its negative side first"
        );
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

    /// One mapping of `mlp()` with write variation, a short endurance
    /// budget (cells wear out while reprogramming) and initial faults,
    /// sharded into `tile` × `tile` tiles.
    fn worn_mapping(
        coding: crate::config::WeightCoding,
        tile: usize,
        seed: u64,
    ) -> (Network, MappedNetwork) {
        let mut net = mlp();
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_coding(coding)
                .with_tile_size(tile)
                .with_variation(rram::variation::WriteVariation::new(0.03))
                .with_endurance(EnduranceModel::new(5.0, 2.0))
                .with_initial_fault_fraction(0.1)
                .with_seed(seed),
        )
        .unwrap();
        (net, mapped)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Reprogramming one batch per tile is bit-identical to the
        /// per-cell path, for both codings and `epsilon` 0 and 1e-6, over
        /// several rounds of weight changes (zeros, sign flips and weights
        /// past full scale included).
        #[test]
        fn batched_reprogram_matches_the_per_cell_path(
            seed in 0u64..1_000,
            differential in proptest::prelude::any::<bool>(),
            tile in 1usize..8,
            tiny_epsilon in proptest::prelude::any::<bool>(),
        ) {
            use crate::config::WeightCoding;
            use rand::Rng;
            let coding = if differential { WeightCoding::Differential } else { WeightCoding::Unipolar };
            let epsilon = if tiny_epsilon { 1e-6 } else { 0.0 };
            let (mut net_a, mut a) = worn_mapping(coding, tile, seed);
            let (mut net_b, mut b) = worn_mapping(coding, tile, seed);
            let mut rng = rram::rng::sim_rng(seed ^ 0xfeed);
            for _ in 0..3 {
                for li in net_a.weight_layer_indices() {
                    let wa = net_a.layer_params_mut(li).unwrap().weights;
                    let mut changes: Vec<(usize, f32)> = Vec::new();
                    for (i, &w) in wa.iter().enumerate() {
                        if rng.gen_bool(0.4) {
                            let new = match rng.gen_range(0..4) {
                                0 => 0.0,
                                1 => -w,
                                2 => w * 5.0,
                                _ => rng.gen_range(-1.0f32..1.0),
                            };
                            changes.push((i, new));
                        }
                    }
                    for &(i, w) in &changes {
                        wa[i] = w;
                    }
                    let wb = net_b.layer_params_mut(li).unwrap().weights;
                    for &(i, w) in &changes {
                        wb[i] = w;
                    }
                }
                let got = a.reprogram_from(&mut net_a, epsilon).unwrap();
                let want = b.reprogram_from_per_cell(&mut net_b, epsilon).unwrap();
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert!(a.export_state() == b.export_state());
            }
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
    fn restore_rejects_shards_that_do_not_match_the_layer_grid() {
        use crate::config::WeightCoding;
        // One shard per layer at the default tile size: swapping them puts
        // a 10x4 tile under the 6x10 layer and vice versa.
        let mut net = mlp();
        let config = MappingConfig::new(MappingScope::EntireNetwork).with_seed(3);
        let good = MappedNetwork::from_network(&mut net, config.clone())
            .unwrap()
            .export_state();
        let mut bad = good.clone();
        let (first, second) = bad.layers.split_at_mut(1);
        std::mem::swap(&mut first[0].tiles, &mut second[0].tiles);
        let err = MappedNetwork::restore_state(config.clone(), &bad);
        assert!(matches!(err, Err(FttError::InvalidConfig(_))), "{err:?}");
        // The same capture under another tile size is another grid.
        let err = MappedNetwork::restore_state(config.with_tile_size(4), &good);
        assert!(matches!(err, Err(FttError::InvalidConfig(_))), "{err:?}");

        // A tiled differential mapping: 6x10 on 4-cell tiles has shards
        // 4x4, 4x4, 4x2, 2x4, 2x4, 2x2.
        let mut net = mlp();
        let config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_coding(WeightCoding::Differential)
            .with_tile_size(4)
            .with_seed(3);
        let good = MappedNetwork::from_network(&mut net, config.clone())
            .unwrap()
            .export_state();
        assert!(MappedNetwork::restore_state(config.clone(), &good).is_ok());
        let corruptions: [fn(&mut MappedState); 6] = [
            // Shards out of grid order (origins no longer match).
            |st| st.layers[0].tiles.swap(0, 1),
            // A 4x2 tile under a 4x4 shard, at the right origin.
            |st| {
                let id = st.layers[0].tiles[2].2;
                st.layers[0].tiles[1].2 = id;
            },
            // A shard missing.
            |st| {
                st.layers[0].neg_tiles.pop();
            },
            // A shard's origin moved.
            |st| st.layers[1].tiles[0].1 = 1,
            // One tile backing two equal-sized shards.
            |st| {
                let id = st.layers[0].tiles[0].2;
                st.layers[0].neg_tiles[0].2 = id;
            },
            // Negative shards of the other layer.
            |st| {
                let (first, second) = st.layers.split_at_mut(1);
                std::mem::swap(&mut first[0].neg_tiles, &mut second[0].neg_tiles);
            },
        ];
        for (k, corrupt) in corruptions.iter().enumerate() {
            let mut bad = good.clone();
            corrupt(&mut bad);
            let err = MappedNetwork::restore_state(config.clone(), &bad);
            assert!(
                matches!(err, Err(FttError::InvalidConfig(_))),
                "corruption {k}: {err:?}"
            );
        }
    }

    /// A mapping of `mlp()` on `tile` × `tile` tiles that churns: write
    /// variation, endurance short enough to wear cells out mid-batch and
    /// mid-campaign, initial faults, and a spare pool with a retirement
    /// threshold low enough for sparing to fire.
    fn churning_mapping(
        coding: crate::config::WeightCoding,
        tile: usize,
        seed: u64,
    ) -> (Network, MappedNetwork) {
        let mut net = mlp();
        let config = MappingConfig::new(MappingScope::EntireNetwork)
            .with_coding(coding)
            .with_tile_size(tile)
            .with_variation(rram::variation::WriteVariation::new(0.03))
            .with_endurance(EnduranceModel::new(6.0, 2.0))
            .with_initial_fault_fraction(0.15)
            .with_spare_tiles(16)
            .with_retire_fault_density(0.2)
            .with_seed(seed);
        let mapped = MappedNetwork::from_network(&mut net, config).unwrap();
        (net, mapped)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The effective-weight mirror stays bit-identical to the plane
        /// walk and the per-cell reference through arbitrary sequences of
        /// the mapping's cell-changing methods, for both codings and tile
        /// sizes that do not divide the layers.
        #[test]
        fn mirror_stays_coherent_through_every_mutation(
            seed in 0u64..1_000,
            differential in proptest::prelude::any::<bool>(),
            tile in proptest::prelude::prop_oneof![
                proptest::prelude::Just(3usize),
                proptest::prelude::Just(4usize),
                proptest::prelude::Just(7usize)
            ],
            ops in proptest::collection::vec((0u8..7, 0u64..1 << 32), 1..10),
        ) {
            use crate::config::WeightCoding;
            use rand::Rng;
            let coding = if differential { WeightCoding::Differential } else { WeightCoding::Unipolar };
            let (mut net, mut mapped) = churning_mapping(coding, tile, seed);
            assert_mirror_coherent(&mapped, "mapping");
            let detector = OnlineFaultDetector::new(DetectorConfig::new(2).unwrap());
            for (step, &(op, op_seed)) in ops.iter().enumerate() {
                let mut rng = rram::rng::sim_rng(op_seed);
                let context = format!("op {op} at step {step}");
                match op {
                    // Training writes: zeros, ±0, sign flips, values past
                    // full scale, in ascending or arbitrary order, or every
                    // weight of the layer.
                    0 | 1 => {
                        let pos = rng.gen_range(0..mapped.layers().len());
                        let layer = &mapped.layers()[pos];
                        let (n, w_max) = (layer.rows * layer.cols, layer.w_max as f32);
                        let mut updates: Vec<(usize, f32)> = (0..rng.gen_range(0..3 * n))
                            .map(|_| {
                                let idx = rng.gen_range(0..n);
                                let value = match rng.gen_range(0..5) {
                                    0 => 0.0,
                                    1 => -0.0,
                                    2 => -layer.targets[idx],
                                    3 => 5.0 * w_max * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                                    _ => rng.gen_range(-w_max..w_max),
                                };
                                (idx, value)
                            })
                            .collect();
                        if op == 0 {
                            updates.sort_by_key(|&(idx, _)| idx);
                            if rng.gen_bool(0.3) {
                                // Every weight once, like the original
                                // method: each run covers its shard.
                                updates.dedup_by_key(|u| u.0);
                                let mut every: Vec<(usize, f32)> =
                                    (0..n).map(|idx| (idx, layer.targets[idx])).collect();
                                for &(idx, value) in &updates {
                                    every[idx].1 = value;
                                }
                                updates = every;
                            }
                        }
                        let mut outcomes = Vec::new();
                        mapped.write_weights(pos, &updates, &mut outcomes).unwrap();
                    }
                    // Flip the sign of every stuck cell of a layer: the
                    // cells keep their conductance, the periphery does not.
                    2 => {
                        let pos = rng.gen_range(0..mapped.layers().len());
                        let layer = &mapped.layers()[pos];
                        let w_max = layer.w_max as f32;
                        let updates: Vec<(usize, f32)> = mapped.ground_truth()[pos]
                            .iter_faulty()
                            .map(|(r, c, _)| {
                                let idx = r * layer.cols + c;
                                (idx, -f32::from(layer.signs[idx]) * 0.5 * w_max)
                            })
                            .collect();
                        let mut outcomes = Vec::new();
                        mapped.write_weights(pos, &updates, &mut outcomes).unwrap();
                    }
                    3 => {
                        mapped.detect(&detector).unwrap();
                    }
                    4 => {
                        mapped.detect_incremental(&detector).unwrap();
                    }
                    5 => {
                        mapped.load_target_weights(&mut net).unwrap();
                        for li in net.weight_layer_indices() {
                            for w in net.layer_params_mut(li).unwrap().weights.iter_mut() {
                                if rng.gen_bool(0.3) {
                                    *w = match rng.gen_range(0..3) {
                                        0 => 0.0,
                                        1 => -*w,
                                        _ => *w * 5.0,
                                    };
                                }
                            }
                        }
                        let epsilon = if rng.gen_bool(0.5) { 1e-6 } else { 0.0 };
                        mapped.reprogram_from(&mut net, epsilon).unwrap();
                    }
                    _ => {
                        if rng.gen_bool(0.5) {
                            let mut detections = mapped.detect(&detector).unwrap();
                            assert_mirror_coherent(&mapped, &context);
                            mapped.apply_sparing(&detector, &mut detections).unwrap();
                        } else {
                            let state = mapped.export_state();
                            mapped = MappedNetwork::restore_state(mapped.config.clone(), &state).unwrap();
                        }
                    }
                }
                assert_mirror_coherent(&mapped, &context);
            }
        }
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
