//! Property-based tests for the fault-tolerant training core.

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope, RemapConfig, WeightCoding};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::mapping::MappedNetwork;
use ftt_core::remap::{CostModel, RemapAlgorithm, RemapProblem};
use ftt_core::threshold::{ThresholdPolicy, ThresholdTrainer, UpdateReport};
use nn::init::init_rng;
use nn::layers::{Dense, Relu};
use nn::loss::softmax_cross_entropy;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::pruning::magnitude_prune;
use nn::synth::SyntheticDataset;
use nn::tensor::Tensor;
use proptest::prelude::*;
use rram::cell::WriteOutcome;
use rram::endurance::EnduranceModel;
use rram::variation::WriteVariation;

fn mlp(seed: u64, hidden: usize) -> Network {
    let mut rng = init_rng(seed);
    let mut net = Network::new();
    net.push(Dense::new(8, hidden, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(hidden, 4, &mut rng));
    net
}

/// A mapping whose 3×3 tiles are smaller than both dimensions of every
/// layer of `mlp(_, hidden ≥ 4)`, so same-tile runs break across tile
/// rows and tile columns. A tiny endurance budget makes cells wear out
/// mid-batch; initial faults and write variation exercise the stuck and
/// noise paths.
fn tiled_config(seed: u64, differential: bool) -> MappingConfig {
    let coding = if differential {
        WeightCoding::Differential
    } else {
        WeightCoding::Unipolar
    };
    MappingConfig::new(MappingScope::EntireNetwork)
        .with_coding(coding)
        .with_tile_size(3)
        .with_endurance(EnduranceModel::new(4.0, 2.0))
        .with_variation(WriteVariation::new(0.02))
        .with_initial_fault_fraction(0.1)
        .with_seed(seed)
}

/// One forward/backward pass on a fixed input, from the hardware weights.
#[expect(
    clippy::unwrap_used,
    reason = "test-fixture helper outside #[test] fns fails loudly by design"
)]
fn backward_step(net: &mut Network, mapped: &MappedNetwork, step: u64) {
    mapped.load_effective_weights(net).unwrap();
    let x = Tensor::from_vec(
        vec![2, 8],
        (0..16)
            .map(|i| ((i as f32) * 0.61 + step as f32 * 1.3).sin())
            .collect(),
    );
    let logits = net.forward_train(&x);
    let (_, grad) = softmax_cross_entropy(&logits, &[1, 2]);
    net.backward(&grad);
}

/// The per-update reference for [`ThresholdTrainer::apply_with_mask`]:
/// decide every layer against a copy of its targets, then issue each
/// surviving update as its own `write_weight`, then step the biases.
/// Returns `(writes_issued, writes_skipped, new_faults)`; the gradients
/// it is fed are finite.
#[expect(
    clippy::unwrap_used,
    reason = "test-fixture helper outside #[test] fns fails loudly by design"
)]
fn reference_apply(
    policy: ThresholdPolicy,
    ledgers: &mut [Vec<u32>],
    mapped: &mut MappedNetwork,
    net: &mut Network,
    lr: f32,
    frozen: Option<&nn::pruning::PruneMask>,
) -> (u64, u64, u64) {
    let positions: Vec<(usize, usize)> = mapped
        .layers()
        .iter()
        .enumerate()
        .map(|(pos, l)| (pos, l.layer_index))
        .collect();
    let mut max_abs_dw = 0.0f64;
    for &(_, li) in &positions {
        for &g in net.layer_params_mut(li).unwrap().weight_grad {
            let dw = f64::from(g.abs()) * f64::from(lr);
            if dw.is_finite() && dw > max_abs_dw {
                max_abs_dw = dw;
            }
        }
    }
    let (mut issued, mut skipped, mut faults) = (0, 0, 0);
    let mut pending = Vec::new();
    for &(pos, li) in &positions {
        let targets = mapped.layers()[pos].targets().to_vec();
        let pruned = frozen
            .and_then(|m| m.layers().iter().find(|l| l.layer_index == li))
            .map(|l| l.pruned.clone());
        let params = net.layer_params_mut(li).unwrap();
        for (idx, &g) in params.weight_grad.iter().enumerate() {
            if pruned.as_ref().is_some_and(|p| p[idx]) {
                continue;
            }
            let dw = f64::from(g) * f64::from(lr);
            let n = f64::from(ledgers[pos][idx]);
            let thr = match policy {
                ThresholdPolicy::None => 0.0,
                ThresholdPolicy::Fixed { fraction } => fraction * max_abs_dw,
                ThresholdPolicy::WearAware { fraction, growth } => {
                    fraction * (1.0 + growth * n) * max_abs_dw
                }
            };
            if dw.abs() < thr {
                skipped += 1;
            } else {
                pending.push((pos, idx, targets[idx] - lr * g));
            }
        }
    }
    for (pos, idx, value) in pending {
        let outcome = mapped.write_weight(pos, idx, value).unwrap();
        if outcome.changed() {
            issued += 1;
            ledgers[pos][idx] += 1;
        }
        if outcome.new_fault().is_some() {
            faults += 1;
        }
    }
    for (_, params) in net.param_layers_mut() {
        if let (Some(bias), Some(bias_grad)) = (params.bias, params.bias_grad) {
            for (b, &g) in bias.iter_mut().zip(bias_grad) {
                *b -= lr * g;
            }
        }
    }
    (issued, skipped, faults)
}

/// The threshold scan as it was before the bit-domain bound: a max pass
/// over `f64` products, then every entry through the per-element checks,
/// one `write_weights` batch per layer, then the biases. Returns the full
/// report; unlike [`reference_apply`] it takes any gradients.
#[expect(
    clippy::unwrap_used,
    reason = "test-fixture helper outside #[test] fns fails loudly by design"
)]
fn scalar_scan_apply(
    policy: ThresholdPolicy,
    ledgers: &mut [Vec<u32>],
    mapped: &mut MappedNetwork,
    net: &mut Network,
    lr: f32,
    frozen: Option<&nn::pruning::PruneMask>,
) -> UpdateReport {
    let positions: Vec<(usize, usize)> = mapped
        .layers()
        .iter()
        .enumerate()
        .map(|(pos, l)| (pos, l.layer_index))
        .collect();
    let mut max_abs_dw = 0.0f64;
    for &(_, li) in &positions {
        for &g in net.layer_params_mut(li).unwrap().weight_grad {
            let dw = f64::from(g.abs()) * f64::from(lr);
            if dw.is_finite() && dw > max_abs_dw {
                max_abs_dw = dw;
            }
        }
    }
    let mut report = UpdateReport {
        max_abs_dw,
        ..Default::default()
    };
    let degenerate = max_abs_dw == 0.0 && !matches!(policy, ThresholdPolicy::None);
    for &(pos, li) in &positions {
        let targets = mapped.layers()[pos].targets().to_vec();
        let pruned = frozen
            .and_then(|m| m.layers().iter().find(|l| l.layer_index == li))
            .map(|l| l.pruned.clone());
        let mut updates = Vec::new();
        let params = net.layer_params_mut(li).unwrap();
        for (idx, &g) in params.weight_grad.iter().enumerate() {
            if pruned.as_ref().is_some_and(|p| p[idx]) {
                continue;
            }
            let dw = f64::from(g) * f64::from(lr);
            if !dw.is_finite() {
                report.nan_updates_skipped += 1;
                continue;
            }
            if degenerate {
                report.writes_skipped += 1;
                continue;
            }
            let n = f64::from(ledgers[pos][idx]);
            let thr = match policy {
                ThresholdPolicy::None => 0.0,
                ThresholdPolicy::Fixed { fraction } => fraction * max_abs_dw,
                ThresholdPolicy::WearAware { fraction, growth } => {
                    fraction * (1.0 + growth * n) * max_abs_dw
                }
            };
            if dw.abs() < thr {
                report.writes_skipped += 1;
                continue;
            }
            let value = targets[idx] - lr * g;
            if !value.is_finite() {
                report.nan_updates_skipped += 1;
                continue;
            }
            updates.push((idx, value));
        }
        let mut outcomes = Vec::new();
        mapped.write_weights(pos, &updates, &mut outcomes).unwrap();
        for (&(idx, _), outcome) in updates.iter().zip(&outcomes) {
            if outcome.changed() {
                report.writes_issued += 1;
                ledgers[pos][idx] += 1;
            }
            if outcome.new_fault().is_some() {
                report.new_faults += 1;
            }
        }
    }
    for (_, params) in net.param_layers_mut() {
        if let (Some(bias), Some(bias_grad)) = (params.bias, params.bias_grad) {
            for (b, &g) in bias.iter_mut().zip(bias_grad) {
                if g.is_finite() {
                    *b -= lr * g;
                } else {
                    report.nan_updates_skipped += 1;
                }
            }
        }
    }
    report
}

/// Inputs and output gradients whose products `x·g` (the weight gradients
/// of a one-layer net at batch 1) cover NaN, ±∞, ±0, subnormals and the
/// f32 extremes.
const SPECIAL_X: [f32; 8] = [1.0, 0.0, -0.0, 1e-40, 3e38, -2.5, 1e-20, f32::MIN_POSITIVE];
const SPECIAL_G: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1e-45,
    f32::MAX,
    0.3,
    -1e-3,
    1e-30,
];
const SPECIAL_LR: [f32; 8] = [0.0, -0.1, 1e-30, 1e30, f32::INFINITY, f32::NAN, 0.2, 1e-3];
const SPECIAL_POLICIES: [ThresholdPolicy; 8] = [
    ThresholdPolicy::None,
    ThresholdPolicy::Fixed { fraction: 0.01 },
    ThresholdPolicy::Fixed { fraction: 0.0 },
    ThresholdPolicy::Fixed { fraction: f64::NAN },
    ThresholdPolicy::Fixed { fraction: -1.0 },
    ThresholdPolicy::WearAware {
        fraction: 0.05,
        growth: 0.5,
    },
    ThresholdPolicy::WearAware {
        fraction: 0.05,
        growth: -0.5,
    },
    ThresholdPolicy::WearAware {
        fraction: 0.01,
        growth: 0.0,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free mapping is transparent: effective weights equal the
    /// software weights for any seed/topology/coding.
    #[test]
    fn clean_mapping_is_transparent(
        seed in 0u64..200,
        hidden in 2usize..16,
        differential in any::<bool>(),
    ) {
        let mut net = mlp(seed, hidden);
        let before: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        let coding = if differential {
            WeightCoding::Differential
        } else {
            WeightCoding::Unipolar
        };
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork).with_coding(coding),
        )
        .unwrap();
        mapped.load_effective_weights(&mut net).unwrap();
        let after: Vec<f32> = net.layer_params_mut(0).unwrap().weights.to_vec();
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b - a).abs() < 1e-5);
        }
    }

    /// A higher threshold fraction never issues more writes.
    #[test]
    fn threshold_is_monotone_in_fraction(seed in 0u64..100) {
        let mut writes = Vec::new();
        for fraction in [0.0, 0.01, 0.1, 0.5] {
            let mut net = mlp(seed, 8);
            let mut mapped = MappedNetwork::from_network(
                &mut net,
                MappingConfig::new(MappingScope::EntireNetwork),
            )
            .unwrap();
            mapped.load_effective_weights(&mut net).unwrap();
            let x = Tensor::from_vec(
                vec![2, 8],
                (0..16).map(|i| ((i as f32) * 0.37 + seed as f32).sin()).collect(),
            );
            let logits = net.forward_train(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &[0, 3]);
            net.backward(&grad);
            let mut trainer =
                ThresholdTrainer::new(ThresholdPolicy::Fixed { fraction }, &mapped);
            let report = trainer.apply(&mut mapped, &mut net, 0.1).unwrap();
            writes.push(report.writes_issued);
        }
        prop_assert!(writes.windows(2).all(|w| w[0] >= w[1]), "{:?}", writes);
    }

    /// Every re-mapping plan's permutations are valid permutations, and the
    /// reported final cost matches an independent re-evaluation.
    #[test]
    fn remap_plan_is_consistent(
        seed in 0u64..100,
        hidden in 3usize..14,
        algorithm_pick in 0usize..3,
    ) {
        let algorithm = [
            RemapAlgorithm::RandomShuffle,
            RemapAlgorithm::SwapHillClimb,
            RemapAlgorithm::Genetic { population: 6, islands: 2 },
        ][algorithm_pick];
        let mut net = mlp(seed, hidden);
        let mapped = MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.2)
                .with_seed(seed),
        )
        .unwrap();
        let mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).unwrap();
        let plan = problem.solve(
            &mapped,
            &RemapConfig { algorithm, cost: CostModel::PaperDist, iterations: 500, seed },
        );
        for (_, perm) in plan.perms() {
            // Permutation validity: applying then inverting is identity.
            let data: Vec<usize> = (0..perm.len()).collect();
            let there = perm.apply(&data);
            let back = perm.inverse().apply(&there);
            prop_assert_eq!(back, data);
        }
        prop_assert!(plan.final_cost <= plan.initial_cost || algorithm == RemapAlgorithm::RandomShuffle);
    }

    /// `write_weights` is the per-update loop, batched: one call with
    /// every update (arbitrary order, repeated indices) leaves outcomes and
    /// the full mapped state — every tile's cells, RNG position, wear
    /// counters and dirty journal — identical to issuing the same updates
    /// one `write_weight` at a time, under both codings.
    #[test]
    fn write_weights_matches_single_writes(
        seed in 0u64..200,
        hidden in 4usize..9,
        differential in any::<bool>(),
        picks in proptest::collection::vec((0usize..1000, -1.5f32..1.5), 0..120),
    ) {
        let mut net_a = mlp(seed, hidden);
        let mut net_b = mlp(seed, hidden);
        let config = tiled_config(seed, differential);
        let mut a = MappedNetwork::from_network(&mut net_a, config.clone()).unwrap();
        let mut b = MappedNetwork::from_network(&mut net_b, config).unwrap();
        for pos in 0..a.layers().len() {
            let n = a.layers()[pos].rows * a.layers()[pos].cols;
            let updates: Vec<(usize, f32)> =
                picks.iter().map(|&(i, v)| (i % n, v)).collect();
            let mut batched = Vec::new();
            a.write_weights(pos, &updates, &mut batched).unwrap();
            let single: Vec<WriteOutcome> = updates
                .iter()
                .map(|&(idx, v)| b.write_weight(pos, idx, v).unwrap())
                .collect();
            prop_assert_eq!(batched, single);
            prop_assert_eq!(a.export_state(), b.export_state());
        }
    }

    /// A failing batch writes nothing: an out-of-range index or a
    /// non-finite value anywhere in it leaves the mapped state unchanged.
    #[test]
    fn failing_write_weights_changes_nothing(
        seed in 0u64..200,
        differential in any::<bool>(),
        good in proptest::collection::vec((0usize..32, -1.0f32..1.0), 0..20),
        at in 0usize..20,
        bad_kind in 0u8..3,
    ) {
        let mut net = mlp(seed, 4);
        let mut mapped =
            MappedNetwork::from_network(&mut net, tiled_config(seed, differential)).unwrap();
        let bad = match bad_kind {
            0 => (32, 0.5),
            1 => (0, f32::NAN),
            _ => (0, f32::INFINITY),
        };
        let mut updates = good;
        let at = at.min(updates.len());
        updates.insert(at, bad);
        let before = mapped.export_state();
        let mut outcomes = Vec::new();
        prop_assert!(mapped.write_weights(0, &updates, &mut outcomes).is_err());
        prop_assert!(outcomes.is_empty());
        prop_assert_eq!(mapped.export_state(), before);
    }

    /// The fused decide-and-write trainer reports, ledgers and hardware
    /// state equal to the per-update reference (decide every layer first,
    /// then one `write_weight` per surviving update), over several
    /// iterations, for every policy, with and without a frozen mask.
    #[test]
    fn threshold_trainer_matches_per_update_reference(
        seed in 0u64..200,
        hidden in 4usize..9,
        differential in any::<bool>(),
        policy_pick in 0usize..3,
        masked in any::<bool>(),
    ) {
        let policy = [
            ThresholdPolicy::None,
            ThresholdPolicy::Fixed { fraction: 0.05 },
            ThresholdPolicy::WearAware { fraction: 0.05, growth: 0.5 },
        ][policy_pick];
        let mut net_a = mlp(seed, hidden);
        let mut net_b = mlp(seed, hidden);
        let mask = masked.then(|| {
            magnitude_prune(&mut net_b, 0.3);
            magnitude_prune(&mut net_a, 0.3)
        });
        let config = tiled_config(seed, differential);
        let mut a = MappedNetwork::from_network(&mut net_a, config.clone()).unwrap();
        let mut b = MappedNetwork::from_network(&mut net_b, config).unwrap();
        let mut trainer = ThresholdTrainer::new(policy, &a);
        let mut ledgers = trainer.export_ledgers();
        for step in 0..3 {
            backward_step(&mut net_a, &a, step);
            backward_step(&mut net_b, &b, step);
            let report = trainer
                .apply_with_mask(&mut a, &mut net_a, 0.2, mask.as_ref())
                .unwrap();
            let expected =
                reference_apply(policy, &mut ledgers, &mut b, &mut net_b, 0.2, mask.as_ref());
            let got = (report.writes_issued, report.writes_skipped, report.new_faults);
            prop_assert_eq!(got, expected);
            prop_assert_eq!(report.nan_updates_skipped, 0);
            prop_assert_eq!(&trainer.export_ledgers(), &ledgers);
            prop_assert_eq!(a.export_state(), b.export_state());
        }
    }

    /// Training runs are deterministic: the same seeds give bit-identical
    /// curves.
    #[test]
    fn flow_is_deterministic(seed in 0u64..20) {
        let data = SyntheticDataset::images(60, 20, seed, 1, 8, 8, 4);
        let run = |t: u64| {
            let mut rng = init_rng(t);
            let mut net = Network::new();
            net.push(nn::layers::Flatten::new());
            net.push(Dense::new(64, 12, &mut rng));
            net.push(Relu::new());
            net.push(Dense::new(12, 4, &mut rng));
            let mut trainer = FaultTolerantTrainer::new(
                net,
                MappingConfig::new(MappingScope::EntireNetwork)
                    .with_initial_fault_fraction(0.1)
                    .with_seed(seed),
                FlowConfig::threshold_only().with_lr(LrSchedule::constant(0.1)),
            )
            .unwrap();
            trainer.train(&data, 40).unwrap();
            trainer.curve().clone()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

proptest! {
    // Many special-value combinations, each a few microseconds.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bit-domain threshold scan (max over abs bit patterns, skip bound
    /// `k`) reports, writes and ledgers exactly what the scalar scan does,
    /// on gradients and learning rates full of special values, for every
    /// policy shape, with and without a frozen mask.
    #[test]
    fn threshold_scan_matches_scalar_scan_on_special_values(
        seed in 0u64..200,
        xs in proptest::collection::vec(0usize..SPECIAL_X.len(), 3 * 8),
        gs in proptest::collection::vec(0usize..SPECIAL_G.len(), 3 * 6),
        lr_pick in 0usize..SPECIAL_LR.len(),
        policy_pick in 0usize..SPECIAL_POLICIES.len(),
        masked in any::<bool>(),
    ) {
        let (lr, policy) = (SPECIAL_LR[lr_pick], SPECIAL_POLICIES[policy_pick]);
        let one_layer = || {
            let mut rng = init_rng(seed);
            let mut net = Network::new();
            net.push(Dense::new(8, 6, &mut rng));
            net
        };
        let (mut net_a, mut net_b) = (one_layer(), one_layer());
        let mask = masked.then(|| {
            magnitude_prune(&mut net_b, 0.3);
            magnitude_prune(&mut net_a, 0.3)
        });
        let config = tiled_config(seed, seed % 2 == 0);
        let mut a = MappedNetwork::from_network(&mut net_a, config.clone()).unwrap();
        let mut b = MappedNetwork::from_network(&mut net_b, config).unwrap();
        let mut trainer = ThresholdTrainer::new(policy, &a);
        let mut ledgers = trainer.export_ledgers();
        for step in 0..3 {
            let x: Vec<f32> = xs[step * 8..(step + 1) * 8].iter().map(|&i| SPECIAL_X[i]).collect();
            let g: Vec<f32> = gs[step * 6..(step + 1) * 6].iter().map(|&i| SPECIAL_G[i]).collect();
            for (net, mapped) in [(&mut net_a, &a), (&mut net_b, &b)] {
                mapped.load_effective_weights(net).unwrap();
                net.forward_train(&Tensor::from_vec(vec![1, 8], x.clone()));
                net.backward(&Tensor::from_vec(vec![1, 6], g.clone()));
            }
            let got = trainer
                .apply_with_mask(&mut a, &mut net_a, lr, mask.as_ref())
                .unwrap();
            let want = scalar_scan_apply(policy, &mut ledgers, &mut b, &mut net_b, lr, mask.as_ref());
            prop_assert_eq!(got.max_abs_dw.to_bits(), want.max_abs_dw.to_bits());
            prop_assert_eq!(got, want);
            prop_assert_eq!(&trainer.export_ledgers(), &ledgers);
            prop_assert_eq!(a.export_state(), b.export_state());
            let bias = |net: &mut Network| -> Vec<u32> {
                net.layer_params_mut(0).unwrap().bias.unwrap().iter().map(|b| b.to_bits()).collect()
            };
            prop_assert_eq!(bias(&mut net_a), bias(&mut net_b));
        }
    }
}

/// One-layer shapes whose weight counts leave 1, 7 or 63 entries in the
/// scan's last 64-entry block, or fill no block at all: 1, 7, 63, 65, 127,
/// 129 and 135 weights.
const RAGGED_SHAPES: [(usize, usize); 7] =
    [(1, 1), (1, 7), (7, 9), (5, 13), (1, 127), (3, 43), (9, 15)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The packed block scan flags, skips and writes exactly what the
    /// scalar scan does when a layer's last block is ragged, under random
    /// frozen masks, on gradients full of special values.
    #[test]
    fn packed_scan_matches_scalar_scan_on_ragged_blocks(
        seed in 0u64..200,
        shape_pick in 0usize..RAGGED_SHAPES.len(),
        xs in proptest::collection::vec(0usize..SPECIAL_X.len(), 2 * 9),
        gs in proptest::collection::vec(0usize..SPECIAL_G.len(), 2 * 127),
        lr_pick in 0usize..SPECIAL_LR.len(),
        policy_pick in 0usize..SPECIAL_POLICIES.len(),
        frozen in proptest::collection::vec(any::<bool>(), 135),
        masked in any::<bool>(),
    ) {
        let (rows, cols) = RAGGED_SHAPES[shape_pick];
        let (lr, policy) = (SPECIAL_LR[lr_pick], SPECIAL_POLICIES[policy_pick]);
        let one_layer = || {
            let mut rng = init_rng(seed);
            let mut net = Network::new();
            net.push(Dense::new(rows, cols, &mut rng));
            net
        };
        let (mut net_a, mut net_b) = (one_layer(), one_layer());
        let mask = masked.then(|| {
            nn::pruning::PruneMask::from_layers(vec![nn::pruning::LayerMask {
                layer_index: 0,
                shape: (rows, cols),
                pruned: frozen[..rows * cols].to_vec(),
            }])
        });
        let config = tiled_config(seed, seed % 2 == 0);
        let mut a = MappedNetwork::from_network(&mut net_a, config.clone()).unwrap();
        let mut b = MappedNetwork::from_network(&mut net_b, config).unwrap();
        let mut trainer = ThresholdTrainer::new(policy, &a);
        let mut ledgers = trainer.export_ledgers();
        for step in 0..2 {
            let x: Vec<f32> = xs[step * 9..][..rows].iter().map(|&i| SPECIAL_X[i]).collect();
            let g: Vec<f32> = gs[step * 127..][..cols].iter().map(|&i| SPECIAL_G[i]).collect();
            for (net, mapped) in [(&mut net_a, &a), (&mut net_b, &b)] {
                mapped.load_effective_weights(net).unwrap();
                net.forward_train(&Tensor::from_vec(vec![1, rows], x.clone()));
                net.backward(&Tensor::from_vec(vec![1, cols], g.clone()));
            }
            let got = trainer
                .apply_with_mask(&mut a, &mut net_a, lr, mask.as_ref())
                .unwrap();
            let want = scalar_scan_apply(policy, &mut ledgers, &mut b, &mut net_b, lr, mask.as_ref());
            prop_assert_eq!(got.max_abs_dw.to_bits(), want.max_abs_dw.to_bits());
            prop_assert_eq!(got, want);
            prop_assert_eq!(&trainer.export_ledgers(), &ledgers);
            prop_assert_eq!(a.export_state(), b.export_state());
        }
    }
}
