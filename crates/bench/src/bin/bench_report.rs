//! Standalone kernel benchmark reporter.
//!
//! Times the perf-critical kernels with a self-contained calibrating
//! harness and writes a machine-readable `BENCH_kernels.json` — one record per measurement:
//! `{ "name", "size", "ns_per_iter", "threads" }`.
//!
//! The interesting ratios, printed at the end:
//!
//! * `crossbar_mvm_plane` vs `crossbar_mvm_reference` — the cached
//!   structure-of-arrays conductance plane against the scalar cell walk.
//! * `detection_group_sums_batched` vs `…_scalar` — the campaign's hot
//!   comparison kernel: one dense plane sweep per group vs per-line walks.
//!
//! The worker budget is whatever [`par::thread_count`] resolves to
//! (`RRAM_FTT_THREADS` env override, else the machine's parallelism) and is
//! recorded per measurement, so single-core containers report honest
//! `threads = 1` numbers where the speedups are purely algorithmic.
//!
//! Output path: `BENCH_kernels.json` in the working directory, or the
//! `BENCH_REPORT_PATH` env var.
//!
//! **Quick mode** (`BENCH_QUICK=1`, wired as `just bench-quick`): shrinks
//! the expensive size sweeps and calibration budgets so the whole run fits
//! in CI, while still executing every kernel and the bit-identity oracle
//! checks — the smoke gate asserts *correctness* (vectorized == scalar,
//! incremental == full resync), never timings.

use std::fmt::Write as _;
use std::time::Instant;

use faultdet::detector::{DetectorConfig, OnlineFaultDetector};
use faultdet::reference::OffChipStore;
use ftt_core::config::{MappingConfig, MappingScope, RemapConfig};
use ftt_core::remap::{CostModel, RemapAlgorithm, RemapProblem};
use nn::models::mlp_784_100_10;
use nn::permute::Permutation;
use nn::pruning::magnitude_prune;
use nn::tensor::Tensor;
use rand::Rng;
use rram::crossbar::{Crossbar, CrossbarBuilder};
use rram::spatial::SpatialDistribution;
use std::hint::black_box;

#[derive(Debug, Clone)]
struct Record {
    name: &'static str,
    size: usize,
    ns_per_iter: f64,
    threads: usize,
}

/// Times `f` with calibrated repetition: doubles the iteration count until a
/// batch takes at least `min_batch_ms`, then reports the median ns/iter of
/// `samples` batches.
fn time_ns<F: FnMut()>(mut f: F, min_batch_ms: u64, samples: usize) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() as u64 >= min_batch_ms || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let mut measured: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    measured.sort_by(|a, b| a.total_cmp(b));
    measured[measured.len() / 2]
}

fn programmed(size: usize, seed: u64) -> Crossbar {
    let mut xbar = CrossbarBuilder::new(size, size)
        .initial_faults(SpatialDistribution::Uniform, 0.1)
        .seed(seed)
        .build()
        .expect("valid crossbar");
    let mut rng = rram::rng::sim_rng(seed);
    for r in 0..size {
        for c in 0..size {
            let _ = xbar
                .write_level(r, c, rng.gen_range(0..8))
                .expect("in range");
        }
    }
    xbar
}

/// Bit-identity oracle checks for every kernel this report times; runs in
/// both modes, and is the entire point of the `bench-quick` CI smoke.
fn verify_bit_identity() {
    for size in [33usize, 64] {
        let xbar = programmed(size, 21);
        let input: Vec<f32> = (0..size).map(|i| (i as f32 * 0.53).cos()).collect();
        assert_eq!(
            xbar.mvm(&input).unwrap(),
            xbar.mvm_reference(&input).unwrap(),
            "vectorized mvm diverged from scalar reference at {size}"
        );
        let sums = xbar.column_group_sums(0..size).unwrap();
        let rows = xbar.row_group_sums(0..size).unwrap();
        for i in 0..size {
            assert_eq!(
                sums[i].to_bits(),
                xbar.column_group_sum(0..size, i).unwrap().to_bits(),
                "batched column sum diverged at {size}, col {i}"
            );
            assert_eq!(
                rows[i].to_bits(),
                xbar.row_group_sum(i, 0..size).unwrap().to_bits(),
                "batched row sum diverged at {size}, row {i}"
            );
        }
    }
    // Fresh-store incremental campaign == classic full campaign.
    let detector = OnlineFaultDetector::new(DetectorConfig::new(8).unwrap());
    let mut full_xbar = programmed(64, 23);
    let mut inc_xbar = programmed(64, 23);
    let full = detector.run(&mut full_xbar).unwrap();
    let mut store = OffChipStore::attach(&mut inc_xbar);
    let inc = detector
        .run_incremental(&mut inc_xbar, &mut store, None)
        .unwrap();
    assert_eq!(
        inc.predicted, full.predicted,
        "incremental detection diverged from full"
    );
    assert_eq!(
        (inc.sa0_cycles, inc.sa1_cycles, inc.write_pulses),
        (full.sa0_cycles, full.sa1_cycles, full.write_pulses),
        "incremental sweep costs diverged from full"
    );
    eprintln!("bit-identity oracles: ok (mvm, group sums, incremental detection)");
}

fn main() {
    let threads = par::thread_count();
    let quick = std::env::var("BENCH_QUICK").is_ok();
    verify_bit_identity();
    // Quick mode trades calibration depth for CI wall-clock; the identity
    // checks above are the gate, the timings are informational.
    let (batch_ms, long_ms, samples) = if quick { (1, 2, 2) } else { (10, 50, 5) };
    let mut records: Vec<Record> = Vec::new();
    let push = |records: &mut Vec<Record>, name: &'static str, size: usize, ns: f64| {
        eprintln!("{name:<34} size {size:>5}  {ns:>14.0} ns/iter  ({threads} threads)");
        records.push(Record {
            name,
            size,
            ns_per_iter: ns,
            threads,
        });
    };

    // --- Crossbar MVM: cached plane vs scalar reference -----------------
    let mvm_sizes: &[usize] = if quick {
        &[64, 129]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    for &size in mvm_sizes {
        let xbar = programmed(size, 1);
        let input: Vec<f32> = (0..size).map(|i| (i as f32 * 0.37).sin()).collect();
        let ns = time_ns(
            || drop(black_box(xbar.mvm(black_box(&input)).unwrap())),
            batch_ms,
            samples,
        );
        push(&mut records, "crossbar_mvm_plane", size, ns);
        let ns = time_ns(
            || drop(black_box(xbar.mvm_reference(black_box(&input)).unwrap())),
            batch_ms,
            samples,
        );
        push(&mut records, "crossbar_mvm_reference", size, ns);
    }

    // --- Tiled MVM vs the monolithic kernel (DESIGN.md §11) --------------
    // Same conductance state on both sides (the chip tiles are programmed
    // from the monolithic array's plane), tile size 128 with remainder-free
    // grids: 512² -> 4×4 shards, 1024² -> 8×8.
    let tiled_sizes: &[usize] = if quick { &[256] } else { &[512, 1024] };
    for &size in tiled_sizes {
        let xbar = programmed(size, 3);
        let input: Vec<f32> = (0..size).map(|i| (i as f32 * 0.37).sin()).collect();
        let chip_cfg = ftt_tile::ChipConfig::new(128, 8, 3);
        let mut chip = ftt_tile::TiledChip::new(chip_cfg).expect("valid chip");
        let tiled = ftt_tile::TiledMapping::allocate(&mut chip, size, size).expect("tiled mapping");
        tiled
            .program(&mut chip, xbar.conductance_plane_f64())
            .expect("program tiles");
        let ns = time_ns(
            || drop(black_box(xbar.mvm(black_box(&input)).unwrap())),
            batch_ms,
            samples,
        );
        push(&mut records, "mvm_monolithic", size, ns);
        let ns = time_ns(
            || drop(black_box(tiled.mvm(&chip, black_box(&input)).unwrap())),
            batch_ms,
            samples,
        );
        push(&mut records, "mvm_tiled_t128", size, ns);
    }

    // --- Detection: full campaign at the paper-scale Tr = 16 ------------
    let detect_sizes: &[usize] = if quick { &[64] } else { &[256, 512] };
    for &size in detect_sizes {
        let mut xbar = programmed(size, 2);
        let detector = OnlineFaultDetector::new(DetectorConfig::new(16).unwrap());
        let ns = time_ns(
            || drop(black_box(detector.run(&mut xbar).unwrap())),
            long_ms,
            samples,
        );
        push(&mut records, "detection_campaign_t16", size, ns);
    }

    // --- Detection: incremental campaign on a warm persistent store -----
    // The in-training regime: the store is coherent from the previous
    // campaign and only ~1000 sparse training writes dirtied the array, so
    // each campaign re-reads a fraction of a percent of the cells and
    // sweeps only the written candidates.
    for &size in detect_sizes {
        let mut xbar = programmed(size, 2);
        let detector = OnlineFaultDetector::new(DetectorConfig::new(16).unwrap());
        let mut store = OffChipStore::attach(&mut xbar);
        let mut baseline = detector
            .run_incremental(&mut xbar, &mut store, None)
            .expect("warm-up campaign")
            .predicted;
        let mut rng = rram::rng::sim_rng(11);
        let writes = if quick { 64 } else { 1000 };
        let ns = time_ns(
            || {
                for _ in 0..writes {
                    let (r, c) = (rng.gen_range(0..size), rng.gen_range(0..size));
                    let level = rng.gen_range(0..8);
                    let _ = xbar.write_level(r, c, level).expect("in range");
                }
                let out = detector
                    .run_incremental(&mut xbar, &mut store, Some(&baseline))
                    .expect("incremental campaign");
                baseline = black_box(out).predicted;
            },
            long_ms,
            samples,
        );
        push(&mut records, "detection_incremental_t16", size, ns);
    }

    // --- Detection comparison kernel: batched plane sweep vs per-line ---
    {
        let size = 512usize;
        let t = 16usize;
        let xbar = programmed(size, 7);
        let ns = time_ns(
            || {
                let mut acc = 0.0f64;
                for g in 0..size / t {
                    let sums = xbar.column_group_sums(g * t..(g + 1) * t).unwrap();
                    acc += sums.iter().sum::<f64>();
                }
                black_box(acc);
            },
            batch_ms,
            samples,
        );
        push(&mut records, "detection_group_sums_batched", size, ns);
        let ns = time_ns(
            || {
                let mut acc = 0.0f64;
                for g in 0..size / t {
                    for col in 0..size {
                        acc += xbar.column_group_sum(g * t..(g + 1) * t, col).unwrap();
                    }
                }
                black_box(acc);
            },
            batch_ms,
            samples,
        );
        push(&mut records, "detection_group_sums_scalar", size, ns);
        // Both directions of a full Tr = 16 sweep through the shared lane
        // kernel — the per-campaign comparison workload as one number.
        let ns = time_ns(
            || {
                let mut acc = 0.0f64;
                for g in 0..size / t {
                    acc += xbar
                        .column_group_sums(g * t..(g + 1) * t)
                        .unwrap()
                        .iter()
                        .sum::<f64>();
                    acc += xbar
                        .row_group_sums(g * t..(g + 1) * t)
                        .unwrap()
                        .iter()
                        .sum::<f64>();
                }
                black_box(acc);
            },
            batch_ms,
            samples,
        );
        push(&mut records, "group_sums_512", size, ns);
    }

    // --- Serve scheduler: batched vs unbatched MVM passes ----------------
    // The service's whole reason to batch: `B` queued requests through one
    // `mvm_batch` pass against the same `B` requests as single `mvm` calls
    // on the same programmed mapping. Identical math, shared plane reads.
    let serve_sizes: &[usize] = if quick { &[128] } else { &[256, 512] };
    let serve_batch = 8usize;
    for &size in serve_sizes {
        let chip_cfg = ftt_tile::ChipConfig::new(64, 8, 17);
        let mut chip = ftt_tile::TiledChip::new(chip_cfg).expect("valid chip");
        let mapping =
            ftt_tile::TiledMapping::allocate(&mut chip, size, size).expect("serve mapping");
        let mut rng = rram::rng::sim_rng(17);
        let targets: Vec<f64> = (0..size * size).map(|_| rng.gen_range(0.0..1.0)).collect();
        mapping.program(&mut chip, &targets).expect("program");
        let inputs: Vec<f32> = (0..serve_batch * size)
            .map(|i| (i as f32 * 0.43).sin())
            .collect();
        let ns = time_ns(
            || {
                drop(black_box(
                    mapping
                        .mvm_batch(&chip, black_box(&inputs), serve_batch)
                        .unwrap(),
                ))
            },
            batch_ms,
            samples,
        );
        push(&mut records, "serve_batched_mvm_b8", size, ns);
        let ns = time_ns(
            || {
                for sample in inputs.chunks(size) {
                    drop(black_box(mapping.mvm(&chip, black_box(sample)).unwrap()));
                }
            },
            batch_ms,
            samples,
        );
        push(&mut records, "serve_unbatched_mvm_b8", size, ns);
    }

    // --- Serve admission latency (logical ticks, not nanoseconds) --------
    // Drives the seeded reference deployment and reports the mean
    // admitted-to-completed wait from the service's own histogram. The
    // record reuses the `ns_per_iter` field to carry *ticks* (size = the
    // request count) — the JSON schema stays uniform and the name makes
    // the unit explicit.
    {
        let mut svc = ftt_serve::Service::new(ftt_serve::scenario::reference_config(17))
            .expect("service");
        use ftt_serve::tenant::TenantSpec;
        svc.register(TenantSpec::Inference(ftt_serve::InferenceSpec {
            name: "bench".into(),
            rows: 48,
            cols: 12,
            weight_seed: 17,
            tile_quota: 12,
        }))
        .expect("register");
        let mut wl = ftt_serve::WorkloadGen::new(
            17,
            ftt_serve::WorkloadSpec {
                base_rate: 3,
                lull_start: 10,
                lull_end: 14,
                burst_tick: Some(5),
                burst_size: 12,
            },
        );
        for tick in 0..28u64 {
            for input in wl.requests_for_tick(tick, 48) {
                let _ = svc.submit("bench", input);
            }
            svc.tick().expect("tick");
        }
        svc.drain(50).expect("drain");
        let wait = svc
            .recorder()
            .registry()
            .histogram_handle("serve_admission_wait_ticks")
            .expect("wait histogram");
        push(
            &mut records,
            "serve_admission_wait_ticks_mean",
            wait.count() as usize,
            wait.mean(),
        );
    }

    // --- Tensor matmul (forward-pass substrate) --------------------------
    let matmul_sizes: &[usize] = if quick { &[64] } else { &[128, 256] };
    for &size in matmul_sizes {
        let a = Tensor::from_vec(
            vec![size, size],
            (0..size * size)
                .map(|i| ((i % 97) as f32 - 48.0) / 48.0)
                .collect(),
        );
        let b = Tensor::from_vec(
            vec![size, size],
            (0..size * size)
                .map(|i| ((i % 89) as f32 - 44.0) / 44.0)
                .collect(),
        );
        let ns = time_ns(
            || drop(black_box(a.matmul(black_box(&b)))),
            batch_ms,
            samples,
        );
        push(&mut records, "tensor_matmul", size, ns);
    }

    // --- Re-mapping: full recount and the two searches -------------------
    {
        let mut net = mlp_784_100_10(1);
        let mapped = ftt_core::mapping::MappedNetwork::from_network(
            &mut net,
            MappingConfig::new(MappingScope::EntireNetwork)
                .with_initial_fault_fraction(0.3)
                .with_seed(5),
        )
        .expect("mapping");
        let mask = magnitude_prune(&mut net, 0.5);
        let problem =
            RemapProblem::with_ground_truth(&mapped, &mask, CostModel::PaperDist).expect("problem");
        let perms = vec![Permutation::identity(100)];
        let ns = time_ns(
            || {
                let _ = black_box(problem.cost(black_box(&perms)));
            },
            batch_ms,
            samples,
        );
        push(
            &mut records,
            "remap_full_cost_recount",
            784 * 100 + 100 * 10,
            ns,
        );
        let iterations = if quick { 200 } else { 1000 };
        for (name, algorithm) in [
            ("remap_hill_climb_1k", RemapAlgorithm::SwapHillClimb),
            (
                "remap_greedy_batch_1k",
                RemapAlgorithm::GreedySwapBatch { batch: 64 },
            ),
            (
                "remap_genetic_islands",
                RemapAlgorithm::Genetic {
                    population: 8,
                    islands: 4,
                },
            ),
        ] {
            let cfg = RemapConfig {
                algorithm,
                cost: CostModel::PaperDist,
                iterations,
                seed: 3,
            };
            let ns = time_ns(
                || drop(black_box(problem.solve(&mapped, &cfg))),
                long_ms,
                samples,
            );
            push(&mut records, name, iterations, ns);
        }
    }

    // --- Strategy arena: reduced comparison sweep ------------------------
    // Tracks the cost of one arena heat sweep (4 strategies restored from
    // snapshot-cloned chips, trained, ranked). Milliseconds in the
    // `ns_per_iter` field, unit in the name; `size` is the league-row
    // count (strategies × densities).
    {
        let mut config = ftt_arena::ArenaConfig::quick();
        if quick {
            config.iterations = 4;
            config.densities.truncate(1);
        }
        let runs = if quick { 1 } else { 3 };
        let mut ms: Vec<f64> = Vec::new();
        let mut rows = 0usize;
        for _ in 0..runs {
            let start = Instant::now();
            let report = ftt_arena::run(black_box(&config)).expect("arena sweep");
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            rows = report.rows.len();
        }
        ms.sort_by(|a, b| a.total_cmp(b));
        push(&mut records, "arena_sweep_ms", rows, ms[ms.len() / 2]);
    }

    // --- Lint: full-workspace semantic analysis --------------------------
    // Tracks the two-phase analyzer's end-to-end cost (walk + lex + model
    // build + all checks + stale-suppression shadow runs). The record
    // carries *milliseconds* in the `ns_per_iter` field — same convention
    // as `serve_admission_wait_ticks_mean`, where the unit lives in the
    // name. `size` is the number of files scanned.
    {
        let ws_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let runs = if quick { 1 } else { 3 };
        let mut ms: Vec<f64> = Vec::new();
        let mut files = 0usize;
        for _ in 0..runs {
            let start = Instant::now();
            let report = ftt_lint::run(black_box(&ws_root), None).expect("workspace lints");
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            files = report.files_scanned;
        }
        ms.sort_by(|a, b| a.total_cmp(b));
        push(
            &mut records,
            "lint_full_workspace_ms",
            files,
            ms[ms.len() / 2],
        );
    }

    // --- Speedup summary --------------------------------------------------
    let find = |name: &str, size: usize| {
        records
            .iter()
            .find(|r| r.name == name && r.size == size)
            .map(|r| r.ns_per_iter)
    };
    if let (Some(plane), Some(reference)) = (
        find("crossbar_mvm_plane", 512),
        find("crossbar_mvm_reference", 512),
    ) {
        eprintln!(
            "mvm 512²: plane kernel speedup {:.2}x over scalar reference",
            reference / plane
        );
    }
    if let (Some(mono), Some(tiled)) = (find("mvm_monolithic", 1024), find("mvm_tiled_t128", 1024))
    {
        eprintln!(
            "mvm 1024² on 128² tiles: {:.2}x the monolithic kernel (bit-identical output)",
            tiled / mono
        );
    }
    if let (Some(batched), Some(scalar)) = (
        find("detection_group_sums_batched", 512),
        find("detection_group_sums_scalar", 512),
    ) {
        eprintln!(
            "detection Tr=16 sweep 512²: batched kernel speedup {:.2}x over per-line walks",
            scalar / batched
        );
    }
    if let (Some(batched), Some(unbatched)) = (
        find("serve_batched_mvm_b8", serve_sizes[serve_sizes.len() - 1]),
        find("serve_unbatched_mvm_b8", serve_sizes[serve_sizes.len() - 1]),
    ) {
        eprintln!(
            "serve {}² batch 8: shared MVM pass {:.2}x over per-request calls",
            serve_sizes[serve_sizes.len() - 1],
            unbatched / batched
        );
    }
    if let (Some(full), Some(inc)) = (
        find("detection_campaign_t16", 512),
        find("detection_incremental_t16", 512),
    ) {
        eprintln!(
            "detection Tr=16 512²: incremental campaign (warm store, ~1000 writes) {:.2}x \
             over the full campaign",
            full / inc
        );
    }

    // --- JSON out ---------------------------------------------------------
    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "  {{\"name\": \"{}\", \"size\": {}, \"ns_per_iter\": {:.1}, \"threads\": {}}}{}",
            r.name,
            r.size,
            r.ns_per_iter,
            r.threads,
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("]\n");
    let path =
        std::env::var("BENCH_REPORT_PATH").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    if let Err(e) = std::fs::write(&path, json) {
        panic!("write {path}: {e}");
    }
    eprintln!("wrote {path}");
}
