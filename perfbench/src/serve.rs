//! The serve workload: a seeded multi-tenant deployment driven through
//! `Service::submit` and `Service::tick`, one fixed-length episode at a
//! time.
//!
//! Arrivals follow an open schedule in logical ticks (a steady rate, one
//! queue-overflowing burst, one lull), and the host runs each tick as soon
//! as the previous one returns.

use std::time::Instant;

use ftt_serve::{
    Admission, ChipNodeConfig, InferenceSpec, Service, ServiceConfig, TenantSpec, TrainingSpec,
    WorkloadGen, WorkloadSpec,
};
use ftt_tile::LullConfig;

use crate::trace::SpanLog;

/// Side of the inference tenant's square weight plane.
pub const INFER_DIM: usize = 512;
/// Tile side of both chip nodes.
const TILE: usize = 64;
/// Most requests one MVM pass serves.
pub const MAX_BATCH: usize = 4;
/// Name of the inference tenant.
const INFER: &str = "infer";
/// Names of the training tenants.
const TRAINERS: [&str; 2] = ["train-a", "train-b"];
/// Seed of the training tenants' tasks (data, weights, private chips). It
/// is fixed so that every run has the same training work, including the
/// spare exhaustion that forces a migration; `--seed` drives the fleet's
/// chips, the inference weights and the arrivals.
const TENANT_SEED: u64 = 42;

/// Ticks per episode; `quick` gives the size the tests use.
pub fn episode_ticks(quick: bool) -> u64 {
    if quick {
        40
    } else {
        1000
    }
}

fn config(seed: u64) -> ServiceConfig {
    let node = ChipNodeConfig::new(TILE, 8, 96).with_spare_tiles(2);
    ServiceConfig {
        seed,
        nodes: vec![node.clone(), node],
        queue_capacity: 6,
        queue_high_water: 4,
        max_batch: MAX_BATCH,
        campaign_interval: 4,
        detector_test_size: 4,
        lull: LullConfig {
            idle_threshold: 2,
            max_defer: 3,
        },
    }
}

/// Configured like the reference scenario's `train-a`: a dense fault map,
/// one spare and an aggressive retirement threshold, so its spare pool
/// runs out and the service migrates it.
fn train_a() -> TrainingSpec {
    TrainingSpec {
        name: TRAINERS[0].into(),
        inputs: 36,
        hidden: 10,
        classes: 3,
        train_n: 48,
        test_n: 12,
        seed: TENANT_SEED ^ 0xA1,
        tile_quota: 12,
        fault_fraction: 0.3,
        spare_tiles: 1,
        retire_fault_density: 0.02,
        detection_interval: 4,
        detection_warmup: 2,
    }
}

/// A benign training tenant that stays where it was placed.
fn train_b() -> TrainingSpec {
    TrainingSpec {
        name: TRAINERS[1].into(),
        inputs: 36,
        hidden: 8,
        classes: 3,
        train_n: 48,
        test_n: 12,
        seed: TENANT_SEED ^ 0xB2,
        tile_quota: 10,
        fault_fraction: 0.05,
        spare_tiles: 1,
        retire_fault_density: 0.5,
        detection_interval: 8,
        detection_warmup: 4,
    }
}

fn arrivals(ticks: u64) -> WorkloadSpec {
    WorkloadSpec {
        base_rate: 3,
        lull_start: ticks / 2,
        lull_end: ticks / 2 + ticks / 10,
        burst_tick: Some(ticks / 4),
        burst_size: 12,
    }
}

/// What kind of work a tick did beyond serving and training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickClass {
    /// Neither a lull campaign nor a migration step.
    Plain,
    /// Ran a lull-gated detection campaign.
    Campaign,
    /// Started (snapshotted) or finished (rebuilt) a tenant migration.
    Migration,
}

/// Everything one serve episode produced.
#[derive(Debug)]
pub struct ServeEpisode {
    /// Host time of `Service::new` plus registration.
    pub setup_ns: u64,
    /// Host time of each tick: its submits plus `Service::tick`.
    pub tick_ns: Vec<u64>,
    /// Class of each tick.
    pub class: Vec<TickClass>,
    /// Host time of each submit.
    pub submit_ns: Vec<u64>,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests shed or refused.
    pub shed: u64,
    /// Admission-to-completion wait of each completed request, ticks.
    pub waits: Vec<u64>,
    /// MVM batches executed.
    pub batches: u64,
    /// Encoded snapshot size of each migration.
    pub migration_bytes: Vec<u64>,
    /// Simulated write pulses (training writes + detection writes).
    pub write_pulses: u64,
    /// Simulated cell events: write pulses, detection cycles, MVM cell ops.
    pub cell_events: u64,
    /// Obs events emitted.
    pub events: u64,
    /// FNV-1a over the inference output fingerprint and the training
    /// tenants' parameter fingerprints.
    pub fingerprint: u64,
}

/// Runs one serve episode of `ticks` ticks.
///
/// # Errors
///
/// Returns the library error of a failed build or tick.
pub fn run_episode(
    seed: u64,
    ticks: u64,
    mut spans: Option<&mut SpanLog>,
) -> Result<ServeEpisode, String> {
    let t0 = Instant::now();
    let mut service = Service::new(config(seed)).map_err(|e| e.to_string())?;
    service
        .register(TenantSpec::Inference(InferenceSpec {
            name: INFER.into(),
            rows: INFER_DIM,
            cols: INFER_DIM,
            weight_seed: seed ^ 0xC3,
            tile_quota: 64,
        }))
        .map_err(|e| e.to_string())?;
    for spec in [train_a(), train_b()] {
        service
            .register(TenantSpec::Training(spec))
            .map_err(|e| e.to_string())?;
    }
    let mut gen = WorkloadGen::new(seed ^ 0x77, arrivals(ticks));
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let mut ep = ServeEpisode {
        setup_ns,
        tick_ns: Vec::with_capacity(ticks as usize),
        class: Vec::with_capacity(ticks as usize),
        submit_ns: Vec::new(),
        submitted: 0,
        shed: 0,
        waits: Vec::new(),
        batches: 0,
        migration_bytes: Vec::new(),
        write_pulses: 0,
        cell_events: 0,
        events: 0,
        fingerprint: 0,
    };
    // Arrival tick of each admitted ticket (tickets count up from 0).
    let mut arrival_tick: Vec<u64> = Vec::new();
    let mut completed = 0usize;
    for tick in 0..ticks {
        let requests = gen.requests_for_tick(tick, INFER_DIM);
        let campaigns = service.lull_campaigns();
        let migrations = service.migrations();
        let in_flight = service.in_flight_migration().is_some();
        let start = Instant::now();
        for input in requests {
            let s = Instant::now();
            let admission = service.submit(INFER, input);
            ep.submit_ns.push(s.elapsed().as_nanos() as u64);
            ep.submitted += 1;
            match admission {
                Admission::Admitted { .. } => arrival_tick.push(service.tick_count()),
                Admission::Busy { .. } | Admission::Shed { .. } => ep.shed += 1,
            }
        }
        service.tick().map_err(|e| e.to_string())?;
        let tick_ns = start.elapsed().as_nanos() as u64;
        ep.tick_ns.push(tick_ns);

        let started = match service.in_flight_migration() {
            Some(m) if !in_flight => {
                ep.migration_bytes.push(m.bytes.len() as u64);
                true
            }
            _ => false,
        };
        let class = if started || service.migrations() > migrations {
            TickClass::Migration
        } else if service.lull_campaigns() > campaigns {
            TickClass::Campaign
        } else {
            TickClass::Plain
        };
        ep.class.push(class);
        if let Some(spans) = spans.as_deref_mut() {
            let end = spans.now();
            let id = spans.next_step();
            spans.push(tick_span_name(class), end - tick_ns, end, None, id);
        }
        if let Some(last) = service.last_completed_ticket(INFER) {
            let now = service.tick_count();
            while completed as u64 <= last && completed < arrival_tick.len() {
                ep.waits.push(now - arrival_tick[completed]);
                completed += 1;
            }
        }
    }

    let recorder = service.recorder();
    let registry = recorder.registry();
    let counter = |name: &str| registry.counter_value(name).unwrap_or(0);
    let chip_cycles: u64 = (0..2)
        .map(|chip| {
            registry
                .counter_value_labeled(
                    "serve_campaign_cycles_total",
                    &[("chip", &chip.to_string())],
                )
                .unwrap_or(0)
        })
        .sum();
    ep.batches = recorder.events_of_kind(obs::EventKind::ServeBatchExecuted);
    ep.write_pulses = counter("flow_writes_issued_total") + counter("flow_detection_writes_total");
    ep.cell_events = ep.write_pulses
        + counter("flow_detection_cycles_total")
        + chip_cycles
        + counter("flow_mvm_cell_ops_total")
        + ep.waits.len() as u64 * (INFER_DIM * INFER_DIM) as u64;
    ep.events = recorder.events_total();

    let mut bytes = Vec::new();
    bytes.extend_from_slice(&service.output_fingerprint(INFER).unwrap_or(0).to_le_bytes());
    for name in TRAINERS {
        let fp = service
            .tenant_params_fingerprint(name)
            .ok_or_else(|| format!("training tenant {name} is missing"))?;
        bytes.extend_from_slice(&fp.to_le_bytes());
    }
    ep.fingerprint = ftt_snapshot::fnv1a64(&bytes);
    Ok(ep)
}

fn tick_span_name(class: TickClass) -> &'static str {
    match class {
        TickClass::Plain => "serve.tick",
        TickClass::Campaign => "serve.tick.campaign",
        TickClass::Migration => "serve.tick.migration",
    }
}
