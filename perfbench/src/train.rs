//! The three training workloads: the paper's closed loop driven through
//! `FaultTolerantTrainer::with_strategy`, one fixed-length episode at a
//! time.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::report::FlowStats;
use ftt_core::strategy::{DetectRemap, StrategyCost};
use nn::data::Dataset;
use nn::models::{mlp_784_100_10, vgg11_cifar};
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::{Confusion, Event, EventSink, Recorder, TimedEvent};

use crate::probe::{PhaseProbe, SideCalls, StepLog, StepMarks};
use crate::trace::SpanLog;

/// Initial stuck-at fault fraction of every training workload's chip.
const INITIAL_FAULTS: f64 = 0.10;

/// Seed of the task itself: the synthetic dataset and the initial weights.
/// It is fixed, like a real benchmark dataset, so that `--seed` varies what
/// a run meets (the fault map, write noise and sample order) rather than
/// how much work the task is.
const TASK_SEED: u64 = 17;

/// A training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    /// Fig. 7(b) 784×100×10 MLP, original method, no detection.
    MlpOriginal,
    /// The same MLP under the fault-tolerant flow.
    MlpFtt,
    /// Scaled VGG-11 (width/8), entire network mapped, fault-tolerant flow.
    CnnFtt,
}

/// Episode length and campaign cadence of a training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainShape {
    /// Iterations per episode (one `train` call).
    pub steps: u64,
    /// Iterations between detection + remap campaigns (fault-tolerant
    /// workloads only).
    pub detection_interval: u64,
}

impl TrainKind {
    /// The episode shape; `quick` gives the few-step size the tests use.
    pub fn shape(self, quick: bool) -> TrainShape {
        match (self, quick) {
            (TrainKind::MlpOriginal, false) => TrainShape {
                steps: 200,
                detection_interval: 0,
            },
            (TrainKind::MlpFtt, false) => TrainShape {
                steps: 400,
                detection_interval: 50,
            },
            (TrainKind::CnnFtt, false) => TrainShape {
                steps: 200,
                detection_interval: 50,
            },
            (_, true) => TrainShape {
                steps: 6,
                detection_interval: 3,
            },
        }
    }

    /// The workload's initial network.
    pub fn network(self) -> Network {
        match self {
            TrainKind::MlpOriginal | TrainKind::MlpFtt => mlp_784_100_10(TASK_SEED),
            TrainKind::CnnFtt => vgg11_cifar(8, TASK_SEED),
        }
    }

    /// The workload's synthetic dataset.
    pub fn dataset(self) -> Dataset {
        match self {
            TrainKind::MlpOriginal | TrainKind::MlpFtt => {
                SyntheticDataset::mnist_like(1000, 200, TASK_SEED)
            }
            TrainKind::CnnFtt => SyntheticDataset::cifar_like(256, 64, TASK_SEED),
        }
    }

    /// Hardware mapping: every layer mapped, 10 % initial faults placed
    /// (and write noise drawn) from `seed`.
    pub fn mapping(self, seed: u64) -> MappingConfig {
        MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(INITIAL_FAULTS)
            .with_seed(seed)
    }

    /// The flow configuration, with the sample order drawn from `seed`.
    ///
    /// The MLP workloads keep the library's evaluation cadence (every 50
    /// iterations), so 2 % of their steps evaluate and `step_ms_p99` falls
    /// inside that class rather than in host noise. The CNN evaluates once,
    /// at the end of the episode: its test pass costs tens of steps.
    pub fn flow(self, seed: u64, shape: TrainShape) -> FlowConfig {
        let mut flow = match self {
            TrainKind::MlpOriginal => FlowConfig::original(),
            TrainKind::MlpFtt => {
                FlowConfig::fault_tolerant().with_detection_interval(shape.detection_interval)
            }
            TrainKind::CnnFtt => FlowConfig::fault_tolerant()
                // At 0.01 the entire-CNN trajectory is chaotic: how many
                // updates clear the threshold then swings several-fold with
                // the seed. At 0.001 the work per step is steady.
                .with_lr(LrSchedule::constant(0.001))
                .with_detection_interval(shape.detection_interval)
                .with_eval_interval(shape.steps),
        };
        flow.data_seed = seed;
        flow
    }
}

/// Sum and count of one span histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Total nanoseconds.
    pub sum_ns: u64,
    /// Observations.
    pub count: u64,
}

/// Totals of the campaign span histograms the library already records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignSpans {
    /// `detection_phase` (the whole campaign).
    pub phase: SpanTotal,
    /// `detect` (the detection sweep).
    pub detect: SpanTotal,
    /// `remap_search`.
    pub search: SpanTotal,
    /// `tile_sparing`.
    pub sparing: SpanTotal,
}

impl CampaignSpans {
    /// Reads every `span_<path>_ns` histogram whose last path segment is
    /// one of the campaign spans.
    fn read(recorder: &Recorder) -> Self {
        let registry = recorder.registry();
        let mut out = Self::default();
        for name in registry.names() {
            let Some(path) = name
                .strip_prefix("span_")
                .and_then(|p| p.strip_suffix("_ns"))
            else {
                continue;
            };
            let slot = match path.rsplit('.').next() {
                Some("detection_phase") => &mut out.phase,
                Some("detect") => &mut out.detect,
                Some("remap_search") => &mut out.search,
                Some("tile_sparing") => &mut out.sparing,
                _ => continue,
            };
            if let Some(h) = registry.histogram_handle(&name) {
                slot.sum_ns += h.sum();
                slot.count += h.count();
            }
        }
        out
    }
}

/// Sums the confusion matrices of every `DetectionCampaignEnd` event.
struct ConfusionSink(Arc<Mutex<Confusion>>);

impl EventSink for ConfusionSink {
    fn record(&mut self, event: &TimedEvent) {
        if let Event::DetectionCampaignEnd {
            confusion: Some(c), ..
        } = &event.event
        {
            let mut total = self.0.lock().unwrap_or_else(|e| e.into_inner());
            total.true_pos += c.true_pos;
            total.false_pos += c.false_pos;
            total.false_neg += c.false_neg;
            total.true_neg += c.true_neg;
        }
    }
}

/// Loop-phase totals of one traced episode, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// `on_pre_iteration` return to `on_gradient`.
    pub reload_fwd_bwd: u64,
    /// `on_gradient` return to `on_post_iteration`, minus `on_fault_event`.
    pub write_through: u64,
    /// `on_post_iteration` return to the next step (or the call's return).
    pub eval: u64,
    /// Inside the strategy hooks, side calls excluded.
    pub hook: u64,
    /// Side calls (excluded from the step).
    pub side: u64,
    /// The `train` call minus the side calls: the measured step time.
    pub measured: u64,
}

impl PhaseTotals {
    /// The part of the measured time no phase covers.
    pub fn unattributed(&self) -> i64 {
        self.measured as i64
            - (self.reload_fwd_bwd + self.write_through + self.eval + self.hook) as i64
    }
}

/// Everything one training episode produced.
#[derive(Debug)]
pub struct TrainEpisode {
    /// Host time to synthesise the data, build the chip and map.
    pub setup_ns: u64,
    /// Host time of the `train` call.
    pub train_ns: u64,
    /// Host time of each step (side calls excluded).
    pub step_ns: Vec<u64>,
    /// Phase totals (traced episodes only).
    pub phases: Option<PhaseTotals>,
    /// Reload side-call samples, ns.
    pub reload_ns: Vec<u64>,
    /// Forward/backward side-call samples, ns.
    pub fwd_bwd_ns: Vec<u64>,
    /// `(initial, final)` `Dist(P,F)` per campaign (traced only).
    pub remap_costs: Vec<(f64, f64)>,
    /// Campaign span histograms.
    pub spans: CampaignSpans,
    /// Summed detection confusion (traced only).
    pub confusion: Confusion,
    /// Flow counters after the episode.
    pub stats: FlowStats,
    /// The strategy's own cost ledger.
    pub cost: StrategyCost,
    /// Chip write pulses issued during the episode, all phases.
    pub pulses: u64,
    /// Mapped weights (cells scanned per threshold pass).
    pub mapped_weights: u64,
    /// Final test accuracy through the hardware.
    pub accuracy: f64,
    /// Obs events emitted.
    pub events: u64,
    /// FNV-1a of the encoded end-of-episode trainer snapshot.
    pub fingerprint: u64,
}

/// Runs one episode of `kind`. Traced episodes record every hook boundary,
/// run the side calls, attach an event sink and add spans to `spans`.
///
/// # Errors
///
/// Returns the library error of a failed build or `train` call.
pub fn run_episode(
    kind: TrainKind,
    seed: u64,
    shape: TrainShape,
    spans: Option<&mut SpanLog>,
) -> Result<TrainEpisode, String> {
    let traced = spans.is_some();
    let log = Rc::new(RefCell::new(StepLog::new(traced)));
    let t0 = Instant::now();
    let data = kind.dataset();
    let side = if traced {
        let (x, y) = data
            .try_train_batches(1)
            .map_err(|e| e.to_string())?
            .next()
            .ok_or("empty training set")?;
        Some(SideCalls {
            template: kind.network(),
            x,
            y,
            every: (shape.steps as usize / 8).clamp(1, 25),
        })
    } else {
        None
    };
    let recorder = Recorder::new();
    let confusion = Arc::new(Mutex::new(Confusion::default()));
    if traced {
        recorder.add_sink(Box::new(ConfusionSink(Arc::clone(&confusion))));
    }
    let probe = PhaseProbe::new(Box::new(DetectRemap::new()), Rc::clone(&log), side);
    let mut trainer = FaultTolerantTrainer::with_strategy(
        kind.network(),
        kind.mapping(seed),
        kind.flow(seed, shape),
        recorder.clone(),
        Box::new(probe),
    )
    .map_err(|e| e.to_string())?;
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let pulses_before = trainer.mapped().total_write_pulses();
    let start = log.borrow().now();
    let result = trainer.train(&data, shape.steps);
    let end = log.borrow().now();
    result.map_err(|e| e.to_string())?;

    let mapped_weights = trainer
        .mapped()
        .layers()
        .iter()
        .map(|l| (l.rows * l.cols) as u64)
        .sum();
    let accuracy = trainer.curve().final_accuracy();
    let fingerprint = ftt_snapshot::fnv1a64(&ftt_snapshot::encode(&trainer.export_state()));
    let log = log.borrow();
    let marks = &log.steps;
    let next_start = |i: usize| marks.get(i + 1).map_or(end, |m| m.pre.0);
    let step_ns = (0..marks.len())
        .map(|i| next_start(i) - marks[i].pre.0 - marks[i].side_ns)
        .collect();
    let phases = traced.then(|| phase_totals(marks, start, end));
    if let Some(spans) = spans {
        let offset = spans.offset(log.origin());
        spans.add_train_episode(marks, offset, start, end);
    }
    let confusion = *confusion.lock().unwrap_or_else(|e| e.into_inner());
    Ok(TrainEpisode {
        setup_ns,
        train_ns: end - start,
        step_ns,
        phases,
        reload_ns: log.reload_ns.clone(),
        fwd_bwd_ns: log.fwd_bwd_ns.clone(),
        remap_costs: log.remap_costs.clone(),
        spans: CampaignSpans::read(&recorder),
        confusion,
        stats: trainer.stats(),
        cost: trainer.strategy().cost(),
        pulses: trainer.mapped().total_write_pulses() - pulses_before,
        mapped_weights,
        accuracy,
        events: recorder.events_total(),
        fingerprint,
    })
}

/// Splits a traced episode's `[start, end]` train call into loop phases.
pub fn phase_totals(marks: &[StepMarks], start: u64, end: u64) -> PhaseTotals {
    let mut t = PhaseTotals::default();
    for (i, m) in marks.iter().enumerate() {
        let next = marks.get(i + 1).map_or(end, |n| n.pre.0);
        t.hook += (m.pre.1 - m.pre.0)
            + (m.grad.1 - m.grad.0)
            + m.fault_ns
            + (m.post.1 - m.post.0 - m.side_ns);
        t.reload_fwd_bwd += m.grad.0 - m.pre.1;
        t.write_through += m.post.0 - m.grad.1 - m.fault_ns;
        t.eval += next - m.post.1;
        t.side += m.side_ns;
    }
    t.measured = end - start - t.side;
    t
}
