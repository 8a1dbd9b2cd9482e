//! What the benchmark measures: its workloads and metrics, each with the
//! self-description printed by `--describe`. `BENCHMARK.json` at the
//! repository root lists the same names and units; a test keeps the two
//! in step.

use obs::JsonObject;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a metric is host time spent by the simulator or an output of
/// the simulated hardware (which repeats exactly for a seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Measured on the host running the simulator.
    Host,
    /// Produced by the simulation; identical on every run of a seed.
    Sim,
}

impl Clock {
    /// Label used in the printed table and `--describe`.
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "simulated",
        }
    }
}

/// Which run reports a metric in its JSON result line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Reported by the untraced run (`--trace 0`).
    EndToEnd,
    /// Reported by the traced run (`--trace 1`).
    PerLayer,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`; per-layer names start with the crate or
    /// module of the layer they measure.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Host time or simulated output.
    pub clock: Clock,
    /// The run that reports it.
    pub tier: Tier,
    /// One-line meaning.
    pub meaning: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    tier: Tier,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        tier,
        meaning,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};
use Tier::{EndToEnd, PerLayer};

/// Every metric, end-to-end first. A metric that does not apply to a
/// workload is printed as `n/a` in the table and as 0 in the JSON line.
pub const METRICS: &[MetricDef] = &[
    m("setup_s", "s", Lower, Host, EndToEnd,
      "median episode set-up: dataset synthesis, chip build + fault injection, mapping, tenant registration"),
    m("steps_per_s", "1/s", Higher, Host, EndToEnd,
      "training iterations (serve: ticks) per host second spent in train/submit/tick calls"),
    m("step_ms_p50", "ms", Lower, Host, EndToEnd, "median host time per step"),
    m("step_ms_p99", "ms", Lower, Host, EndToEnd, "99th-percentile host time per step (the campaign stall)"),
    m("sim_cell_events_per_s", "1/s", Higher, Host, EndToEnd,
      "simulated write pulses + detection cycles + MVM cell ops per host second"),
    m("peak_rss_mib", "MiB", Lower, Host, EndToEnd, "peak resident memory of the benchmark process"),
    m("sim_write_pulses_per_step", "pulses", Lower, Sim, EndToEnd,
      "write pulses per step, all phases (the paper's §5.1 endurance cost)"),
    // ---- per-layer: loop phases (means per step) ----
    m("flow.reload_fwd_bwd_ms", "ms", Lower, Host, PerLayer,
      "on_pre_iteration return to on_gradient: weight reload + forward/backward"),
    m("flow.write_through_ms", "ms", Lower, Host, PerLayer,
      "on_gradient return to on_post_iteration: threshold scan + hardware writes"),
    m("flow.eval_ms", "ms", Lower, Host, PerLayer, "on_post_iteration return to the next step"),
    m("flow.unattributed_ms", "ms", Lower, Host, PerLayer,
      "train-call time per step not covered by the phases above (per-call set-up)"),
    m("strategy.hook_ms", "ms", Lower, Host, PerLayer, "time inside FaultStrategy hooks per step"),
    // ---- per-layer: campaigns (means per campaign, from span histograms) ----
    m("faultdet.detect_ms", "ms", Lower, Host, PerLayer, "detection sweep per campaign"),
    m("remap.search_ms", "ms", Lower, Host, PerLayer, "Dist(P,F) re-mapping search per campaign"),
    m("tile.sparing_ms", "ms", Lower, Host, PerLayer, "tile sparing per campaign"),
    m("strategy.campaign_rest_ms", "ms", Lower, Host, PerLayer,
      "detection_phase minus detect, search and sparing, per campaign"),
    // ---- per-layer: threshold training ----
    m("threshold.ns_per_write", "ns", Lower, Host, PerLayer, "write-through time per issued write"),
    m("threshold.ns_per_weight", "ns", Lower, Host, PerLayer, "write-through time per mapped weight scanned"),
    m("threshold.issue_ratio", "ratio", Lower, Sim, PerLayer, "writes issued / (issued + skipped)"),
    m("threshold.writes_issued_per_step", "writes", Lower, Sim, PerLayer, "threshold-trainer writes issued per step"),
    // ---- per-layer: side calls on the live chip state ----
    m("mapping.reload_us", "us", Lower, Host, PerLayer, "MappedNetwork::load_effective_weights into a template network"),
    m("nn.fwd_bwd_us", "us", Lower, Host, PerLayer, "Network::forward_train + loss + backward on one batch"),
    // ---- per-layer: exact work counts ----
    m("rram.training_pulses_per_step", "pulses", Lower, Sim, PerLayer, "write pulses per step outside strategy campaigns"),
    m("faultdet.pulses_per_campaign", "pulses", Lower, Sim, PerLayer, "detection write pulses per campaign"),
    m("remap.reprogram_pulses_per_campaign", "pulses", Lower, Sim, PerLayer,
      "sparing + re-mapping reprogram pulses per campaign"),
    m("mapping.mvm_cell_ops_per_step", "ops", Lower, Sim, PerLayer, "analog MVM cell operations per step"),
    m("faultdet.cycles_per_campaign", "cycles", Lower, Sim, PerLayer, "detection test cycles per campaign"),
    m("faultdet.untested_groups", "groups", Lower, Sim, PerLayer, "detection groups left untested per campaign"),
    m("faultdet.precision", "ratio", Higher, Sim, PerLayer, "flagged cells that are faulty, over all campaigns"),
    m("remap.cost_ratio", "ratio", Lower, Sim, PerLayer, "final / initial Dist(P,F), summed over campaigns"),
    m("flow.wear_faults", "cells", Lower, Sim, PerLayer, "cells worn out by training writes per episode"),
    m("flow.test_accuracy", "ratio", Higher, Sim, PerLayer, "final test accuracy through the faulty hardware"),
    // ---- per-layer: serve ----
    m("serve.submit_us", "us", Lower, Host, PerLayer, "host time per Service::submit call"),
    m("serve.batch_occupancy", "ratio", Higher, Sim, PerLayer, "requests per MVM batch / max batch"),
    m("serve.requests_shed", "requests", Lower, Sim, PerLayer, "requests shed or refused per episode"),
    m("serve.plain_tick_ms", "ms", Lower, Host, PerLayer, "median tick with no lull campaign or migration"),
    m("serve.campaign_tick_ms", "ms", Lower, Host, PerLayer, "median tick that ran a lull campaign"),
    m("serve.migration_tick_ms", "ms", Lower, Host, PerLayer, "median tick that started or finished a migration"),
    m("serve.requests_per_s", "1/s", Higher, Host, PerLayer, "inference requests completed per host second"),
    m("serve.request_wait_ticks_p99", "ticks", Lower, Sim, PerLayer, "99th-percentile admission-to-completion wait"),
    m("snapshot.migration_bytes", "bytes", Lower, Sim, PerLayer, "encoded snapshot size of a migrating tenant"),
    // ---- per-layer: process-wide ----
    m("par.speedup_vs_1t", "ratio", Higher, Host, PerLayer, "step p50 at 1 thread / step p50 at the default budget"),
    m("obs.events_per_step", "events", Lower, Sim, PerLayer, "obs events emitted per step"),
    m("obs.tracing_overhead", "ratio", Lower, Host, PerLayer, "traced step p50 / untraced step p50 - 1"),
    m("obs.ops_failed_frac", "ratio", Lower, Sim, PerLayer,
      "failed steps + shed or refused requests, over the number attempted"),
];

/// One workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
    /// The layers (crates and modules) it loads most.
    pub layers: &'static [&'static str],
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "mlp_original",
        why: "Fig. 7(b) MLP under the original method: every update is written, so the write path does almost all the work",
        layers: &["core::threshold", "rram::crossbar", "tile::chip"],
    },
    WorkloadDef {
        name: "mlp_ftt",
        why: "same MLP under the fault-tolerant flow: threshold training skips most writes, detection + remap every 50 steps",
        layers: &["core::threshold", "core::strategy", "faultdet", "core::remap", "rram::crossbar"],
    },
    WorkloadDef {
        name: "cnn_ftt",
        why: "entire-CNN case (VGG-11/8): forward/backward, reload and the par fan-out carry a large share of each step",
        layers: &["nn", "core::mapping", "par", "core::threshold", "faultdet"],
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "multi-tenant service: batched 512x512 inference reads, admission and lull campaigns beside light training writes",
        layers: &["serve::service", "tile::mapping", "tile::schedule", "snapshot", "core::flow"],
    },
];

/// How timing starts, for `--describe`.
pub const TIMING_START: &str =
    "cold: every episode starts from a freshly built system and no step is \
     discarded as warm-up; episode set-up is timed separately as setup_s";

/// Model-validation statement, for `--describe`.
pub const VALIDATION: &str =
    "the simulator is unvalidated against RRAM hardware, so no accuracy-error \
     figure is given for simulated metrics";

/// The definition of a metric by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Renders the self-description as one JSON object.
pub fn describe_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            JsonObject::new()
                .field_str("name", w.name)
                .field_str("why", w.why)
                .field_str("loop", "closed")
                .field_str("layers", &w.layers.join(" "))
                .finish()
        })
        .collect();
    let metrics: Vec<String> = METRICS
        .iter()
        .map(|d| {
            JsonObject::new()
                .field_str("name", d.name)
                .field_str("unit", d.unit)
                .field_str("better", d.better.as_str())
                .field_str("clock", d.clock.as_str())
                .field_u64("trace", u64::from(d.tier == Tier::PerLayer))
                .field_str("meaning", d.meaning)
                .finish()
        })
        .collect();
    let head = JsonObject::new()
        .field_str("timing_start", TIMING_START)
        .field_str("model_validation", VALIDATION)
        .finish();
    format!(
        "{},\"workloads\":[{}],\"metrics\":[{}]}}",
        head.trim_end_matches('}'),
        workloads.join(","),
        metrics.join(",")
    )
}
