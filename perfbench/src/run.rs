//! One benchmark run: episodes repeated for the time budget, the output
//! checks, and the metrics derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalog;
use crate::expected;
use crate::serve::{self, ServeEpisode, TickClass};
use crate::stats::{mean, median, quantile};
use crate::trace::SpanLog;
use crate::train::{self, CampaignSpans, PhaseTotals, TrainEpisode, TrainKind};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One of the closed-loop training workloads.
    Train(TrainKind),
    /// The multi-tenant service.
    Serve,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::Train(TrainKind::MlpOriginal),
        Workload::Train(TrainKind::MlpFtt),
        Workload::Train(TrainKind::CnnFtt),
        Workload::Serve,
    ];

    /// The catalogue name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train(TrainKind::MlpOriginal) => "mlp_original",
            Workload::Train(TrainKind::MlpFtt) => "mlp_ftt",
            Workload::Train(TrainKind::CnnFtt) => "cnn_ftt",
            Workload::Serve => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Seed of every input the workload generates.
    pub seed: u64,
    /// Measured time budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Few-step episodes for tests; fingerprints are then not compared
    /// with the recorded values.
    pub quick: bool,
}

/// One episode of either kind.
#[derive(Debug)]
pub enum Episode {
    /// A training episode.
    Train(Box<TrainEpisode>),
    /// A serve episode.
    Serve(ServeEpisode),
}

impl Episode {
    fn setup_ns(&self) -> u64 {
        match self {
            Episode::Train(e) => e.setup_ns,
            Episode::Serve(e) => e.setup_ns,
        }
    }

    /// Host time of each step (serve: tick), ns.
    pub fn step_ns(&self) -> &[u64] {
        match self {
            Episode::Train(e) => &e.step_ns,
            Episode::Serve(e) => &e.tick_ns,
        }
    }

    /// Host time inside the program's train, submit and tick calls, side
    /// calls excluded.
    fn busy_ns(&self) -> u64 {
        match self {
            Episode::Train(e) => e.train_ns - e.phases.map_or(0, |p| p.side),
            Episode::Serve(e) => e.tick_ns.iter().sum(),
        }
    }

    /// The output fingerprint.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Episode::Train(e) => e.fingerprint,
            Episode::Serve(e) => e.fingerprint,
        }
    }

    fn write_pulses(&self) -> u64 {
        match self {
            Episode::Train(e) => e.pulses,
            Episode::Serve(e) => e.write_pulses,
        }
    }

    fn cell_events(&self) -> u64 {
        match self {
            Episode::Train(e) => e.pulses + e.stats.detection_cycles + e.stats.mvm_cell_ops,
            Episode::Serve(e) => e.cell_events,
        }
    }

    fn events(&self) -> u64 {
        match self {
            Episode::Train(e) => e.events,
            Episode::Serve(e) => e.events,
        }
    }

    fn requests(&self) -> (u64, u64) {
        match self {
            Episode::Train(_) => (0, 0),
            Episode::Serve(e) => (e.submitted, e.shed),
        }
    }
}

/// Runs one episode of `cfg`'s workload.
///
/// # Errors
///
/// Returns the library error of a failed build or step.
pub fn run_episode(cfg: &RunConfig, spans: Option<&mut SpanLog>) -> Result<Episode, String> {
    match cfg.workload {
        Workload::Train(kind) => train::run_episode(kind, cfg.seed, kind.shape(cfg.quick), spans)
            .map(|e| Episode::Train(Box::new(e))),
        Workload::Serve => {
            serve::run_episode(cfg.seed, serve::episode_ticks(cfg.quick), spans).map(Episode::Serve)
        }
    }
}

/// Episodes run back to back, each started only after the previous one
/// returned, until `seconds` have passed (at least one).
#[derive(Debug, Default)]
pub struct Window {
    /// Completed episodes.
    pub episodes: Vec<Episode>,
    /// Errors of failed episodes (the window stops at the first).
    pub errors: Vec<String>,
}

impl Window {
    /// Runs a window at thread budget `threads` (`None`: the default).
    pub fn run(
        cfg: &RunConfig,
        seconds: f64,
        threads: Option<usize>,
        mut spans: Option<&mut SpanLog>,
    ) -> Self {
        par::set_thread_count(threads.unwrap_or(0));
        let start = Instant::now();
        let mut window = Self::default();
        loop {
            match run_episode(cfg, spans.as_deref_mut()) {
                Ok(e) => window.episodes.push(e),
                Err(e) => {
                    window.errors.push(e);
                    break;
                }
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        par::set_thread_count(0);
        window
    }

    fn steps(&self) -> u64 {
        self.episodes.iter().map(|e| e.step_ns().len() as u64).sum()
    }

    fn step_ms(&self) -> Vec<f64> {
        self.episodes
            .iter()
            .flat_map(|e| e.step_ns().iter().map(|&ns| ns as f64 / 1e6))
            .collect()
    }

    fn busy_s(&self) -> f64 {
        self.episodes.iter().map(|e| e.busy_ns()).sum::<u64>() as f64 / 1e9
    }

    fn train(&self) -> impl Iterator<Item = &TrainEpisode> {
        self.episodes.iter().filter_map(|e| match e {
            Episode::Train(t) => Some(t.as_ref()),
            Episode::Serve(_) => None,
        })
    }

    fn serve(&self) -> impl Iterator<Item = &ServeEpisode> {
        self.episodes.iter().filter_map(|e| match e {
            Episode::Serve(s) => Some(s),
            Episode::Train(_) => None,
        })
    }
}

/// A metric value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the catalogue unit.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: u64,
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run could measure; absent ones do not apply.
    pub values: BTreeMap<&'static str, Value>,
    /// Steps (serve: ticks and requests) attempted.
    pub attempted: u64,
    /// Failed steps plus episodes whose output fingerprint was wrong.
    pub failed: u64,
    /// The fingerprint every episode must reproduce.
    pub fingerprint: Option<u64>,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<SpanLog>,
    /// Sum of the traced phase rows and the measured step time, ms per
    /// step, for the phase-sum identity.
    pub phase_sum_ms: Option<(f64, f64)>,
}

impl Outcome {
    /// Whether every output was checked and correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(catalog::metric(name).is_some(), "{name} is not catalogued");
        if value.is_finite() && samples > 0 {
            self.values.insert(name, Value { value, samples });
        }
    }
}

/// Runs the benchmark as `cfg` says.
///
/// The end-to-end run measures `cfg.seconds` of untraced episodes at the
/// default thread budget, then one episode at budget 1. The traced run
/// splits its time: half traced, a quarter untraced (for the tracing
/// overhead) and a quarter at budget 1 (for the speed-up). Every
/// episode's output fingerprint must match.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (traced, plain, one) = if cfg.trace {
        let mut spans = SpanLog::new();
        let traced = Window::run(cfg, cfg.seconds / 2.0, None, Some(&mut spans));
        out.spans = Some(spans);
        let plain = Window::run(cfg, cfg.seconds / 4.0, None, None);
        let one = Window::run(cfg, cfg.seconds / 4.0, Some(1), None);
        (traced, plain, one)
    } else {
        let plain = Window::run(cfg, cfg.seconds, None, None);
        let one = Window::run(cfg, 0.0, Some(1), None);
        (Window::default(), plain, one)
    };
    check(cfg, &mut out, &[&traced, &plain, &one]);
    end_to_end(&mut out, &plain);
    per_layer(&mut out, &traced, &plain, &one);
    out
}

/// Counts attempts and failures and compares every fingerprint with the
/// recorded one (or, for an unrecorded seed, with the first episode's).
fn check(cfg: &RunConfig, out: &mut Outcome, windows: &[&Window]) {
    let recorded = if cfg.quick {
        None
    } else {
        expected::recorded(cfg.workload.name(), cfg.seed)
    };
    let reference = recorded.or_else(|| {
        windows
            .iter()
            .flat_map(|w| w.episodes.first())
            .map(Episode::fingerprint)
            .next()
    });
    out.fingerprint = reference;
    for w in windows {
        for e in &w.episodes {
            let (submitted, _) = e.requests();
            out.attempted += e.step_ns().len() as u64 + submitted;
            if Some(e.fingerprint()) != reference {
                out.failed += 1;
                out.problems.push(format!(
                    "output fingerprint {:016x} differs from {}",
                    e.fingerprint(),
                    reference.map_or("nothing".to_string(), |r| format!("{r:016x}"))
                ));
            }
        }
        for err in &w.errors {
            out.attempted += 1;
            out.failed += 1;
            out.problems.push(format!("episode failed: {err}"));
        }
    }
    if windows.iter().all(|w| w.episodes.is_empty()) {
        out.problems.push("no episode completed".into());
    }
}

/// The end-to-end metrics, from untraced episodes at the default budget.
fn end_to_end(out: &mut Outcome, plain: &Window) {
    let eps = plain.episodes.len() as u64;
    let steps = plain.steps();
    // Rates are medians over episodes, so one episode slowed by a noisy
    // neighbour does not move the run's figure.
    let per_episode = |f: &dyn Fn(&Episode) -> f64| {
        let v: Vec<f64> = plain.episodes.iter().map(f).collect();
        median(&v)
    };
    let busy_s = |e: &Episode| e.busy_ns() as f64 / 1e9;
    if let Some(s) = per_episode(&|e| e.setup_ns() as f64 / 1e9) {
        out.set("setup_s", s, eps);
    }
    if let Some(r) = per_episode(&|e| e.step_ns().len() as f64 / busy_s(e)) {
        out.set("steps_per_s", r, eps);
    }
    if let Some(r) = per_episode(&|e| e.cell_events() as f64 / busy_s(e)) {
        out.set("sim_cell_events_per_s", r, eps);
    }
    let step_ms = plain.step_ms();
    if let Some(p50) = quantile(&step_ms, 0.5) {
        out.set("step_ms_p50", p50, steps);
    }
    if let Some(p99) = quantile(&step_ms, 0.99) {
        out.set("step_ms_p99", p99, steps);
    }
    let pulses: u64 = plain.episodes.iter().map(Episode::write_pulses).sum();
    out.set(
        "sim_write_pulses_per_step",
        pulses as f64 / steps as f64,
        steps,
    );
    if let Some(rss) = peak_rss_mib() {
        out.set("peak_rss_mib", rss, 1);
    }
}

/// The per-layer metrics. Phase splits and side calls come from traced
/// episodes; counters and the library's own span histograms from the
/// untraced ones; the speed-up from the budget-1 episodes.
fn per_layer(out: &mut Outcome, traced: &Window, plain: &Window, one: &Window) {
    let steps = plain.steps();
    let p50 = |w: &Window| median(&w.step_ms());
    if let (Some(a), Some(b)) = (p50(one), p50(plain)) {
        out.set("par.speedup_vs_1t", a / b, one.steps());
    }
    if let (Some(a), Some(b)) = (p50(traced), p50(plain)) {
        out.set("obs.tracing_overhead", a / b - 1.0, traced.steps());
    }
    let events: u64 = plain.episodes.iter().map(Episode::events).sum();
    out.set("obs.events_per_step", events as f64 / steps as f64, steps);
    let (submitted, shed) = plain
        .episodes
        .iter()
        .map(Episode::requests)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let failed = out.failed + shed;
    out.set(
        "obs.ops_failed_frac",
        failed as f64 / (steps + submitted) as f64,
        steps + submitted,
    );
    train_layers(out, traced, plain);
    serve_layers(out, traced, plain);
}

fn train_layers(out: &mut Outcome, traced: &Window, plain: &Window) {
    let eps: Vec<&TrainEpisode> = plain.train().collect();
    if eps.is_empty() {
        return;
    }
    let n = eps.len() as u64;
    let steps = plain.steps();
    let sum = |f: &dyn Fn(&TrainEpisode) -> u64| eps.iter().map(|e| f(e)).sum::<u64>();
    let issued = sum(&|e| e.stats.writes_issued);
    let skipped = sum(&|e| e.stats.writes_skipped);
    let campaigns = sum(&|e| e.stats.detection_campaigns);
    let det_writes = sum(&|e| e.stats.detection_writes);
    let strategy_pulses = sum(&|e| e.cost.write_pulses);
    let per_step = |v: u64| v as f64 / steps as f64;
    let per_campaign = |v: u64| v as f64 / campaigns as f64;
    out.set(
        "threshold.issue_ratio",
        issued as f64 / (issued + skipped) as f64,
        steps,
    );
    out.set("threshold.writes_issued_per_step", per_step(issued), steps);
    out.set(
        "rram.training_pulses_per_step",
        per_step(sum(&|e| e.pulses).saturating_sub(strategy_pulses)),
        steps,
    );
    out.set(
        "mapping.mvm_cell_ops_per_step",
        per_step(sum(&|e| e.stats.mvm_cell_ops)),
        steps,
    );
    out.set(
        "flow.wear_faults",
        sum(&|e| e.stats.wear_faults_during_training) as f64 / n as f64,
        n,
    );
    out.set("flow.test_accuracy", eps[0].accuracy, 1);
    if campaigns > 0 {
        out.set(
            "faultdet.pulses_per_campaign",
            per_campaign(det_writes),
            campaigns,
        );
        out.set(
            "remap.reprogram_pulses_per_campaign",
            per_campaign(strategy_pulses.saturating_sub(det_writes)),
            campaigns,
        );
        out.set(
            "faultdet.cycles_per_campaign",
            per_campaign(sum(&|e| e.stats.detection_cycles)),
            campaigns,
        );
        out.set(
            "faultdet.untested_groups",
            per_campaign(sum(&|e| e.stats.detection_untested_groups)),
            campaigns,
        );
        let spans = eps.iter().fold(CampaignSpans::default(), |mut a, e| {
            for (acc, s) in [
                (&mut a.phase, e.spans.phase),
                (&mut a.detect, e.spans.detect),
                (&mut a.search, e.spans.search),
                (&mut a.sparing, e.spans.sparing),
            ] {
                acc.sum_ns += s.sum_ns;
                acc.count += s.count;
            }
            a
        });
        let ms = |ns: u64| per_campaign(ns) / 1e6;
        out.set(
            "faultdet.detect_ms",
            ms(spans.detect.sum_ns),
            spans.detect.count,
        );
        if spans.search.count > 0 {
            out.set(
                "remap.search_ms",
                ms(spans.search.sum_ns),
                spans.search.count,
            );
        }
        if spans.sparing.count > 0 {
            out.set(
                "tile.sparing_ms",
                ms(spans.sparing.sum_ns),
                spans.sparing.count,
            );
        }
        let rest = spans.phase.sum_ns as i64
            - (spans.detect.sum_ns + spans.search.sum_ns + spans.sparing.sum_ns) as i64;
        out.set(
            "strategy.campaign_rest_ms",
            rest as f64 / campaigns as f64 / 1e6,
            campaigns,
        );
    }

    let traced_eps: Vec<&TrainEpisode> = traced.train().collect();
    if traced_eps.is_empty() {
        return;
    }
    let t_steps = traced.steps();
    let confusion = traced_eps
        .iter()
        .fold(obs::Confusion::default(), |mut a, e| {
            a.true_pos += e.confusion.true_pos;
            a.false_pos += e.confusion.false_pos;
            a
        });
    if campaigns > 0 {
        out.set("faultdet.precision", confusion.precision(), campaigns);
    }
    let (initial, last) = traced_eps
        .iter()
        .flat_map(|e| e.remap_costs.iter())
        .fold((0.0, 0.0), |a, c| (a.0 + c.0, a.1 + c.1));
    if initial > 0.0 {
        out.set("remap.cost_ratio", last / initial, campaigns);
    }
    let t = traced_eps.iter().fold(PhaseTotals::default(), |mut a, e| {
        if let Some(p) = e.phases {
            a.reload_fwd_bwd += p.reload_fwd_bwd;
            a.write_through += p.write_through;
            a.eval += p.eval;
            a.hook += p.hook;
            a.side += p.side;
            a.measured += p.measured;
        }
        a
    });
    let ms = |ns: u64| ns as f64 / t_steps as f64 / 1e6;
    out.set("flow.reload_fwd_bwd_ms", ms(t.reload_fwd_bwd), t_steps);
    out.set("flow.write_through_ms", ms(t.write_through), t_steps);
    out.set("flow.eval_ms", ms(t.eval), t_steps);
    out.set("strategy.hook_ms", ms(t.hook), t_steps);
    let unattributed = t.unattributed() as f64 / t_steps as f64 / 1e6;
    out.set("flow.unattributed_ms", unattributed, t_steps);
    let rows = ms(t.reload_fwd_bwd) + ms(t.write_through) + ms(t.eval) + ms(t.hook) + unattributed;
    out.phase_sum_ms = Some((rows, ms(t.measured)));
    let t_issued: u64 = traced_eps.iter().map(|e| e.stats.writes_issued).sum();
    if t_issued > 0 {
        out.set(
            "threshold.ns_per_write",
            t.write_through as f64 / t_issued as f64,
            t_issued,
        );
    }
    let weights = traced_eps[0].mapped_weights * t_steps;
    out.set(
        "threshold.ns_per_weight",
        t.write_through as f64 / weights as f64,
        t_steps,
    );
    let us = |v: Vec<f64>| median(&v).map(|m| (m / 1e3, v.len() as u64));
    let reload: Vec<f64> = traced_eps
        .iter()
        .flat_map(|e| e.reload_ns.iter().map(|&v| v as f64))
        .collect();
    if let Some((v, k)) = us(reload) {
        out.set("mapping.reload_us", v, k);
    }
    let fwd_bwd: Vec<f64> = traced_eps
        .iter()
        .flat_map(|e| e.fwd_bwd_ns.iter().map(|&v| v as f64))
        .collect();
    if let Some((v, k)) = us(fwd_bwd) {
        out.set("nn.fwd_bwd_us", v, k);
    }
}

fn serve_layers(out: &mut Outcome, traced: &Window, plain: &Window) {
    let eps: Vec<&ServeEpisode> = plain.serve().collect();
    if eps.is_empty() {
        return;
    }
    let n = eps.len() as u64;
    let completed: u64 = eps.iter().map(|e| e.waits.len() as u64).sum();
    let batches: u64 = eps.iter().map(|e| e.batches).sum();
    out.set(
        "serve.batch_occupancy",
        completed as f64 / (batches * serve::MAX_BATCH as u64) as f64,
        batches,
    );
    out.set(
        "serve.requests_shed",
        eps.iter().map(|e| e.shed).sum::<u64>() as f64 / n as f64,
        n,
    );
    out.set(
        "serve.requests_per_s",
        completed as f64 / plain.busy_s(),
        completed,
    );
    let waits: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.waits.iter().map(|&w| w as f64))
        .collect();
    if let Some(p99) = quantile(&waits, 0.99) {
        out.set("serve.request_wait_ticks_p99", p99, completed);
    }
    let bytes: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.migration_bytes.iter().map(|&b| b as f64))
        .collect();
    if let Some(b) = mean(&bytes) {
        out.set("snapshot.migration_bytes", b, bytes.len() as u64);
    }
    // Host-time rows come from the traced episodes when there are any.
    let timed: Vec<&ServeEpisode> = if traced.episodes.is_empty() {
        eps
    } else {
        traced.serve().collect()
    };
    let submit: Vec<f64> = timed
        .iter()
        .flat_map(|e| e.submit_ns.iter().map(|&v| v as f64 / 1e3))
        .collect();
    if let Some(m) = mean(&submit) {
        out.set("serve.submit_us", m, submit.len() as u64);
    }
    for (class, name) in [
        (TickClass::Plain, "serve.plain_tick_ms"),
        (TickClass::Campaign, "serve.campaign_tick_ms"),
        (TickClass::Migration, "serve.migration_tick_ms"),
    ] {
        let ticks: Vec<f64> = timed
            .iter()
            .flat_map(|e| {
                e.tick_ns
                    .iter()
                    .zip(&e.class)
                    .filter(|(_, &c)| c == class)
                    .map(|(&ns, _)| ns as f64 / 1e6)
            })
            .collect();
        if let Some(m) = median(&ticks) {
            out.set(name, m, ticks.len() as u64);
        }
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
