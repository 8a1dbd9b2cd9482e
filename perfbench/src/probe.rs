//! The timing wrapper around a real [`FaultStrategy`].
//!
//! [`PhaseProbe`] delegates every trait method to the strategy it wraps
//! and reads a monotonic clock at each hook boundary, so the trainer's own
//! call sequence splits every iteration into loop phases without any
//! change to library code. Untraced runs read the clock once per step;
//! traced runs read it at every hook boundary and, every few steps, time
//! two side calls on the live chip state.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ftt_core::error::FttError;
use ftt_core::strategy::{FaultStrategy, StrategyCost, StrategyCtx};
use nn::loss::softmax_cross_entropy;
use nn::network::Network;
use nn::tensor::Tensor;

/// Hook-boundary clock readings of one iteration, in nanoseconds since the
/// log's origin. Untraced runs fill only `pre.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepMarks {
    /// `on_pre_iteration` entry and exit.
    pub pre: (u64, u64),
    /// `on_gradient` entry and exit.
    pub grad: (u64, u64),
    /// Time inside `on_fault_event`, if it ran.
    pub fault_ns: u64,
    /// `on_post_iteration` entry and exit.
    pub post: (u64, u64),
    /// Side-call time spent inside `on_post_iteration`.
    pub side_ns: u64,
}

/// What a [`PhaseProbe`] records, shared with the harness that built it.
#[derive(Debug)]
pub struct StepLog {
    origin: Instant,
    traced: bool,
    /// One entry per iteration, in order.
    pub steps: Vec<StepMarks>,
    /// `MappedNetwork::load_effective_weights` side-call times, ns.
    pub reload_ns: Vec<u64>,
    /// Forward + loss + backward side-call times, ns.
    pub fwd_bwd_ns: Vec<u64>,
    /// `(initial, final)` `Dist(P,F)` of each campaign's re-mapping search.
    pub remap_costs: Vec<(f64, f64)>,
}

impl StepLog {
    /// An empty log whose clock starts now.
    pub fn new(traced: bool) -> Self {
        Self {
            origin: Instant::now(),
            traced,
            steps: Vec::new(),
            reload_ns: Vec::new(),
            fwd_bwd_ns: Vec::new(),
            remap_costs: Vec::new(),
        }
    }

    /// The instant the log's clock started.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the log's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn last(&mut self) -> &mut StepMarks {
        if self.steps.is_empty() {
            self.steps.push(StepMarks::default());
        }
        let last = self.steps.len() - 1;
        &mut self.steps[last]
    }
}

/// The template network and batch a traced run's side calls use.
pub struct SideCalls {
    /// A network of the trained topology; its weights are overwritten from
    /// the chip on every reload side call.
    pub template: Network,
    /// Input batch for the forward/backward side call.
    pub x: Tensor,
    /// Labels of `x`.
    pub y: Vec<usize>,
    /// Steps between side calls.
    pub every: usize,
}

impl std::fmt::Debug for SideCalls {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SideCalls").finish_non_exhaustive()
    }
}

/// A [`FaultStrategy`] that times the hooks of the strategy it wraps.
#[derive(Debug)]
pub struct PhaseProbe {
    inner: Box<dyn FaultStrategy>,
    log: Rc<RefCell<StepLog>>,
    side: Option<SideCalls>,
}

impl PhaseProbe {
    /// Wraps `inner`; `side` enables the side calls (traced runs only).
    pub fn new(
        inner: Box<dyn FaultStrategy>,
        log: Rc<RefCell<StepLog>>,
        side: Option<SideCalls>,
    ) -> Self {
        Self { inner, log, side }
    }

    fn now(&self) -> u64 {
        self.log.borrow().now()
    }

    fn traced(&self) -> bool {
        self.log.borrow().traced
    }

    /// Runs the side calls on the live chip state, returning their time.
    fn side_calls(&mut self, ctx: &StrategyCtx<'_>) -> Result<u64, FttError> {
        let step = self.log.borrow().steps.len();
        let Some(side) = self.side.as_mut() else {
            return Ok(0);
        };
        if !step.is_multiple_of(side.every) {
            return Ok(0);
        }
        let t0 = Instant::now();
        ctx.mapped.load_effective_weights(&mut side.template)?;
        let t1 = Instant::now();
        let logits = side.template.forward_train(&side.x);
        let (_, grad) = softmax_cross_entropy(&logits, &side.y);
        side.template.backward(&grad);
        let t2 = Instant::now();
        let mut log = self.log.borrow_mut();
        log.reload_ns.push((t1 - t0).as_nanos() as u64);
        log.fwd_bwd_ns.push((t2 - t1).as_nanos() as u64);
        Ok((t2 - t0).as_nanos() as u64)
    }
}

impl FaultStrategy for PhaseProbe {
    fn id(&self) -> &'static str {
        self.inner.id()
    }

    fn on_map(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        self.inner.on_map(ctx)
    }

    fn on_pre_iteration(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        let enter = self.now();
        let campaigns = ctx.metrics.detection_campaigns.get();
        let result = self.inner.on_pre_iteration(ctx);
        let campaign = ctx.metrics.detection_campaigns.get() > campaigns;
        let mut log = self.log.borrow_mut();
        let exit = if log.traced { log.now() } else { 0 };
        log.steps.push(StepMarks {
            pre: (enter, exit),
            ..StepMarks::default()
        });
        if campaign && log.traced {
            let registry = ctx.metrics.recorder().registry();
            if let (Some(initial), Some(last)) = (
                registry.gauge_value("flow_last_remap_initial_cost"),
                registry.gauge_value("flow_last_remap_final_cost"),
            ) {
                log.remap_costs.push((initial, last));
            }
        }
        result
    }

    fn on_gradient(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        if !self.traced() {
            return self.inner.on_gradient(ctx);
        }
        let enter = self.now();
        let result = self.inner.on_gradient(ctx);
        let mut log = self.log.borrow_mut();
        let exit = log.now();
        log.last().grad = (enter, exit);
        result
    }

    fn on_fault_event(
        &mut self,
        ctx: &mut StrategyCtx<'_>,
        new_faults: u64,
    ) -> Result<(), FttError> {
        if !self.traced() {
            return self.inner.on_fault_event(ctx, new_faults);
        }
        let enter = self.now();
        let result = self.inner.on_fault_event(ctx, new_faults);
        let mut log = self.log.borrow_mut();
        let exit = log.now();
        log.last().fault_ns += exit - enter;
        result
    }

    fn on_post_iteration(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        if !self.traced() {
            return self.inner.on_post_iteration(ctx);
        }
        let enter = self.now();
        let result = self.inner.on_post_iteration(ctx);
        let side_ns = self.side_calls(ctx)?;
        let mut log = self.log.borrow_mut();
        let exit = log.now();
        let last = log.last();
        last.post = (enter, exit);
        last.side_ns = side_ns;
        result
    }

    fn cost(&self) -> StrategyCost {
        self.inner.cost()
    }
}
