//! The violation crate: one *positive* (failing) case per check.

use std::collections::HashMap; // D1: unordered collection
use std::time::Instant; // D1: wall clock

/// Bare unwrap: clippy rejects it (tests/fixtures/clippy), ftt-lint does not.
pub fn p1_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// Reason-less panic-lint allow: clippy rejects it, ftt-lint does not.
#[allow(clippy::expect_used)]
pub fn p1_allow(x: Option<u8>) -> u8 {
    x.expect("boom")
}

/// D1: unscoped spawn; also exercises the banned imports above.
pub fn d1_spawn(map: HashMap<u8, u8>) -> usize {
    let t = Instant::now();
    std::thread::spawn(move || map.len());
    t.elapsed().as_nanos() as usize
}

/// F1: equality against a non-zero float literal, and a NaN compare.
pub fn f1_eq(x: f64) -> bool {
    x == 1.0 || x != f64::NAN
}

/// F1: unannotated narrowing cast on a cast_path file.
pub fn f1_cast(g: f64) -> f32 {
    g as f32
}

/// `unsafe`: rustc rejects it (`unsafe_code = "forbid"`), ftt-lint does not.
pub fn s1_unsafe(p: *const u8) -> u8 {
    unsafe { *p }
}

/// O1: registry name violating the snake_case grammar.
pub fn o1_name(r: &dyn Registrar) {
    r.counter("Bad-Name__total");
}

/// Minimal registrar shape so the fixture stays self-contained.
pub trait Registrar {
    /// Register a counter.
    fn counter(&self, name: &str);
    /// Register a labeled counter.
    fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]);
}

/// C1: the closure crossing the `par` boundary mutates a captured
/// binding and builds an RNG with no per-index salt.
pub fn c1_racy(n: usize, seed: u64) -> usize {
    let mut total = 0usize;
    par::map_indices(n, |i| {
        total += i;
        let _rng = sim_rng(seed);
        i
    });
    total
}

/// O2: `NeverEmitted` has no emitter anywhere outside this crate.
pub enum Event {
    /// Emitted by the good crate.
    Used(u64),
    /// Dead schema entry.
    NeverEmitted,
}

/// R1 root: reaches an unjustified panic site two hops down.
pub fn resume() {
    r1_helper();
}

fn r1_helper() {
    r1_deep();
}

fn r1_deep() {
    let v: Option<u8> = None;
    let _ = v.unwrap();
}

/// E2: the outcome's cost never reaches a FlowStats sink.
pub struct DetectionOutcome;

/// E2 producer.
pub fn e2_detect() -> DetectionOutcome {
    DetectionOutcome
}

/// E2: a caller exists (so the producer is not a library leaf) but it
/// never feeds the accounting.
pub fn e2_driver() {
    let _ = e2_detect();
}

/// O1: labeled-constructor label key violating the grammar.
pub fn o1_label(r: &dyn Registrar) {
    r.counter_labeled("o1_labeled_total", &[("Bad Key", "any value")]);
}

/// Not a marker any more: a stale panic justification is an unfulfilled `#[expect]`.
// PANIC-OK: leftover justification with nothing to justify
pub fn stale_marker() -> u8 {
    0
}
