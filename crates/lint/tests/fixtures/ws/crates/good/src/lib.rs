//! The clean crate: one *negative* (passing) case per check.
//!
//! D1: ordered collections, scoped threads.
//! F1: exact-zero compares, epsilon helpers, annotated casts.
//! O1: snake_case registry names.
//! W1: inherits workspace version/license and is mentioned in README.md.

use std::collections::BTreeMap;

/// D1 negative: deterministic collections and scoped threads only.
pub fn ordered(pairs: &[(usize, usize)]) -> BTreeMap<usize, usize> {
    let map: BTreeMap<usize, usize> = pairs.iter().copied().collect();
    std::thread::scope(|s| {
        s.spawn(|| map.len());
    });
    map
}

/// F1 negative: exact-zero compares are exempt; other comparisons go
/// through an epsilon; the narrowing cast carries its note.
pub fn sparsity(xs: &[f64]) -> f32 {
    let zeros = xs.iter().filter(|&&x| x == 0.0).count();
    let ratio = zeros as f64 / xs.len().max(1) as f64;
    let saturated = (ratio - 1.0).abs() < 1e-12;
    let _ = saturated;
    // CAST-OK: reporting precision only; the f64 master value is kept.
    ratio as f32
}

/// O1 negative: registry names in the snake_case grammar.
pub fn register(r: &dyn Registrar) {
    r.counter("good_events_total");
    r.span("good_phase");
}

/// Minimal registrar shape so the fixture stays self-contained.
pub trait Registrar {
    /// Register a counter.
    fn counter(&self, name: &str);
    /// Register a labeled counter.
    fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]);
    /// Open a span.
    fn span(&self, name: &str);
}

/// C1 negative: the closure touches only its parameter and locals, and
/// the RNG seed mixes in the per-index salt.
pub fn deterministic_map(n: usize, seed: u64) -> Vec<u64> {
    par::map_indices(n, |i| {
        let mut acc = 0u64;
        acc += i as u64;
        let _rng = sim_rng(seed.wrapping_add(i as u64));
        acc
    })
}

/// O2 negative: emits the `Used` event kind defined in `bad`.
pub fn emit_used(sink: &mut Vec<Event>) {
    sink.push(Event::Used(1));
}

/// R1 negative root: the one panic site on the path carries its
/// justification (the panic-lint `#[expect]` clippy also accepts).
pub fn resume() {
    restore_step();
}

fn restore_step() {
    let v: Option<u8> = Some(0);
    #[expect(clippy::unwrap_used, reason = "seeded Some() on the line above")]
    let _ = v.unwrap();
}

/// E2 negative: the producer's caller feeds the FlowStats ledger.
pub fn detect_ok() -> DetectionOutcome {
    DetectionOutcome
}

/// E2 sink-side caller.
pub fn absorb(stats: &mut FlowStats) {
    stats.record(detect_ok());
}

/// O1 negative: labeled constructor with grammatical label keys.
pub fn register_labeled(r: &dyn Registrar) {
    r.counter_labeled("good_requests_total", &[("tenant_id", "t0")]);
}
