//! Scoped-thread data-parallel helpers for the workspace's wide loops.
//!
//! The build environment is offline (no crates.io registry), so instead of
//! `rayon` this crate provides the minimal fork-join surface the kernels
//! need, built purely on [`std::thread::scope`]:
//!
//! * [`thread_count`] — the worker budget: `RRAM_FTT_THREADS` env override,
//!   else [`std::thread::available_parallelism`].
//! * [`for_each_chunk_mut`] — split a `&mut [T]` into contiguous chunks and
//!   process them on worker threads (the backbone of row-blocked matmul and
//!   plane-backed MVM batching).
//! * [`map_indices`] — evaluate an independent `Fn(usize) -> T` for
//!   `0..n` and collect results in index order (detection-group sweeps,
//!   remap candidate scoring).
//! * [`join_reduce`] — partition `0..n` into ranges, fold each range on a
//!   worker, then combine partial results (cost sums).
//!
//! All helpers fall back to plain sequential execution when the budget is
//! one thread or the problem is below [`PAR_THRESHOLD`], so small inputs
//! never pay thread-spawn overhead and unit tests stay deterministic.
//!
//! Determinism note: every helper assigns work by index and writes results
//! into pre-sliced disjoint regions, so outputs are bit-identical to the
//! sequential order regardless of the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod sanitizer;

/// Observes one parallel fan-out on the global [`obs`] recorder, returning
/// a span guard timing the whole fork-join scope. Gated on
/// [`obs::enabled`] (one relaxed atomic load, default off) so
/// un-instrumented hot loops pay effectively nothing — the workspace's
/// kernel benches measure the gate at well under the 5 % overhead budget.
///
/// `par` has no recorder parameter to thread through (it sits below every
/// instrumented crate), so this is the one sanctioned use of the global
/// recorder. Only commutative metrics are touched; no events.
fn record_fanout(helper: &'static str, workers: usize) -> Option<obs::SpanGuard> {
    if !obs::enabled() {
        return None;
    }
    let rec = obs::global();
    rec.counter("par_fanouts_total").inc();
    rec.counter("par_workers_spawned_total").add(workers as u64);
    Some(rec.span(helper))
}

/// Times one worker's slice of a fan-out (histogram
/// `span_par_worker_ns`); `None` when global instrumentation is off.
fn worker_span() -> Option<obs::SpanGuard> {
    if !obs::enabled() {
        return None;
    }
    Some(obs::global().span("par_worker"))
}

/// Problems smaller than this many work items run sequentially: spawning
/// even one scoped thread costs ~10 µs, which dwarfs small kernels.
pub const PAR_THRESHOLD: usize = 64;

/// Sparsity gate shared by `Crossbar::mvm` and `Tensor::matmul`: skipping a
/// zero input element saves a row-length SAXPY, but the branch costs a
/// compare per element. Profiling shows the skip only wins once the input
/// is mostly zeros — which happens after §5.2-style pruning re-mapping
/// (>50 % of weights pruned) or with sparse spike-like activations. Dense
/// kernels therefore only take the branch when the caller has measured
/// sparsity above this fraction.
pub const SPARSITY_SKIP_THRESHOLD: f32 = 0.5;

/// Accumulator-lane count for `f32` kernels (MVM dot products / SAXPY
/// rows). Part of the workspace-wide lane contract: every vectorized `f32`
/// reduction runs this many independent accumulators over
/// `chunks_exact(F32_LANES)` and folds the remainder round-robin into the
/// same accumulators, then combines them with the fixed tree
/// `((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`. The lane count and the reduction
/// tree are *semantic*: changing either changes float results, so both are
/// pinned here and asserted bit-identical against scalar oracles in
/// `rram`'s proptests and the chaos `kernels` family.
pub const F32_LANES: usize = 8;

/// Accumulator-lane count for `f64` kernels (group-sum sweeps). Same
/// contract as [`F32_LANES`] with the reduction tree `(a0+a1)+(a2+a3)`.
pub const F64_LANES: usize = 4;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the worker budget. `RRAM_FTT_THREADS=4000000` would
/// otherwise ask [`std::thread::scope`] for millions of spawns.
pub const MAX_THREADS: usize = 1024;

/// The worker budget used by all helpers.
///
/// Resolution order: [`set_thread_count`] override (tests / benches), the
/// `RRAM_FTT_THREADS` environment variable (resolved once through
/// [`resolve_thread_budget`]), then
/// [`std::thread::available_parallelism`]. Always in `1..=MAX_THREADS`.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced.min(MAX_THREADS);
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        let raw = std::env::var("RRAM_FTT_THREADS").ok();
        resolve_thread_budget(raw.as_deref())
    })
}

/// Resolves a raw `RRAM_FTT_THREADS` value into a usable worker budget.
///
/// This is the pure core of [`thread_count`], exposed so the policy can be
/// tested without mutating process environment (the env lookup itself is
/// cached in a `OnceLock` and cannot be re-run in-process):
///
/// * `None` (unset) — auto-detect via `available_parallelism`, min 1.
/// * `Some("0")` — **clamped to 1** with a diagnostic on stderr. A zero
///   worker budget would make every `div_ceil(workers)` chunk division and
///   `thread::scope` fan-out degenerate; the paper's flow must keep
///   running, just sequentially.
/// * `Some(non-numeric / negative / empty)` — falls back to auto-detect
///   with a diagnostic; garbage must never poison the budget.
/// * Values above [`MAX_THREADS`] are capped.
///
/// Never returns 0.
pub fn resolve_thread_budget(raw: Option<&str>) -> usize {
    let auto = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, MAX_THREADS)
    };
    match raw {
        None => auto(),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(0) => {
                debug_log("RRAM_FTT_THREADS=0 is not a valid worker budget; clamping to 1");
                1
            }
            Ok(n) if n > MAX_THREADS => {
                debug_log(&format!(
                    "RRAM_FTT_THREADS={n} exceeds MAX_THREADS; capping to {MAX_THREADS}"
                ));
                MAX_THREADS
            }
            Ok(n) => n,
            Err(_) => {
                debug_log(&format!(
                    "RRAM_FTT_THREADS={s:?} is not a number; using auto-detected parallelism"
                ));
                auto()
            }
        },
    }
}

/// One-line diagnostic for configuration clamps. Kept out of hot paths —
/// only ever called once per process from the `OnceLock` init (or from
/// tests exercising [`resolve_thread_budget`] directly).
fn debug_log(msg: &str) {
    eprintln!("[rram-ftt/par] {msg}");
}

/// Forces [`thread_count`] to `n` for this process (0 restores the
/// env/auto behaviour). Used by benches to sweep thread counts.
pub fn set_thread_count(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Splits `data` into at most `thread_count()` contiguous chunks of at
/// least `min_chunk` items and runs `f(chunk_start_index, chunk)` for each,
/// in parallel. Falls back to one sequential call for small inputs.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let workers = worker_count(n.div_ceil(min_chunk.max(1)));
    if workers <= 1 {
        f(0, data);
        return;
    }
    let chunk = n.div_ceil(workers);
    let _obs = record_fanout("par_chunk", workers);
    let san = sanitizer::enabled();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        for (ci, slice) in data.chunks_mut(chunk).enumerate() {
            if san {
                spans.push((ci * chunk, slice.len()));
            }
            let f = &f;
            scope.spawn(move || {
                let _w = worker_span();
                f(ci * chunk, slice);
            });
        }
    });
    if san {
        let order: Vec<usize> = (0..spans.len()).collect();
        sanitizer::record_schedule("par_chunk", n, &spans, &order);
    }
}

/// Like [`for_each_chunk_mut`], but sized for *few, heavy* items (e.g. a
/// handful of crossbar tiles each running a whole detection campaign): the
/// fan-out engages whenever `data.len() · est_ops_per_item` clears
/// [`PAR_MIN_WORK`], even far below [`PAR_THRESHOLD`] items.
pub fn for_each_chunk_mut_hinted<T, F>(data: &mut [T], est_ops_per_item: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let workers = if n < 2 || n.saturating_mul(est_ops_per_item) < PAR_MIN_WORK {
        1
    } else {
        thread_count().min(n)
    };
    if workers <= 1 {
        f(0, data);
        return;
    }
    let chunk = n.div_ceil(workers);
    let _obs = record_fanout("par_chunk_hinted", workers);
    let san = sanitizer::enabled();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        for (ci, slice) in data.chunks_mut(chunk).enumerate() {
            if san {
                spans.push((ci * chunk, slice.len()));
            }
            let f = &f;
            scope.spawn(move || {
                let _w = worker_span();
                f(ci * chunk, slice);
            });
        }
    });
    if san {
        let order: Vec<usize> = (0..spans.len()).collect();
        sanitizer::record_schedule("par_chunk_hinted", n, &spans, &order);
    }
}

/// Splits a row-major matrix buffer (`data.len() == rows * row_len`) into
/// contiguous blocks of *whole rows* and runs `f(first_row, block)` for
/// each block on the worker budget. Unlike [`for_each_chunk_mut`] this
/// never splits a row across workers, so per-row kernels (matmul output
/// rows, crossbar MVM lanes) stay contiguous.
///
/// The caller decides *whether* parallelism pays (e.g. by a FLOP-count
/// gate); this helper only refuses to split when there is a single row or
/// a single worker.
///
/// # Panics
///
/// Panics if `row_len` is zero or does not divide `data.len()`.
pub fn for_each_row_block_mut<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert!(
        data.len().is_multiple_of(row_len),
        "buffer length {} is not a multiple of row_len {row_len}",
        data.len()
    );
    let rows = data.len() / row_len;
    let workers = thread_count().min(rows);
    if workers <= 1 {
        f(0, data);
        return;
    }
    let rows_per_block = rows.div_ceil(workers);
    let block = rows_per_block * row_len;
    let _obs = record_fanout("par_row_block", workers);
    let san = sanitizer::enabled();
    let n = data.len();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        for (ci, slice) in data.chunks_mut(block).enumerate() {
            if san {
                spans.push((ci * block, slice.len()));
            }
            let f = &f;
            scope.spawn(move || {
                let _w = worker_span();
                f(ci * rows_per_block, slice);
            });
        }
    });
    if san {
        let order: Vec<usize> = (0..spans.len()).collect();
        sanitizer::record_schedule("par_row_block", n, &spans, &order);
    }
}

/// Evaluates `f(i)` for every `i in 0..n` on the worker budget and returns
/// the results in index order. `f` must be independent across indices.
pub fn map_indices<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indices_on(worker_count(n), n, f)
}

/// Estimated scalar operations below which a fan-out is not worth a thread
/// spawn (see [`map_indices_hinted`]).
pub const PAR_MIN_WORK: usize = 1 << 14;

/// Like [`map_indices`], but sized for *few, heavy* items: the caller
/// passes an estimate of the scalar operations per item, and the fan-out
/// engages whenever `n · est_ops_per_item` clears [`PAR_MIN_WORK`] — even
/// for item counts far below [`PAR_THRESHOLD`] (e.g. 8 detection groups
/// that each sweep a 512-column crossbar slice).
pub fn map_indices_hinted<T, F>(n: usize, est_ops_per_item: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if n < 2 || n.saturating_mul(est_ops_per_item) < PAR_MIN_WORK {
        1
    } else {
        thread_count().min(n)
    };
    map_indices_on(workers, n, f)
}

fn map_indices_on<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let chunk = n.div_ceil(workers);
    let _obs = record_fanout("par_map", workers);
    let san = sanitizer::enabled();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        for (ci, slice) in out.chunks_mut(chunk).enumerate() {
            if san {
                spans.push((ci * chunk, slice.len()));
            }
            let f = &f;
            scope.spawn(move || {
                let _w = worker_span();
                for (k, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(f(ci * chunk + k));
                }
            });
        }
    });
    if san {
        let order: Vec<usize> = (0..spans.len()).collect();
        sanitizer::record_schedule("par_map", n, &spans, &order);
    }
    out.into_iter()
        .map(|v| {
            #[expect(
                clippy::expect_used,
                reason = "the workers above cover `0..n` exactly (disjoint chunks of the same Vec); an empty slot is a bug in this module, not a caller-reachable state"
            )]
            v.expect("worker filled every slot")
        })
        .collect()
}

/// Folds `0..n` in parallel: each worker folds its contiguous index range
/// with `fold(acc, i)` starting from `init()`, and the per-worker partials
/// are combined left-to-right (in range order) with `combine`.
///
/// With a commutative+associative `combine` (e.g. `f64` cost sums where
/// per-range grouping differences are acceptable) this is a drop-in
/// replacement for a sequential fold.
pub fn join_reduce<A, I, F, C>(n: usize, init: I, fold: F, combine: C) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, usize) -> A + Sync,
    C: Fn(A, A) -> A,
{
    let workers = worker_count(n);
    if workers <= 1 {
        return (0..n).fold(init(), &fold);
    }
    let chunk = n.div_ceil(workers);
    let mut partials: Vec<Option<A>> = Vec::new();
    partials.resize_with(n.div_ceil(chunk), || None);
    let _obs = record_fanout("par_reduce", workers);
    let san = sanitizer::enabled();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        for (ci, slot) in partials.iter_mut().enumerate() {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(n);
            if san {
                spans.push((lo, hi - lo));
            }
            let init = &init;
            let fold = &fold;
            scope.spawn(move || {
                let _w = worker_span();
                *slot = Some((lo..hi).fold(init(), fold));
            });
        }
    });
    // Combine partials left-to-right in range order, recording the order
    // actually used so the sanitizer can fingerprint it.
    let mut order: Vec<usize> = Vec::new();
    let mut acc: Option<A> = None;
    for (ci, p) in partials.into_iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "one worker is spawned per partial slot and each writes `Some` before the scope joins; a `None` here is a bug in this module, not a caller-reachable state"
        )]
        let p = p.expect("worker produced a partial");
        if san {
            order.push(ci);
        }
        acc = Some(match acc {
            None => p,
            Some(a) => combine(a, p),
        });
    }
    if san {
        sanitizer::record_schedule("par_reduce", n, &spans, &order);
    }
    acc.unwrap_or_else(init)
}

/// How many workers a problem of `n` independent items warrants.
fn worker_count(n: usize) -> usize {
    if n < PAR_THRESHOLD {
        1
    } else {
        thread_count().min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn budget_unset_auto_detects() {
        let n = resolve_thread_budget(None);
        assert!((1..=MAX_THREADS).contains(&n));
    }

    #[test]
    fn budget_zero_clamps_to_one() {
        assert_eq!(resolve_thread_budget(Some("0")), 1);
        assert_eq!(resolve_thread_budget(Some(" 0 ")), 1);
    }

    #[test]
    fn budget_garbage_falls_back_to_auto() {
        for garbage in ["", "  ", "abc", "-3", "1.5", "0x10", "NaN", "١٦"] {
            let n = resolve_thread_budget(Some(garbage));
            assert!(n >= 1, "garbage {garbage:?} must yield a usable budget");
            assert!(n <= MAX_THREADS);
        }
    }

    #[test]
    fn budget_plain_numbers_pass_through() {
        assert_eq!(resolve_thread_budget(Some("1")), 1);
        assert_eq!(resolve_thread_budget(Some("64")), 64);
        assert_eq!(resolve_thread_budget(Some(" 8\n")), 8);
    }

    #[test]
    fn budget_huge_values_are_capped() {
        assert_eq!(resolve_thread_budget(Some("4000000")), MAX_THREADS);
        assert_eq!(
            resolve_thread_budget(Some("18446744073709551615")),
            MAX_THREADS
        );
    }

    #[test]
    fn set_thread_count_overrides_and_restores() {
        set_thread_count(3);
        assert_eq!(thread_count(), 3);
        set_thread_count(0);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn chunks_cover_every_index_once() {
        let mut data = vec![0u32; 1000];
        for_each_chunk_mut(&mut data, 1, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v += (start + k) as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1, "index {i} visited exactly once");
        }
    }

    #[test]
    fn small_input_runs_sequentially() {
        let mut data = vec![1u8; PAR_THRESHOLD - 1];
        let mut calls = 0;
        // A FnMut would not compile for the parallel path; the sequential
        // fallback is exercised through an interior-mutability counter.
        let counter = std::sync::atomic::AtomicUsize::new(0);
        for_each_chunk_mut(&mut data, 1, |_, chunk| {
            counter.fetch_add(1, Ordering::Relaxed);
            for v in chunk {
                *v = 2;
            }
        });
        calls += counter.load(Ordering::Relaxed);
        assert_eq!(calls, 1, "below-threshold input must not be split");
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn row_blocks_never_split_rows() {
        let row_len = 7;
        let rows = 131;
        let mut data = vec![0usize; rows * row_len];
        for_each_row_block_mut(&mut data, row_len, |first_row, block| {
            assert_eq!(block.len() % row_len, 0, "block must hold whole rows");
            for (k, v) in block.iter_mut().enumerate() {
                *v = (first_row * row_len + k) + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i + 1);
        }
    }

    #[test]
    fn map_indices_preserves_order() {
        let squares = map_indices(500, |i| i * i);
        assert_eq!(squares.len(), 500);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn join_reduce_matches_sequential_fold() {
        let n = 4097;
        let par: u64 = join_reduce(n, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        let seq: u64 = (0..n as u64).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn join_reduce_empty_range_yields_init() {
        let v: u64 = join_reduce(0, || 7u64, |acc, _| acc + 1, |a, b| a + b);
        assert_eq!(v, 7);
    }
}
