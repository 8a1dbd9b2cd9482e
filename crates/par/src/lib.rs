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
//! * [`for_each_chunk_mut_weighted`] — the same for few items of unequal
//!   cost (crossbar tiles), cut into contiguous chunks of balanced weight.
//! * [`join_reduce`] — partition `0..n` into ranges, fold each range on a
//!   worker, then combine partial results (cost sums).
//!
//! All helpers fall back to plain sequential execution when the budget is
//! one thread or the problem is below its gate ([`PAR_THRESHOLD`] items,
//! [`PAR_MIN_WORK`] operations), so small inputs never pay thread-spawn
//! overhead and unit tests stay deterministic. A fan-out started inside a
//! fan-out worker also runs inline: the outer fan-out already holds the
//! worker budget.
//!
//! Determinism note: every helper assigns work by index and writes results
//! into pre-sliced disjoint regions, so outputs are bit-identical to the
//! sequential order regardless of the thread count.

use std::cell::Cell;
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

thread_local! {
    /// Whether this thread is running one chunk of a `par` fan-out.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a fan-out worker, so a fan-out started
/// inside the chunk runs inline (see [`worker_budget`]), and times the
/// worker's slice (histogram `span_par_worker_ns`) when global
/// instrumentation is on. Worker threads live for one scope, so the mark
/// is never cleared.
fn enter_worker() -> Option<obs::SpanGuard> {
    IN_WORKER.with(|w| w.set(true));
    if !obs::enabled() {
        return None;
    }
    Some(obs::global().span("par_worker"))
}

/// The worker budget a fan-out may use from the calling thread:
/// [`thread_count`] on an ordinary thread, 1 inside a fan-out worker. The
/// outer fan-out already holds the budget's threads, so a nested one (a
/// detection sweep inside a per-tile campaign) would only add spawns and
/// oversubscribe the cores; it runs inline, on the same schedule the
/// sequential path defines, so results do not change.
fn worker_budget() -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        thread_count()
    }
}

/// Problems smaller than this many work items run sequentially: a fan-out
/// costs tens of µs in thread spawns (an empty two-worker scope measured
/// 42–44 µs on a 2-vCPU container), which dwarfs small kernels.
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
                let _w = enter_worker();
                f(ci * chunk, slice);
            });
        }
    });
    if san {
        let order: Vec<usize> = (0..spans.len()).collect();
        sanitizer::record_schedule("par_chunk", n, &spans, &order);
    }
}

/// Like [`for_each_chunk_mut`], but for *few, unequal* items (e.g. the
/// crossbar tiles of one detection pass, from a full 256 × 256 array down
/// to a 10-column remainder shard): `weight(item)` estimates each item's
/// scalar operations, the fan-out engages once their total clears
/// [`PAR_MIN_WORK`], and the items are cut into contiguous chunks whose
/// heaviest weight is as small as any contiguous cut into that many chunks
/// allows. A count-based split would hand one worker three full tiles and
/// the other two slivers.
pub fn for_each_chunk_mut_weighted<T, W, F>(data: &mut [T], weight: W, f: F)
where
    T: Send,
    W: Fn(&T) -> usize,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let weights: Vec<usize> = data.iter().map(&weight).collect();
    let total = weights.iter().fold(0usize, |a, &w| a.saturating_add(w));
    let budget = worker_budget().min(n);
    if n < 2 || budget <= 1 || total < PAR_MIN_WORK {
        f(0, data);
        return;
    }
    let ends = weighted_bounds(&weights, budget);
    if ends.len() <= 1 {
        f(0, data);
        return;
    }
    let _obs = record_fanout("par_chunk_weighted", ends.len());
    let san = sanitizer::enabled();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut start = 0;
        for &end in &ends {
            let (slice, tail) = rest.split_at_mut(end - start);
            rest = tail;
            if san {
                spans.push((start, slice.len()));
            }
            let f = &f;
            scope.spawn(move || {
                let _w = enter_worker();
                f(start, slice);
            });
            start = end;
        }
    });
    if san {
        let order: Vec<usize> = (0..spans.len()).collect();
        sanitizer::record_schedule("par_chunk_weighted", n, &spans, &order);
    }
}

/// Chunk end indices of the contiguous split of `weights` into at most
/// `parts` non-empty chunks whose heaviest chunk is as light as possible:
/// a binary search on that bottleneck, each probe a greedy left-to-right
/// fill. The last end is `weights.len()`. Deterministic: the same weights
/// and part count always give the same bounds.
///
/// # Panics
///
/// Panics if `weights` is empty or `parts` is zero.
fn weighted_bounds(weights: &[usize], parts: usize) -> Vec<usize> {
    assert!(
        !weights.is_empty() && parts > 0,
        "need items and at least one part"
    );
    // Greedy fill under cap `b`: the chunk ends, or `None` if more than
    // `parts` chunks are needed.
    let fill = |b: usize| -> Option<Vec<usize>> {
        let mut ends = Vec::with_capacity(parts);
        let mut load = 0usize;
        for (i, &w) in weights.iter().enumerate() {
            if i > 0 && load.saturating_add(w) > b {
                ends.push(i);
                if ends.len() == parts {
                    return None;
                }
                load = 0;
            }
            load = load.saturating_add(w);
        }
        ends.push(weights.len());
        Some(ends)
    };
    let mut lo = weights.iter().copied().max().unwrap_or(0);
    let mut hi = weights.iter().fold(0usize, |a, &w| a.saturating_add(w));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fill(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    fill(lo).unwrap_or_else(|| vec![weights.len()])
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
    let workers = worker_budget().min(rows);
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
                let _w = enter_worker();
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

/// Estimated scalar operations below which a fan-out stays on the calling
/// thread (see [`map_indices_hinted`] and [`for_each_chunk_mut_weighted`]).
///
/// Priced at the measured spawn cost: on a 2-vCPU container (Xeon, 2.1 GHz)
/// an empty two-worker [`std::thread::scope`] costs 42–65 µs, and the
/// workers start one after the other, so a two-way split of a summing loop
/// (about 0.8 ns per operation) only beat the sequential loop from about
/// half a million operations: 2¹⁸ ops took 208 µs sequentially against
/// 244 µs on two workers, 2¹⁹ ops 425 µs against 367 µs, and 2²⁰ ops
/// 992 µs against 565 µs. The gate sits at that break-even, so a campaign's
/// group sweeps (one 256 × 256 tile is 2¹⁶ operations per direction) stay
/// on the calling thread and a multi-tile campaign fans out by tile.
pub const PAR_MIN_WORK: usize = 1 << 19;

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
        worker_budget().min(n)
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
                let _w = enter_worker();
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
                let _w = enter_worker();
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
        worker_budget().min(n)
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

    /// The heaviest chunk of the best contiguous split into at most
    /// `parts` chunks, by exhaustive search over the cut positions.
    fn best_bottleneck(weights: &[usize], parts: usize) -> usize {
        if parts == 1 || weights.len() == 1 {
            return weights.iter().sum();
        }
        (1..weights.len())
            .map(|cut| {
                let head: usize = weights[..cut].iter().sum();
                head.max(best_bottleneck(&weights[cut..], parts - 1))
            })
            .min()
            .unwrap_or(0)
            .min(weights.iter().sum())
    }

    #[test]
    fn weighted_bounds_are_contiguous_and_optimal() {
        let cases: [&[usize]; 6] = [
            &[25_600, 25_600, 25_600, 1_600, 1_000],
            &[1, 1, 1, 1, 1, 1, 1],
            &[0, 0, 9, 0, 0],
            &[5, 0, 0, 0, 5],
            &[100, 1, 1, 1, 1, 100],
            &[3, 8, 2, 7, 1, 9, 4],
        ];
        for weights in cases {
            for parts in 1..=weights.len() + 1 {
                let ends = weighted_bounds(weights, parts);
                assert!(ends.len() <= parts && !ends.is_empty());
                assert_eq!(ends.last(), Some(&weights.len()));
                let mut start = 0;
                let mut heaviest = 0;
                for &end in &ends {
                    assert!(end > start, "chunks are non-empty and ascending");
                    heaviest = heaviest.max(weights[start..end].iter().sum());
                    start = end;
                }
                assert_eq!(
                    heaviest,
                    best_bottleneck(weights, parts),
                    "{weights:?} / {parts}"
                );
            }
        }
        // The MLP's tiles on two workers: two full tiles against the rest.
        assert_eq!(weighted_bounds(cases[0], 2), vec![2, 5]);
    }

    #[test]
    fn weighted_chunks_cover_every_item_once() {
        // At the process's budget; `weighted_bounds_are_contiguous_and_optimal`
        // covers every part count. The budget is not set here: sibling
        // tests assert on the process-wide override.
        let mut data: Vec<(usize, u32)> = (0..11).map(|i| (i * 37 % 5, 0)).collect();
        for_each_chunk_mut_weighted(
            &mut data,
            |&(w, _)| w * PAR_MIN_WORK,
            |start, chunk| {
                for (k, item) in chunk.iter_mut().enumerate() {
                    item.1 += (start + k) as u32 + 1;
                }
            },
        );
        for (i, &(_, v)) in data.iter().enumerate() {
            assert_eq!(v, i as u32 + 1, "item {i} visited once");
        }
    }

    #[test]
    fn fan_outs_inside_a_worker_run_inline() {
        // A thread marked as a fan-out worker, as every helper marks its
        // workers; the nested fan-out clears its work gate.
        let ids = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _w = enter_worker();
                    let outer = std::thread::current().id();
                    map_indices_hinted(8, PAR_MIN_WORK, |_| std::thread::current().id() == outer)
                })
                .join()
        });
        let same_thread = ids.unwrap_or_default();
        assert_eq!(same_thread.len(), 8);
        assert!(same_thread.iter().all(|&s| s), "nested fan-out spawned");
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
