//! Parallel parameter sweeps.
//!
//! The experiment harnesses run many *independent* simulations (one per
//! parameter point × seed). Following the data-parallel idiom of the
//! hpc-parallel guides, each run owns its entire world — there is no shared
//! mutable state — and results are collected per-thread and stitched back in
//! input order, so a parallel sweep is observationally identical to the
//! sequential loop (same outputs, same order), just faster.
//!
//! Built on `std::thread::scope`: structured concurrency with borrowing of
//! the parameter slice, no `'static` bounds, and panics propagated to the
//! caller instead of being silently swallowed.
//!
//! ## When parallelism pays
//!
//! Spawning a thread scope costs tens of microseconds per worker; handing a
//! dozen microsecond-scale items to four threads is strictly slower than a
//! loop. [`parallel_worthwhile`] is the shared cost model: callers pass an
//! estimated per-item cost and the dispatch overhead of the mechanism they
//! would use, and get back whether fanning out can pay for itself.
//! [`run_hinted`] applies it to one-shot sweeps; [`run_with_threads`]
//! assumes whole-simulation items (≥ ~1 ms) and therefore parallelises
//! essentially whenever it has more items than nothing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` over every item of `params`, in parallel, preserving input order
/// in the result vector.
///
/// `f` must be `Sync` (it is shared by reference across worker threads) and
/// is handed `(index, &param)`. Worker count defaults to available
/// parallelism, capped by the number of items.
///
/// ```
/// let squares = aroma_sim::sweep::run(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    run_with_threads(params, available_workers(params.len()), f)
}

/// Estimated cost of one sweep item when the caller gives no hint: a whole
/// simulation run, conservatively ≥ 1 ms. With this default the sequential
/// fallback in [`run_hinted`] only triggers when the items could not keep
/// the workers busy at all.
const SWEEP_ITEM_DEFAULT_NS: u64 = 1_000_000;

/// Per-worker cost of standing up and joining a `std::thread::scope`
/// (spawn + stack + join, Linux ballpark). The dispatch overhead to weigh
/// against when the mechanism is a fresh scope per call.
pub const SPAWN_DISPATCH_NS: u64 = 60_000;

/// The shared cost model for "should this fan out?": true when the total
/// estimated work is at least 4x the dispatch overhead of putting all
/// `workers` on it. Callers pass the per-worker dispatch cost of their
/// mechanism (a fresh scope costs [`SPAWN_DISPATCH_NS`]); the factor 4
/// demands a clear win before paying coordination cost, since the estimate
/// is rough and a wrong "sequential" costs only the unrealised speedup
/// while a wrong "parallel" costs wall-clock outright.
pub fn parallel_worthwhile(
    items: usize,
    workers: usize,
    est_ns_per_item: u64,
    dispatch_ns_per_worker: u64,
) -> bool {
    if workers <= 1 || items <= 1 {
        return false;
    }
    let total = (items as u64).saturating_mul(est_ns_per_item);
    total >= 4u64.saturating_mul(workers as u64).saturating_mul(dispatch_ns_per_worker)
}

/// As [`run`], with an explicit worker count (`0` is treated as `1`).
/// Items are assumed to be whole simulation runs (≥ ~1 ms each); for
/// fine-grained work pass an honest estimate to [`run_hinted`] instead.
pub fn run_with_threads<P, R, F>(params: &[P], workers: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    run_hinted(params, workers, SWEEP_ITEM_DEFAULT_NS, f)
}

/// As [`run_with_threads`], with a caller-supplied per-item cost estimate
/// in nanoseconds. Falls back to the plain sequential loop whenever
/// [`parallel_worthwhile`] says a fresh thread scope cannot pay for
/// itself — tiny rounds (a few hundred sub-microsecond items, a handful
/// of cheap closures) must not spawn threads for microseconds of work. The output is identical either way: results in input order.
pub fn run_hinted<P, R, F>(params: &[P], workers: usize, est_ns_per_item: u64, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    let n = params.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 || !parallel_worthwhile(n, workers, est_ns_per_item, SPAWN_DISPATCH_NS) {
        return params.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }

    // Dynamic work-stealing over a shared index: cheap, balances uneven run
    // times (a dense-interference point costs far more than a sparse one).
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        // Each worker collects (index, result) pairs locally; the parent
        // merges after join, so no output slot is ever shared.
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                // lint:allow(sim-thread-spawn): workers only race for input indices; results are merged into `slots` by index after join, so the output is scheduling-independent (pinned by the sweep tests)
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &params[i])));
                    }
                    local
                })
            })
            .collect();

        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every sweep slot filled"))
        .collect()
}

/// Cartesian product of two parameter axes, row-major (`a` outer, `b`
/// inner) — the usual shape for "sweep X for each Y" experiment grids.
pub fn grid<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

/// `n` evenly spaced points from `lo` to `hi` inclusive (`n ≥ 2`).
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

fn available_workers(items: usize) -> usize {
    // lint:allow(sim-os-env): host parallelism only sizes the worker pool; run_with_threads output is worker-count-independent by construction
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[test]
    fn preserves_input_order() {
        let params: Vec<u64> = (0..257).collect();
        let out = run(&params, |i, &p| {
            assert_eq!(i as u64, p);
            p * 2
        });
        assert_eq!(out, params.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicU64::new(0);
        let params: Vec<u32> = (0..100).collect();
        let _ = run(&params, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let params: Vec<u64> = (0..64).collect();
        let seq = run_with_threads(&params, 1, |i, &p| p.wrapping_mul(i as u64 + 1));
        let par = run_with_threads(&params, 8, |i, &p| p.wrapping_mul(i as u64 + 1));
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_workers_treated_as_one() {
        let out = run_with_threads(&[1u32, 2, 3], 0, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = run_with_threads(&[1u32, 2, 3, 4], 2, |_, &x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    // -- cost model / sequential fallback ---------------------------------

    #[test]
    fn worthwhile_threshold_is_pinned() {
        // One worker or one item can never pay off.
        assert!(!parallel_worthwhile(1_000_000, 1, 1_000_000, SPAWN_DISPATCH_NS));
        assert!(!parallel_worthwhile(1, 4, u64::MAX / 8, SPAWN_DISPATCH_NS));
        // The boundary: total work == 4 * workers * dispatch exactly pays.
        // 4 workers * 60µs * 4 = 960µs; 960 items at 1µs each is exactly it.
        assert!(parallel_worthwhile(960, 4, 1_000, SPAWN_DISPATCH_NS));
        assert!(!parallel_worthwhile(959, 4, 1_000, SPAWN_DISPATCH_NS));
        // A liveness-style round: a few hundred ~100ns items never justify
        // a spawn (the old engine's workers*64 threshold got this wrong).
        assert!(!parallel_worthwhile(300, 4, 100, SPAWN_DISPATCH_NS));
        // Saturation, not overflow, on absurd estimates.
        assert!(parallel_worthwhile(usize::MAX, 2, u64::MAX, SPAWN_DISPATCH_NS));
    }

    #[test]
    fn hinted_tiny_items_stay_on_the_calling_thread() {
        let params: Vec<u32> = (0..200).collect();
        let caller = std::thread::current().id();
        let threads = Mutex::new(HashSet::new());
        let out = run_hinted(&params, 4, 100, |_, &x| {
            threads.lock().unwrap().insert(std::thread::current().id());
            x + 1
        });
        assert_eq!(out.len(), 200);
        let seen = threads.into_inner().unwrap();
        assert_eq!(
            seen,
            HashSet::from([caller]),
            "200 x 100ns of work must not spawn a thread scope"
        );
    }

    #[test]
    fn hinted_heavy_items_fan_out_and_preserve_order() {
        let params: Vec<u64> = (0..64).collect();
        let out = run_hinted(&params, 4, SWEEP_ITEM_DEFAULT_NS, |i, &p| {
            assert_eq!(i as u64, p);
            p * 3
        });
        assert_eq!(out, params.iter().map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn grid_is_row_major() {
        let g = grid(&[1, 2], &["a", "b", "c"]);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], (1, "a"));
        assert_eq!(g[2], (1, "c"));
        assert_eq!(g[3], (2, "a"));
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let xs = linspace(0.0, 10.0, 5);
        assert_eq!(xs, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
    }

    #[test]
    fn borrows_environment_without_static() {
        // The closure borrows `base` from the enclosing stack frame — this is
        // exactly what std::thread::scope buys us over spawn.
        let base = [10u64, 20, 30];
        let out = run(&[0usize, 1, 2], |_, &i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }
}
