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
    run_on(params, available_workers(params.len()), f)
}

/// As [`run`], on `workers` threads (`0` is treated as `1`); one worker
/// is the plain sequential loop. The output never depends on the count.
fn run_on<P, R, F>(params: &[P], workers: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    let n = params.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 {
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
    // lint:allow(sim-os-env): host parallelism only sizes the worker pool; run_on output is worker-count-independent by construction
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let seq = run_on(&params, 1, |i, &p| p.wrapping_mul(i as u64 + 1));
        let par = run_on(&params, 8, |i, &p| p.wrapping_mul(i as u64 + 1));
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_workers_treated_as_one() {
        let out = run_on(&[1u32, 2, 3], 0, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = run_on(&[1u32, 2, 3, 4], 2, |_, &x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
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
