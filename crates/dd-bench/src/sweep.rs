//! Run-level parallel sweep executor.
//!
//! Every multi-run experiment in this crate is an embarrassingly parallel
//! grid of independent cells (a cell = one run under one or more
//! schedulers). This module fans those cells over a fixed pool of
//! [`std::thread::scope`] worker threads pulling indices from a shared
//! work-stealing counter, with results collected behind a
//! [`std::sync::Mutex`] and re-ordered by cell index before they are
//! returned.
//!
//! # Determinism
//!
//! Parallel execution is observationally identical to serial execution:
//!
//! * each cell's randomness derives solely from the experiment's root seed
//!   and the cell's own coordinates (workflow, run index, seed label) —
//!   never from worker identity or scheduling order;
//! * results are returned in cell-index order, not completion order;
//! * per-worker state ([`par_map_with`]) only carries *allocations*
//!   (e.g. a reusable DES session), never values that influence results.
//!
//! Consequently `report figN --jobs 8` renders byte-identical output to
//! `--jobs 1`; the workspace test suite pins this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use when the user does not say: the
/// machine's available parallelism (1 if that cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `0..n` on `jobs` worker threads, returning results in
/// index order.
///
/// `jobs <= 1` (or `n <= 1`) degenerates to a plain serial loop on the
/// calling thread — no threads are spawned and no locks are taken.
///
/// # Panics
/// Propagates a panic from any worker.
pub fn par_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(jobs, n, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker scratch state.
///
/// `init` runs once on each worker thread; the resulting state is handed
/// to every cell that worker steals. Use it for reusable allocations
/// (buffers, DES sessions) — state must never change a cell's *result*,
/// or determinism across `jobs` settings is lost.
pub fn par_map_with<S, T, I, F>(jobs: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    // Work-stealing cell queue: workers race on a shared counter, so a
    // slow cell never stalls the others (static striping would).
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    // `thread::scope` joins every worker and re-raises the first panic.
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(&mut state, i);
                    results.lock().expect("no worker panics holding the lock")[i] = Some(value);
                }
            });
        }
    });

    results
        .into_inner()
        .expect("no worker panics holding the lock")
        .into_iter()
        .map(|cell| cell.expect("every cell computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn results_in_index_order() {
        for jobs in [1, 2, 8] {
            let out = par_map(jobs, 100, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map(4, 0, |i| i).is_empty());
        assert_eq!(par_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn excess_jobs_clamp_to_cells() {
        let out = par_map(64, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn per_worker_state_reused_without_affecting_results() {
        // State counts the cells its worker processed; results must not
        // depend on that count.
        let out = par_map_with(
            4,
            50,
            || 0usize,
            |seen, i| {
                *seen += 1;
                i * 2
            },
        );
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_stateful_sum() {
        let serial = par_map(1, 200, |i| (i as f64).sqrt());
        let parallel = par_map(8, 200, |i| (i as f64).sqrt());
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn worker_panic_propagates() {
        let _ = par_map(2, 10, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
