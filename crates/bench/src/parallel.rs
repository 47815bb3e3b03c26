//! Deterministic fork–join helper for the bench runner.
//!
//! The Table II grid (instances × approaches × solver configurations) is
//! embarrassingly parallel: every cell is an independent solver run.
//! [`run_indexed`] fans a task list across `std::thread::scope` workers that
//! pull indices from a shared atomic counter, and every result lands in its
//! own slot, so the output order is independent of scheduling (`table2
//! --jobs` sets the worker count).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `task(0..count)` across up to `jobs` scoped worker threads and
/// returns the results in index order.
///
/// With `jobs <= 1` (or a single task) the tasks run sequentially on the
/// calling thread — the path the deterministic single-threaded benches use.
/// Result ordering is identical either way; only wall-clock (and any
/// side-effect interleaving inside `task`) differs.
///
/// # Panics
///
/// Panics if a task panics. Callers that must survive a failing task catch
/// the panic inside `task`, as the Table II driver does for each cell.
pub fn run_indexed<T, F>(count: usize, jobs: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    if jobs <= 1 {
        return (0..count).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = task(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task index was claimed and completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_regardless_of_jobs() {
        for jobs in [1usize, 2, 4, 7] {
            let out = run_indexed(20, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..20).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        let out = run_indexed(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn zero_tasks_yield_empty_vec() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let calls: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        let _ = run_indexed(50, 8, |i| calls[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn a_panicking_task_panics_the_caller() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for jobs in [1usize, 2] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_indexed(5, jobs, |i| {
                    assert_ne!(i, 3, "task three fails");
                    i
                })
            }));
            assert!(outcome.is_err(), "jobs={jobs}");
        }
    }
}
