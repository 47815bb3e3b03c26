//! Deterministic fork–join helpers for the bench runner.
//!
//! The Table II grid (instances × approaches × solver configurations) is
//! embarrassingly parallel: every cell is an independent solver run.
//! [`run_indexed`] fans a task list across `std::thread::scope` workers that
//! pull indices from a shared atomic counter, and every result lands in its
//! own slot, so the output order is independent of scheduling (`table2
//! --jobs` sets the worker count).
//!
//! Worker panics are contained: [`try_run_indexed`] catches a panicking
//! task, lets the remaining workers drain, and reports a [`WorkerPanic`]
//! identifying the offending task instead of aborting the process or
//! hanging a channel receive.

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker task panicked during [`try_run_indexed`].
///
/// Carries the index of the first task observed to panic and the panic
/// payload rendered as text (`&str`/`String` payloads verbatim, anything
/// else a placeholder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the first panicking task.
    pub task_index: usize,
    /// The panic payload as text.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.task_index, self.message)
    }
}

impl Error for WorkerPanic {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

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
/// Panics with the offending task's index and message if a task panics.
/// Callers that want a recoverable error instead should use
/// [`try_run_indexed`].
pub fn run_indexed<T, F>(count: usize, jobs: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_run_indexed(count, jobs, task) {
        Ok(results) => results,
        Err(failure) => panic!("{failure}"),
    }
}

/// Like [`run_indexed`], but a panicking task becomes an `Err` instead of
/// tearing down the process.
///
/// On a task panic the remaining workers stop claiming new indices, every
/// in-flight task is allowed to finish, and the first panic observed (by
/// completion order) is reported as a [`WorkerPanic`]. Already-computed
/// results are dropped — a grid with a poisoned cell has no meaningful
/// aggregate.
///
/// ```
/// use bosphorus_bench::parallel::try_run_indexed;
/// let err = try_run_indexed(8, 4, |i| {
///     if i == 5 {
///         panic!("bad job");
///     }
///     i
/// })
/// .unwrap_err();
/// assert_eq!(err.task_index, 5);
/// assert!(err.message.contains("bad job"));
/// ```
pub fn try_run_indexed<T, F>(count: usize, jobs: usize, task: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    if jobs <= 1 {
        let mut results = Vec::with_capacity(count);
        for i in 0..count {
            match catch_unwind(AssertUnwindSafe(|| task(i))) {
                Ok(value) => results.push(value),
                Err(payload) => {
                    return Err(WorkerPanic {
                        task_index: i,
                        message: panic_message(payload),
                    })
                }
            }
        }
        return Ok(results);
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<WorkerPanic>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| task(i))) {
                    Ok(result) => {
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                    Err(payload) => {
                        // First panic wins; later ones are dropped. The
                        // other workers drain their current task and stop.
                        let mut slot = failure.lock().expect("failure slot poisoned");
                        if slot.is_none() {
                            *slot = Some(WorkerPanic {
                                task_index: i,
                                message: panic_message(payload),
                            });
                        }
                        abort.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    if let Some(failure) = failure.into_inner().expect("failure slot poisoned") {
        return Err(failure);
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task index was claimed and completed")
        })
        .collect())
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
    fn try_run_indexed_succeeds_like_run_indexed() {
        for jobs in [1usize, 4] {
            let out = try_run_indexed(12, jobs, |i| i * 3).expect("no panics");
            assert_eq!(out, (0..12).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_task_is_reported_with_its_index() {
        for jobs in [1usize, 2, 8] {
            let err = try_run_indexed(10, jobs, |i| {
                if i == 7 {
                    panic!("task seven exploded");
                }
                i
            })
            .unwrap_err();
            // With several workers another index could in principle panic
            // first, but only index 7 panics here.
            assert_eq!(err.task_index, 7, "jobs={jobs}");
            assert!(
                err.message.contains("task seven exploded"),
                "jobs={jobs}: {}",
                err.message
            );
            assert!(err.to_string().contains("task 7"), "jobs={jobs}");
        }
    }

    #[test]
    fn remaining_workers_stop_after_a_panic() {
        use std::sync::atomic::AtomicU32;
        let started = AtomicU32::new(0);
        // Task 0 panics immediately; with 1 job the serial path must not
        // start any later task.
        let err = try_run_indexed(1000, 1, |i| {
            started.fetch_add(1, Ordering::SeqCst);
            if i == 0 {
                panic!("early");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.task_index, 0);
        assert_eq!(started.load(Ordering::SeqCst), 1, "no task after the panic");
    }

    #[test]
    fn string_panic_payloads_are_rendered() {
        let err = try_run_indexed(2, 1, |i| {
            if i == 1 {
                let detail = 42;
                panic!("formatted {detail}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.message, "formatted 42");
    }

    #[test]
    #[should_panic(expected = "task 3 panicked: boom")]
    fn run_indexed_still_panics_but_with_context() {
        let _ = run_indexed(5, 2, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
