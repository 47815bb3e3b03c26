//! Spans recorded around the public calls into each layer.
//!
//! The benchmark times parse, conversion, preprocessing, the final solve and
//! its own answer check directly. Inside preprocessing, every standard pass is
//! wrapped in [`TimedPass`], which records one [`PassSpan`] per executed run
//! into a [`PassLog`] shared with the job that drives the pipeline.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bosphorus::{
    BosphorusConfig, ElimLinPass, GroebnerPass, LearningPass, PassBudget, PassKind, PassOutcome,
    PassStatus, Pipeline, PropagatePass, SatPass, XlPass,
};
use bosphorus_anf::AnfDatabase;

/// One executed (not skipped) run of a pass.
#[derive(Debug, Clone)]
pub struct PassSpan {
    pub pass: &'static str,
    pub time: Duration,
    /// SAT conflicts the run spent (0 outside the SAT pass).
    pub conflicts: u64,
    /// Facts the driver committed from this run (after its filter).
    pub added: usize,
}

/// The spans of one preprocessing call, in execution order.
pub type PassLog = Rc<RefCell<Vec<PassSpan>>>;

/// A standard pass that records a [`PassSpan`] per run. It keeps the inner
/// pass's name, so the engine's statistics and fact attribution are the same
/// as in a plain [`bosphorus::Bosphorus::preprocess`] run.
pub struct TimedPass {
    inner: Box<dyn LearningPass>,
    log: PassLog,
}

impl LearningPass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, db: &mut AnfDatabase, budget: &PassBudget) -> PassOutcome {
        let started = Instant::now();
        let outcome = self.inner.run(db, budget);
        let time = started.elapsed();
        if outcome.status != PassStatus::Skipped {
            self.log.borrow_mut().push(PassSpan {
                pass: self.inner.name(),
                time,
                conflicts: outcome.sat_conflicts,
                added: 0,
            });
        }
        outcome
    }

    fn facts_committed(&mut self, added: usize, budget: &PassBudget) {
        if let Some(span) = self.log.borrow_mut().last_mut() {
            span.added = added;
        }
        self.inner.facts_committed(added, budget);
    }
}

/// The standard pipeline of `config` with every pass wrapped in a
/// [`TimedPass`] that logs into `log`.
pub fn timed_pipeline(config: &BosphorusConfig, log: &PassLog) -> Pipeline {
    let mut pipeline = Pipeline::new();
    for &kind in &config.pass_order {
        let inner: Box<dyn LearningPass> = match kind {
            PassKind::Propagate => Box::new(PropagatePass::new()),
            PassKind::Xl => Box::new(XlPass::new(config.clone())),
            PassKind::ElimLin => Box::new(ElimLinPass::new(config.clone())),
            PassKind::Sat => Box::new(SatPass::new(config.clone())),
            PassKind::Groebner => Box::new(GroebnerPass::new(config)),
        };
        pipeline.push(Box::new(TimedPass {
            inner,
            log: Rc::clone(log),
        }));
    }
    pipeline
}

/// Runs `f` and returns its result with the time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time (user and system) the calling thread has used so far. It leaves
/// out the time the thread waits for a CPU, such as the time the reference
/// sampler of [`crate::speed`] holds the CPU the jobs run on.
pub fn cpu_time() -> Duration {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` for the call's
    // duration, and `CLOCK_THREAD_CPUTIME_ID` is a clock every Linux kernel
    // provides, so the call only writes into `time`.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(time.tv_sec as u64, time.tv_nsec as u32)
}

/// Runs `f` and returns its result with the CPU time it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = cpu_time();
    let value = f();
    (value, cpu_time() - started)
}
