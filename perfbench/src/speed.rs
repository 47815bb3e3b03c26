//! The host's speed, measured with a fixed reference workload.
//!
//! The shared host's speed drifts by as much as 80% within minutes, and the
//! drift shows in CPU time as much as in wall time, so it is not time spent
//! waiting. The benchmark therefore runs a fixed piece of work of its own,
//! which no change to the code under test can alter, on the same CPU as the
//! jobs and interleaved with them in time, and scales the jobs' CPU times to
//! a host on which that piece takes [`NOMINAL_CHUNK_S`]. A change that makes
//! the jobs faster still shows in full; the host's drift cancels to the
//! extent that it slows the reference as much as the jobs.
//!
//! The reference runs on a sampler thread that wakes every
//! [`SAMPLE_PERIOD`], so that it samples the host's speed during long jobs
//! too, and both threads are pinned to one CPU, so that it samples the CPU
//! the jobs run on. The jobs' own CPU time ([`crate::trace::cpu_time`], a
//! per-thread clock) leaves out the time the sampler holds the CPU.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::trace::cpu_timed;

/// Entries of the pointer-chasing cycle: 16 KiB of `u32`, within the first
/// level cache, so the reference measures the core's speed.
const CYCLE_LEN: usize = 1 << 12;
/// Steps of one chunk.
const CHUNK_STEPS: usize = 1 << 17;
/// CPU seconds one chunk takes at the nominal speed: its median on an idle
/// 2-vCPU x86-64 VM.
pub const NOMINAL_CHUNK_S: f64 = 0.000_7;
/// How often the sampler runs a chunk: the reference takes about 3.5% of
/// the CPU.
const SAMPLE_PERIOD: Duration = Duration::from_millis(20);

/// `cpu_set_t` of Linux: a mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to `cpu`.
fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed, alive for the
    // call, which only reads it; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if status == 0 {
        Ok(())
    } else {
        Err(format!(
            "pinning a thread to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// One sample: when the chunk started (seconds since the sampler started)
/// and its CPU time.
type Sample = (f64, f64);

/// The running sampler. Dropping it stops the sampler and waits for it.
pub struct Speedometer {
    started: Instant,
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl Speedometer {
    /// Pins the calling thread to the CPU it runs on and starts the sampler
    /// on the same CPU.
    pub fn start() -> Result<Self, String> {
        // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
        let cpu = unsafe { sched_getcpu() };
        let cpu = usize::try_from(cpu)
            .map_err(|_| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
        pin_to(cpu)?;
        let started = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let sampler = {
            let samples = Arc::clone(&samples);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let pinned = pin_to(cpu);
                let ok = pinned.is_ok();
                let _ = pinned_tx.send(pinned);
                if ok {
                    sample(started, &samples, &stop);
                }
            })
        };
        let speedometer = Speedometer {
            started,
            samples,
            stop,
            sampler: Some(sampler),
        };
        // On an error, dropping the speedometer stops and joins the sampler.
        pinned_rx
            .recv()
            .map_err(|_| "the sampler thread ended before pinning itself".to_string())??;
        Ok(speedometer)
    }

    /// Seconds since the sampler started, to mark an interval.
    pub fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The factor that scales CPU times measured from `from` to `to` to the
    /// nominal speed, from the median chunk sampled in between. An interval
    /// too short to hold a sample (only in the smoke mode) is not scaled.
    pub fn scale(&self, from: f64, to: f64) -> f64 {
        let mut chunks: Vec<f64> = self
            .samples
            .lock()
            .expect("the sampler does not panic")
            .iter()
            .filter(|&&(at, _)| from <= at && at < to)
            .map(|&(_, time)| time)
            .collect();
        if chunks.is_empty() {
            return 1.0;
        }
        chunks.sort_by(f64::total_cmp);
        NOMINAL_CHUNK_S / chunks[chunks.len() / 2]
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            // The sampler cannot panic; a join error would only repeat one.
            let _ = sampler.join();
        }
    }
}

/// The sampler's loop: a chunk every [`SAMPLE_PERIOD`] until `stop`.
fn sample(started: Instant, samples: &Mutex<Vec<Sample>>, stop: &AtomicBool) {
    let mut reference = Reference::new();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(SAMPLE_PERIOD);
        let at = started.elapsed().as_secs_f64();
        let time = reference.chunk();
        samples
            .lock()
            .expect("the main thread does not panic while holding the lock")
            .push((at, time));
    }
}

/// The reference workload: a pointer chase through one random cycle.
struct Reference {
    next: Vec<u32>,
    /// Where the next chunk starts.
    at: u32,
}

impl Reference {
    fn new() -> Self {
        // Sattolo's algorithm with a fixed xorshift stream: one cycle, the
        // same on every run.
        let mut next: Vec<u32> = (0..CYCLE_LEN as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..CYCLE_LEN).rev() {
            state = xorshift(state);
            next.swap(i, (state % i as u64) as usize);
        }
        Reference { next, at: 0 }
    }

    /// Runs one chunk, dependent loads and branchy integer work, and returns
    /// its CPU time in seconds.
    fn chunk(&mut self) -> f64 {
        let ((), time) = cpu_timed(|| {
            let mut at = self.at;
            let mut acc = 1u64;
            for _ in 0..CHUNK_STEPS {
                at = self.next[at as usize];
                acc = if acc & 1 == 0 {
                    xorshift(acc ^ u64::from(at))
                } else {
                    acc.rotate_left(7).wrapping_add(u64::from(at))
                };
            }
            // Every entry lies on the one cycle, so any index is a start.
            self.at = black_box(at ^ (acc as u32 & 1));
        });
        time.as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}
