//! Cooperative cancellation for long-running preprocessing work.
//!
//! Preprocessing is naturally *anytime*: every learnt fact is valid the
//! moment it is committed, so interrupting a run should yield the
//! best-so-far simplified system rather than nothing. This crate provides
//! the shared primitive every layer polls:
//!
//! * [`CancelToken`] — a cheaply cloneable handle around an atomic flag
//!   plus an optional wall-clock deadline. A default token never cancels
//!   and costs nothing to poll.
//! * [`Checkpoint`] — a per-loop amortiser so hot loops only consult the
//!   token (and hence the clock) every ~2^16 iterations.
//! * [`sigint`] — optional process-level SIGINT and SIGTERM latching that
//!   fronts the same token, used by the CLI.
//!
//! The crate sits at the bottom of the workspace dependency graph (no
//! dependencies) so `gf2`, `sat`, `groebner`, and `core` can all share
//! one token type.
//!
//! # Polling discipline
//!
//! Cancellation is *cooperative*: nothing is torn down asynchronously.
//! Each layer polls at a granularity where the work between two polls is
//! bounded (a GF(2) sweep, a SAT conflict, an XL row product) and, on
//! observing cancellation, abandons uncommitted work and returns with
//! only fully-committed results. See `crates/bench/DESIGN.md` for the
//! per-layer checkpoint map.

#![deny(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often [`Checkpoint`] consults its token, in polls.
///
/// 2^16 keeps the amortised cost of a checkpoint at a fraction of a
/// nanosecond even when the token carries a deadline (one `Instant::now`
/// per 65 536 polls).
pub const DEFAULT_CHECK_INTERVAL: u64 = 1 << 16;

#[derive(Debug)]
struct Inner {
    /// Set once cancellation is requested (explicitly, by deadline, or by
    /// a latched SIGINT or SIGTERM); never cleared.
    cancelled: AtomicBool,
    /// Wall-clock deadline, if any. Once observed as passed, the result
    /// is memoised into `cancelled` so later polls skip the clock read.
    deadline: Option<Instant>,
    /// Whether polls should also consult the process SIGINT/SIGTERM latch.
    honor_sigint: bool,
    /// Test hook: when non-zero, each `is_cancelled` call decrements the
    /// countdown and trips the token when it reaches zero. Gives property
    /// tests a deterministic way to interrupt at the N-th checkpoint.
    cancel_after_checks: AtomicU64,
}

/// Shared cancellation token handed down through every long-running layer.
///
/// The default token ([`CancelToken::never`]) carries no allocation and
/// its [`is_cancelled`](CancelToken::is_cancelled) is a branch on a
/// `None` — dead cheap, so library entry points can take a `&CancelToken`
/// unconditionally.
///
/// Cloning shares the underlying flag: cancelling any clone cancels all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that never cancels. Equivalent to `CancelToken::default()`.
    #[must_use]
    pub fn never() -> Self {
        CancelToken { inner: None }
    }

    /// A manually cancellable token with no deadline.
    #[must_use]
    pub fn new() -> Self {
        Self::build(None, false)
    }

    /// A token that cancels itself once `timeout` has elapsed from now.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::build(Instant::now().checked_add(timeout), false)
    }

    /// Makes polls on this token also observe the process SIGINT and
    /// SIGTERM latch (see [`sigint`]). Returns a never-token unchanged.
    #[must_use]
    pub fn honoring_sigint(self) -> Self {
        match self.inner {
            None => self,
            Some(inner) => CancelToken {
                inner: Some(Arc::new(Inner {
                    cancelled: AtomicBool::new(inner.cancelled.load(Ordering::Relaxed)),
                    deadline: inner.deadline,
                    honor_sigint: true,
                    cancel_after_checks: AtomicU64::new(
                        inner.cancel_after_checks.load(Ordering::Relaxed),
                    ),
                })),
            },
        }
    }

    /// Test hook: trips the token on the `n`-th `is_cancelled` poll
    /// (1-based). Lets tests interrupt deterministically at an arbitrary
    /// checkpoint. No effect on a never-token; `n = 0` disables the hook.
    #[must_use]
    pub fn cancel_after_checks(self, n: u64) -> Self {
        if let Some(inner) = &self.inner {
            inner.cancel_after_checks.store(n, Ordering::Relaxed);
        }
        self
    }

    fn build(deadline: Option<Instant>, honor_sigint: bool) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                honor_sigint,
                cancel_after_checks: AtomicU64::new(0),
            })),
        }
    }

    /// Requests cancellation. Idempotent; a no-op on a never-token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Polls the token. This is the full check — flag, countdown hook,
    /// SIGINT/SIGTERM latch, then deadline (memoised into the flag once
    /// passed). Hot loops should poll through a [`Checkpoint`] instead.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        // Countdown test hook: saturating decrement, trip at zero.
        let mut remaining = inner.cancel_after_checks.load(Ordering::Relaxed);
        while remaining > 0 {
            match inner.cancel_after_checks.compare_exchange_weak(
                remaining,
                remaining - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if remaining == 1 {
                        inner.cancelled.store(true, Ordering::Relaxed);
                        return true;
                    }
                    break;
                }
                Err(current) => remaining = current,
            }
        }
        if inner.honor_sigint && sigint::pending() {
            inner.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Whether polling this token can ever return `true`.
    #[must_use]
    pub fn can_cancel(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh [`Checkpoint`] over this token at the default interval.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::new(self.clone())
    }

    /// A fresh [`Checkpoint`] polling the token every `interval` calls.
    #[must_use]
    pub fn checkpoint_every(&self, interval: u64) -> Checkpoint {
        Checkpoint::with_interval(self.clone(), interval)
    }
}

impl fmt::Display for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "CancelToken(never)"),
            Some(inner) => write!(
                f,
                "CancelToken(cancelled={}, deadline={})",
                inner.cancelled.load(Ordering::Relaxed),
                inner.deadline.is_some(),
            ),
        }
    }
}

/// Amortises token polls for hot loops.
///
/// `check()` only consults the underlying [`CancelToken`] every
/// `interval` calls (default [`DEFAULT_CHECK_INTERVAL`]), so the common
/// path is a decrement and branch with no clock read. Once the token
/// reports cancellation the checkpoint latches and every later `check()`
/// returns `true` immediately.
///
/// For a never-token, `check()` is a single branch forever.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    token: CancelToken,
    interval: u64,
    until_check: u64,
    latched: bool,
}

impl Checkpoint {
    /// A checkpoint polling `token` every [`DEFAULT_CHECK_INTERVAL`] calls.
    #[must_use]
    pub fn new(token: CancelToken) -> Self {
        Self::with_interval(token, DEFAULT_CHECK_INTERVAL)
    }

    /// A checkpoint polling `token` every `interval` calls (min 1).
    #[must_use]
    pub fn with_interval(token: CancelToken, interval: u64) -> Self {
        let interval = interval.max(1);
        Checkpoint {
            token,
            interval,
            until_check: interval,
            latched: false,
        }
    }

    /// Counts one unit of work; consults the token every `interval` calls.
    /// Returns `true` once cancellation has been observed.
    #[must_use]
    pub fn check(&mut self) -> bool {
        if self.latched {
            return true;
        }
        if !self.token.can_cancel() {
            return false;
        }
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = self.interval;
            if self.token.is_cancelled() {
                self.latched = true;
                return true;
            }
        }
        false
    }

    /// Consults the token immediately, bypassing the amortisation window.
    /// Use at coarse boundaries (end of a round, end of a sweep).
    #[must_use]
    pub fn check_now(&mut self) -> bool {
        if self.latched {
            return true;
        }
        if self.token.is_cancelled() {
            self.latched = true;
        }
        self.latched
    }
}

pub mod sigint {
    //! Process-level SIGINT and SIGTERM latching.
    //!
    //! [`install`] registers a minimal async-signal-safe handler for both
    //! signals that only bumps an atomic counter per signal; tokens built
    //! with [`honoring_sigint`](super::CancelToken::honoring_sigint)
    //! observe either on their next poll. So Ctrl-C and `timeout(1)` both
    //! wind a run down the same way. A second delivery of the same signal
    //! restores its default disposition and re-raises it, so an
    //! unresponsive process can still be killed.
    //!
    //! On non-unix targets [`install`] is a no-op and [`pending`] only
    //! reflects [`set_pending_for_test`].

    use std::sync::atomic::{AtomicU32, Ordering};

    /// Deliveries of SIGINT and of SIGTERM since [`install`].
    static HITS: [AtomicU32; 2] = [AtomicU32::new(0), AtomicU32::new(0)];

    /// Whether a SIGINT or SIGTERM has been received since [`install`] (or
    /// a test latched one via [`set_pending_for_test`]).
    #[must_use]
    pub fn pending() -> bool {
        HITS.iter().any(|hits| hits.load(Ordering::Relaxed) > 0)
    }

    /// Test hook: latches (or clears) the pending flag without a signal.
    pub fn set_pending_for_test(pending: bool) {
        HITS[0].store(u32::from(pending), Ordering::Relaxed);
        HITS[1].store(0, Ordering::Relaxed);
    }

    #[cfg(unix)]
    #[allow(unsafe_code)]
    mod platform {
        //! The one unsafe corner of the crate: C-standard `signal(2)`
        //! registration, self-declared to keep the workspace free of a
        //! `libc` dependency. `signal` and `raise` are C89; `SIGINT` is 2
        //! and `SIGTERM` is 15 on every unix this workspace targets.

        use super::HITS;
        use std::sync::atomic::Ordering;

        /// The latched signals, in the order of [`HITS`].
        const SIGNALS: [i32; 2] = [2, 15];
        const SIG_DFL: usize = 0;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn raise(signum: i32) -> i32;
        }

        extern "C" fn on_signal(signum: i32) {
            // Async-signal-safe: one atomic increment, nothing else.
            let Some(slot) = SIGNALS.iter().position(|&s| s == signum) else {
                return;
            };
            let hits = HITS[slot].fetch_add(1, Ordering::Relaxed);
            if hits >= 1 {
                // Second delivery: give the user an actual kill. Restoring
                // the default disposition and re-raising terminates
                // promptly.
                // SAFETY: `signal` and `raise` are async-signal-safe, and
                // `signum` is a signal this handler was installed for.
                unsafe {
                    signal(signum, SIG_DFL);
                    raise(signum);
                }
            }
        }

        pub(super) fn install_handler() {
            for signum in SIGNALS {
                // SAFETY: `on_signal` has the `void (*)(int)` handler ABI
                // and only touches atomics, so it is a valid disposition.
                unsafe {
                    signal(signum, on_signal as extern "C" fn(i32) as usize);
                }
            }
        }
    }

    /// Installs the SIGINT and SIGTERM handler. Safe to call more than
    /// once.
    pub fn install() {
        #[cfg(unix)]
        platform::install_handler();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_never_cancels() {
        let token = CancelToken::never();
        assert!(!token.can_cancel());
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(!token.is_cancelled());
    }

    #[test]
    fn default_is_never() {
        assert!(!CancelToken::default().can_cancel());
    }

    #[test]
    fn manual_cancellation_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(token.is_cancelled(), "cancel latches");
    }

    #[test]
    fn deadline_in_the_past_cancels_immediately() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert!(token.can_cancel());
        assert!(token.is_cancelled());
    }

    #[test]
    fn generous_timeout_does_not_cancel() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.can_cancel());
    }

    #[test]
    fn short_timeout_expires() {
        let token = CancelToken::with_timeout(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(20));
        assert!(token.is_cancelled());
        // Memoised: the second poll takes the fast path.
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_after_checks_trips_on_the_nth_poll() {
        let token = CancelToken::new().cancel_after_checks(3);
        assert!(!token.is_cancelled());
        assert!(!token.is_cancelled());
        assert!(token.is_cancelled(), "third poll trips");
        assert!(token.is_cancelled(), "and it latches");
    }

    #[test]
    fn cancel_after_checks_zero_disables_the_hook() {
        let token = CancelToken::new().cancel_after_checks(0);
        for _ in 0..100 {
            assert!(!token.is_cancelled());
        }
    }

    #[test]
    fn checkpoint_amortises_and_latches() {
        let token = CancelToken::new();
        let mut cp = token.checkpoint_every(10);
        for _ in 0..9 {
            assert!(!cp.check());
        }
        token.cancel();
        // The 10th call is the first that actually polls.
        assert!(cp.check());
        assert!(cp.check(), "latched thereafter");
    }

    #[test]
    fn checkpoint_on_never_token_is_free_forever() {
        let mut cp = CancelToken::never().checkpoint_every(1);
        for _ in 0..1000 {
            assert!(!cp.check());
        }
    }

    #[test]
    fn check_now_bypasses_the_window() {
        let token = CancelToken::new();
        let mut cp = token.checkpoint();
        assert!(!cp.check_now());
        token.cancel();
        assert!(cp.check_now());
    }

    #[test]
    fn checkpoint_counts_interact_with_cancel_after_checks() {
        // interval 4 => the token is polled on calls 4, 8, 12, ...; the
        // countdown of 2 trips on the second *poll*, i.e. call 8.
        let token = CancelToken::new().cancel_after_checks(2);
        let mut cp = token.checkpoint_every(4);
        let tripped_at = (1..=16).find(|_| cp.check());
        assert_eq!(tripped_at, Some(8));
    }

    #[test]
    fn honoring_sigint_observes_the_latch() {
        sigint::set_pending_for_test(false);
        let token = CancelToken::new().honoring_sigint();
        assert!(!token.is_cancelled());
        sigint::set_pending_for_test(true);
        assert!(token.is_cancelled());
        sigint::set_pending_for_test(false);
        assert!(token.is_cancelled(), "memoised even after the latch clears");
    }

    #[test]
    fn never_token_ignores_sigint_upgrade() {
        let token = CancelToken::never().honoring_sigint();
        assert!(!token.can_cancel());
    }

    #[test]
    fn display_formats() {
        assert_eq!(CancelToken::never().to_string(), "CancelToken(never)");
        let token = CancelToken::new();
        token.cancel();
        assert!(token.to_string().contains("cancelled=true"));
    }

    #[test]
    fn tokens_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
