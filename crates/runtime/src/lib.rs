//! `deltx-runtime` — the seam between the engine and the world.
//!
//! Everything in `deltx-engine` and `deltx-wal` that touches time or
//! blocking goes through the [`Runtime`] trait: reading the clock for
//! metrics and flush timing, sleeping out a retry backoff,
//! blocking on conditions (waiters queued behind a running group-commit
//! flush), and marking the yield points where another task may run.
//! Neither crate starts a task of its own: the threads that call them
//! belong to their host. Production uses [`OsRuntime`] — a monotonic
//! clock and condvars. The deterministic simulation testkit
//! (`deltx-testkit`) substitutes a virtual scheduler that runs one
//! logical task at a time under a seeded interleaving and a virtual
//! clock, so a failing concurrent run replays bit-identically from its
//! seed.
//!
//! # Blocking: the eventcount protocol
//!
//! Condvars cannot be virtualized behind a dyn-safe trait (waiting
//! consumes a concrete `MutexGuard`), so blocking is expressed as an
//! *eventcount* ([`RtEvent`]): a monotone epoch plus a wait queue.
//! Waiters follow prepare → recheck → wait:
//!
//! ```text
//! loop {
//!     let key = ev.prepare();          // snapshot the epoch
//!     if condition_holds() { break }   // check under YOUR state lock
//!     ev.wait(key);                    // sleeps only if no notify
//! }                                    //   happened since prepare()
//! ```
//!
//! Notifiers mutate state first, then call [`RtEvent::notify`], which
//! bumps the epoch and wakes waiters. A notify between `prepare` and
//! `wait` makes the `wait` return immediately, so the recheck never
//! misses a wakeup — the classic lost-wakeup race is closed by the
//! epoch, not by holding a lock across the sleep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The services the engine and WAL need from their host: a clock,
/// sleep, yield points, and blocking events.
///
/// Implementations must be cheap to clone through `Arc<dyn Runtime>`
/// and safe to call from any of the host's threads (or, under
/// simulation, tasks).
pub trait Runtime: Send + Sync + std::fmt::Debug {
    /// Monotonic time since this runtime's epoch. Only differences
    /// are meaningful; under simulation this is virtual time.
    fn now(&self) -> Duration;

    /// Blocks the calling task for (at least) `d`.
    fn sleep(&self, d: Duration);

    /// A scheduling point. A no-op on the OS runtime; under
    /// simulation, a place where the seeded scheduler may switch
    /// tasks. Sprinkled at the engine's operation boundaries so the
    /// simulator can explore interleavings between transactions.
    fn yield_now(&self);

    /// Creates a fresh eventcount for blocking waits.
    fn event(&self) -> Arc<dyn RtEvent>;
}

/// Bounded exponential backoff over the [`Runtime`] clock.
///
/// The WAL's transient-error retry and `ENOSPC` GC-pressure loops use
/// this to pace their attempts: each call to [`Backoff::next_delay`]
/// yields the next sleep (doubling up to `max`) until the attempt
/// budget is spent, after which it yields `None` and the caller must
/// fail-stop. Sleeping happens through [`Runtime::sleep`], so the
/// whole retry schedule is virtual (and deterministic) under the
/// simulation testkit and real time in production.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    next: Duration,
    max: Duration,
    left: u32,
}

impl Backoff {
    /// A budget of `attempts` delays starting at `base` and doubling
    /// up to `max`.
    pub fn new(base: Duration, max: Duration, attempts: u32) -> Self {
        Backoff {
            next: base,
            max,
            left: attempts,
        }
    }

    /// The next delay to sleep before retrying, or `None` when the
    /// attempt budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let d = self.next;
        self.next = (self.next * 2).min(self.max);
        Some(d)
    }

    /// Attempts remaining.
    pub fn remaining(&self) -> u32 {
        self.left
    }
}

/// An eventcount: the dyn-safe replacement for a condvar. See the
/// crate docs for the prepare → recheck → wait protocol.
pub trait RtEvent: Send + Sync {
    /// Snapshots the epoch. Call *before* checking the condition.
    fn prepare(&self) -> u64;

    /// Blocks until a [`RtEvent::notify`] after the `prepare` that
    /// returned `key`. Returns immediately if one already happened.
    fn wait(&self, key: u64);

    /// Bumps the epoch and wakes every current waiter. Call *after*
    /// the state change the waiters are checking for.
    fn notify(&self);
}

/// Process-wide epoch for [`OsRuntime::now`], fixed at first use so
/// every engine in the process shares one timeline.
fn os_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The production runtime: the monotonic clock, thread sleep, condvar
/// eventcounts. [`Runtime::yield_now`] is a no-op — the kernel already
/// preempts, and the engine's yield points sit on hot paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsRuntime;

impl OsRuntime {
    /// A shared handle, for config defaults.
    pub fn shared() -> Arc<dyn Runtime> {
        Arc::new(OsRuntime)
    }
}

impl Runtime for OsRuntime {
    fn now(&self) -> Duration {
        os_epoch().elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn yield_now(&self) {}

    fn event(&self) -> Arc<dyn RtEvent> {
        Arc::new(OsEvent::default())
    }
}

/// Condvar-backed eventcount.
#[derive(Default)]
struct OsEvent {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl RtEvent for OsEvent {
    fn prepare(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait(&self, key: u64) {
        let mut g = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        while *g == key {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn notify(&self) {
        let mut g = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        *g = g.wrapping_add(1);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn os_event_no_lost_wakeup() {
        let rt = OsRuntime;
        let ev = rt.event();
        let flag = Arc::new(AtomicBool::new(false));
        let (ev2, flag2) = (Arc::clone(&ev), Arc::clone(&flag));
        let h = std::thread::spawn(move || {
            flag2.store(true, Ordering::SeqCst);
            ev2.notify();
        });
        loop {
            let key = ev.prepare();
            if flag.load(Ordering::SeqCst) {
                break;
            }
            ev.wait(key);
        }
        h.join().unwrap();
    }

    #[test]
    fn backoff_doubles_caps_and_exhausts() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(4), 4);
        assert_eq!(b.next_delay(), Some(Duration::from_millis(1)));
        assert_eq!(b.next_delay(), Some(Duration::from_millis(2)));
        assert_eq!(b.next_delay(), Some(Duration::from_millis(4)));
        assert_eq!(b.next_delay(), Some(Duration::from_millis(4)));
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn os_clock_is_monotone() {
        let rt = OsRuntime;
        let a = rt.now();
        let b = rt.now();
        assert!(b >= a);
    }
}
