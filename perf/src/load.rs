//! The open-loop generator: one client sending on a fixed schedule.
//!
//! A closed loop sends its next transaction when the last returns, so
//! a stall silently lowers the offered load (coordinated omission).
//! Here send `i` is *due* at `start + i * period` whatever happened to
//! send `i - 1`, and its latency runs from that due time: a stall is
//! charged to every transaction that queued behind it.

use crate::stats::ABORTED;
use std::time::Instant;

/// A send that started more than this after its due time counts as
/// late: the generator, not the engine, was behind.
pub const LATE_NS: u64 = 100_000;

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns`.
    fn wait_until(&self, t_ns: u64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        // Yield, not spin or sleep: the client is the only busy harness
        // thread in this phase, and the engine's GC and WAL writer must
        // get the core whenever they are runnable. A sleep would add
        // the timer's slack to every latency.
        while self.now_ns() < t_ns {
            std::thread::yield_now();
        }
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpenLoop {
    /// Due time → return, one per measured send; [`ABORTED`] when the
    /// scheduler aborted the attempt.
    pub latencies_ns: Vec<u64>,
    /// Measured sends that started more than [`LATE_NS`] after due.
    pub late: u64,
}

/// Runs `op(i)` for every send due within `warmup_ns + measure_ns` of
/// now, one per `period_ns`; sends due during the warm-up run but are
/// not recorded. `op` returns false when the scheduler aborted it.
pub fn open_loop(
    clock: &impl Clock,
    period_ns: u64,
    warmup_ns: u64,
    measure_ns: u64,
    mut op: impl FnMut(u64) -> bool,
) -> OpenLoop {
    let start = clock.now_ns();
    let mut out = OpenLoop {
        latencies_ns: Vec::with_capacity((measure_ns / period_ns) as usize + 1),
        ..OpenLoop::default()
    };
    for i in 0.. {
        let offset = i * period_ns;
        if offset >= warmup_ns + measure_ns {
            break;
        }
        let due = start + offset;
        clock.wait_until(due);
        let began = clock.now_ns();
        let ok = op(i);
        let done = clock.now_ns();
        if offset < warmup_ns {
            continue;
        }
        if began - due > LATE_NS {
            out.late += 1;
        }
        out.latencies_ns.push(if ok { done - due } else { ABORTED });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Time moves only when the test says so.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn a_slow_operation_is_charged_to_the_sends_queued_behind_it() {
        // One send per 100 µs for 1 ms; each takes 10 µs except send 2,
        // which stalls for 350 µs.
        let clock = FakeClock(Cell::new(5_000));
        let out = open_loop(&clock, 100_000, 0, 1_000_000, |i| {
            let cost = if i == 2 { 350_000 } else { 10_000 };
            clock.0.set(clock.0.get() + cost);
            true
        });
        // Send 2 is due at 200 and returns at 550. Sends 3, 4, 5 were
        // due at 300, 400, 500 but start at 550, 560, 570: their
        // latency includes the backlog, although each took 10 µs.
        assert_eq!(
            &out.latencies_ns[..7],
            &[10_000, 10_000, 350_000, 260_000, 170_000, 80_000, 10_000]
        );
        assert_eq!(out.latencies_ns.len(), 10);
        // Sends 3 and 4 started 250 and 160 µs after due: late. Send 5
        // started 70 µs after due: within tolerance.
        assert_eq!(out.late, 2);
    }

    #[test]
    fn warm_up_sends_run_but_are_not_recorded_and_aborts_sort_last() {
        let clock = FakeClock(Cell::new(0));
        let mut ran = 0;
        let out = open_loop(&clock, 1_000, 3_000, 4_000, |i| {
            ran += 1;
            clock.0.set(clock.0.get() + 100);
            i != 5
        });
        assert_eq!(ran, 7);
        assert_eq!(out.latencies_ns, vec![100, 100, ABORTED, 100]);
    }
}
