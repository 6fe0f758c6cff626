//! Open-loop pacing: requests go out on a fixed schedule whether or not
//! the system keeps up.
//!
//! Batch `i` is *due* at `start + i * interval`. The driver spin-waits for
//! the due time, then issues the (blocking) request. Latency is measured
//! from the **due** time, not the send time, so a stall charges every
//! request it delays; how late the generator itself ran (`lag`) and how
//! many due batches were waiting (`backlog`) are reported so an
//! unsustainable rate is visible instead of silently turning the loop
//! closed.

use std::cell::Cell;
use std::time::Instant;

/// Time source, abstracted so the schedule arithmetic is testable.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t`.
    fn wait_until(&self, t: u64);
}

/// Wall clock: spins on `Instant` (a sleep would add scheduler wake-up
/// jitter of the same order as the latencies being measured). The time
/// spent spinning is kept, so the pacing itself can be taken out of the
/// process's CPU bill.
pub struct SpinClock {
    origin: Instant,
    spun_ns: Cell<u64>,
}

impl SpinClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        SpinClock {
            origin: Instant::now(),
            spun_ns: Cell::new(0),
        }
    }

    /// The `Instant` of a clock reading.
    pub fn instant_at(&self, ns: u64) -> Instant {
        self.origin + std::time::Duration::from_nanos(ns)
    }

    /// Nanoseconds spent busy-waiting so far.
    pub fn spun_ns(&self) -> u64 {
        self.spun_ns.get()
    }
}

impl Clock for SpinClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t: u64) {
        let entered = self.now_ns();
        let mut now = entered;
        while now < t {
            std::hint::spin_loop();
            now = self.now_ns();
        }
        self.spun_ns.set(self.spun_ns.get() + (now - entered));
    }
}

/// What one paced run observed, one entry per batch.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PacedRun {
    /// Due time of each batch (clock ns).
    pub due_ns: Vec<u64>,
    /// Send start minus due time: how late the generator ran.
    pub lag_ns: Vec<u64>,
    /// Reply read minus due time.
    pub latency_ns: Vec<u64>,
    /// Most batches that were due but not yet sent at any send.
    pub backlog_max: u64,
}

/// Sends `n` batches, batch `i` due at `first_due + i * interval_ns`.
/// `send(i, due)` performs the blocking request.
pub fn drive_open_loop<C: Clock>(
    clock: &C,
    n: usize,
    first_due: u64,
    interval_ns: u64,
    mut send: impl FnMut(usize, u64),
) -> PacedRun {
    let mut run = PacedRun::default();
    for i in 0..n {
        let due = first_due + i as u64 * interval_ns;
        clock.wait_until(due);
        let started = clock.now_ns();
        // Batches whose due time has passed, beyond the one going out now.
        let backlog = (started - due) / interval_ns.max(1);
        run.backlog_max = run.backlog_max.max(backlog.min((n - 1 - i) as u64));
        send(i, due);
        let done = clock.now_ns();
        run.due_ns.push(due);
        run.lag_ns.push(started - due);
        run.latency_ns.push(done - due);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: waiting jumps to the target,
    /// and the fake request advances it by a service time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn latency_counts_from_due_time_and_lag_is_reported() {
        let clock = FakeClock(Cell::new(0));
        // Due every 100 ns; batch 1 stalls for 350 ns, the rest take 20.
        let service = [20u64, 350, 20, 20, 20, 20];
        let run = drive_open_loop(&clock, 6, 1_000, 100, |i, _due| {
            clock.0.set(clock.0.get() + service[i]);
        });
        assert_eq!(run.due_ns, vec![1_000, 1_100, 1_200, 1_300, 1_400, 1_500]);
        // Batch 1 finishes at 1450: batches 2..4 were due before that and
        // start late. Their latency includes the wait the stall imposed.
        assert_eq!(run.lag_ns, vec![0, 0, 250, 170, 90, 10]);
        assert_eq!(run.latency_ns, vec![20, 350, 270, 190, 110, 30]);
        // At the send of batch 2 (t=1450) batches 3 and 4 were also due.
        assert_eq!(run.backlog_max, 2);
    }

    #[test]
    fn a_sustainable_rate_has_no_lag_and_no_backlog() {
        let clock = FakeClock(Cell::new(0));
        let run = drive_open_loop(&clock, 50, 0, 100, |_, _| {
            clock.0.set(clock.0.get() + 40);
        });
        assert!(run.lag_ns.iter().all(|&l| l == 0));
        assert!(run.latency_ns.iter().all(|&l| l == 40));
        assert_eq!(run.backlog_max, 0);
    }

    #[test]
    fn spin_clock_waits_for_the_due_time_and_bills_the_wait() {
        let clock = SpinClock::start();
        let t = clock.now_ns() + 200_000;
        clock.wait_until(t);
        assert!(clock.now_ns() >= t);
        assert!(clock.spun_ns() >= 150_000, "{}", clock.spun_ns());
        let before = clock.spun_ns();
        clock.wait_until(0); // already past: nothing to wait for
        assert!(clock.spun_ns() - before < 50_000);
    }
}
