//! Open-loop accounting: requests sent on a fixed schedule, each timed
//! from when it was due.
//!
//! An open-loop generator sends request `k` at `start + k · period`
//! whether or not earlier requests have returned. Timing from the due time
//! rather than the send time charges a stall to every request it delays,
//! and the generator's own lateness (send time minus due time) is reported
//! so a slow generator cannot pass for a fast system.

use std::time::{Duration, Instant};

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` requests per second starting at `start`.
    #[must_use]
    pub fn new(start: Instant, rate_per_s: u32) -> Self {
        OpenLoop {
            start,
            period: Duration::from_secs(1) / rate_per_s.max(1),
        }
    }

    /// When request `k` is due.
    #[must_use]
    pub fn due(&self, k: u32) -> Instant {
        self.start + self.period * k
    }

    /// Sleeps until request `k` is due (returns at once when it is late)
    /// and returns its due time.
    #[must_use]
    pub fn wait_for(&self, k: u32) -> Instant {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        due
    }
}

/// Latencies from due time and generator lateness, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct DueTimes {
    /// Completion minus due time, per request.
    pub latency_us: Vec<f64>,
    /// Send minus due time, per request.
    pub lateness_us: Vec<f64>,
}

impl DueTimes {
    /// Records one request that was due at `due`, sent at `sent` and
    /// completed at `done`. A send before the due time counts as on time.
    pub fn record(&mut self, due: Instant, sent: Instant, done: Instant) {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        self.latency_us
            .push(us(done.saturating_duration_since(due)));
        self.lateness_us
            .push(us(sent.saturating_duration_since(due)));
    }
}
