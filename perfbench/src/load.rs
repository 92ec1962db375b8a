//! Load generation for the serving workload.
//!
//! Open loop: requests are due on a fixed schedule whatever the server does,
//! and each is timed from its due time, so a stall also charges the requests
//! queued behind it. How late the generator itself sent each request is
//! kept too. Closed loop: each connection sends its next request as soon as
//! the previous reply arrives.

use std::time::{Duration, Instant};

/// Time source, so the schedule arithmetic can be tested without sleeping.
pub trait Clock {
    /// Time since the clock's start.
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, counted from `start` (which may lie slightly ahead).
pub struct RealClock(pub Instant);

impl Clock for RealClock {
    fn now(&self) -> Duration {
        Instant::now().saturating_duration_since(self.0)
    }

    /// Polls the clock until `t` instead of sleeping. A sleeping load
    /// thread leaves its vCPU idle, and an idle vCPU of a virtual machine
    /// wakes tens of µs late, far later when the host is busy: for the
    /// generator's own timer and for the server threads a request wakes.
    /// Polling keeps both vCPUs running for the whole phase, so the latency
    /// measured is the server's, not the host's wake-up latency.
    fn sleep_until(&self, t: Duration) {
        let target = self.0 + t;
        while Instant::now() < target {
            std::thread::yield_now();
        }
    }
}

/// One request: when it was due, sent and answered, and whether it
/// succeeded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time, in µs; a failed request never meets a
    /// latency limit, so it reads as infinite.
    pub fn latency_us(&self) -> f64 {
        if self.ok {
            (self.done - self.due).as_nanos() as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the request, in µs.
    pub fn lag_us(&self) -> f64 {
        (self.sent - self.due).as_nanos() as f64 / 1e3
    }
}

/// Sends `count` requests due at `first_due + i · period`; `call(i)` performs
/// request `i` and returns whether it succeeded.
pub fn open_loop<C: Clock>(
    clock: &C,
    first_due: Duration,
    period: Duration,
    count: usize,
    mut call: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let due = first_due + period * i as u32;
        clock.sleep_until(due);
        let sent = clock.now();
        let ok = call(i);
        out.push(Sample {
            due,
            sent,
            done: clock.now(),
            ok,
        });
    }
    out
}

/// Sends requests back to back until `until`; each is due when it is sent.
pub fn closed_loop<C: Clock>(
    clock: &C,
    until: Duration,
    mut call: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let sent = clock.now();
        if sent >= until {
            return out;
        }
        let ok = call(i);
        out.push(Sample {
            due: sent,
            sent,
            done: clock.now(),
            ok,
        });
        i += 1;
    }
}

/// Latency summary of one phase, over every attempted request.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    pub samples: usize,
    pub failed: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// The percentile given by [`crate::trace::tail_percentile`].
    pub tail_pct: f64,
    pub tail_us: f64,
    pub lag_p50_us: f64,
    pub lag_max_us: f64,
}

pub fn phase_stats(samples: &[Sample]) -> PhaseStats {
    let mut lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let mut lag: Vec<f64> = samples.iter().map(Sample::lag_us).collect();
    lag.sort_by(|a, b| a.total_cmp(b));
    let tail_pct = crate::trace::tail_percentile(lat.len()).unwrap_or(50.0);
    PhaseStats {
        samples: lat.len(),
        failed: samples.iter().filter(|s| !s.ok).count(),
        p50_us: crate::trace::percentile(&lat, 50.0),
        p99_us: crate::trace::percentile(&lat, 99.0),
        tail_pct,
        tail_us: crate::trace::percentile(&lat, tail_pct),
        lag_p50_us: crate::trace::percentile(&lag, 50.0),
        lag_max_us: *lag.last().expect("phase has samples"),
    }
}

/// Fewest requests a latency window may hold: ten lie beyond its p99.
pub const MIN_WINDOW: usize = 1_000;

/// The median, over windows of `period` (by due time, within each round),
/// of each window's p99; and the window count. Windows holding fewer than
/// [`MIN_WINDOW`] requests are left out. A rare stall of the host moves one
/// window, not the median.
pub fn windowed_p99(rounds: &[Vec<Sample>], period: Duration) -> Option<(f64, usize)> {
    let mut p99s = Vec::new();
    for round in rounds {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for s in round {
            let w = (s.due.as_nanos() / period.as_nanos()) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(s.latency_us());
        }
        for mut lat in windows.into_iter().filter(|w| w.len() >= MIN_WINDOW) {
            lat.sort_by(|a, b| a.total_cmp(b));
            p99s.push(crate::trace::percentile(&lat, 99.0));
        }
    }
    (!p99s.is_empty()).then(|| (crate::trace::median(&p99s), p99s.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    fn ms(x: f64) -> Duration {
        Duration::from_secs_f64(x / 1e3)
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Request 0 stalls for 3 ms; every other takes 0.5 ms; one is due
        // every 1 ms.
        let samples = open_loop(&clock, Duration::ZERO, ms(1.0), 6, |i| {
            let cost = if i == 0 { 3.0 } else { 0.5 };
            clock.0.set(clock.0.get() + ms(cost));
            true
        });
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_us().round()).collect();
        assert_eq!(lat, vec![3000.0, 2500.0, 2000.0, 1500.0, 1000.0, 500.0]);
        let lag: Vec<f64> = samples.iter().map(|s| s.lag_us().round()).collect();
        assert_eq!(lag, vec![0.0, 2000.0, 1500.0, 1000.0, 500.0, 0.0]);
    }

    #[test]
    fn open_loop_waits_for_due_times_when_idle() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let samples = open_loop(&clock, ms(2.0), ms(1.0), 3, |_| {
            clock.0.set(clock.0.get() + ms(0.25));
            true
        });
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.sent, ms(2.0 + i as f64));
            assert_eq!(s.lag_us(), 0.0);
            assert_eq!(s.latency_us().round(), 250.0);
        }
    }

    #[test]
    fn failures_count_as_missing_every_latency_limit() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let samples = open_loop(&clock, Duration::ZERO, ms(1.0), 20, |i| {
            clock.0.set(clock.0.get() + ms(0.1));
            i % 10 != 9
        });
        let st = phase_stats(&samples);
        assert_eq!((st.samples, st.failed), (20, 2));
        assert_eq!(st.tail_pct, 50.0);
        assert!(st.p50_us.is_finite());
        let all_failed = open_loop(&clock, clock.now(), ms(1.0), 20, |_| false);
        assert!(phase_stats(&all_failed).p50_us.is_infinite());
    }

    #[test]
    fn windowed_p99_is_the_median_window_and_ignores_one_stalled_window() {
        // 1000 requests per 1 s window, latency cycling 100..=199 us.
        let round = |stall_at: Option<usize>| {
            let clock = FakeClock(Cell::new(Duration::ZERO));
            open_loop(&clock, Duration::ZERO, ms(1.0), 3_500, |i| {
                let us = if Some(i) == stall_at {
                    50_000
                } else {
                    100 + (i % 100) as u64
                };
                clock.0.set(clock.0.get() + Duration::from_micros(us));
                true
            })
        };
        let rounds = vec![round(Some(1_500)), round(None)];
        let (p99, windows) = windowed_p99(&rounds, ms(1000.0)).unwrap();
        // Three full windows per round; the last 500 requests are too few.
        // The stall and its backlog stay inside the stalled window.
        assert_eq!(windows, 6);
        assert_eq!(p99.round(), 198.0, "the 990th of 1000, ten beyond it");
        assert!(windowed_p99(&[round(None)[..999].to_vec()], ms(1000.0)).is_none());
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let samples = closed_loop(&clock, ms(10.0), |_| {
            clock.0.set(clock.0.get() + ms(1.0));
            true
        });
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().all(|s| s.lag_us() == 0.0));
    }
}
