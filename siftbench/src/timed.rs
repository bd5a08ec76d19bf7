//! A timing decorator over [`TrendsClient`].
//!
//! Wrapped around the in-process simulator, it separates the simulated
//! world's sampling cost (not SIFT's) from SIFT's own layers without
//! touching `sift-trends`: every call is counted, its wall time summed,
//! and `Err` results tallied.

use sift_trends::{
    FetchError, FrameRequest, FrameResponse, RisingRequest, RisingResponse, TrendsClient,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
struct CallCounter {
    calls: AtomicU64,
    errors: AtomicU64,
    busy_ns: AtomicU64,
}

impl CallCounter {
    fn time<T, E>(&self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if out.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// A [`TrendsClient`] that times every call it forwards.
pub struct TimedClient {
    inner: Arc<dyn TrendsClient>,
    frame: CallCounter,
    rising: CallCounter,
}

/// Totals of a [`TimedClient`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// `fetch_frame` calls.
    pub frame_calls: u64,
    /// Seconds spent inside `fetch_frame`, summed over threads.
    pub frame_busy_s: f64,
    /// `fetch_rising` calls.
    pub rising_calls: u64,
    /// Seconds spent inside `fetch_rising`, summed over threads.
    pub rising_busy_s: f64,
    /// Calls of either kind that returned `Err`.
    pub errors: u64,
}

impl Tally {
    /// Calls of either kind.
    pub fn calls(&self) -> u64 {
        self.frame_calls + self.rising_calls
    }

    /// Busy seconds of either kind.
    pub fn busy_s(&self) -> f64 {
        self.frame_busy_s + self.rising_busy_s
    }
}

impl TimedClient {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn TrendsClient>) -> TimedClient {
        TimedClient {
            inner,
            frame: CallCounter::default(),
            rising: CallCounter::default(),
        }
    }

    /// The totals so far.
    pub fn tally(&self) -> Tally {
        let s = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 / 1e9;
        Tally {
            frame_calls: self.frame.calls.load(Ordering::Relaxed),
            frame_busy_s: s(&self.frame.busy_ns),
            rising_calls: self.rising.calls.load(Ordering::Relaxed),
            rising_busy_s: s(&self.rising.busy_ns),
            errors: self.frame.errors.load(Ordering::Relaxed)
                + self.rising.errors.load(Ordering::Relaxed),
        }
    }
}

impl TrendsClient for TimedClient {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        self.frame.time(|| self.inner.fetch_frame(req))
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        self.rising.time(|| self.inner.fetch_rising(req))
    }

    fn identity(&self) -> &str {
        self.inner.identity()
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_geo::State;
    use sift_simtime::Hour;
    use sift_trends::{Scenario, SearchTerm, TrendsService};

    #[test]
    fn counts_calls_time_and_errors() {
        let service = TrendsService::with_defaults(Scenario::single_region(State::CA, vec![]));
        let timed = TimedClient::new(Arc::new(service));
        let mut req = FrameRequest {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::CA,
            start: Hour(0),
            len: 168,
            tag: 0,
        };
        timed.fetch_frame(&req).expect("frame");
        req.len = 500; // over the hourly limit: the service refuses it
        assert!(timed.fetch_frame(&req).is_err());
        let t = timed.tally();
        assert_eq!((t.frame_calls, t.rising_calls, t.errors), (2, 0, 1));
        assert!(t.frame_busy_s > 0.0);
    }
}
