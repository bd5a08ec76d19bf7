//! Fixture for the `cluster-obs` rule, which watches two enums.
//! `ShedCause` has every label but its `sift_fetcher_shed_total` counter
//! is never registered; `RerouteReason` has its
//! `sift_cluster_reroute_total` counter but `WorkerLeft` has no label.
//! Each enum site is flagged once; `Unwatched` is ignored.

pub enum ShedCause { //~ cluster-obs
    BreakerOpen,
    Deadline,
}

pub enum RerouteReason { //~ cluster-obs
    HeartbeatMissed,
    WorkerLeft,
}

pub enum Unwatched {
    Anything,
}

pub fn shed_labels() -> [&'static str; 2] {
    ["breaker_open", "deadline"]
}

pub fn count_reroute() {
    sift_obs::counter("sift_cluster_reroute_total", &[("reason", "heartbeat_missed")]).inc();
}
