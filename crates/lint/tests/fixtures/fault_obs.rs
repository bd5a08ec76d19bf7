//! Fixture for the `fault-obs` rule: every `FaultKind` variant needs its
//! snake_case label string in non-test code, plus the registered
//! `sift_net_faults_injected_total` counter. `Reset` and `RateStorm` are
//! labelled below; `Stall` is only labelled inside a test module, which
//! does not count, so the enum site is flagged once.

pub enum FaultKind { //~ fault-obs
    Reset,
    RateStorm,
    Stall,
}

pub fn count_fault(kind: &str) {
    sift_obs::counter("sift_net_faults_injected_total", &[("kind", kind)]).inc();
}

pub fn labels() -> [&'static str; 2] {
    ["reset", "rate_storm"]
}

#[cfg(test)]
mod tests {
    pub fn stall_label() -> &'static str {
        "stall"
    }
}
