//! Fixture for the `nemesis-obs` rule: every `NemesisFaultKind` variant
//! needs its snake_case label string in non-test code, plus the
//! registered `sift_cluster_nemesis_faults_total` counter. The labels are
//! all present but the counter name is misspelled, so the enum site is
//! flagged once.

pub enum NemesisFaultKind { //~ nemesis-obs
    PartitionSym,
    KillWorker,
    Heal,
}

pub fn count_fault(kind: &str) {
    sift_obs::counter("sift_cluster_nemesis_fault_total", &[("kind", kind)]).inc();
}

pub fn labels() -> [&'static str; 3] {
    ["partition_sym", "kill_worker", "heal"]
}
