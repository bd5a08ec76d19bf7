//! The rule registry.
//!
//! Every rule is declared here with its id, default severity, scope and
//! rationale; the reporter generates the user-facing rule-reference table
//! from this registry, so the docs cannot drift from the code.

use crate::config::{Config, Severity};
use crate::context::FileCtx;

pub mod deadline_propagation;
pub mod durable_write;
pub mod float_eq;
pub mod hot_alloc;
pub mod label_obs;
pub mod lock_order;
pub mod lossy_cast;
pub mod no_panic;
pub mod no_print;
pub mod route_obs;
pub mod swallowed_result;
pub mod trace_span;
pub mod wall_clock;

/// A finding before path/severity attachment.
#[derive(Clone, Debug)]
pub struct RawFinding {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl RawFinding {
    pub fn new(line: u32, col: u32, message: String) -> RawFinding {
        RawFinding { line, col, message }
    }
}

/// How a rule runs.
pub enum RuleKind {
    /// Independently per file.
    PerFile(fn(&FileCtx, &Config, &mut Vec<RawFinding>)),
    /// Once over the whole workspace (cross-file facts needed). Returns
    /// `(path, finding)` pairs.
    Workspace(fn(&[FileCtx], &Config) -> Vec<(String, RawFinding)>),
}

/// A registered rule.
pub struct Rule {
    pub id: &'static str,
    /// One-line summary for the reference table.
    pub summary: &'static str,
    /// Why the rule exists, in terms of the paper's pipeline.
    pub rationale: &'static str,
    pub default_severity: Severity,
    /// Whether findings inside test context count.
    pub applies_in_tests: bool,
    /// Whether binary/tool sources (`bin_paths`) are exempt.
    pub skips_bins: bool,
    pub kind: RuleKind,
}

/// All rules, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "no-panic",
            summary: "no `unwrap()` / `expect()` / `panic!` in library code",
            rationale: "A fetch fleet thread that panics takes its share of the \
                        crawl with it; library errors must propagate as values \
                        so the collection run can count, retry and degrade.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(no_panic::check),
        },
        Rule {
            id: "wall-clock",
            summary: "no `Instant::now` / `SystemTime::now` / `thread::sleep` \
                      outside the net/obs internals",
            rationale: "The world model replays two years of search interest \
                        deterministically; a wall-clock read in simulation code \
                        silently decouples runs from `sift-simtime` and makes \
                        calibration unreproducible.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(wall_clock::check),
        },
        Rule {
            id: "lossy-cast",
            summary: "no truncating `as` casts on numeric values (strict paths: \
                      no numeric `as` at all)",
            rationale: "Interest indices are renormalized and stitched across \
                        frames; one silent `u64 as u8`-style truncation skews \
                        every downstream magnitude (West's calibration paper \
                        shows how sensitive stitched series are).",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: false,
            kind: RuleKind::PerFile(lossy_cast::check),
        },
        Rule {
            id: "durable-write",
            summary: "persistence modules (`strict_paths`) must install files \
                      via the atomic write helper, not `File::create` / \
                      `fs::write`",
            rationale: "Crash-safe resume trusts whatever recovery reads back; \
                        a checkpoint replaced in place can be half-written at \
                        the moment of death, so durable state must reach disk \
                        as temp + fsync + rename \
                        (`sift_journal::atomic::write_atomic`) only.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(durable_write::check),
        },
        Rule {
            id: "float-eq",
            summary: "no `==` / `!=` (or `assert_eq!`) against float literals",
            rationale: "Interest values pass through sampling, averaging and \
                        renormalization; exact float equality encodes an \
                        assumption those stages do not preserve. Compare with \
                        an epsilon or on integer representations.",
            default_severity: Severity::Deny,
            applies_in_tests: true,
            skips_bins: false,
            kind: RuleKind::PerFile(float_eq::check),
        },
        Rule {
            id: "no-print",
            summary: "no `println!` / `eprintln!` / `dbg!` in library crates",
            rationale: "Stdout debugging bypasses the structured `sift-obs` \
                        event log, so production incidents lose the fields \
                        (route, identity, stage) the paper's analyses key on.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(no_print::check),
        },
        Rule {
            id: "trace-span",
            summary: "pipeline modules (`strict_paths`) must create spans via \
                      the context-carrying API, never bare `Span::enter`",
            rationale: "Causal trace trees are only as connected as their \
                        weakest handoff: a bare `Span::enter` on a worker \
                        thread silently roots a new trace, so the study and \
                        fetcher crates must thread `SpanContext` explicitly \
                        (`span_in`) across every queue and thread boundary.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(trace_span::check),
        },
        Rule {
            id: "lock-order",
            summary: "no pair of locks acquired in both orders anywhere in the \
                      workspace (and no re-acquisition while held)",
            rationale: "The fetch queue, obs registry, trace store and server \
                        all hold locks across calls into each other; an ABBA \
                        pair only deadlocks under contention, exactly when an \
                        outage makes every thread busy — so the acquisition \
                        DAG is checked globally at lint time.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(lock_order::check),
        },
        Rule {
            id: "hot-alloc",
            summary: "no per-iteration heap allocation (`Vec::new`, \
                      `.collect()`, `.clone()`, `.to_vec()`, `format!`, …) \
                      in strict perf paths",
            rationale: "Stitching and spike detection run once per frame per \
                        refetch round over two years of series; an allocation \
                        inside that loop — or in any fn the loop calls — \
                        multiplies by the whole campaign, so hot paths must \
                        hoist or reuse scratch buffers.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(hot_alloc::check),
        },
        Rule {
            id: "deadline-propagation",
            summary: "egress calls in net/fetcher (`strict_paths`) must have a \
                      deadline in scope (fn or constructing impl)",
            rationale: "Frame budgets come from the run deadline; an egress \
                        call reached without one waits as long as the peer \
                        lets it, and a single stuck fetch stalls the round — \
                        every send/fetch chain must forward the deadline or \
                        carry an inline allow saying why not.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(deadline_propagation::check),
        },
        Rule {
            id: "swallowed-result",
            summary: "no `let _ =` over a fallible call and no statement-position \
                      `.ok()` in library crates",
            rationale: "Degradation is measured, not assumed: an error \
                        discarded at the call site never reaches the run \
                        summary or /metrics, so the paper's refusal/timeout \
                        accounting silently undercounts. Handle it, count it, \
                        or justify the discard inline.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(swallowed_result::check),
        },
        Rule {
            id: "route-obs",
            summary: "every registered HTTP route needs a matching obs counter",
            rationale: "PR 1 made /metrics the operational window into the \
                        system; a route with no counter is invisible there, so \
                        instrumentation completeness is checked, not remembered.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(route_obs::check),
        },
        Rule {
            id: "fault-obs",
            summary: "every `FaultKind` variant needs a matching \
                      `sift_net_faults_injected_total` label string",
            rationale: "Chaos runs are judged against /metrics: a fault kind \
                        whose snake_case label never appears in code is \
                        injected but invisible, so fault coverage is checked \
                        at lint time, not discovered mid-incident.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(|files, cfg| label_obs::check("fault-obs", files, cfg)),
        },
        Rule {
            id: "breaker-obs",
            summary: "every `BreakerState` variant needs a matching \
                      `sift_client_breaker_state` label string",
            rationale: "Overload incidents are reconstructed from the breaker \
                        gauge and transition log; a state whose snake_case \
                        label never appears in code could be entered but not \
                        told apart in /metrics, so label coverage is checked \
                        at lint time.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(|files, cfg| label_obs::check("breaker-obs", files, cfg)),
        },
        Rule {
            id: "cluster-obs",
            summary: "every `ShedCause` / `RerouteReason` variant needs a \
                      matching shed/reroute counter label string",
            rationale: "A sharded crawl degrades by shedding queue work and \
                        rerouting dead workers' shards; a cause whose \
                        snake_case label never appears in code can fire during \
                        an incident yet be indistinguishable in /metrics, so \
                        label and counter coverage are checked at lint time.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(|files, cfg| label_obs::check("cluster-obs", files, cfg)),
        },
        Rule {
            id: "nemesis-obs",
            summary: "every `NemesisFaultKind` variant needs a matching \
                      `sift_cluster_nemesis_faults_total` label string",
            rationale: "Chaos runs are judged after the fact from /metrics; a \
                        nemesis fault kind whose snake_case label never \
                        appears in code could be injected during a run yet be \
                        invisible in the audit, so label and counter coverage \
                        are checked at lint time.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(|files, cfg| label_obs::check("nemesis-obs", files, cfg)),
        },
        Rule {
            id: "serve-obs",
            summary: "every `DegradeReason` variant needs a matching \
                      `sift_serve_degraded_reads_total` label string",
            rationale: "The serving daemon degrades reads instead of failing \
                        them, so incidents are judged entirely from the \
                        degraded-read exposition; a reason whose snake_case \
                        label never appears in code could hold for hours while \
                        its reads stay indistinguishable from healthy ones — \
                        label and counter coverage are checked at lint time.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(|files, cfg| label_obs::check("serve-obs", files, cfg)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_kebab() {
        let rules = registry();
        let mut ids: Vec<_> = rules.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rules.len(), "duplicate rule id");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{id} is not kebab-case"
            );
        }
    }
}
