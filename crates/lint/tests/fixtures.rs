//! Fixture-driven rule tests.
//!
//! Each fixture under `tests/fixtures/` seeds deliberate violations on
//! lines tagged `//~ <rule>` (or `//~strict <rule>` for findings that
//! only appear when the file is on a `strict_paths` glob). The harness
//! lints the fixture under a library-crate path and demands the reported
//! `(line, rule)` set match the tags *exactly* — so positives must fire
//! at the right line, and negatives/suppressions must stay silent.

use sift_lint::{lint_sources, Config, Finding};

fn expected_findings(src: &str, strict: bool) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let Some(rest) = line.split("//~").nth(1) else {
            continue;
        };
        let line_no = u32::try_from(i).unwrap_or(u32::MAX) + 1;
        if let Some(rule) = rest.strip_prefix("strict ") {
            if strict {
                out.push((line_no, rule.trim().to_owned()));
            }
        } else {
            out.push((line_no, rest.trim().to_owned()));
        }
    }
    out.sort();
    out
}

fn reported(findings: &[Finding], path: &str) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = findings
        .iter()
        .filter(|f| f.path == path)
        .map(|f| (f.line, f.rule.to_owned()))
        .collect();
    out.sort();
    out
}

fn check(name: &str, src: &str, cfg: &Config, strict: bool) {
    let path = format!("crates/fixture/src/{name}.rs");
    let findings = lint_sources(&[(path.clone(), src.to_owned())], cfg);
    assert_eq!(
        reported(&findings, &path),
        expected_findings(src, strict),
        "fixture {name} reported a different finding set"
    );
}

#[test]
fn no_panic_fixture() {
    check(
        "no_panic",
        include_str!("fixtures/no_panic.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn wall_clock_fixture() {
    check(
        "wall_clock",
        include_str!("fixtures/wall_clock.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn lossy_cast_fixture() {
    // Default path: only narrow destinations are flagged.
    check(
        "lossy_cast",
        include_str!("fixtures/lossy_cast.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn lossy_cast_strict_fixture() {
    // Same file on a strict path: wide destinations are flagged too.
    let mut cfg = Config::default();
    cfg.rules
        .entry("lossy-cast".to_owned())
        .or_default()
        .strict_paths = vec!["crates/fixture/src/lossy_cast.rs".to_owned()];
    check(
        "lossy_cast",
        include_str!("fixtures/lossy_cast.rs"),
        &cfg,
        true,
    );
}

#[test]
fn durable_write_fixture() {
    // Default path: not a persistence module, so the rule stays silent.
    check(
        "durable_write",
        include_str!("fixtures/durable_write.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn durable_write_strict_fixture() {
    // Same file named as a persistence module: raw installs are flagged.
    let mut cfg = Config::default();
    cfg.rules
        .entry("durable-write".to_owned())
        .or_default()
        .strict_paths = vec!["crates/fixture/src/durable_write.rs".to_owned()];
    check(
        "durable_write",
        include_str!("fixtures/durable_write.rs"),
        &cfg,
        true,
    );
}

#[test]
fn trace_span_fixture() {
    // Default path: not a pipeline module, so the rule stays silent.
    check(
        "trace_span",
        include_str!("fixtures/trace_span.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn trace_span_strict_fixture() {
    // Same file named as a pipeline module: bare enters are flagged.
    let mut cfg = Config::default();
    cfg.rules
        .entry("trace-span".to_owned())
        .or_default()
        .strict_paths = vec!["crates/fixture/src/trace_span.rs".to_owned()];
    check(
        "trace_span",
        include_str!("fixtures/trace_span.rs"),
        &cfg,
        true,
    );
}

#[test]
fn float_eq_fixture() {
    check(
        "float_eq",
        include_str!("fixtures/float_eq.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn no_print_fixture() {
    check(
        "no_print",
        include_str!("fixtures/no_print.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn route_obs_fixture() {
    check(
        "route_obs",
        include_str!("fixtures/route_obs.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn fault_obs_fixture() {
    check(
        "fault_obs",
        include_str!("fixtures/fault_obs.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn breaker_obs_fixture() {
    check(
        "breaker_obs",
        include_str!("fixtures/breaker_obs.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn cluster_obs_fixture() {
    check(
        "cluster_obs",
        include_str!("fixtures/cluster_obs.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn nemesis_obs_fixture() {
    check(
        "nemesis_obs",
        include_str!("fixtures/nemesis_obs.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn serve_obs_fixture() {
    check(
        "serve_obs",
        include_str!("fixtures/serve_obs.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn swallowed_result_fixture() {
    check(
        "swallowed_result",
        include_str!("fixtures/swallowed_result.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn lock_order_fixture() {
    check(
        "lock_order",
        include_str!("fixtures/lock_order.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn lock_order_abba_fails_the_gate() {
    // The ABBA pair must come out at deny severity — the exit-1 gate.
    let src = include_str!("fixtures/lock_order.rs");
    let path = "crates/fixture/src/lock_order.rs".to_owned();
    let findings = lint_sources(&[(path, src.to_owned())], &Config::default());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "lock-order" && f.severity == sift_lint::Severity::Deny),
        "an ABBA inversion must be a deny finding"
    );
}

#[test]
fn hot_alloc_fixture() {
    // Default path: not a strict perf path, so the rule stays silent.
    check(
        "hot_alloc",
        include_str!("fixtures/hot_alloc.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn hot_alloc_strict_fixture() {
    // Same file on a strict perf path: per-iteration allocs are flagged.
    let mut cfg = Config::default();
    cfg.rules
        .entry("hot-alloc".to_owned())
        .or_default()
        .strict_paths = vec!["crates/fixture/src/hot_alloc.rs".to_owned()];
    check(
        "hot_alloc",
        include_str!("fixtures/hot_alloc.rs"),
        &cfg,
        true,
    );
}

#[test]
fn deadline_propagation_fixture() {
    // Default path: not an egress path, so the rule stays silent.
    check(
        "deadline_propagation",
        include_str!("fixtures/deadline_propagation.rs"),
        &Config::default(),
        false,
    );
}

#[test]
fn deadline_propagation_strict_fixture() {
    // Same file on an egress path: undeadlined sends are flagged.
    let mut cfg = Config::default();
    cfg.rules
        .entry("deadline-propagation".to_owned())
        .or_default()
        .strict_paths = vec!["crates/fixture/src/deadline_propagation.rs".to_owned()];
    check(
        "deadline_propagation",
        include_str!("fixtures/deadline_propagation.rs"),
        &cfg,
        true,
    );
}

#[test]
fn fixtures_are_quiet_under_test_paths() {
    // The same violations under a `tests/` path: only rules that apply in
    // tests may fire. `no_panic.rs` seeds none of those, so it goes quiet.
    let src = include_str!("fixtures/no_panic.rs");
    let path = "crates/fixture/tests/no_panic.rs".to_owned();
    let findings = lint_sources(&[(path.clone(), src.to_owned())], &Config::default());
    assert!(
        reported(&findings, &path).is_empty(),
        "test paths must exempt non-test rules"
    );
}
