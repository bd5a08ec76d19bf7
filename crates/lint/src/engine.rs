//! Walks the workspace, runs every rule, applies policy and suppressions.
//!
//! The engine runs in three stages: per-file context construction
//! (lex → token tree → scope pass), the per-file rules, and the
//! workspace rules. The first two stages are embarrassingly parallel and
//! fan out across worker threads with an atomic work-stealing cursor;
//! the workspace rules need every [`FileCtx`] at once and run serially.
//! Findings are sorted by position at the end, so parallel and serial
//! runs produce byte-identical reports.

use crate::config::{Config, Severity};
use crate::context::FileCtx;
use crate::rules::{registry, RawFinding, Rule, RuleKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A finished, policy-applied finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

/// Engine knobs the CLI exposes.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintOptions {
    /// Worker threads for the parallel stages (`0` = one per core).
    pub threads: usize,
    /// Collect per-rule and per-file wall time.
    pub timing: bool,
}

/// Wall-time accounting for `--timing`.
#[derive(Clone, Debug, Default)]
pub struct TimingReport {
    /// Rule id → total time across all files, reporting order.
    pub per_rule: Vec<(&'static str, Duration)>,
    /// Path → context build + per-file rule time.
    pub per_file: Vec<(String, Duration)>,
    pub total: Duration,
}

/// Findings plus optional accounting.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub timing: Option<TimingReport>,
}

/// Lints in-memory sources (used by fixture tests and by
/// [`lint_workspace`] after reading files).
pub fn lint_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    lint_sources_opts(sources, cfg, LintOptions::default()).findings
}

/// [`lint_sources`] with explicit engine options.
pub fn lint_sources_opts(
    sources: &[(String, String)],
    cfg: &Config,
    opts: LintOptions,
) -> LintReport {
    let started = Instant::now();
    let threads = worker_count(opts.threads, sources.len());
    let (contexts, mut file_time) = build_contexts(sources, cfg, threads);

    let mut rule_time: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut findings = per_file_pass(&contexts, cfg, threads, &mut rule_time, &mut file_time);
    findings.extend(workspace_pass(&contexts, cfg, &mut rule_time));
    sort_findings(&mut findings);

    LintReport {
        findings,
        timing: opts
            .timing
            .then(|| timing_report(rule_time, file_time, started.elapsed())),
    }
}

fn worker_count(requested: usize, jobs: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let n = if requested == 0 { auto } else { requested };
    n.min(jobs).max(1)
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
}

fn timing_report(
    rule_time: BTreeMap<&'static str, Duration>,
    file_time: Vec<(String, Duration)>,
    total: Duration,
) -> TimingReport {
    // Report rules in registry order so the output is stable.
    let per_rule = registry()
        .iter()
        .filter_map(|r| rule_time.get(r.id).map(|d| (r.id, *d)))
        .collect();
    TimingReport {
        per_rule,
        per_file: file_time,
        total,
    }
}

/// Builds every [`FileCtx`] across `threads` workers; returns contexts in
/// source order plus per-file build time.
fn build_contexts(
    sources: &[(String, String)],
    cfg: &Config,
    threads: usize,
) -> (Vec<FileCtx>, Vec<(String, Duration)>) {
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<(usize, FileCtx, Duration)> = Vec::with_capacity(sources.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((path, text)) = sources.get(i) else {
                            break local;
                        };
                        let built = Instant::now();
                        let ctx = FileCtx::new(path, text, cfg);
                        local.push((i, ctx, built.elapsed()));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => parts.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    parts.sort_by_key(|&(i, _, _)| i);
    let mut contexts = Vec::with_capacity(parts.len());
    let mut times = Vec::with_capacity(parts.len());
    for (_, ctx, took) in parts {
        times.push((ctx.path.clone(), took));
        contexts.push(ctx);
    }
    (contexts, times)
}

/// Runs every per-file rule over the contexts in parallel; accumulates
/// per-rule and per-file wall time.
fn per_file_pass(
    contexts: &[FileCtx],
    cfg: &Config,
    threads: usize,
    rule_time: &mut BTreeMap<&'static str, Duration>,
    file_time: &mut [(String, Duration)],
) -> Vec<Finding> {
    struct Part {
        idx: usize,
        findings: Vec<Finding>,
        rule_time: Vec<(&'static str, Duration)>,
        took: Duration,
    }
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<Part> = Vec::with_capacity(contexts.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let rules = registry();
                    let mut local = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(ctx) = contexts.get(idx) else {
                            break local;
                        };
                        let file_started = Instant::now();
                        let mut findings = Vec::new();
                        let mut times = Vec::new();
                        for rule in &rules {
                            let RuleKind::PerFile(check) = &rule.kind else {
                                continue;
                            };
                            let severity = cfg.severity(rule.id, rule.default_severity);
                            if severity == Severity::Allow || !rule_applies_to(rule, ctx, cfg) {
                                continue;
                            }
                            let rule_started = Instant::now();
                            let mut raw = Vec::new();
                            check(ctx, cfg, &mut raw);
                            admit(rule, severity, ctx, raw, true, &mut findings);
                            times.push((rule.id, rule_started.elapsed()));
                        }
                        local.push(Part {
                            idx,
                            findings,
                            rule_time: times,
                            took: file_started.elapsed(),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => parts.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut findings = Vec::new();
    for part in parts {
        for (id, d) in part.rule_time {
            *rule_time.entry(id).or_default() += d;
        }
        if let Some(slot) = file_time.get_mut(part.idx) {
            slot.1 += part.took;
        }
        findings.extend(part.findings);
    }
    findings
}

/// Runs the workspace rules (serial: they need every context at once).
fn workspace_pass(
    contexts: &[FileCtx],
    cfg: &Config,
    rule_time: &mut BTreeMap<&'static str, Duration>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in registry() {
        let RuleKind::Workspace(check) = &rule.kind else {
            continue;
        };
        let check = *check;
        let severity = cfg.severity(rule.id, rule.default_severity);
        if severity == Severity::Allow {
            continue;
        }
        let rule_started = Instant::now();
        for (path, f) in check(contexts, cfg) {
            let Some(ctx) = contexts.iter().find(|c| c.path == path) else {
                continue;
            };
            admit(&rule, severity, ctx, vec![f], true, &mut findings);
        }
        *rule_time.entry(rule.id).or_default() += rule_started.elapsed();
    }
    findings
}

fn rule_applies_to(rule: &Rule, ctx: &FileCtx, cfg: &Config) -> bool {
    if !rule.applies_in_tests && ctx.is_test_file {
        return false;
    }
    if rule.skips_bins && ctx.is_bin_file {
        return false;
    }
    !cfg.path_allowed(rule.id, &ctx.path)
}

/// Applies test-context and (optionally) inline-suppression filters, then
/// records.
fn admit(
    rule: &Rule,
    severity: Severity,
    ctx: &FileCtx,
    raw: Vec<RawFinding>,
    honor_suppressions: bool,
    out: &mut Vec<Finding>,
) {
    for f in raw {
        if !rule.applies_in_tests && ctx.in_test(f.line) {
            continue;
        }
        if honor_suppressions && ctx.is_suppressed(rule.id, f.line) {
            continue;
        }
        out.push(Finding {
            path: ctx.path.clone(),
            line: f.line,
            col: f.col,
            rule: rule.id,
            severity,
            message: f.message,
        });
    }
}

/// Lints every `.rs` file selected by the config under `root`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    Ok(lint_sources(&read_workspace(root, cfg)?, cfg))
}

/// [`lint_workspace`] with engine options (threads, timing).
pub fn lint_workspace_opts(root: &Path, cfg: &Config, opts: LintOptions) -> io::Result<LintReport> {
    Ok(lint_sources_opts(&read_workspace(root, cfg)?, cfg, opts))
}

/// One inline allow directive that no longer earns its keep.
#[derive(Clone, Debug)]
pub struct StaleAllow {
    pub path: String,
    /// Line of the comment carrying the directive.
    pub line: u32,
    pub rule: String,
    /// Why it is stale.
    pub reason: StaleReason,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleReason {
    /// The rule id does not exist in this binary's registry.
    UnknownRule,
    /// No finding of that rule lands on any line the directive covers.
    NothingSuppressed,
}

/// Audits every inline `sift-lint: allow(...)` in the sources: re-runs
/// the rules with suppressions disabled (and configured severities
/// ignored, so an allow documenting an exception under a currently
/// `allow`-severity rule is not reported) and flags directives that no
/// longer cover any would-be finding. Stale allows are how outdated
/// exceptions outlive their justification — this keeps the set honest.
pub fn audit_allows(sources: &[(String, String)], cfg: &Config) -> Vec<StaleAllow> {
    let threads = worker_count(0, sources.len());
    let (contexts, _) = build_contexts(sources, cfg, threads);

    // (path, rule) → lines a finding would land on without suppression.
    let mut would: BTreeMap<(String, &'static str), BTreeSet<u32>> = BTreeMap::new();
    let mut record = |f: &Finding| {
        would
            .entry((f.path.clone(), f.rule))
            .or_default()
            .insert(f.line);
    };
    for rule in registry() {
        match rule.kind {
            RuleKind::PerFile(check) => {
                for ctx in &contexts {
                    if !rule_applies_to(&rule, ctx, cfg) {
                        continue;
                    }
                    let mut raw = Vec::new();
                    check(ctx, cfg, &mut raw);
                    let mut out = Vec::new();
                    admit(&rule, rule.default_severity, ctx, raw, false, &mut out);
                    out.iter().for_each(&mut record);
                }
            }
            RuleKind::Workspace(check) => {
                for (path, f) in check(&contexts, cfg) {
                    let Some(ctx) = contexts.iter().find(|c| c.path == path) else {
                        continue;
                    };
                    let mut out = Vec::new();
                    admit(&rule, rule.default_severity, ctx, vec![f], false, &mut out);
                    out.iter().for_each(&mut record);
                }
            }
        }
    }

    let known: Vec<&str> = registry().iter().map(|r| r.id).collect();
    let mut stale = Vec::new();
    for ctx in &contexts {
        for d in &ctx.directives {
            if !known.contains(&d.rule.as_str()) {
                stale.push(StaleAllow {
                    path: ctx.path.clone(),
                    line: d.line,
                    rule: d.rule.clone(),
                    reason: StaleReason::UnknownRule,
                });
                continue;
            }
            let lines = would
                .iter()
                .find(|((p, r), _)| *p == ctx.path && *r == d.rule)
                .map(|(_, l)| l);
            let earns = match lines {
                Some(lines) if d.file_wide => !lines.is_empty(),
                Some(lines) => d.covered.iter().any(|l| lines.contains(l)),
                None => false,
            };
            if !earns {
                stale.push(StaleAllow {
                    path: ctx.path.clone(),
                    line: d.line,
                    rule: d.rule.clone(),
                    reason: StaleReason::NothingSuppressed,
                });
            }
        }
    }
    stale.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    stale
}

/// [`audit_allows`] over the files under `root`.
pub fn audit_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<StaleAllow>> {
    Ok(audit_allows(&read_workspace(root, cfg)?, cfg))
}

fn read_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let text = fs::read_to_string(root.join(&path))?;
        sources.push((path, text));
    }
    Ok(sources)
}

/// Directory names never descended into, regardless of config (build
/// output and VCS internals are large and always irrelevant).
const SKIP_DIRS: &[&str] = &["target", ".git"];

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if cfg.is_included(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        lint_sources(&[(path.to_owned(), src.to_owned())], cfg)
    }

    #[test]
    fn severity_allow_disables_a_rule() {
        let mut cfg = Config::default();
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(lint_one("crates/x/src/lib.rs", src, &cfg).len(), 1);
        cfg.rules.entry("no-panic".into()).or_default().severity = Some(Severity::Allow);
        assert!(lint_one("crates/x/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn warn_findings_survive_with_warn_severity() {
        let mut cfg = Config::default();
        cfg.rules.entry("no-panic".into()).or_default().severity = Some(Severity::Warn);
        let out = lint_one("crates/x/src/lib.rs", "fn f() { x.unwrap(); }", &cfg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn inline_suppression_silences_one_line() {
        let src = "fn f() {\n  a.unwrap(); // sift-lint: allow(no-panic) — test harness\n  b.unwrap();\n}";
        let out = lint_one("crates/x/src/lib.rs", src, &Config::default());
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn test_context_exempts_non_test_rules_only() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(x: f64) { y.unwrap(); if x == 1.0 {} }\n}";
        let out = lint_one("crates/x/src/lib.rs", src, &Config::default());
        // no-panic skips tests; float-eq does not.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "float-eq");
    }

    #[test]
    fn findings_sorted_by_position() {
        let src = "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); }";
        let out = lint_one("crates/x/src/lib.rs", src, &Config::default());
        assert_eq!(out.len(), 2);
        assert!(out[0].line < out[1].line);
    }

    fn many_sources() -> Vec<(String, String)> {
        (0..24)
            .map(|i| {
                (
                    format!("crates/x/src/m{i:02}.rs"),
                    format!("fn f{i}() {{ a.unwrap(); let x: f64 = y; if x == {i}.0 {{}} }}"),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_and_serial_runs_are_byte_identical() {
        let cfg = Config::default();
        let sources = many_sources();
        let serial = lint_sources_opts(
            &sources,
            &cfg,
            LintOptions {
                threads: 1,
                timing: false,
            },
        );
        let parallel = lint_sources_opts(
            &sources,
            &cfg,
            LintOptions {
                threads: 8,
                timing: false,
            },
        );
        assert_eq!(
            crate::report::render_json(&serial.findings),
            crate::report::render_json(&parallel.findings),
        );
        assert!(!serial.findings.is_empty());
    }

    #[test]
    fn timing_covers_rules_and_files() {
        let report = lint_sources_opts(
            &many_sources(),
            &Config::default(),
            LintOptions {
                threads: 4,
                timing: true,
            },
        );
        let timing = report.timing.expect("timing requested");
        assert_eq!(timing.per_file.len(), 24);
        assert!(timing.per_rule.iter().any(|(id, _)| *id == "no-panic"));
    }

    #[test]
    fn audit_flags_unknown_and_unused_allows() {
        let src = "fn f() {\n\
                   a.unwrap(); // sift-lint: allow(no-panic) — earns its keep\n\
                   let x = 1; // sift-lint: allow(no-panic) — nothing here\n\
                   let y = 2; // sift-lint: allow(no-such-rule) — typo\n\
                   }\n";
        let stale = audit_allows(
            &[("crates/x/src/lib.rs".to_owned(), src.to_owned())],
            &Config::default(),
        );
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert_eq!(stale[0].line, 3);
        assert_eq!(stale[0].reason, StaleReason::NothingSuppressed);
        assert_eq!(stale[1].line, 4);
        assert_eq!(stale[1].reason, StaleReason::UnknownRule);
    }

    #[test]
    fn audit_respects_allow_severity_exceptions() {
        // A directive under a rule the config currently allows still
        // covers a real would-be finding — not stale.
        let mut cfg = Config::default();
        cfg.rules.entry("no-panic".into()).or_default().severity = Some(Severity::Allow);
        let src = "fn f() {\n  a.unwrap(); // sift-lint: allow(no-panic) — documented\n}\n";
        let stale = audit_allows(&[("crates/x/src/lib.rs".to_owned(), src.to_owned())], &cfg);
        assert!(stale.is_empty(), "{stale:?}");
    }
}
