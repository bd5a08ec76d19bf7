//! The `*-obs` rules: observability completeness for metric-label enums.
//!
//! Faults, breaker states, shed and reroute causes, nemesis faults and
//! degrade reasons are all judged after the fact from `/metrics`, each
//! through one metric whose label is the variant's snake_case name
//! (`HalfOpen` → `"half_open"`). For every watched enum defined in
//! non-test workspace code, this module checks that each variant's label
//! appears as a string literal somewhere in non-test code, and that the
//! enum's metric name itself is registered somewhere. A variant with no
//! label string could occur during an incident yet be indistinguishable
//! — or entirely invisible — in the exposition. Findings anchor at the
//! enum definition site.
//!
//! The match is workspace-wide on purpose: the metric registration and
//! the `label()` mapping live next to each enum today, but nothing
//! forces them to stay there.
//!
//! `WATCHED` lists every (rule, enum, metric) row; each of the five rule
//! ids in the registry runs [`check`] over its own rows, so `Lint.toml`
//! sections and `allow(<rule>)` directives keep addressing one rule.

use crate::config::Config;
use crate::context::{str_literal_content, FileCtx};
use crate::lexer::{TokKind, Token};
use crate::rules::RawFinding;
use std::collections::HashSet;

/// The watched enums: (owning rule id, enum name, metric its variants
/// must be distinguishable in).
const WATCHED: [(&str, &str, &str); 6] = [
    ("fault-obs", "FaultKind", "sift_net_faults_injected_total"),
    ("breaker-obs", "BreakerState", "sift_client_breaker_state"),
    ("cluster-obs", "ShedCause", "sift_fetcher_shed_total"),
    ("cluster-obs", "RerouteReason", "sift_cluster_reroute_total"),
    (
        "nemesis-obs",
        "NemesisFaultKind",
        "sift_cluster_nemesis_faults_total",
    ),
    (
        "serve-obs",
        "DegradeReason",
        "sift_serve_degraded_reads_total",
    ),
];

/// Runs rule `rule` over its [`WATCHED`] rows.
pub fn check(rule: &str, files: &[FileCtx], cfg: &Config) -> Vec<(String, RawFinding)> {
    let mut literals: HashSet<&str> = HashSet::new();
    // (enum name, metric, file, enum line, enum col, variants)
    let mut sites: Vec<(&str, &str, &str, u32, u32, Vec<String>)> = Vec::new();

    for ctx in files {
        if ctx.is_test_file || ctx.is_bin_file {
            continue;
        }
        let code = &ctx.code;
        for (i, t) in code.iter().enumerate() {
            if t.kind == TokKind::Str && !ctx.in_test(t.line) {
                literals.insert(str_literal_content(&t.text));
            }
            if t.kind != TokKind::Ident || t.text != "enum" || ctx.in_test(t.line) {
                continue;
            }
            let Some(name_tok) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            if let Some(&(_, name, metric)) = WATCHED
                .iter()
                .find(|(id, name, _)| *id == rule && name_tok.text == *name)
            {
                let variants = enum_variants(code, i + 2);
                sites.push((name, metric, ctx.path.as_str(), t.line, t.col, variants));
            }
        }
    }

    let mut out = Vec::new();
    for (name, metric, file, line, col, variants) in sites {
        if cfg.path_allowed(rule, file) {
            continue;
        }
        if !literals.contains(metric) {
            out.push((
                file.to_owned(),
                RawFinding::new(
                    line,
                    col,
                    format!(
                        "`{name}` exists but no `{metric}` metric is \
                         registered anywhere: its variants would be \
                         invisible in /metrics"
                    ),
                ),
            ));
        }
        for variant in variants {
            let label = snake_case(&variant);
            if !literals.contains(label.as_str()) {
                out.push((
                    file.to_owned(),
                    RawFinding::new(
                        line,
                        col,
                        format!(
                            "`{name}::{variant}` has no `\"{label}\"` label \
                             string in non-test code: it could occur but never \
                             be distinguished in the `{metric}` exposition"
                        ),
                    ),
                ));
            }
        }
    }
    out
}

/// Collects the variant identifiers of the brace block starting at or
/// after token `from` (the token after the enum's name).
fn enum_variants(code: &[Token], from: usize) -> Vec<String> {
    let mut i = from;
    // Skip to the opening brace (past generics, which the watched enums lack).
    while i < code.len() && !(code[i].kind == TokKind::Punct && code[i].text == "{") {
        i += 1;
    }
    let mut depth = 0i32;
    let mut out = Vec::new();
    while i < code.len() {
        let t = &code[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        // A variant: an uppercase-initial ident at body depth whose next
        // token closes or separates it (unit variants are the watched
        // enums' shape; payload variants would still match on the `(`).
        if depth == 1
            && t.kind == TokKind::Ident
            && t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            && code.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Punct && matches!(n.text.as_str(), "," | "}" | "(" | "=")
            })
        {
            out.push(t.text.clone());
        }
        i += 1;
    }
    out
}

/// `RateStorm` → `rate_storm`.
fn snake_case(variant: &str) -> String {
    let mut out = String::with_capacity(variant.len() + 4);
    for (i, c) in variant.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str, src: &str) -> FileCtx {
        FileCtx::new(path, src, &Config::default())
    }

    /// An enum `name` with variants `Alpha` and `BetaGamma`.
    fn enum_src(name: &str) -> String {
        format!("pub enum {name} {{\n    Alpha,\n    BetaGamma,\n}}\n")
    }

    fn run(rule: &str, files: &[FileCtx]) -> Vec<(String, RawFinding)> {
        check(rule, files, &Config::default())
    }

    #[test]
    fn fully_labelled_enum_with_registered_metric_passes() {
        for (rule, name, metric) in WATCHED {
            let src = format!(
                "{}fn f() {{ counter(\"{metric}\", &[]); \
                 let _l = [\"alpha\", \"beta_gamma\"]; }}",
                enum_src(name)
            );
            let out = run(rule, &[ctx("crates/a/src/e.rs", &src)]);
            assert!(out.is_empty(), "{name}: {out:?}");
        }
    }

    #[test]
    fn missing_label_is_flagged_once_naming_variant_label_and_metric() {
        for (rule, name, metric) in WATCHED {
            let src = format!(
                "{}fn f() {{ counter(\"{metric}\", &[]); let _l = \"alpha\"; }}",
                enum_src(name)
            );
            let files = [ctx("crates/a/src/e.rs", &src)];
            let out = run(rule, &files);
            assert_eq!(out.len(), 1, "{name}: {out:?}");
            let msg = &out[0].1.message;
            assert!(msg.contains(&format!("`{name}::BetaGamma`")), "{msg}");
            assert!(msg.contains("\"beta_gamma\""), "{msg}");
            assert!(msg.contains(metric), "{msg}");
            // A row belongs to exactly one rule.
            for (other, _, _) in WATCHED.iter().filter(|(id, _, _)| *id != rule) {
                assert!(run(other, &files).is_empty(), "{other} claimed {name}");
            }
        }
    }

    #[test]
    fn unregistered_metric_is_flagged_at_enum_site() {
        for (rule, name, metric) in WATCHED {
            let src = format!(
                "fn g() {{}}\n{}fn f() {{ let _l = [\"alpha\", \"beta_gamma\"]; }}",
                enum_src(name)
            );
            let out = run(rule, &[ctx("crates/a/src/e.rs", &src)]);
            assert_eq!(out.len(), 1, "{name}: {out:?}");
            assert_eq!((out[0].1.line, out[0].1.col), (2, 5), "{name}");
            assert!(out[0].1.message.contains(metric), "{name}");
            assert!(out[0].1.message.contains(name), "{name}");
        }
    }

    #[test]
    fn label_in_a_test_module_does_not_count() {
        for (rule, name, metric) in WATCHED {
            let src = format!(
                "{}fn f() {{ counter(\"{metric}\", &[]); let _l = \"alpha\"; }}\n\
                 #[cfg(test)]\nmod tests {{ fn l() -> &'static str {{ \"beta_gamma\" }} }}",
                enum_src(name)
            );
            let out = run(rule, &[ctx("crates/a/src/e.rs", &src)]);
            assert_eq!(out.len(), 1, "{name}: {out:?}");
            assert!(out[0].1.message.contains("BetaGamma"), "{name}");
        }
    }

    #[test]
    fn labels_and_metric_may_live_in_another_file() {
        for (rule, name, metric) in WATCHED {
            let enum_file = ctx("crates/a/src/e.rs", &enum_src(name));
            let metrics_file = ctx(
                "crates/b/src/metrics.rs",
                &format!("fn f() {{ counter(\"{metric}\", &[(\"k\", \"alpha\"), (\"k\", \"beta_gamma\")]); }}"),
            );
            let out = run(rule, &[enum_file, metrics_file]);
            assert!(out.is_empty(), "{name}: {out:?}");
        }
    }

    #[test]
    fn unwatched_and_test_code_enums_are_ignored() {
        for (rule, name, _) in WATCHED {
            let src = format!(
                "pub enum Unwatched {{ A }}\n#[cfg(test)]\nmod tests {{\n{}}}",
                enum_src(name)
            );
            let out = run(rule, &[ctx("crates/a/src/x.rs", &src)]);
            assert!(out.is_empty(), "{name}: {out:?}");
        }
    }

    #[test]
    fn snake_casing() {
        assert_eq!(snake_case("InternalError"), "internal_error");
        assert_eq!(snake_case("RateStorm"), "rate_storm");
        assert_eq!(snake_case("Reset"), "reset");
    }
}
