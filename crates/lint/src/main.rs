//! The `sift-lint` command-line gate.

use sift_lint::{
    find_root, load_config, validate_rule_ids, Config, LintOptions, Severity, StaleReason,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
sift-lint — workspace-native static analysis for SIFT

USAGE:
    sift-lint [--json] [--root <dir>] [--config <file>] [--threads <n>] [--timing]
    sift-lint --audit-allows [--root <dir>] [--config <file>]
    sift-lint --rules-md

OPTIONS:
    --json             machine-readable output (one JSON object)
    --root <dir>       workspace root (default: nearest ancestor with Lint.toml)
    --config <f>       config file (default: <root>/Lint.toml; built-in
                       defaults when that is absent)
    --threads <n>      worker threads for the parallel stages (default: cores)
    --timing           per-rule and per-file wall time on stderr
    --audit-allows     report stale inline `sift-lint: allow(...)` directives
    --rules-md         print the generated rule-reference table and exit
    --help             this text

EXIT STATUS:
    0  clean, or warn-level findings only
    1  at least one deny-level finding (or stale allow in --audit-allows)
    2  usage, configuration or I/O error
";

fn main() -> ExitCode {
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut config_arg: Option<PathBuf> = None;
    let mut rules_md = false;
    let mut timing = false;
    let mut audit = false;
    let mut threads = 0usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--rules-md" => rules_md = true,
            "--timing" => timing = true,
            "--audit-allows" => audit = true,
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = v,
                None => return usage_error("--threads needs a number"),
            },
            "--root" => match args.next() {
                Some(v) => root_arg = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--config" => match args.next() {
                Some(v) => config_arg = Some(PathBuf::from(v)),
                None => return usage_error("--config needs a value"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if rules_md {
        print!("{}", sift_lint::rules_markdown());
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root_arg.or_else(|| find_root(&cwd)).unwrap_or(cwd);

    let cfg = match &config_arg {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Config::parse(&text).map_err(|e| e.to_string())),
        None => load_config(&root).map_err(|e| e.to_string()),
    };
    let cfg = match cfg {
        Ok(cfg) => cfg,
        Err(e) => return config_error(&e),
    };
    if let Err(e) = validate_rule_ids(&cfg) {
        return config_error(&e);
    }

    if audit {
        return run_audit(&root, &cfg);
    }

    let opts = LintOptions { threads, timing };
    let report = match sift_lint::lint_workspace_opts(&root, &cfg, opts) {
        Ok(r) => r,
        Err(e) => return config_error(&format!("walking {}: {e}", root.display())),
    };

    let findings = report.findings;
    if json {
        print!("{}", sift_lint::render_json(&findings));
    } else {
        print!("{}", sift_lint::render_text(&findings));
    }
    if let Some(t) = &report.timing {
        print_timing(t);
    }

    if findings.iter().any(|f| f.severity == Severity::Deny) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_audit(root: &std::path::Path, cfg: &Config) -> ExitCode {
    let stale = match sift_lint::audit_workspace(root, cfg) {
        Ok(s) => s,
        Err(e) => return config_error(&format!("walking {}: {e}", root.display())),
    };
    for s in &stale {
        let why = match s.reason {
            StaleReason::UnknownRule => "no such rule exists",
            StaleReason::NothingSuppressed => "it no longer covers any finding",
        };
        println!(
            "{}:{}: stale allow({}) — {why}; remove the directive",
            s.path, s.line, s.rule
        );
    }
    if stale.is_empty() {
        println!("sift-lint: every inline allow still earns its keep");
        ExitCode::SUCCESS
    } else {
        println!(
            "sift-lint: {} stale allow directive{}",
            stale.len(),
            if stale.len() == 1 { "" } else { "s" }
        );
        ExitCode::from(1)
    }
}

fn print_timing(t: &sift_lint::TimingReport) {
    eprintln!("sift-lint timing: total {:?}", t.total);
    for (id, d) in &t.per_rule {
        eprintln!("  rule {id:<22} {d:?}");
    }
    let mut slowest: Vec<&(String, std::time::Duration)> = t.per_file.iter().collect();
    slowest.sort_by_key(|b| std::cmp::Reverse(b.1));
    for (path, d) in slowest.iter().take(10) {
        eprintln!("  file {path:<40} {d:?}");
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("sift-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn config_error(msg: &str) -> ExitCode {
    eprintln!("sift-lint: {msg}");
    ExitCode::from(2)
}
