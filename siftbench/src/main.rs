//! SIFT workload benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path siftbench/Cargo.toml -- \
//!     --workload <batch|sharded|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through SIFT's public entry points for `--seconds`,
//! checks its output with the workload's oracle, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics of
//! `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. Exits 1 when an oracle fails, 2 on bad arguments.
//! Workload sizes, the layers each stresses and which end-to-end metric
//! each per-layer metric should move are recorded in `spec.json`.

mod batch;
mod oracle;
mod probe;
mod scrape;
mod serve;
mod sharded;
mod timed;
mod world;

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const SPEC: &str = include_str!("../spec.json");

/// Parsed command line.
pub struct Args {
    workload: String,
    /// Seed of every input the workload generates.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: Duration,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let secs = value.parse::<f64>().map_err(|_| bad())?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(bad());
                }
                args.seconds = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// What a workload run measured and whether its output was correct.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (client calls, HTTP requests or reads).
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    errors: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a measured metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Records an oracle failure.
    pub fn error(&mut self, message: String) {
        eprintln!("# oracle: {message}");
        self.errors.push(message);
    }
}

/// A fresh directory for the workload's durable state, under the
/// current directory.
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".siftbench-work").join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        remove_dir(&dir);
    }
    dir
}

/// Removes a [`work_dir`] and, once empty, its parent.
pub fn remove_dir(dir: &std::path::Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("# could not remove {}: {e}", dir.display());
        }
    }
    if let Some(parent) = dir.parent() {
        // Fails harmlessly while another run still uses the parent.
        std::fs::remove_dir(parent).ok();
    }
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    match spec.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|m| {
                let name = m.get("name")?.as_str()?.to_owned();
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
                Some((name, unit))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Whether the per-layer metric `name` is measured on `workload`
/// (`spec.json` lists the workloads whose layers it reads).
fn measured_on(spec: &Value, name: &str, workload: &str) -> bool {
    let Some(Value::Array(layers)) = spec.get("per_layer") else {
        return false;
    };
    layers
        .iter()
        .filter(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .filter_map(|m| match m.get("workloads") {
            Some(Value::Array(w)) => Some(w),
            _ => None,
        })
        .any(|w| w.iter().any(|v| v.as_str() == Some(workload)))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: siftbench --workload <batch|sharded|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Both files are compiled in; failing to parse them is a build defect.
    let bench: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let spec: Value = serde_json::from_str(SPEC).expect("spec.json parses");

    let mut out = Outcome::default();
    let measured = match args.workload.as_str() {
        "batch" => {
            let pinned = spec
                .get("workloads")
                .and_then(|w| w.get("batch"))
                .and_then(|b| b.get("pinned_digest"))
                .filter(|p| p.get("seed").and_then(Value::as_u64) == Some(args.seed))
                .and_then(|p| p.get("digest"))
                .and_then(Value::as_str);
            batch::measure(&args, pinned, &mut out)
        }
        "sharded" => sharded::measure(&args, &mut out),
        "serve" => serve::measure(&args, &mut out),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let Err(e) = measured {
        out.error(e);
    }
    if out.attempted == 0 && out.errors.is_empty() {
        out.error("no operation was attempted".into());
    }
    let ops_failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("ops_failed_frac", ops_failed_frac);

    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut metrics = Vec::new();
    for (name, unit) in names(&bench, list) {
        let value = match out.metrics.get(&name) {
            Some(v) => *v,
            // A layer this workload never touches reads zero.
            None if args.trace && !measured_on(&spec, &name, &args.workload) => 0.0,
            // A failed oracle already explains why measuring stopped.
            None if !out.errors.is_empty() => continue,
            None => {
                out.error(format!("metric {name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            out.error(format!("metric {name} is {value}"));
            continue;
        }
        metrics.push((
            name,
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit)),
            ]),
        ));
    }
    let correct = out.errors.is_empty();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(out.attempted)),
        ("failed".into(), Value::UInt(out.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    std::process::exit(if correct { 0 } else { 1 });
}
