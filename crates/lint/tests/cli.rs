//! The `sift-lint` binary's exit-status contract.

use std::path::Path;
use std::process::Command;

#[test]
fn missing_config_file_is_a_configuration_error() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let missing = root.join("crates/lint/no-such-dir/Lint.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_sift-lint"))
        .arg("--json")
        .arg("--root")
        .arg(&root)
        .arg("--config")
        .arg(&missing)
        .output()
        .expect("sift-lint runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a missing --config must exit 2, not fall back to the root Lint.toml; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
