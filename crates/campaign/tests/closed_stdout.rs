//! `mhca-campaign run` whose stdout reader has gone away (as in
//! `run … | grep -q …` under `pipefail`) must still exit 0: its results
//! are committed before the summary is printed, so losing the summary is
//! no failure.

use std::fs;
use std::process::{Command, Stdio};

const SPEC: &str = r#"{
    "name": "closed-stdout",
    "spec": {"kind": "policy-run", "n": 8, "m": 3, "horizon": 60},
    "seeds": {"count": 2}
}"#;

#[test]
fn run_with_closed_stdout_exits_zero() {
    let dir = std::env::temp_dir().join(format!("mhca-closed-stdout-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("scenario.json");
    fs::write(&spec, SPEC).unwrap();
    let out_dir = dir.join("out");

    let mut child = Command::new(env!("CARGO_BIN_EXE_mhca-campaign"))
        .arg("run")
        .arg("--scenario-file")
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mhca-campaign");
    // Close the only read end before the campaign prints anything.
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "exit {:?}, stderr: {stderr}",
        output.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out_dir.join("manifest.json").is_file());
    assert!(out_dir.join("closed-stdout/seed0.csv").is_file());
    let _ = fs::remove_dir_all(&dir);
}
