//! `decide_profile` refuses any argument it does not know before doing
//! any work, so a typo can neither run the full grid nor overwrite a
//! committed `BENCH_*.json` in the working directory.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `decide_profile` with `args` in a fresh empty directory and
/// returns its output plus the names of the files it left there.
fn run_in_empty_dir(tag: &str, args: &[&str]) -> (Output, Vec<String>) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "mhca-decide-profile-args-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_decide_profile"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn decide_profile");
    let files = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    (out, files)
}

#[test]
fn unknown_flags_print_usage_and_fail_without_writing() {
    for (tag, args) in [
        ("bogus", &["--bogus"][..]),
        ("bogus-after-quick", &["--quick", "--bogus"][..]),
        ("positional", &["--quick", "out.json"][..]),
        ("bare-out", &["--quick", "--out"][..]),
        ("flag-as-out", &["--out", "--quick"][..]),
        ("short-help", &["-h"][..]),
    ] {
        let (out, files) = run_in_empty_dir(tag, args);
        assert!(!out.status.success(), "{args:?} exited {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: decide_profile"),
            "{args:?}: {stderr}"
        );
        assert!(files.is_empty(), "{args:?} wrote {files:?}");
    }
}

#[test]
fn help_prints_usage_and_succeeds_without_writing() {
    let (out, files) = run_in_empty_dir("help", &["--help"]);
    assert!(out.status.success(), "--help exited {:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: decide_profile"));
    assert!(files.is_empty(), "--help wrote {files:?}");
}
