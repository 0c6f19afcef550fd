//! Captures build provenance (rustc version, git commit) into rustc env
//! vars so [`Provenance::capture`] can stamp them into artifacts at
//! runtime without shelling out. Both probes are best-effort: a missing
//! `git` binary or a tarball checkout degrades to `"unknown"` instead of
//! failing the build.

use std::env;
use std::process::Command;

fn probe(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_string())
    }
}

fn main() {
    let rustc = env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = probe(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=MHCA_RUSTC_VERSION={rustc_version}");

    let commit =
        probe("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=MHCA_GIT_COMMIT={commit}");
    // Re-stamp when HEAD moves (best-effort; .git may be absent). On a
    // branch HEAD only names a ref, and a commit rewrites that ref's file
    // (or `packed-refs`) instead, so watch those too. Only existing files
    // are watched: cargo reruns on every build for a missing one.
    println!("cargo:rerun-if-changed=build.rs");
    let mut watched = vec!["HEAD".to_string(), "packed-refs".to_string()];
    watched.extend(probe("git", &["symbolic-ref", "-q", "HEAD"]));
    for name in watched {
        if let Some(path) = probe("git", &["rev-parse", "--git-path", &name]) {
            if std::path::Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
}
