//! The net binaries reject a bad command line with a usage error and a
//! nonzero exit, before they bind or dial anything.

use std::process::Command;

fn rejects(bin: &str, args: &[&str], reason: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(stderr.contains("\nusage: "), "{args:?}: no usage line");
}

const ORCHESTRATOR: &str = env!("CARGO_BIN_EXE_pipellm-orchestrator");
const WORKER: &str = env!("CARGO_BIN_EXE_stage-worker");
const TOO_BIG: &str = "4294967298";

#[test]
fn orchestrator_rejects_unknown_flags_and_missing_values() {
    rejects(
        ORCHESTRATOR,
        &["--supervised"],
        "unknown argument --supervised",
    );
    rejects(
        ORCHESTRATOR,
        &["--stages", "2", "--layers"],
        "--layers needs a value",
    );
}

#[test]
fn orchestrator_rejects_counts_beyond_u32() {
    for flag in ["--stages", "--layers", "--iterations", "--micro-batches"] {
        rejects(
            ORCHESTRATOR,
            &[flag, TOO_BIG],
            &format!("{flag}: {TOO_BIG} is out of range"),
        );
    }
}

#[test]
fn worker_rejects_unknown_flags_and_missing_values() {
    rejects(
        WORKER,
        &["--stage", "0", "--bogus", "1"],
        "unknown argument --bogus",
    );
    rejects(
        WORKER,
        &["--stage", "0", "--generation"],
        "--generation needs a value",
    );
}

#[test]
fn worker_rejects_counts_beyond_u32() {
    rejects(
        WORKER,
        &["--stage", TOO_BIG],
        &format!("--stage: {TOO_BIG} is out of range"),
    );
    rejects(
        WORKER,
        &["--stage", "0", "--generation", TOO_BIG],
        &format!("--generation: {TOO_BIG} is out of range"),
    );
}
