//! Smoke test: every example in `examples/` must build and run to
//! completion, so the quickstart paths shown in the crate docs stay
//! honest. Runs the debug binaries concurrently (the examples are sized
//! to finish in a few seconds each even unoptimised).

use std::path::PathBuf;
use std::process::{Command, Stdio};

const EXAMPLES: [&str; 11] = [
    "quickstart",
    "accuracy_study",
    "image_compression",
    "lora_rank_selection",
    "portability_matrix",
    "solver_showdown",
    "svd_server",
    "svd_async_server",
    "svd_fleet",
    "svd_oocore",
    "svd_chaos",
];

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
}

#[test]
fn all_examples_run() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(&cargo)
        .args(["build", "--examples", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("failed to invoke cargo");
    assert!(status.success(), "cargo build --examples failed");

    // Launch every example before waiting on any, so the suite's wall
    // time is the slowest example's rather than the sum of all of them.
    let bin_dir = target_dir().join("debug").join("examples");
    let running: Vec<_> = EXAMPLES
        .iter()
        .map(|name| {
            let child = Command::new(bin_dir.join(name))
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("could not launch example {name}: {e}"));
            (name, child)
        })
        .collect();
    for (name, child) in running {
        let out = child
            .wait_with_output()
            .unwrap_or_else(|e| panic!("could not wait on example {name}: {e}"));
        assert!(
            out.status.success(),
            "example {name} exited with {:?}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "example {name} produced no output");
    }
}
