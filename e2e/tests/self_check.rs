//! Self-check of the benchmark against its own `BENCHMARK.json`: every
//! metric named there is printed, with its unit, for every workload,
//! and a minimal run of each workload fails no operation.
//!
//! Each case runs the `e2e` binary with `--quick` (small data, one
//! set-up, one rebuild). Run with `cargo test --release` for speed.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The `"name"` values listed under `key` in `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("unterminated array");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--quick"])
        .current_dir(repo_root())
        .output()
        .expect("run e2e");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("no output").to_string();
    (stdout, last)
}

fn check(workload: &str) {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let (stdout, last) = run(workload, trace);
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: bad result line {last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
        assert!(
            stdout.contains(" ops_failed_frac=0 "),
            "{workload}: operations failed:\n{stdout}"
        );
        for name in names(&json, key) {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} (trace {trace}) does not print {name}: {last}"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_every_workload_tested_here() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(
        names(&json, "workloads"),
        ["paper-read", "degraded-read", "hot-mixed", "rebuild"]
    );
}

#[test]
fn paper_read_prints_every_metric() {
    check("paper-read");
}

#[test]
fn degraded_read_prints_every_metric() {
    check("degraded-read");
}

#[test]
fn hot_mixed_prints_every_metric() {
    check("hot-mixed");
}

#[test]
fn rebuild_prints_every_metric() {
    check("rebuild");
}
