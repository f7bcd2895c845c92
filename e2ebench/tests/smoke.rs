//! Smoke test of the benchmark itself: a tiny-size run of every workload
//! passes all checks and prints every metric named in `BENCHMARK.json`,
//! with its unit, under the same names for any seed.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use mb2_e2ebench::json::{self, Json};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// Run the benchmark binary at tiny size; returns the parsed last line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{seed}-{}", trace as u8));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("run e2ebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of the printed metrics, after checking the result line.
fn printed(result: &Json) -> Vec<(String, String)> {
    let Json::Obj(fields) = result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_workload_prints_every_declared_metric_for_any_seed() {
    let end_to_end = sorted(declared("end_to_end"));
    let per_layer = sorted(declared("per_layer"));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, ["tatp", "smallbank", "tpch", "htap"]);
    for w in &workloads {
        for seed in [1, 29] {
            assert_eq!(
                sorted(printed(&run(w, seed, false))),
                end_to_end,
                "{w} seed {seed}"
            );
        }
        assert_eq!(sorted(printed(&run(w, 7, true))), per_layer, "{w} traced");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run e2ebench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
