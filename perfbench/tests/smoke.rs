//! Smoke test: every workload at the tiny size, traced and untraced.
//!
//! Each run must print, as its last line, a result whose metrics are exactly
//! the ones `BENCHMARK.json` declares for that mode, each with its declared
//! unit; no operation may fail; and the funnel counts of the traced run
//! must reconcile (kept + dropped = in at every stage).

use serde_json::Value;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn benchmark() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("spawn perfbench")
}

/// Runs one workload at the tiny size and returns its result line.
fn run_tiny(workload: &str, trace: &str) -> Value {
    let args = format!("--workload {workload} --seed 7 --seconds 0.3 --trace {trace} --size tiny");
    let out = perfbench(&args.split(' ').collect::<Vec<_>>());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Every workload the program runs; `BENCHMARK.json` gates a subset.
const WORKLOADS: [&str; 3] = ["memory-chase", "counter-read", "analysis-sweep"];

#[test]
fn every_workload_emits_every_declared_metric_without_failures() {
    let gated = benchmark().get("workloads").and_then(Value::as_array).expect("workloads").clone();
    for w in &gated {
        let name = w.get("name").and_then(Value::as_str).expect("workload name");
        assert!(WORKLOADS.contains(&name), "BENCHMARK.json names unknown workload {name}");
    }
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run_tiny(workload, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{workload}");
            assert!(result.get("attempted").and_then(Value::as_u64).is_some_and(|n| n > 0));
            let Some(Value::Object(emitted)) = result.get("metrics") else {
                panic!("{workload}: metrics is not an object")
            };
            let want = declared(section);
            let got: Vec<(String, String)> = emitted
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, want, "{workload} trace={trace}: metrics differ from BENCHMARK.json");
            if trace == "1" {
                let m = |name: &str| metric(&result, name);
                assert!(m("core.events_in") > 0.0, "{workload}: no events analyzed");
                assert_eq!(m("core.noise_kept") + m("core.noise_dropped"), m("core.events_in"));
                assert_eq!(
                    m("core.represent_kept") + m("core.represent_dropped"),
                    m("core.noise_kept")
                );
                assert_eq!(m("core.selected") + m("core.select_dropped"), m("core.represent_kept"));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "memory-chase", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "memory-chase", "--seed", "1", "--seconds", "0", "--trace", "0"][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
