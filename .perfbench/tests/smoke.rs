//! Smoke test of the benchmark at a tiny size: every metric that
//! `BENCHMARK.json` names is printed with its unit for every workload, every
//! exact counter repeats across two traced runs, and every output check
//! passes.
//!
//! Run with `cargo test --release --manifest-path .perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use study::json::{parse, Value};

#[path = "../src/layers.rs"]
#[allow(dead_code)]
mod layers;

use layers::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_neatbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {out:?}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Num(s) => s.parse().expect("a number"),
        other => panic!("not a number: {other:?}"),
    }
}

/// Checks the result's shape and outputs; returns `(name, value)` pairs.
fn check(workload: &str, result: &Value, table: &[Metric]) -> Vec<(String, f64)> {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    let attempted = result
        .get("attempted")
        .and_then(Value::as_u64)
        .expect("attempted");
    let failed = result
        .get("failed")
        .and_then(Value::as_u64)
        .expect("failed");
    assert!(attempted >= 1 && failed <= attempted, "{workload}");
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "{workload}");
    metrics
        .iter()
        .zip(table)
        .map(|((name, v), m)| {
            assert_eq!(
                v.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{workload} {name}"
            );
            (name.clone(), num(v.get("value").expect("value")))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        let e2e = check(workload, &run(workload, 0), END_TO_END);
        for (name, v) in &e2e {
            assert!(*v > 0.0, "{workload}: {name} is {v}");
        }
        let first = check(workload, &run(workload, 1), PER_LAYER);
        let second = check(workload, &run(workload, 1), PER_LAYER);
        for ((m, (_, a)), (_, b)) in PER_LAYER.iter().zip(&first).zip(&second) {
            if m.exact {
                assert_eq!(a, b, "{workload}: exact counter {} moved", m.name);
            }
        }
        let events = first
            .iter()
            .find(|(n, _)| n == "simnet.events")
            .expect("simnet.events");
        assert!(events.1 > 0.0, "{workload}: no simulated events");
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&root).expect("read BENCHMARK.json");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[Metric]| -> Vec<(String, String)> {
        t.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
