//! A tiny-length run of every workload in `BENCHMARK.json`, untraced and
//! traced, must finish, print every metric that file lists with its
//! unit, check out correct, and fail no operation.

use std::process::Command;

use chrome_exec::json::{self, JsonValue};

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, key: &str, field: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("array in BENCHMARK.json")
        .iter()
        .map(|m| {
            let get = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (get("name"), get(field))
        })
        .collect()
}

/// Run one tiny workload and return its parsed result line.
fn run(workload: &str, trace: u8) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{workload} trace {trace}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|| panic!("last line is JSON: {last}"))
}

#[test]
fn every_workload_reports_every_metric_and_no_failures() {
    let doc = benchmark();
    for (workload, _) in names(&doc, "workloads", "why") {
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let result = run(&workload, trace);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            let attempted = result.get("attempted").and_then(JsonValue::as_u64);
            assert!(
                attempted.is_some_and(|a| a >= 1),
                "{workload}: {attempted:?}"
            );
            let metrics = result.get("metrics").expect("metrics object");
            let want = names(&doc, key, "unit");
            let JsonValue::Obj(got) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(
                got.len(),
                want.len(),
                "{workload} trace {trace}: metric count"
            );
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: missing {name}"));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
                let v = m.get("value").and_then(JsonValue::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
                if trace == 0 {
                    assert!(v.is_some_and(|v| v > 0.0), "{workload}: {name} = {v:?}");
                }
            }
        }
    }
}

#[test]
fn same_seed_gives_the_same_exact_metrics() {
    for workload in ["sim-4c-mix-chrome", "serve-mixed-chrome"] {
        let a = run(workload, 0);
        let b = run(workload, 0);
        let exact = |r: &JsonValue| {
            r.get("metrics")
                .and_then(|m| m.get("misses_per_kop"))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
        };
        assert_eq!(exact(&a), exact(&b), "{workload}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
