//! Holds `BENCHMARK.json`, the tables in `src/spec.rs` (through what
//! the binary prints) and the result line to each other.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.field(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.field(key) {
        Some(Value::String(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn number(v: &Value, key: &str) -> f64 {
    match v.field(key) {
        Some(Value::Number(n)) => *n,
        other => panic!("{key}: expected a number, found {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// `name -> unit` of one metric section.
fn metrics_of(spec: &Value, section: &str) -> BTreeMap<String, String> {
    array(spec, section)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

#[test]
fn benchmark_json_is_inside_the_contract() {
    let spec = benchmark_json();
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = array(&spec, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for part in command {
        let Value::String(part) = part else {
            panic!("command holds strings")
        };
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert_eq!(
        array(&spec, "paths"),
        [Value::String("benchmark".to_string())]
    );
    let seconds = number(&spec, "run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = Vec::new();
    let workloads = array(&spec, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = string(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        names.push(string(w, "name"));
    }
    let end_to_end = array(&spec, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = number(m, "bound");
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        names.push(string(m, "name"));
    }
    let setup = end_to_end
        .iter()
        .find(|m| string(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (string(setup, "unit"), string(setup, "better")),
        ("s", "lower")
    );
    let per_layer = array(&spec, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        names.push(string(m, "name"));
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_unit(string(m, "unit")), "{m:?}");
        assert!(matches!(string(m, "better"), "lower" | "higher"), "{m:?}");
    }
    for name in &names {
        assert!(is_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

struct Run {
    stdout: String,
    result: Value,
}

/// Runs the benchmark binary the way the driver does, one second long.
fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_mcss-benchmark"))
        .args(["--workload", workload, "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("stdout is text");
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the last line is JSON");
    Run { stdout, result }
}

fn value_of(result: &Value, name: &str) -> f64 {
    let metrics = result.field("metrics").expect("metrics");
    number(
        metrics
            .field(name)
            .unwrap_or_else(|| panic!("{name} reported")),
        "value",
    )
}

/// Checks one run's result line and metric lines against one section
/// of `BENCHMARK.json`.
fn check_run(workload: &str, run: &Run, expected: &BTreeMap<String, String>) {
    assert_eq!(
        keys(&run.result),
        ["correct", "attempted", "failed", "metrics"]
    );
    assert_eq!(run.result.field("correct"), Some(&Value::Bool(true)));
    assert!(number(&run.result, "attempted") >= 1.0);
    let metrics = run.result.field("metrics").expect("metrics");
    let reported: BTreeMap<String, String> = keys(metrics)
        .into_iter()
        .map(|name| {
            let m = metrics.field(name).expect("listed key");
            assert_eq!(keys(m), ["value", "unit"]);
            assert!(number(m, "value").is_finite());
            (name.to_string(), string(m, "unit").to_string())
        })
        .collect();
    assert_eq!(&reported, expected, "{workload}: names and units");
    for name in expected.keys() {
        let printed = run
            .stdout
            .lines()
            .filter(|line| {
                let mut words = line.split_whitespace();
                words.next() == Some(workload) && words.next() == Some(name.as_str())
            })
            .count();
        assert_eq!(printed, 1, "{workload}: one line for {name}");
    }
}

/// One test, not one per workload: the runs are heavy (a fleet holds
/// 2 GB) and must not overlap.
#[test]
fn every_workload_prints_every_metric_once() {
    let spec = benchmark_json();
    let end_to_end = metrics_of(&spec, "end_to_end");
    let per_layer = metrics_of(&spec, "per_layer");
    for w in array(&spec, "workloads") {
        let workload = string(w, "name");
        let untraced = run(workload, 1, 0);
        check_run(workload, &untraced, &end_to_end);
        let traced = run(workload, 1, 1);
        check_run(workload, &traced, &per_layer);
        let trace_file = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-");
        let spans = std::fs::read_to_string(format!("{trace_file}{workload}.json"))
            .expect("the traced run wrote its spans");
        let spans: Value = serde_json::from_str(&spans).expect("the span file is JSON");
        assert!(!array(&spans, "levels").is_empty());

        if workload.starts_with("mem_") {
            // The stage rows and the residual are one symbol's time:
            // the same quantity the untraced run reports, up to what a
            // one-second run on a shared host can differ by.
            let ledger: f64 = [
                "shard.offer_ns",
                "shard.outbound_pop_ns",
                "shard.route_ns",
                "shard.handoff_ns",
                "shard.delivered_pop_ns",
                "shard.poll_timers_ns",
                "harness.self_ns",
                "shard.unaccounted_ns",
            ]
            .iter()
            .map(|name| value_of(&traced.result, name))
            .sum();
            let end = value_of(&untraced.result, "ns_per_symbol");
            assert!(
                (0.5..2.0).contains(&(ledger / end)),
                "{workload}: ledger {ledger} ns against {end} ns per symbol"
            );
        }
        // The layer separation the workloads were chosen for.
        let hostile = workload == "mem_hostile";
        for name in ["reassembly.evicted_per_symbol", "shard.handoffs_per_symbol"] {
            if workload.starts_with("mem_") {
                let value = value_of(&traced.result, name);
                assert_eq!(value > 0.0, hostile, "{workload}: {name} = {value}");
            }
        }
        if workload == "mem_bulk" || workload == "mem_fleet" {
            // Exact counts follow the workload, not the seed.
            let other = run(workload, 2, 0);
            for name in ["wire_bytes_per_symbol", "delivered_ratio"] {
                assert_eq!(
                    value_of(&untraced.result, name),
                    value_of(&other.result, name),
                    "{workload}: {name} moved with the seed"
                );
            }
        }
    }
}
