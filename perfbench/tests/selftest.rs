//! Self-tests of the benchmark: every workload, shrunk to a handful of
//! operations with `--tiny`, must emit exactly the metrics
//! `BENCHMARK.json` names, with their units and sample counts, and pass
//! every correctness check; a doctored expectation must fail the run.

use pospec_json::Value;
use std::process::{Command, Output};

const WORKLOADS: &[&str] = &["paper-matrix", "network-batch", "edit-loop", "serve-mix"];

/// `(name, unit)` of every metric of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = pospec_json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("the benchmark runs")
}

/// The result line, and the `metric … (n=…)` lines, of one run.
fn result(out: &Output) -> (Value, String) {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("").to_string();
    let v = pospec_json::parse(&last)
        .unwrap_or_else(|e| panic!("last line is not JSON ({e}): {stdout}"));
    (v, stdout)
}

fn metric_values(v: &Value) -> Vec<(String, f64, String)> {
    let Some(Value::Obj(fields)) = v.get("metrics") else { panic!("no metrics object") };
    fields
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit").to_string();
            (k.clone(), value, unit)
        })
        .collect()
}

fn assert_complete(workload: &str, trace: bool) -> Vec<(String, f64, String)> {
    let out = run(workload, 3, trace, &[]);
    let (v, stdout) = result(&out);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0), "{workload}: fail_frac must be 0");
    assert!(v.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let got = metric_values(&v);
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got_names: Vec<(String, String)> =
        got.iter().map(|(k, _, u)| (k.clone(), u.clone())).collect();
    assert_eq!(got_names, want, "{workload}: metric names and units");
    for (name, unit) in &want {
        let line = format!("metric {name} = ");
        let shown = stdout
            .lines()
            .find(|l| l.starts_with(&line))
            .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
        assert!(
            shown.contains(&format!(" {unit} (n=")),
            "{workload}: unit and sample count of {name}: {shown}"
        );
    }
    assert!(stdout.contains("fail_frac = 0 ("), "{workload}: fail_frac line");
    if !trace {
        for (name, value, _) in &got {
            assert!(*value > 0.0, "{workload}: end-to-end metric {name} is {value}");
        }
    }
    got
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_complete(w, false);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for w in WORKLOADS {
        let got = assert_complete(w, true);
        let un =
            got.iter().find(|(k, _, _)| k == "bench.unattributed_ms").expect("unattributed time");
        assert!(un.1 >= 0.0, "{w}: unattributed time");
    }
}

/// Counts that depend on how the server's queue met the two clients'
/// timing, and so may differ between runs.
const TIMING_COUNTS: &[&str] = &["serve.overloaded", "serve.queue_depth_max"];

#[test]
fn counts_repeat_across_runs_of_one_seed() {
    for w in WORKLOADS {
        let counts = |out: Output| -> Vec<(String, f64)> {
            assert!(out.status.success(), "{w}: {}", String::from_utf8_lossy(&out.stderr));
            metric_values(&result(&out).0)
                .into_iter()
                .filter(|(k, _, unit)| unit == "count" && !TIMING_COUNTS.contains(&k.as_str()))
                .map(|(k, v, _)| (k, v))
                .collect()
        };
        let a = counts(run(w, 5, true, &[]));
        let b = counts(run(w, 5, true, &[]));
        assert!(a.iter().any(|(_, v)| *v > 0.0), "{w}: some count is recorded");
        assert_eq!(a, b, "{w}: counts must repeat exactly for one seed");
    }
}

#[test]
fn a_doctored_expectation_fails_the_run() {
    for w in WORKLOADS {
        let out = run(w, 3, false, &["--doctor"]);
        let (v, stdout) = result(&out);
        assert_eq!(out.status.code(), Some(1), "{w}: a mismatch must exit 1\n{stdout}");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false), "{w}");
        let failed = v.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let attempted = v.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        assert!(failed > 0 && failed <= attempted, "{w}: fail_frac above 0 ({failed}/{attempted})");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in
        [&["--workload", "nope"][..], &["--workload", "edit-loop", "--trace", "2"][..], &[][..]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result line");
    }
}
