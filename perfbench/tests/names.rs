//! Self-test: every workload, at a tiny size, prints exactly the metric
//! names `BENCHMARK.json` declares — the end-to-end list untraced, the
//! per-layer list traced — and passes its own correctness checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough of JSON for these files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key at {}", self.i)
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing input");
    v
}

/// Metric name → unit, as `BENCHMARK.json` declares them under `section`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(items) = spec.get(section) else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|m| {
            let (Json::Str(name), Json::Str(unit)) = (m.get("name"), m.get("unit")) else {
                panic!("bad metric entry {m:?}")
            };
            (name.clone(), unit.clone())
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(items) = spec.get("workloads") else {
        panic!("workloads is not a list")
    };
    items
        .iter()
        .map(|w| match w.get("name") {
            Json::Str(n) => n.clone(),
            other => panic!("bad workload name {other:?}"),
        })
        .collect()
}

/// Runs the benchmark tiny, returning the result object on its last line.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    parse(stdout.lines().last().expect("a result line"))
}

fn check(workload: &str, trace: u8, section: &str) {
    let result = run(workload, trace);
    let Json::Obj(keys) = &result else {
        panic!("result is not an object")
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed"), &Json::Num(0.0));
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted is not a number")
    };
    assert!(*attempted >= 1.0);
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let printed: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Json::Num(_)),
                "{name} has no value"
            );
            let Json::Str(unit) = m.get("unit") else {
                panic!("{name} has no unit")
            };
            (name.clone(), unit.clone())
        })
        .collect();
    assert_eq!(
        printed.len(),
        metrics.len(),
        "{workload}: a metric printed twice"
    );
    assert_eq!(printed, declared(section), "{workload} --trace {trace}");
}

#[test]
fn declared_workloads_are_the_benchmarks() {
    assert_eq!(workloads(), ["replay_evdo", "flood_ctrlc", "idle_fleet"]);
}

#[test]
fn replay_evdo_prints_declared_metrics() {
    check("replay_evdo", 0, "end_to_end");
    check("replay_evdo", 1, "per_layer");
}

#[test]
fn flood_ctrlc_prints_declared_metrics() {
    check("flood_ctrlc", 0, "end_to_end");
    check("flood_ctrlc", 1, "per_layer");
}

#[test]
fn idle_fleet_prints_declared_metrics() {
    check("idle_fleet", 0, "end_to_end");
    check("idle_fleet", 1, "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
