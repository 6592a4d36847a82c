//! The benchmark's contract, checked from outside the binary:
//! `BENCHMARK.json` is what `src/spec.rs` generates and stays inside the
//! manifest's limits; every prediction names things that exist; a smoke
//! run emits exactly the declared metrics; the same seed repeats the same
//! simulation and another seed does not.

#[allow(dead_code)]
#[path = "../src/jsonx.rs"]
mod jsonx;
#[allow(dead_code)]
#[path = "../src/spec.rs"]
mod spec;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use mwn_runner::query::Json;

fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn manifest() -> Json {
    let text = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json at the repo root");
    Json::parse(text.trim()).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(j: &Json) -> Vec<&str> {
    j.fields().iter().map(|(k, _)| k.as_str()).collect()
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let committed = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json");
    assert_eq!(
        committed,
        spec::manifest_json(),
        "BENCHMARK.json drifted from src/spec.rs; regenerate it with `mwn-benchmark manifest`"
    );
}

#[test]
fn manifest_stays_inside_the_contract() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(std::fs::metadata(manifest_path()).unwrap().len() <= 64 * 1024);

    let command = m.get("command").and_then(Json::as_arr).unwrap();
    assert!((1..=32).contains(&command.len()));
    for c in command {
        let c = c.as_str().expect("command strings");
        assert!(
            c.len() <= 200 && !c.starts_with('/') && !c.contains(".."),
            "{c}"
        );
    }
    let paths = m.get("paths").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&paths.len()));
    let seconds = m.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));

    let workloads = m.get("workloads").unwrap();
    let n = workloads.as_arr().unwrap().len();
    assert!((2..=8).contains(&n), "{n} workloads");
    for w in workloads.as_arr().unwrap() {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    // The driver makes 4 + 22 × workloads runs inside 3420 s, two builds
    // (≈ 2 min each, cold) included; a run lasts at most `run_seconds`
    // plus one round (≈ 2 s) plus cargo's up-to-date check.
    let runs = 4 + 22 * n as u64;
    assert!(
        runs * (seconds + 5) + 2 * 300 <= 3420,
        "{runs} runs of {seconds} s overrun the cap"
    );

    let e2e = m.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for e in e2e {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
        assert!(is_unit(e.get("unit").and_then(Json::as_str).unwrap()));
        assert!(matches!(
            e.get("better").and_then(Json::as_str),
            Some("lower" | "higher")
        ));
        let bound = e.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let setup = e2e
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is mandatory");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let largest = e2e
        .iter()
        .map(|e| e.get("bound").and_then(Json::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

    let layers = m.get("per_layer").unwrap().as_arr().unwrap();
    assert!((1..=128).contains(&layers.len()));
    for l in layers {
        assert_eq!(keys(l), ["name", "unit", "better"]);
        assert!(is_unit(l.get("unit").and_then(Json::as_str).unwrap()));
        assert!(matches!(
            l.get("better").and_then(Json::as_str),
            Some("lower" | "higher")
        ));
    }

    let mut all: Vec<String> = Vec::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        all.extend(names(m.get(list).unwrap()));
    }
    for name in &all {
        assert!(is_name(name), "bad name {name:?}");
    }
    let unique: BTreeSet<&String> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}

#[test]
fn every_prediction_names_an_existing_metric_and_workload() {
    let e2e: Vec<&str> = spec::END_TO_END.iter().map(|e| e.name).collect();
    let workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    for l in spec::PER_LAYER {
        assert!(
            e2e.contains(&l.moves),
            "{} moves unknown metric {}",
            l.name,
            l.moves
        );
        assert!(!l.why.is_empty(), "{} has no rationale", l.name);
        if l.on != "all" {
            for w in l.on.split(',') {
                assert!(
                    workloads.contains(&w),
                    "{} names unknown workload {w}",
                    l.name
                );
            }
        }
    }
}

struct Smoke {
    fingerprint: String,
    result: Json,
}

fn smoke(workload: &str, seed: u64, trace: u8) -> Smoke {
    let results =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_mwn-benchmark"))
        .args(["run", "--workload", workload, "--smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--results")
        .arg(&results)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("result parses");
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .expect("a detail line");
    let detail = Json::parse(detail).expect("detail parses");
    if trace == 1 {
        let spans = std::fs::read_to_string(results.join(format!("trace-{workload}.jsonl")))
            .expect("the traced run writes its spans");
        assert!(spans.lines().count() > 10);
        let first = Json::parse(spans.lines().next().unwrap()).expect("span lines parse");
        assert_eq!(
            keys(&first),
            ["id", "parent", "name", "workload", "run", "start_ns", "end_ns"]
        );
    }
    Smoke {
        fingerprint: detail
            .get("sim_fingerprint")
            .and_then(Json::as_str)
            .expect("a fingerprint")
            .to_string(),
        result,
    }
}

#[test]
fn smoke_runs_emit_the_declared_metrics_and_repeat_per_seed() {
    for w in &spec::WORKLOADS {
        let untraced = smoke(w.name, 1, 0);
        let traced = smoke(w.name, 1, 1);
        for (run, declared) in [
            (
                &untraced,
                spec::END_TO_END
                    .iter()
                    .map(|e| (e.name, e.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                &traced,
                spec::PER_LAYER
                    .iter()
                    .map(|l| (l.name, l.unit))
                    .collect::<Vec<_>>(),
            ),
        ] {
            assert_eq!(
                keys(&run.result),
                ["correct", "attempted", "failed", "metrics"]
            );
            assert_eq!(
                run.result.get("correct"),
                Some(&Json::Bool(true)),
                "{}",
                w.name
            );
            assert_eq!(run.result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(run.result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let metrics = run.result.get("metrics").unwrap();
            let emitted: Vec<&str> = keys(metrics);
            let expected: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
            assert_eq!(
                emitted, expected,
                "{}: metric set differs from the declaration",
                w.name
            );
            for (name, unit) in declared {
                let m = metrics.get(name).unwrap();
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no number"
                );
            }
        }
        for e in &spec::END_TO_END {
            let v = untraced
                .result
                .path(&["metrics", e.name, "value"])
                .and_then(Json::as_f64);
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{} {} must never be 0",
                w.name,
                e.name
            );
        }
        // Tracing observes; it must not perturb.
        assert_eq!(untraced.fingerprint, traced.fingerprint, "{}", w.name);
        assert_eq!(
            smoke(w.name, 1, 0).fingerprint,
            untraced.fingerprint,
            "{}",
            w.name
        );
        assert_ne!(
            smoke(w.name, 2, 0).fingerprint,
            untraced.fingerprint,
            "{}",
            w.name
        );
    }
}
