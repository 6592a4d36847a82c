//! Pins the `mwn trace` CLI contract that downstream tooling (JSONL
//! consumers, shell pipelines) relies on.

use std::process::Command;

use mwn_runner::query::Json;

fn mwn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mwn"))
        .args(args)
        .output()
        .expect("spawn mwn")
}

/// JSONL output is line-oriented: every record is one line and the
/// stream ends with exactly one trailing newline, so `wc -l`, `jq` and
/// appending streams all see clean record boundaries.
#[test]
fn trace_jsonl_ends_with_exactly_one_trailing_newline() {
    let out = mwn(&[
        "trace", "--hops", "1", "--events", "20", "--format", "jsonl",
    ]);
    assert!(out.status.success(), "trace failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(!stdout.is_empty());
    assert!(stdout.ends_with('\n'), "missing trailing newline");
    assert!(!stdout.ends_with("\n\n"), "more than one trailing newline");
    for line in stdout.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line:?}"
        );
    }
}

/// Unknown transport variants are a usage error: exit code 2 with a
/// diagnostic on stderr, nothing on stdout.
#[test]
fn trace_unknown_transport_exits_2() {
    let out = mwn(&["trace", "--transport", "carrier-pigeon"]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        !stdout.lines().any(|l| l.starts_with('{')),
        "usage errors must not emit records"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.contains("carrier-pigeon"),
        "diagnostic should name the bad variant: {stderr}"
    );
}

/// Bad arguments are usage errors on every subcommand: exit code 2 (never
/// a panic's 101), the reason on stderr, and nothing but the usage text on
/// stdout — no run started. `--shards` is here because the within-run
/// sharded engine it selected is gone; it must be rejected, not ignored.
/// So are `run`'s old `--mbits`/`--variant`: it reads `--rate` and
/// `--transport`, like `stats`. A zero count is refused, not run once,
/// and `--hops` off the chain is refused, not ignored, as is `repro
/// --metrics` without a store to keep the metrics in.
#[test]
fn bad_arguments_exit_2_before_anything_runs() {
    let usage = mwn(&["--help"]).stdout;
    let shards = "unrecognized argument \"--shards\"";
    let scale = "--scale must be at least 1";
    let hops = "--hops applies only to --topology chain";
    let table: [(&[&str], &str); 18] = [
        (
            &["run", "--mbits", "2"],
            "unrecognized argument \"--mbits\"",
        ),
        (
            &["run", "--variant", "vegas"],
            "unrecognized argument \"--variant\"",
        ),
        (&["repro", "fig10", "--shards", "2"], shards),
        (&["repro", "fig4", "--metrics"], "--metrics needs --out"),
        (&["run", "--shards", "2"], shards),
        (&["check", "--suite", "fast", "--shards", "2"], shards),
        (&["bench", "--quick", "--shards", "2"], shards),
        (&["traffic", "--shards", "2"], shards),
        (&["traffic", "--flows", "0"], "max_flows must be positive"),
        (
            &["traffic", "--deadline", "18446744074"],
            "--deadline must be at most 18446744073",
        ),
        (&["run", "--scale", "0"], scale),
        (&["stats", "--scale", "0"], scale),
        (&["trace", "--rate", "3"], "unsupported bandwidth \"3\""),
        (
            &["traffic", "--transport", "bogus"],
            "unknown variant \"bogus\"",
        ),
        (&["traffic", "--reps", "0"], "--reps must be at least 1"),
        (&["bench", "--repeat", "0"], "--repeat must be at least 1"),
        (&["run", "--topology", "grid", "--hops", "3"], hops),
        (&["stats", "--topology", "random", "--hops", "9"], hops),
    ];
    for (args, reason) in table {
        let out = mwn(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(out.stdout == usage, "{args:?} printed more than usage");
    }
}

/// `mwn traffic --json` is JSONL: one parsable object per replication,
/// carrying the seed, both digests, the outcome and the run report with
/// its traffic sections.
#[test]
fn traffic_json_prints_one_report_object_per_replication() {
    let out = mwn(&[
        "traffic", "--nodes", "6", "--flows", "20", "--reps", "2", "--json",
    ]);
    assert!(out.status.success(), "traffic failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one line per replication:\n{stdout}");
    for (line, seed) in lines.into_iter().zip(1u64..) {
        let row = Json::parse(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
        assert_eq!(row.get("seed").and_then(Json::as_u64), Some(seed));
        assert_eq!(
            row.get("outcome").and_then(Json::as_str),
            Some("TargetReached")
        );
        for key in ["journal", "arrivals"] {
            assert!(
                row.get(key).and_then(Json::as_str).is_some(),
                "{key}: {line}"
            );
        }
        let report = row.get("report").expect("report");
        for key in ["fct", "drops", "retired_tcp"] {
            assert!(report.get(key).is_some(), "report lacks {key}: {line}");
        }
    }
}

/// A baseline file reformatted by a JSON tool (one key per line) no
/// longer holds its entries one per line. `mwn bench --record` must
/// refuse before running anything and leave the file byte for byte as it
/// was, instead of rewriting it with the new entry alone.
#[test]
fn bench_record_refuses_a_reformatted_baseline() {
    let path = std::env::temp_dir().join(format!("mwn-bench-pretty-{}.json", std::process::id()));
    let pretty = "{\n  \"schema\": \"mwn-bench-engine/1\",\n  \"entries\": [\n    {\n      \
                  \"label\": \"a\",\n      \"scenarios\": []\n    },\n    {\n      \
                  \"label\": \"b\",\n      \"scenarios\": []\n    }\n  ]\n}\n";
    std::fs::write(&path, pretty).expect("write baseline");
    let out = mwn(&[
        "bench",
        "--record",
        "c",
        "--out",
        path.to_str().expect("utf-8 path"),
    ]);
    let after = std::fs::read_to_string(&path).expect("read baseline");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.contains("entries are not one per line; refusing to rewrite 2 entries"),
        "{stderr}"
    );
    assert_eq!(after, pretty, "the baseline was rewritten");
}

/// A run that fails after its arguments were accepted is not a usage
/// error: exit code 2 and the reason on stderr, but no usage text. A
/// store in a directory that does not exist fails when the run opens
/// its journal, before any job runs.
#[test]
fn run_failures_exit_2_without_the_usage_text() {
    let dir = std::env::temp_dir().join(format!("mwn-missing-{}", std::process::id()));
    let out = dir.join("r.jsonl");
    let out = mwn(&["repro", "fig4", "--out", out.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.contains("results store") && stderr.contains("r.jsonl"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "stdout: {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!dir.exists(), "the run created {dir:?}");
}

/// `mwn report` names a store it cannot open, for `--store` and `--diff`
/// alike, rather than calling it empty: a failed run, exit 2, no usage
/// text.
#[test]
fn report_names_a_store_it_cannot_open() {
    let missing = std::env::temp_dir().join(format!("mwn-no-store-{}.jsonl", std::process::id()));
    let missing = missing.to_str().expect("utf-8 path");
    let store = std::env::temp_dir().join(format!("mwn-report-{}.jsonl", std::process::id()));
    let row = r#"{"type":"result","key":"k","group":"g","point":"p","spec":"chain:h1|newreno","seed":1,"status":"done"}"#;
    std::fs::write(&store, format!("{row}\n")).expect("write a one-row store");
    let store_arg = store.to_str().expect("utf-8 path");
    for args in [
        vec!["report", "--store", missing],
        vec!["report", "--store", store_arg, "--diff", missing],
    ] {
        let out = mwn(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(
            stderr.contains("cannot open") && stderr.contains(missing),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    std::fs::remove_file(&store).expect("remove the store");
}
