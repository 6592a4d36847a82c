//! Pins the `mwn trace` CLI contract that downstream tooling (JSONL
//! consumers, shell pipelines) relies on.

use std::process::Command;

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
#[test]
fn bad_arguments_exit_2_before_anything_runs() {
    let usage = mwn(&["--help"]).stdout;
    let shards = "unrecognized argument \"--shards\"";
    let scale = "--scale must be at least 1";
    let table: [(&[&str], &str); 9] = [
        (&["repro", "fig10", "--shards", "2"], shards),
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
    ];
    for (args, reason) in table {
        let out = mwn(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(out.stdout == usage, "{args:?} printed more than usage");
    }
}
