#!/usr/bin/env bash
# Local CI gate: formatting, lints (best-effort), build and the tier-1
# test suite. Everything runs offline — the workspace has no registry
# dependencies (proptest is a vendored path crate).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The parent-equivalence harness is run by hand (it builds a second
# tree); CI only checks that it parses.
echo "==> bash -n scripts/parent.sh"
bash -n scripts/parent.sh

# Clippy is best-effort: not every toolchain installation ships it, and
# the gate must stay runnable offline. When present, warnings are errors.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --locked --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lints"
fi

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="--deny warnings" cargo doc --locked --workspace --no-deps --quiet

# Both workspaces build `--locked` (as clippy and rustdoc above do): a
# manifest change that would rewrite a committed Cargo.lock (the root
# one, or bench/'s frozen one) fails here instead of leaving the
# lockfile silently out of date.
echo "==> cargo build --release --locked"
cargo build --release --locked

# The fixed benchmark under bench/ is a workspace of its own that the
# build above never compiles; it calls the crates' public API, so a
# change that breaks it fails here, before any test runs.
echo "==> cargo build --release --locked --manifest-path bench/Cargo.toml"
cargo build --release --locked --manifest-path bench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

# Cross-layer invariants + golden-trace conformance on the four fast
# canonical scenarios (three persistent-flow cases plus the open-loop
# traffic case), plus a 32-case scenario-fuzz smoke. Budget: the fast
# suite runs in well under a second and the fuzz cases a few seconds
# total in release; the whole step stays under ~10 s.
echo "==> mwn check --suite fast --fuzz 32"
cargo run --release -q -p mwn-cli -- check --suite fast --fuzz 32

# All 12 committed digests, plus the determinism repeat: every case run
# a second time, digest lines and traffic journals compared.
echo "==> mwn check --suite full (12 goldens + determinism repeat)"
cargo run --release -q -p mwn-cli -- check --suite full --jobs 0

# Open-loop traffic determinism: the same finite-flow workload must
# print byte-identical reports — journal and arrival digests included —
# for any worker count, as text and as JSON Lines. Two replications, one
# vs four workers.
echo "==> mwn traffic determinism (--jobs 1 vs --jobs 4, text and --json)"
for format in "" "--json"; do
    t1=$(cargo run --release -q -p mwn-cli -- traffic --nodes 10 --flows 300 --profile web --reps 2 --jobs 1 $format)
    t4=$(cargo run --release -q -p mwn-cli -- traffic --nodes 10 --flows 300 --profile web --reps 2 --jobs 4 $format)
    if [ "$t1" != "$t4" ]; then
        echo "error: mwn traffic ${format:-text} output differs across --jobs" >&2
        diff <(printf '%s\n' "$t1") <(printf '%s\n' "$t4") >&2 || true
        exit 1
    fi
done

# One instrumented run through the report's text renderer: `mwn stats`
# must print the drop ledger, a balanced conservation audit, the event
# queue's schedules per delivered packet, the medium's one-shot
# list fills beside its stored builds and rebuilds, the one timed
# bucket for the medium's transmission-time scans and sorts, the
# radio batches that quiet MACs were spared, and the radio bytes per node
# with the radios' overflow-store peak.
echo "==> mwn stats --hops 4 (run report smoke)"
stats_out=$(cargo run --release -q -p mwn-cli -- stats --hops 4 2>/dev/null)
for expected in "^drop ledger — " "^conservation audit: conservation holds" "^  schedules/packet " \
    "^  medium sorts  *[0-9]*  (= [0-9]* builds + [0-9]* rebuilds) + [0-9]* one-shot$" \
    "^  medium_lazy  *[0-9]* calls" "^  bystander batches absorbed [0-9]* of [0-9]*$" \
    "^  radio bytes/node  *[0-9]*  overflow peak [0-9]* signals$"; do
    grep -q "$expected" <<<"$stats_out" || {
        echo "error: mwn stats printed no line matching '$expected'" >&2; exit 1; }
done
# `mwn run`'s estimate and the report's steady-state mean are one
# computation over the same batches: the two must print the same value.
run_drop=$(cargo run --release -q -p mwn-cli -- run --hops 4 --transport newreno 2>/dev/null |
    sed -n 's/^link-layer drop prob *//p')
stats_drop=$(sed -n 's/^  steady-state mean (batch-means over measured batches): //p' <<<"$stats_out")
if [ -z "$run_drop" ] || [ "$run_drop" != "$stats_drop" ]; then
    echo "error: mwn run drop prob '$run_drop' != mwn stats steady-state mean '$stats_drop'" >&2
    exit 1
fi

# Paper reproduction smoke: one figure through `mwn repro`, its nine jobs
# on the one job pool, must exit 0, print its CSV header, and print the
# same bytes on one worker as on two. About 5 s at quick scale.
echo "==> mwn repro fig4 --csv (--jobs 1 vs --jobs 2)"
repro_csv=$(cargo run --release -q -p mwn-cli -- repro fig4 --scale 1 --jobs 1 --csv 2>/dev/null)
sed -n 2p <<<"$repro_csv" | grep -qx "Mbit/s,Vegas_a=2,Vegas_a=2_ci95,Vegas_a=3,Vegas_a=3_ci95,Vegas_a=4,Vegas_a=4_ci95" || {
    echo "error: mwn repro fig4 --csv header mismatch" >&2; exit 1; }
repro_csv2=$(cargo run --release -q -p mwn-cli -- repro fig4 --scale 1 --jobs 2 --csv 2>/dev/null)
if [ "$repro_csv" != "$repro_csv2" ]; then
    echo "error: mwn repro fig4 --csv output differs across --jobs" >&2
    diff <(printf '%s\n' "$repro_csv") <(printf '%s\n' "$repro_csv2") >&2 || true
    exit 1
fi

# The one study whose fold pools replicates (three layouts per speed) and
# the only CI run of mobility with ELFN through `mwn repro`. About 10 s at
# quick scale.
echo "==> mwn repro ext-elfn --csv"
repro_csv=$(cargo run --release -q -p mwn-cli -- repro ext-elfn --scale 1 --csv 2>/dev/null)
sed -n 2p <<<"$repro_csv" | grep -qx "m/s,NewReno,NewReno_ci95,NewReno_+ELFN,NewReno_+ELFN_ci95,Vegas,Vegas_ci95,Vegas_+ELFN,Vegas_+ELFN_ci95" || {
    echo "error: mwn repro ext-elfn --csv header mismatch" >&2; exit 1; }

# Store analytics smoke: one instrumented figure kept in a store must
# aggregate through `mwn report` in table, CSV and self-diff modes. Uses
# a temp store so reruns start clean. About 1 s on two cores.
echo "==> mwn report smoke (repro fig4 --metrics --out -> report/--csv/--diff)"
report_store=$(mktemp -t mwn-report-XXXXXX.jsonl)
rm -f "$report_store"
repro_first=$(cargo run --release -q -p mwn-cli -- repro fig4 --metrics --jobs 0 --out "$report_store" 2>/dev/null)
# Resume smoke: the same command on the same store runs nothing and
# prints the same bytes, folded from the stored rows.
repro_err=$(mktemp -t mwn-repro-err-XXXXXX)
repro_again=$(cargo run --release -q -p mwn-cli -- repro fig4 --metrics --jobs 0 --out "$report_store" 2>"$repro_err")
if [ "$repro_first" != "$repro_again" ]; then
    echo "error: mwn repro fig4 resumed from its store printed different bytes" >&2
    diff <(printf '%s\n' "$repro_first") <(printf '%s\n' "$repro_again") >&2 || true
    exit 1
fi
grep -q "0 ran, 9 resumed" "$repro_err" || {
    echo "error: mwn repro fig4 rerun on its store did not resume all nine jobs" >&2
    cat "$repro_err" >&2; exit 1; }
rm -f "$repro_err"
report_out=$(cargo run --release -q -p mwn-cli -- report --store "$report_store" 2>/dev/null)
grep -q "drop ledger by reason" <<<"$report_out" || {
    echo "error: mwn report did not render a drop ledger" >&2; exit 1; }
# Capture before grepping: under pipefail, `grep -q` closing the pipe
# early would kill the report process with SIGPIPE and fail the step.
report_csv=$(cargo run --release -q -p mwn-cli -- report --store "$report_store" --csv 2>/dev/null)
head -1 <<<"$report_csv" | grep -q "^scenario,variant,load,reps,goodput_kbps" || {
    echo "error: mwn report --csv header mismatch" >&2; exit 1; }
report_diff=$(cargo run --release -q -p mwn-cli -- report --store "$report_store" --diff "$report_store" 2>/dev/null)
grep -q "0.0" <<<"$report_diff" || {
    echo "error: mwn report --diff of a store against itself is not a zero delta" >&2; exit 1; }
rm -f "$report_store"

# Fault injection: the planted-bug hooks (`fault_*` in MacParams,
# AodvConfig and TcpConfig) exist only under `cfg(test)` or the `oracle`
# feature, which mwn-check's dev-dependencies turn on through `mwn`.
# The EIFS-skip and cwnd-overshoot faults must trip their trace rules
# (crates/check/tests/faults.rs); the leak/double-free/TTL faults must
# trip the `conservation` rule and the violation must carry the
# flight-recorder dump (crates/check/tests/conservation.rs).
echo "==> fault injection (invariant rules, conservation audit, flight-recorder dump)"
cargo test --release -q -p mwn-check --test faults --test conservation

# Oracle differentials, in release so the gate exercises the exact build
# CI benchmarks below. The oracles (ReferenceMedium, ReferenceTransceiver,
# ReferenceEventQueue) exist only under each crate's `oracle` feature.
# Medium: the whole
# mwn-phy crate (its unit tests too, so the lazy-construction tests and
# the release-mode `effects_of` assertion run in this build): grid vs
# dense all-pairs, incremental moves (outside the grid's build-time box
# too) and lists first built at any epoch included, every refreshed list
# in arrival order, plus the random-waypoint trajectory differential.
# Radios: `radio_differential`, the slot table (several nodes sharing one
# overflow store) against the list-based ReferenceTransceiver on random
# signal/transmission sequences, with capture at 10x, at 2.5x and off.
# Event queue: ordered list vs binary heap on the engine's
# schedule/cancel/pop mix, plus a deterministic case 20 000 events deep.
echo "==> medium and event queue differentials (proptest + mobility trajectories)"
cargo test --release -q -p mwn-phy --features oracle
cargo test --release -q -p mwn-check --test medium_mobility
cargo test --release -q -p mwn-sim --features oracle --test wheel_differential

# Component sweep: `Topology::is_connected` and
# `largest_component_fraction`, one cell-ordered sweep, against an O(n²)
# union-find. Runs in release so the 5 000-node field (city density) is
# enabled; debug builds cap the proptest at 500 nodes.
echo "==> topology component differential (cell-ordered sweep vs union-find)"
cargo test --release -q -p mwn --test topology_differential

# Lazy epoch-stamped medium: the lazy-vs-dense-oracle differential
# proptest (random-waypoint mobility, refreshed lists compared against
# ReferenceMedium) plus the lazy-vs-eager network digest A/B. Runs in
# release so the 5 000-node scale tier is enabled (debug builds cap the
# proptest at 500 nodes).
echo "==> lazy medium differential (oracle proptest + eager/lazy digest A/B)"
cargo test --release -q -p mwn-check --test lazy_medium

# Signal waves: the in-place walk of a transmission's receiver list
# must be exactly the one-event-per-receiver schedule it replaced —
# differential against the yield-after-every-receiver oracle (static,
# mobile and open-loop specs), stop-point slicing, mobility ticks
# between a frame's two walks. Every case also runs against the eager-NAV
# oracle (parked NAV timers queued after all), and the two cases of a NAV
# woken inside a walked segment — one found in a 50-node field, one
# hand-built in the cascade's unit tests — run here in release, where a
# missing floor check shows as a clock running backwards rather than as
# a debug assertion.
echo "==> wave walk differential (inline walk vs one event per receiver, dormant vs eager NAV)"
cargo test --release -q -p mwn-check --test wave_walk
cargo test --release -q -p mwn --lib network::cascade

# Engine regression gate: the quick scenario subset against the
# committed BENCH_engine.json baseline, failing when a case's wall time
# is >20% slower (delivery targets are fixed per case; events/sec is
# printed but not gated — it falls whenever one event does more work),
# its events per delivered packet grew by more than 1%, or its medium
# effect-list builds or rebuilds grew at all. The last three are pure
# functions of the code and scenario, the same on every host, so they
# gate exactly.
# The quick subset includes random200-mobility, which doubles as
# the large-topology spatial-grid smoke (200 nodes, incremental
# move_nodes on every mobility tick). Wall-clock dependent: best-of-5
# absorbs transient host contention, and loaded or throttled machines
# can set MWN_BENCH_SKIP=1 to bypass the gate entirely.
if [ "${MWN_BENCH_SKIP:-0}" = "1" ]; then
    echo "==> mwn bench skipped (MWN_BENCH_SKIP=1)"
else
    echo "==> mwn bench --quick --check"
    cargo run --release -q -p mwn-cli -- bench --quick --check --repeat 5

    # City-scale smoke: one pass of the 5k-node mobility case (flat
    # per-node state + expanding-ring AODV). Single run, no --check —
    # the point is that the engine completes the city tier at all and
    # reports bytes/node, not a tight wall-clock gate.
    echo "==> mwn bench --case random5k (city-scale smoke)"
    cargo run --release -q -p mwn-cli -- bench --case random5k

    # Mobile city smoke: the 20k-node full-field mobility case, feasible
    # only with the lazy epoch-stamped medium (tick is O(moved nodes),
    # rebuilds deferred to transmission time). Single run, no --check.
    echo "==> mwn bench --case random20k-mobility (lazy-medium smoke)"
    cargo run --release -q -p mwn-cli -- bench --case random20k-mobility
fi

# The fixed benchmark (bench/, a workspace of its own that tier-1 never
# builds): its contract tests and a ÷50 smoke of every workload, so a
# crate API change that breaks the instrument fails here rather than in
# the driver. The smoke checks outputs (goldens, conservation,
# fingerprints), not speed, so it is not skipped with the gate above.
echo "==> bench/ contract tests + smoke run"
cargo test -q --manifest-path bench/Cargo.toml
cargo run --release --quiet --manifest-path bench/Cargo.toml -- run --smoke

echo "CI gate passed."
