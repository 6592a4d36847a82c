#!/usr/bin/env bash
# Equivalence against a parent revision. Builds REV (default HEAD~)
# offline in a git worktree under target/parent, builds this tree, runs
# the same simulations with both, and prints `identical` — or, for each
# output that differs, its name and first differing lines (exit 1).
#
#   scripts/parent.sh [REV]
#
# The set, each compared byte for byte:
#   * `mwn repro all --scale 1 --jobs 1`, as text and as --csv;
#   * the store of `mwn repro fig4 --out`, with and without --metrics,
#     from line 2 (line 1 is the run manifest: wall clock, worker count,
#     commit);
#   * `mwn check --suite full`, without --bless;
#   * the benchmark's (bench/) sim_fingerprint on each of its workloads.
#
# About ten minutes on two cores, most of it `repro all`. The parent's
# binaries stay in target/parent/target and target/parent/bench/target;
# outputs go to target/parent-compare.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-HEAD~}
here=$PWD
parent=$here/target/parent
out=$here/target/parent-compare
sha=$(git rev-parse --verify "$rev^{commit}")
# Each tree builds into its own target directory.
unset CARGO_TARGET_DIR

if [ -e "$parent/.git" ]; then
    git -C "$parent" checkout -q --detach "$sha"
else
    mkdir -p "$here/target"
    git worktree add -q --detach "$parent" "$sha"
fi
for tree in "$parent" "$here"; do
    echo "==> building $tree (release, offline)" >&2
    cargo build --release --offline -q --manifest-path "$tree/Cargo.toml"
    cargo build --release --offline -q --manifest-path "$tree/bench/Cargo.toml"
done
rm -rf "$out"
mkdir -p "$out"

# run NAME ARGS...: `mwn ARGS` in each tree, stdout to NAME.{parent,this}.
# A `@` in ARGS stands for the side's own scratch file.
run() {
    local name=$1 side tree
    shift
    for side in parent this; do
        tree=$here
        [ "$side" = parent ] && tree=$parent
        echo "==> $name ($side)" >&2
        (cd "$tree" && "$tree/target/release/mwn" "${@/#@/$out/$name.$side.store}") \
            >"$out/$name.$side" 2>/dev/null
    done
}

run repro-text repro all --scale 1 --jobs 1
run repro-csv repro all --scale 1 --jobs 1 --csv
run store repro fig4 --jobs 1 --out @
run store-metrics repro fig4 --metrics --jobs 1 --out @
run check check --suite full --jobs 1
for name in store store-metrics; do
    for side in parent this; do
        tail -n +2 "$out/$name.$side.store" >"$out/$name.$side"
    done
done
for workload in chain-steady city-mobile churn-open paper-sweep; do
    for side in parent this; do
        tree=$here
        [ "$side" = parent ] && tree=$parent
        echo "==> fingerprint $workload ($side)" >&2
        (cd "$tree" && bench/target/release/mwn-benchmark run --workload "$workload" \
            --seed 1 --seconds 1 --trace 0 2>/dev/null) |
            grep -o 'sim_fingerprint [0-9a-f]*' | head -1 >"$out/fingerprint-$workload.$side"
    done
done

same=1
for this in "$out"/*.this; do
    name=$(basename "$this" .this)
    if [ ! -s "$this" ]; then
        same=0
        echo "$name: no output"
    elif ! cmp -s "$out/$name.parent" "$this"; then
        same=0
        echo "$name differs (< parent, > this):"
        diff "$out/$name.parent" "$this" | head -n 12 || true
    fi
done
if [ "$same" = 1 ]; then
    echo identical
else
    exit 1
fi
