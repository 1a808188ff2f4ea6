#!/usr/bin/env bash
# Builds the release `busnet` binary and the benchmark from source, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a busnet checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin busnet >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/perfbench" --busnet "$target/release/busnet" "$@"
