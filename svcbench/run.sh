#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs one
# workload from the repository root:
#
#   bash svcbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark writes its logs, spans and per-seed counts to .bench_out.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin sustain-hpc >&2
cargo build --release --offline --quiet --manifest-path svcbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/svcbench" --server "$CARGO_TARGET_DIR/release/sustain-hpc" "$@"
