#!/usr/bin/env bash
# Builds the fpm daemons and the benchmark from this checkout, then runs
# the benchmark with the given arguments, from the checkout's root:
#   bash perfbench/run.sh --workload hot-plans --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml \
  -p fpm-perfbench -p fpm-cli --bins >&2
exec "$CARGO_TARGET_DIR/release/fpm-perfbench" \
  --fpm "$CARGO_TARGET_DIR/release/fpm-cli" --out "$CARGO_TARGET_DIR/perfbench" "$@"
