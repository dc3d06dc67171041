#!/usr/bin/env bash
# Builds the benchmark and the sam_serviced daemon from this checkout,
# offline, then runs the benchmark with the given arguments. Run from the
# root of the checkout:
#
#   bash scanbench/run.sh --workload svc_rtt --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout. Build artifacts land in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet -p sam-service --bin sam_serviced >&2
cargo build --release --offline --locked --quiet --manifest-path scanbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/scanbench" "$@"
