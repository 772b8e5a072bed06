#!/usr/bin/env bash
# Entry point of the repository benchmark (see BENCHMARK.json): builds the
# served binary and the benchmark from source into one target directory,
# then runs the benchmark with the arguments given.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p astore-server --bin astore-serve >&2
cargo build --release --offline --quiet --manifest-path repobench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/repobench" "$@"
