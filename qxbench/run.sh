#!/usr/bin/env bash
# Builds the benchmark (and the daemon it drives) from source, then runs
# it with the given arguments. Run from the repository root:
#
#   bash qxbench/run.sh --workload exact_cold --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default qxbench/target); stdout
# carries only the benchmark's own lines.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet --offline --manifest-path qxbench/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-qxbench/target}/release/qxbench" "$@"
