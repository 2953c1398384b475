#!/usr/bin/env bash
# Release build, then every end-to-end metric (`run`), then the per-layer
# traced replay (`trace`). Both write benchmark/out/results.json; the trace
# files land beside it. Extra arguments (--seed N, --quick) go to both.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
"$bin" run "$@"
"$bin" trace "$@"
