#!/usr/bin/env bash
# The benchmark's one command. Builds the rjbench package from source
# (offline, locked), then runs it with the arguments given:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE] [--smoke]
#   benchmark/run.sh --compare A.jsonl B.jsonl
set -euo pipefail

# Kept as given (relative when called as `bash benchmark/run.sh`), so the
# table files named in SQL text stay short and free of odd characters.
here="$(dirname "${BASH_SOURCE[0]}")"

if [ -n "${RJ_FAULTS:-}" ]; then
    echo "run.sh: RJ_FAULTS is set; refusing to measure with failpoints armed" >&2
    exit 2
fi
# Executors are built with an explicit worker count; nothing may read this.
unset RJ_WORKERS

cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
export RJBENCH_HOME="$here"
exec "${CARGO_TARGET_DIR:-$here/target}/release/rjbench" "$@"
