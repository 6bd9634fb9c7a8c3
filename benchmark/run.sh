#!/usr/bin/env bash
# The benchmark's one command. Builds the package, then either
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of stdout is the result
#       object (this is what BENCHMARK.json's "command" runs), or
#
#   run.sh [--sets N] [--seed N] [--smoke]
#       every workload, each run in a fresh process, every metric printed
#       by name with its unit (see harness.py --help).
#
# Run it from the root of the checkout.
set -euo pipefail

here=$(dirname "${BASH_SOURCE[0]}")
target=${CARGO_TARGET_DIR:-$here/target}

# Cargo's messages go to stderr so that stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/pipeline-bench

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --work-dir "$here/work" "$@"
    fi
done
exec python3 "$here/harness.py" --bin "$bin" --work-dir "$here/work" "$@"
