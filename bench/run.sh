#!/usr/bin/env bash
# The one command of the end-to-end benchmark: builds bench/ (release,
# offline) and runs it. With no arguments: all six workloads, every answer
# checked, every metric printed by name, results under bench/out/.
#
#   bench/run.sh                                   all workloads, 15 s windows
#   bench/run.sh --workload put_sync --timed-s 5   one workload, shorter
#   bench/run.sh --compare A.json B.json           verdict per (workload, metric)
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json)
#
# See bench/README.md; `bench/run.sh --help` lists every flag.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against its working directory,
# which is about to become bench/; the caller meant their own.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi

# From inside bench/ so that bench/.cargo/config.toml (the target directory)
# applies. Cargo reports on standard error; standard output stays the
# benchmark's.
cd "$here"
cargo build --release --offline --quiet
target="$(cargo metadata --format-version 1 --offline --no-deps |
    sed -n 's/.*"target_directory":"\([^"]*\)".*/\1/p')"
cd "$OLDPWD"

case "${1:-}" in
    --compare | --merge | --self-test | --benchmark-json | --help | -h)
        exec "$target/release/e2e_bench" "$@"
        ;;
    *)
        exec "$target/release/e2e_bench" --out "$here/out" "$@"
        ;;
esac
