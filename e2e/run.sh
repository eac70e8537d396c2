#!/usr/bin/env bash
# Builds the end-to-end benchmark (the repository's `qsv` plus the `e2e`
# program, Release) into .bench_build/e2e and runs the program:
#
#   bash e2e/run.sh --workload run_local --seed 1 --seconds 15 --trace 0
#   bash e2e/run.sh compare A.jsonl B.jsonl
#
# The build log goes to .bench_build/e2e/build.log, so standard output
# carries only the program's report, whose last line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build/e2e
mkdir -p "$build"
log="$build/build.log"
if ! {
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S e2e -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target e2e -j "$(nproc)"
} >"$log" 2>&1; then
  echo "e2e: build failed; the end of $log:" >&2
  tail -n 30 "$log" >&2
  exit 3
fi
exec "$build/e2e" "$@"
