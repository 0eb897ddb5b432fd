#!/usr/bin/env bash
# Builds the benchmark and the qaoa-serve binary from source into
# .bench_build, then runs the benchmark with the given arguments, e.g.
#
#   bash bench/suite/run.sh --workload paper-compile --seed 1 --seconds 10 --trace 0
#
# Run from anywhere; it works from the root of the source tree it sits
# in.  Build output goes to stderr so the benchmark's last stdout line
# stays its result.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --build-dir .bench_build --profile release --cache=disabled \
  bench/suite/main.exe bin/qaoa_serve_cli.exe >&2
exec .bench_build/default/bench/suite/main.exe "$@"
