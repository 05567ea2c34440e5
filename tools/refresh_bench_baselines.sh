#!/usr/bin/env sh
# One-command refresh of the committed perf baselines (bench/baselines/).
#
#   tools/refresh_bench_baselines.sh [BUILD_DIR]
#
# Rebuilds the benches, runs each one into a scratch directory, and adopts
# the results via `bench_compare --update`. Run this after an intentional
# perf change, commit the updated bench/baselines/*.json, and say in the PR
# why the numbers moved. BUILD_DIR defaults to ./build.
set -eu

repo="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
build="${1:-"$repo/build"}"

cmake --build "$build" -j --target \
  serve_throughput parallel_speedup audit_overhead scale exact bench_compare

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

"$build/bench/serve_throughput"  --out="$scratch/BENCH_serve.json" \
                                 --net-out="$scratch/BENCH_serve_net.json"
"$build/bench/audit_overhead"    --out="$scratch/BENCH_audit.json"
"$build/bench/parallel_speedup"  --out="$scratch/BENCH_parallel.json"
# The metro-scale run: ~10^5 nodes, 10^5 flows, about a second.
"$build/bench/scale"             --out="$scratch/BENCH_scale.json"
"$build/bench/exact"             --out="$scratch/BENCH_exact.json"

"$build/tools/bench_compare/bench_compare" \
  --baseline="$repo/bench/baselines" --current="$scratch" --update

echo "refreshed $repo/bench/baselines — review the diff and commit"
