#!/usr/bin/env bash
# Builds sketchd and perfbench from this checkout, then runs one
# benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
# With two or more CPUs allowed, sketchd is pinned to the first and the
# load process to the second, so the load never runs on the server's CPU.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sketchd" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/sketchd here)" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin"
go build -o "$out/bin/sketchd" ./cmd/sketchd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

cpus=()
allowed=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)
IFS=, read -ra parts <<<"$allowed"
for p in "${parts[@]}"; do
	if [[ $p == *-* ]]; then
		for ((c = ${p%-*}; c <= ${p#*-}; c++)); do cpus+=("$c"); done
	else
		cpus+=("$p")
	fi
done
args=(--sketchd "$out/bin/sketchd" --work "$out/run")
if ((${#cpus[@]} >= 2)) && command -v taskset >/dev/null; then
	exec taskset -c "${cpus[1]}" "$out/bin/perfbench" "${args[@]}" \
		--server-cpu "${cpus[0]}" "$@"
fi
exec "$out/bin/perfbench" "${args[@]}" "$@"
