#!/usr/bin/env bash
# Runs one workload of the xicd benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload decide|ingest|edit --seed N --seconds S --trace 0|1
#
# It builds cmd/xicd and the benchmark's own binaries from the tree, with
# every Go cache and temporary file under .bench_build/, then hands over to
# the load generator, whose last output line is the JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/xicd ]]; then
	echo "perfbench: $root holds no xicd source tree (go.mod, cmd/xicd)" >&2
	exit 2
fi

trace=0
workload=
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace | -trace) trace=${args[i + 1]:-0} ;;
	--workload | -workload) workload=${args[i + 1]:-} ;;
	esac
done

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off

go build -o "$out/xicd" ./cmd/xicd >&2
(cd perfbench && go build -o "$out/perfload" ./load) >&2
if [[ "$trace" == 1 ]]; then
	(cd perfbench && go build -o "$out/perftrace" ./trace) >&2
fi

exec "$out/perfload" -xicd "$out/xicd" -tracer "$out/perftrace" \
	-spans "$out/spans-${workload}.jsonl" "$@"
