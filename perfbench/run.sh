#!/usr/bin/env bash
# Builds the actd loopback benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload design|fleet|all --seed N --seconds S --trace 0|1
#
# Run from the repository root. `--workload all` runs design and fleet one
# after another with the same flags. The build output and the Go build
# cache live under .bench_build/ in the checkout (CARGO_TARGET_DIR,
# when set, names that directory), so the benchmark reads and writes
# nothing outside it. The last line of standard output of each workload
# is its JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" ]]; then
	echo "perfbench: $root does not hold the act module source" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# The go command's telemetry and user config live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOMODCACHE="$out/modcache"
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/actbench" .) >&2

args=("$@")
for i in "${!args[@]}"; do
	if [[ "${args[$i]}" == "--workload" && "${args[$((i + 1))]:-}" == "all" ]]; then
		status=0
		for w in design fleet; do
			args[$((i + 1))]="$w"
			"$out/actbench" "${args[@]}" || status=1
		done
		exit "$status"
	fi
done
exec "$out/actbench" "$@"
