#!/bin/sh
# bench.sh N [go test args...] — the one way to run the in-process Go
# benchmarks; every `make bench-*` target is one call of it, with N taken
# from BENCH=<n>.
#
# It runs `go test -run '^$' -benchmem ARGS`, echoes the output and exits
# with go test's status, so a benchmark that fails its own bound (for
# example the cluster/single-node ratio) fails the caller. Derived numbers
# are the benchmarks' own b.ReportMetric units; nothing is computed here.
#
# When N is non-empty and the run passed, it also writes BENCH_<N>.json in
# the current directory, in the act-bench/1 schema: one record per
# benchmark line, attributed to the package named by the `pkg:` header
# above it (module prefix dropped), with custom units kept verbatim under
# "metrics". It refuses to overwrite an existing file and writes nothing
# when the run fails. $GO overrides the go command.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: bench.sh N [go test args...]" >&2
    exit 2
fi
n=$1
shift
go=${GO:-go}

out=
if [ -n "$n" ]; then
    out=BENCH_$n.json
    if [ -e "$out" ]; then
        echo "bench: $out exists; refusing to overwrite it" >&2
        exit 1
    fi
fi

tmp=$(mktemp)
trap 'rm -f "$tmp" "$tmp.status" "$tmp.json"' EXIT

{
    status=0
    "$go" test -run '^$' -benchmem "$@" || status=$?
    echo "$status" >"$tmp.status"
} | tee "$tmp"
status=$(cat "$tmp.status")
if [ "$status" -ne 0 ]; then
    echo "bench: go test failed (status $status); nothing recorded" >&2
    exit "$status"
fi
[ -n "$out" ] || exit 0

# The command as run, quoting each argument that holds a shell-special byte.
cmd="go test -run '^\$' -benchmem"
for a in "$@"; do
    case $a in
    *[!A-Za-z0-9_./=:,-]*) a="'$a'" ;;
    esac
    cmd="$cmd $a"
done

awk -v go="$("$go" version | sed 's/^go version //')" \
    -v module="$("$go" list -m 2>/dev/null || true)" \
    -v cmd="$cmd" '
function str(s) {
    gsub(/\\/, "\\\\", s)
    gsub(/"/, "\\\"", s)
    return "\"" s "\""
}
function num(v) { return v ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ ? v : "null" }
/^pkg: / {
    pkg = $2
    if (module != "" && index(pkg, module "/") == 1)
        pkg = substr(pkg, length(module) + 2)
    next
}
/^cpu: / { cpu = substr($0, 6); next }
/^Benchmark/ && $2 ~ /^[0-9]+$/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    rec = "{\"package\": " str(pkg) ", \"name\": " str(name) ", \"iterations\": " $2
    metrics = ""
    for (i = 3; i < NF; i += 2) {
        v = num($i); u = $(i + 1)
        if (u == "ns/op")          rec = rec ", \"ns_per_op\": " v
        else if (u == "B/op")      rec = rec ", \"bytes_per_op\": " v
        else if (u == "allocs/op") rec = rec ", \"allocs_per_op\": " v
        else metrics = metrics (metrics == "" ? "" : ", ") str(u) ": " v
    }
    if (metrics != "") rec = rec ", \"metrics\": {" metrics "}"
    recs[++nrec] = rec "}"
}
END {
    if (nrec == 0) {
        print "bench: no benchmark results in the go test output" > "/dev/stderr"
        exit 1
    }
    print "{"
    print "  \"schema\": \"act-bench/1\","
    print "  \"go\": " str(go) ","
    if (cpu != "") print "  \"cpu\": " str(cpu) ","
    print "  \"source\": " str(cmd) ","
    print "  \"benchmarks\": ["
    for (i = 1; i <= nrec; i++) print "    " recs[i] (i < nrec ? "," : "")
    print "  ]"
    print "}"
}
' "$tmp" >"$tmp.json"

# noclobber: a file that appeared during the run is still not overwritten.
(set -C && cat "$tmp.json" >"$out")
echo "bench: wrote $out" >&2
