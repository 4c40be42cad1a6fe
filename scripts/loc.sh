#!/bin/sh
# loc.sh [BASE] — non-test Go lines per package directory in the working
# tree, each with its change against BASE (default HEAD), then the total
# and the net non-test delta. Lines are counted as wc -l counts them, over
# every .go file not named *_test.go and not under testdata/; tracked
# files and new untracked ones count, ignored files do not.
set -eu

base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"
if ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
    echo "loc: unknown revision $base" >&2
    exit 2
fi

{
    git grep -c '' "$base" -- '*.go' ':!:*_test.go' ':!:**/testdata/**' |
        sed 's/^[^:]*:/was /'
    git ls-files -co --exclude-standard -- '*.go' ':!:*_test.go' ':!:**/testdata/**' |
        while IFS= read -r f; do
            if [ -f "$f" ]; then
                printf 'now %s:%d\n' "$f" $(wc -l <"$f")
            fi
        done
} | awk -v base="$base" '
{
    rest = substr($0, 5)
    i = match(rest, /:[0-9]+$/)
    dir = substr(rest, 1, i - 1)
    if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
    n = substr(rest, i + 1) + 0
    seen[dir] = 1
    if ($1 == "now") { now[dir] += n; total += n } else { was[dir] += n; before += n }
}
END {
    for (d in seen) printf "%7d %+6d  %s\n", now[d], now[d] - was[d], d | "sort -k3"
    close("sort -k3")
    printf "%7d %+6d  total, net non-test delta against %s\n", total, total - before, base
}'
