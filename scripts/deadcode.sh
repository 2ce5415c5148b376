#!/usr/bin/env bash
# deadcode.sh lists the non-test functions of the graphtrek module that
# nothing runs, and those that only their own package's tests run. From the
# root of a checkout:
#
#   bash scripts/deadcode.sh [work dir]
#
# Every source of reach is built with coverage over every package of the
# module (-coverpkg=graphtrek/...):
#   - the benchmark binary (benchmark/, a module of its own), run for
#     DEADCODE_SECONDS (default 5) on each workload and once more traced;
#   - each program under examples/, run once;
#   - each package's go test.
# A function is "reached" when the benchmark, an example or another package's
# tests run any of its statements; "own-only" when only its own package's
# tests do; "never" when nothing does. The output is one line per function
# that is not reached, sorted:
#
#   never|own-only <file>:<line> <function> <lines>
#
# then one total line per class. Lines run from the func line to the
# closing brace, the doc comment left out. go tool cover lists only the
# functions built for this platform (kv/mmap_other.go is not unix).
# The work dir (default: a fresh temporary directory) keeps the profiles;
# the stores the benchmark writes there are removed after each run.
set -euo pipefail

root=$(pwd)
R=${1:-$(mktemp -d)}
secs=${DEADCODE_SECONDS:-5}
mkdir -p "$R/cov" "$R/tests" "$R/bin"
rm -f "$R"/cov/* "$R"/tests/*.cov "$R"/*.all
export GOFLAGS=

go build -C benchmark -cover -coverpkg=graphtrek/... -o "$R/bin/bench" . >&2
for w in fanout-cold fanout-warm audit-point churn-mixed; do
  GOCOVERDIR=$R/cov "$R/bin/bench" -workload $w -seconds "$secs" -data "$R/data" -out "$R/spans" >/dev/null
done
GOCOVERDIR=$R/cov "$R/bin/bench" -workload churn-mixed -seconds "$secs" -trace 1 -data "$R/data" -out "$R/spans" >/dev/null
for d in examples/*/; do
  name=$(basename "$d")
  go build -cover -coverpkg=graphtrek/... -o "$R/bin/$name" "./$d" >&2
  GOCOVERDIR=$R/cov "$R/bin/$name" >/dev/null
done
go tool covdata textfmt -i="$R/cov" -o="$R/run.cov"

failed=""
for p in $(go list ./...); do
  if ! go test -count=1 -coverpkg=graphtrek/... -coverprofile="$R/tests/$(echo "$p" | tr / _).cov" "$p" >"$R/test.log" 2>&1; then
    cat "$R/test.log" >&2
    failed="$failed $p"
  fi
done

# One "<file:line:> <func> <pct>" list per profile; cover cannot resolve the
# benchmark's own package (a nested module), so its lines are left out.
for f in "$R/run.cov" "$R"/tests/*.cov; do
  [ -f "$f" ] || continue
  grep -v '^graphtrek/benchmark/' "$f" >"$R/in.cov"
  go tool cover -func="$R/in.cov" | awk '$1 != "total:" {print $1, $2, $NF}' >"$R/$(basename "$f" .cov).all"
done

# run.all is the benchmark and the examples; graphtrek_<path with _ for />.all
# is one package's tests.
(cd "$R" && awk '
FNR == 1 { src = FILENAME; sub(/\.all$/, "", src); tp = src; sub(/^graphtrek_?/, "", tp); gsub(/_/, "/", tp) }
{
  k = $1 " " $2; fn[k] = 1
  if ($3 == "0.0%") next
  d = $1; sub(/^graphtrek\/?/, "", d); sub(/[^\/]*:[0-9]+:$/, "", d); sub(/\/$/, "", d)
  if (src == "run" || tp != d) reached[k] = 1; else own[k] = 1
}
END { for (k in fn) if (!reached[k]) print (own[k] ? "own-only" : "never"), k }' *.all) |
  while read -r class pos name; do
    file=${pos%%:*}; file=${file#graphtrek/}; line=${pos#*:}; line=${line%:}
    # A method is named Type.name. gofmt closes a multi-line top-level func
    # with "}" alone on a line.
    awk -v l="$line" -v class="$class" -v pos="$file:$line" -v name="$name" '
      NR == l && match($0, /^func \([^)]*\)/) {
        r = substr($0, RSTART + 6, RLENGTH - 7); sub(/^.* /, "", r); sub(/^\*/, "", r); sub(/\[.*$/, "", r)
        name = r "." name
      }
      NR == l && /}$/ { n = 1; exit }
      NR > l && /^}$/ { n = NR - l + 1; exit }
      END { print class, pos, name, n }' "$root/$file"
  done | sort -k1,1 -k2,2V | awk '{ print; c[$1]++; l[$1] += $4 }
END { for (k in c) printf "total %s: %d functions, %d lines\n", k, c[k], l[k] }'

if [ -n "$failed" ]; then
  echo "deadcode: tests failed in:$failed (their reach may be missing)" >&2
  exit 1
fi
