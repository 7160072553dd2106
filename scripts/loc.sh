#!/usr/bin/env sh
# loc.sh — counts lines of Go (wc -l: comments and blank lines included),
# split into non-test and _test.go files, for the three groups the
# code-size targets in ROADMAP.md track: the root module outside bench/
# and tools/, the lint module in tools/lint (its analyzer fixtures under
# testdata/ count as non-test), and the benchmark module in bench/.
# Informational only.
#
#   sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

# sum prints the total line count of the files named on stdin.
sum() {
    xargs cat /dev/null | wc -l | tr -d ' '
}

# row LABEL FIND-ARGS... prints the non-test and test line counts of the
# Go files `find FIND-ARGS...` selects.
row() {
    label=$1
    shift
    files=$(find "$@" -type f -name '*.go')
    src=$(printf '%s\n' "$files" | grep -v '_test\.go$' | sum)
    tst=$(printf '%s\n' "$files" | grep '_test\.go$' | sum)
    printf '%-34s %9s %9s\n' "$label" "$src" "$tst"
}

printf '%-34s %9s %9s\n' group non-test test
row 'root (outside bench/ and tools/)' . ! -path './.*' ! -path './bench/*' ! -path './tools/*'
row tools/lint tools/lint
row bench bench
