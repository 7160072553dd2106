#!/usr/bin/env sh
# lint.sh — the local mirror of CI's lint job: gofmt, go vet, staticcheck
# (when installed), and the relaxlint concurrency-invariant analyzers.
# Exits non-zero on the first failing stage.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet (root module)"
go vet ./...

echo "== go vet (tools/lint)"
go -C tools/lint vet ./...

echo "== go vet (bench)"
go -C bench vet ./...

# staticcheck is pinned and installed in CI; locally it may be absent and
# must not be fetched implicitly (offline-friendly), so gate on PATH.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck (skipped: not installed; CI runs the pinned version)"
fi

echo "== relaxlint analyzer tests"
go -C tools/lint test ./...

echo "== relaxlint"
bin="$(mktemp -d)/relaxlint"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go -C tools/lint build -o "$bin" ./cmd/relaxlint
"$bin" -dir . ./...

echo "lint OK"
