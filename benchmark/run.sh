#!/usr/bin/env bash
# Builds the shipped nsd (unmodified), the calibration echo server and nsbench
# into benchmark/.build/, then runs nsbench with the arguments given. Nothing
# is read or written outside the checkout: the Go build cache lives in
# .build/ too, so the first run in a fresh checkout compiles the standard
# library as well.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/.build"
export GOCACHE="$here/.build/gocache" GOMODCACHE="$here/.build/gomodcache"
export GOFLAGS=-modcacherw GOPROXY=off GOTOOLCHAIN=local
cd "$here"
go build -o .build/ ./cmd/nsbench ./echo smalldb/cmd/nsd >&2
exec .build/nsbench -home "$here" "$@"
