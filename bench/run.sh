#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the arguments given. The Go build cache and
# GOPATH are kept there too, so that nothing outside the checkout is written
# and no HOME is needed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/../.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/sdbbench" .)
exec "$out/sdbbench" -dir "$out/tmp" "$@"
