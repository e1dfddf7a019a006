#!/bin/sh
# Tier-1 verification, run exactly as CI would: the full test suite under
# both a single worker domain and four, proving parallel == sequential,
# then the end-to-end JSON manifest + span-trace validation (make validate)
# and the benchmark's self-test.
set -eu
cd "$(dirname "$0")"
exec make check
