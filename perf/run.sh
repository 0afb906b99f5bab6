#!/usr/bin/env bash
# Build and run the end-to-end benchmark; see perf/README.md.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
