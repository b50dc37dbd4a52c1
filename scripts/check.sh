#!/usr/bin/env bash
# The three checks a change must pass, in order; stops at the first failure.
#
#   scripts/check.sh
#
# 1. the test suite (tests/);
# 2. the benchmark's own tests (perfbench/);
# 3. scripts/run_all.py --assert in a temporary directory, then each
#    regenerated CSV compared byte for byte with the tracked results/.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
cd "$ROOT"

python -m pytest -q --continue-on-collection-errors
python -m pytest -q perfbench

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
(cd "$WORK" && python "$ROOT/scripts/run_all.py" --assert)
for csv in results/*.csv; do
    cmp "$csv" "$WORK/$csv"
done
echo "check.sh: all checks passed"
