#!/usr/bin/env bash
# The five checks a change must pass, in order; stops at the first failure.
#
#   scripts/check.sh
#
# 1. the test suite (tests/);
# 2. scripts/statement_coverage.py: the test suite again under a line trace,
#    which fails if any statement in src/distreg/*.py never runs (docstrings
#    and the body of a __main__ guard left out);
# 3. the benchmark's own tests (perfbench/);
# 4. scripts/run_all.py --assert in a temporary directory, once with one
#    trial-loop worker and once with DISTREG_THREADS=2, then each regenerated
#    CSV of both runs compared byte for byte with the tracked results/;
# 5. perfbench/run.py once per workload at seed 101 (--seconds 20): each run
#    must print "correct": true and the row digest that perfbench/baseline.json
#    records for that seed, and its setup_s and peak_rss_mb are printed, so an
#    import or memory regression shows here too.  It reads perfbench and
#    changes nothing in it.
# Then it prints the source line count of each file (src/distreg/*.py plus
# scripts/run_all.py) and their total, which ROADMAP.md tracks.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
cd "$ROOT"

python -m pytest -q --continue-on-collection-errors
python scripts/statement_coverage.py
python -m pytest -q perfbench

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
for threads in 1 2; do
    mkdir "$WORK/$threads"
    (cd "$WORK/$threads" && DISTREG_THREADS=$threads python "$ROOT/scripts/run_all.py" --assert)
    for csv in results/*.csv; do
        cmp "$csv" "$WORK/$threads/$csv"
    done
done

python - <<'PY'
import json
import subprocess
import sys

recorded = json.load(open("perfbench/baseline.json"))["workloads"]
for name, baseline in recorded.items():
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "101", "--seconds", "20"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or report["rows_sha256"] != baseline["rows_sha256"]["101"]:
        sys.exit(f"check.sh: {name} at seed 101: correct {result['correct']}, rows_sha256 {report['rows_sha256']}")
    setup_s, peak_rss_mb = (result["metrics"][key]["value"] for key in ("setup_s", "peak_rss_mb"))
    print(f"check.sh: {name} at seed 101 is correct, rows_sha256 as recorded; setup_s {setup_s:.2f}, peak_rss_mb {peak_rss_mb:.1f}")
PY

wc -l src/distreg/*.py scripts/run_all.py
echo "check.sh: source lines: $(cat src/distreg/*.py scripts/run_all.py | wc -l)"
echo "check.sh: all checks passed"
