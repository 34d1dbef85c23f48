"""Run every verification suite and summarize the reports.

Each cell compares two independently computed exact values; a suite
passes only when every comparison is an exact match.  The same grids are
available from the command line, e.g.

    linksgould verify theorem2 --max-m 6 --max-k 6 --format json
"""
import sys
from pathlib import Path

try:
    import linksgould
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linksgould import run_suite
from linksgould.verify import SUITES

for name in sorted(SUITES):
    report = run_suite(name)
    counts = report.counts
    status = "ok " if report.passed else "FAIL"
    print(
        f"{status} {name:<20} {counts['total'] - counts['failed']:>4}/"
        f"{counts['total']:<4} cells in {report.elapsed_seconds:5.2f}s"
    )

# Reports are plain data; the JSON form is stable across runs (timing
# lives outside the comparison payload).
report = run_suite("lg21-qminus1", max_k=3)
print("\nJSON of a small report:")
print(report.to_json())
