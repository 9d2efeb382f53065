#!/usr/bin/env python3
"""Per-package coverage floors over a ``coverage.py`` JSON report.

CI runs the tier-1 suite under ``pytest --cov`` and hands the JSON report
to this script, which aggregates line coverage per ``repro`` sub-package,
prints the table, and fails when any package sinks below its floor:

    PYTHONPATH=src python -m pytest -q --ignore=benchmarks \
        --cov=repro --cov-report=json:coverage.json
    python scripts/coverage_report.py coverage.json

One package carries an elevated floor: ``repro/dcnet`` (the DC-net rounds
and the blame protocol — the paper's phase 1 and its countermeasure).
That is the subsystem where an untested branch is a correctness risk for
the reproduction itself, so its floor flags regressions loudly.

The script only needs the standard library plus ``repro``'s table
formatter; the coverage measurement itself happens wherever pytest-cov is
installed (CI — the local environment does not need it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Mapping, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.reporting import format_table  # noqa: E402

#: Minimum line coverage (percent) any repro sub-package must hold.
DEFAULT_FLOOR = 60.0

#: Paper-critical packages watched with elevated floors.
CRITICAL_FLOORS: Dict[str, float] = {
    "dcnet": 85.0,
}


def package_of(path: str) -> str:
    """Map a measured file path onto its ``repro`` sub-package name."""
    parts = Path(path).parts
    if "repro" not in parts:
        return "(other)"
    below = parts[parts.index("repro") + 1:]
    return below[0] if len(below) > 1 else "(root)"


def collect_packages(report: Mapping) -> Dict[str, Tuple[int, int]]:
    """Aggregate ``(covered_lines, num_statements)`` per sub-package."""
    packages: Dict[str, Tuple[int, int]] = {}
    for path, entry in report["files"].items():
        summary = entry["summary"]
        name = package_of(path)
        covered, statements = packages.get(name, (0, 0))
        packages[name] = (
            covered + int(summary["covered_lines"]),
            statements + int(summary["num_statements"]),
        )
    return packages


def floor_for(package: str, default_floor: float) -> float:
    return CRITICAL_FLOORS.get(package, default_floor)


def evaluate(
    packages: Mapping[str, Tuple[int, int]], default_floor: float
) -> Tuple[list, list]:
    """Build the report rows and the list of floor violations."""
    rows = []
    failures = []
    for name in sorted(packages):
        covered, statements = packages[name]
        percent = 100.0 * covered / statements if statements else 100.0
        floor = floor_for(name, default_floor)
        flag = "critical" if name in CRITICAL_FLOORS else ""
        status = "ok" if percent >= floor else "BELOW FLOOR"
        if percent < floor:
            failures.append((name, percent, floor))
        rows.append([
            name, statements, covered, f"{percent:.1f}%",
            f"{floor:.0f}%", flag, status,
        ])
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report", type=Path, help="coverage.py JSON report to evaluate"
    )
    parser.add_argument(
        "--floor", type=float, default=DEFAULT_FLOOR,
        help="default per-package floor in percent "
        f"(default: {DEFAULT_FLOOR:.0f}; critical packages keep their "
        "own elevated floors)",
    )
    args = parser.parse_args(argv)

    report = json.loads(args.report.read_text())
    packages = collect_packages(report)
    if not packages:
        print("error: the report measured no files", file=sys.stderr)
        return 2
    rows, failures = evaluate(packages, args.floor)
    print(format_table(
        ["package", "statements", "covered", "coverage", "floor",
         "watch", "status"],
        rows,
        title="line coverage per repro sub-package",
    ))
    totals = report.get("totals", {})
    if "percent_covered" in totals:
        print(f"# overall: {float(totals['percent_covered']):.1f}%")
    if failures:
        for name, percent, floor in failures:
            print(
                f"error: repro/{name} at {percent:.1f}% is below its "
                f"{floor:.0f}% floor",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
