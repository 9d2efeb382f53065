"""scripts/coverage_report.py: per-package floors over coverage JSON.

pytest-cov only runs in CI; these tests feed the report script synthetic
coverage.py JSON documents, so the aggregation and the floor gate are
exercised in the plain tier-1 environment.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "coverage_report.py"

_spec = importlib.util.spec_from_file_location("coverage_report", SCRIPT)
coverage_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage_report)


def _entry(covered, statements):
    return {"summary": {
        "covered_lines": covered, "num_statements": statements,
    }}


def _report(files, percent=90.0):
    return {"files": files, "totals": {"percent_covered": percent}}


def _write(tmp_path, document):
    path = tmp_path / "coverage.json"
    path.write_text(json.dumps(document))
    return path


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


class TestAggregation:
    def test_files_group_into_packages(self):
        packages = coverage_report.collect_packages(_report({
            "src/repro/dcnet/blame.py": _entry(90, 100),
            "src/repro/dcnet/round.py": _entry(50, 50),
            "src/repro/network/simulator.py": _entry(70, 100),
            "src/repro/__init__.py": _entry(1, 1),
        }))
        assert packages["dcnet"] == (140, 150)
        assert packages["network"] == (70, 100)
        assert packages["(root)"] == (1, 1)

    def test_critical_packages_carry_elevated_floors(self):
        assert coverage_report.floor_for("dcnet", 60.0) == 85.0
        assert coverage_report.floor_for("network", 60.0) == 60.0


class TestGate:
    def test_passing_report_exits_zero(self, tmp_path):
        proc = _run(_write(tmp_path, _report({
            "src/repro/dcnet/blame.py": _entry(95, 100),
            "src/repro/crypto/pads.py": _entry(90, 100),
            "src/repro/network/simulator.py": _entry(70, 100),
        })))
        assert proc.returncode == 0, proc.stderr
        assert "dcnet" in proc.stdout
        assert "critical" in proc.stdout
        assert "overall: 90.0%" in proc.stdout

    def test_critical_package_below_floor_fails(self, tmp_path):
        # 70% would clear the default floor, but dcnet's floor is 85%.
        proc = _run(_write(tmp_path, _report({
            "src/repro/dcnet/blame.py": _entry(70, 100),
            "src/repro/network/simulator.py": _entry(70, 100),
        })))
        assert proc.returncode == 1
        assert "repro/dcnet" in proc.stderr
        assert "85% floor" in proc.stderr

    def test_default_floor_is_overridable(self, tmp_path):
        report = _write(tmp_path, _report({
            "src/repro/network/simulator.py": _entry(50, 100),
        }))
        assert _run(report).returncode == 1
        assert _run(report, "--floor", "40").returncode == 0

    def test_empty_report_is_an_error(self, tmp_path):
        proc = _run(_write(tmp_path, _report({})))
        assert proc.returncode == 2
