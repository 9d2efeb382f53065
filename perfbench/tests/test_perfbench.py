"""The benchmark's own tests, on scaled-down (500-peer) workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import execution  # noqa: E402
import layers  # noqa: E402
import run as perfbench_run  # noqa: E402
from tracer import _MISSING, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tracer_restores_every_wrapped_attribute():
    from repro.network.simulator import Simulator
    from repro.protocols import protocol_class

    original_run = Simulator.run
    probe = execution.Probe()
    probe.install(protocol_class("flood"))
    tracer = Tracer()
    layers.install(tracer, Counter())
    saved = probe._saved + tracer._saved
    assert Simulator.run is not original_run
    first = {}
    for owner, attr, own in saved:
        first.setdefault((owner, attr), own)
    tracer.restore()
    probe.restore()
    assert not tracer._saved and not probe._saved
    for (owner, attr), own in first.items():
        assert vars(owner).get(attr, _MISSING) is own, f"{owner}.{attr}"
    assert Simulator.run is original_run


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    assert tracer.open("inner") is None  # same layer nested: folded
    tracer.close(inner)
    tracer.close(outer)
    totals = tracer.totals()
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )
    assert tracer.spans[1][1] == tracer.spans[0][0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digest_equals_untraced(name):
    plain = execution.execute(name, seed=3, trace=False, small=True)
    traced = execution.execute(name, seed=3, trace=True, small=True)
    assert plain["ok"], plain["problems"]
    assert traced["ok"], traced["problems"]
    assert traced["digest"] == plain["digest"]
    assert traced["engine_effective"] == WORKLOADS[name].expected_engine
    names = {metric for metric, _unit in layers.PER_LAYER}
    assert set(traced["layers"]) <= names


def test_wrong_pinned_digest_counts_as_error():
    records = perfbench_run.measure(
        "flood_cold_100k", seed=2, seconds=0, trace=False, small=True,
        expect_digest="0" * 64,
    )
    summary = perfbench_run.summarize(records, trace=False)
    assert summary["attempted"] == 1
    assert summary["failed"] == 1
    assert not summary["correct"]
    assert "pinned" in records[0]["problems"][0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "three_phase_10k",
         "--small", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared


def test_declared_lists_match_the_code():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        perfbench_run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flood_cold_100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
