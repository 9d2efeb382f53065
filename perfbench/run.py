"""The repository's benchmark: three workloads, from spec to metrics.

Run from the repository root::

    python3 perfbench/run.py --workload three_phase_10k --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

Each execution runs in a fresh process (``execution.py``).  With
``--trace 0`` the benchmark repeats untraced executions for ``--seconds``
and reports the median of each end-to-end metric.  With ``--trace 1`` it
repeats pairs of one untraced and one traced execution of the same spec
and seed, checks that both give the same digest, and reports the per-layer
metrics.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics (untraced runs), with their units.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_msgs_per_broadcast", "count"),
    ("sim_reach", "ratio"),
)

#: Longest any one run of this script may take, per the harness contract.
RUN_LIMIT_S = 175.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + path if path else "")
    return env


def run_execution(
    workload: str,
    seed: int,
    trace: bool,
    timeout: float,
    small: bool = False,
    expect_digest: Optional[str] = None,
) -> Dict[str, Any]:
    """One execution in a fresh process; its JSON document."""
    command = [
        sys.executable, str(HERE / "execution.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if trace else "0",
    ]
    if small:
        command.append("--small")
    if expect_digest:
        command += ["--expect-digest", expect_digest]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        command += ["--spans-out", str(spans)]
    # Its own process group, so that the sharded workers and pool children
    # an execution forks are stopped with it.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=_child_env(), text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {timeout:.0f} s"]}
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {
            "ok": False,
            "problems": [f"execution exited with code {child.returncode}"],
        }
    return json.loads(lines[-1])


def _pinned(workload: str, seed: int, small: bool) -> Optional[str]:
    from workloads import DEFAULT_SEED, PINNED_DIGESTS

    if small or seed != DEFAULT_SEED:
        return None
    return PINNED_DIGESTS.get(workload)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
    expect_digest: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Repeat executions (or untraced/traced pairs) for ``seconds``.

    A new execution starts only while the mean duration so far still fits
    before the deadline, so a run overshoots ``seconds`` only when even one
    execution does not fit.  Returns one record per execution, or per pair
    when tracing.
    """
    start = time.monotonic()
    records: List[Dict[str, Any]] = []
    while True:
        elapsed = time.monotonic() - start
        timeout = RUN_LIMIT_S - elapsed
        if records:
            mean = elapsed / len(records)
            if elapsed + mean > seconds or mean > timeout:
                break
        plain = run_execution(
            workload, seed, False, timeout, small, expect_digest
        )
        if not trace:
            records.append(plain)
            continue
        traced = run_execution(
            workload, seed, True, RUN_LIMIT_S - (time.monotonic() - start),
            small, expect_digest,
        )
        records.append(_pair(plain, traced))
    return records


def _pair(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """Fold an untraced and a traced execution into one record."""
    problems = [f"untraced: {p}" for p in plain.get("problems", [])]
    problems += [f"traced: {p}" for p in traced.get("problems", [])]
    if plain.get("digest") != traced.get("digest"):
        problems.append(
            f"traced digest {traced.get('digest')} != untraced "
            f"{plain.get('digest')}"
        )
    record = dict(traced)
    record["ok"] = not problems
    record["problems"] = problems
    if plain.get("busy_s") and traced.get("layers"):
        layers = dict(traced["layers"])
        # Host time spent inside repetitions, so that a traced run on fewer
        # processes than the untraced one is not counted as overhead.  With
        # one process on both sides this is the ratio of the wall times.
        layers["trace.overhead_frac"] = traced["busy_s"] / plain["busy_s"] - 1
        # The traced run keeps every repetition in one process; the pool's
        # busy fraction comes from the untraced run.
        layers["analysis.worker_busy_frac"] = plain["worker_busy_frac"]
        layers["sim_detection_prob"] = plain["sim_detection_prob"]
        record["layers"] = layers
        record["untraced_processes"] = plain["processes"]
    return record


def summarize(
    records: List[Dict[str, Any]], trace: bool
) -> Dict[str, Any]:
    """The result object: correctness counts plus median metrics."""
    from layers import PER_LAYER

    attempted = len(records)
    good = [r for r in records if r.get("ok")]
    failed = attempted - len(good)
    digests = {r["digest"] for r in good}
    correct = failed == 0 and len(digests) <= 1
    metrics: Dict[str, Dict[str, Any]] = {}
    if good:
        if trace:
            for name, unit in PER_LAYER:
                if name == "error_rate":
                    value = failed / attempted
                else:
                    value = statistics.median(r["layers"][name] for r in good)
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, unit in END_TO_END:
                value = statistics.median(r[name] for r in good)
                metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(workload: str, records: List[Dict[str, Any]],
           summary: Dict[str, Any], trace: bool) -> None:
    """Human-readable lines printed before the result object."""
    print(f"== {workload}: {summary['attempted']} execution(s)"
          f"{' (untraced + traced pairs)' if trace else ''}, "
          f"{summary['failed']} failed")
    for record in records:
        for problem in record.get("problems", []):
            print(f"  FAILED: {problem}")
        if record.get("error"):
            print(record["error"], end="")
    good = [r for r in records if r.get("ok")]
    if not good:
        return
    first = good[0]
    print(f"  engine: requested={first['engine_requested']} "
          f"effective={first['engine_effective']} "
          f"fallback={first['fallback_reason']!r}")
    if first["engine_effective"] != first["expected_engine"]:
        print(f"  WARNING: {workload} ran on {first['engine_effective']!r}, "
              f"not {first['expected_engine']!r}; digests do not depend on "
              "the engine, so this is not counted as an error")
    print(f"  digest: {first['digest']}")
    print(f"  error_rate: {summary['failed'] / summary['attempted']:.4f} ratio")
    print(f"  sim_detection_prob: {first['sim_detection_prob']:.4f} ratio")
    for name, entry in summary["metrics"].items():
        print(f"  {name}: {entry['value']:.6g} {entry['unit']}")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in good)
    print(f"  wall_s of each {'traced ' if trace else ''}execution: {walls}")
    if trace:
        print(f"  traced repetitions ran in 1 process; untraced in "
              f"{first.get('untraced_processes')}")
        for name, why in first.get("absent", {}).items():
            print(f"  n/a {name}: {why} (reported as 0)")
        print(f"  {'span':<26} {'calls':>7} {'total_s':>9} {'self_s':>9}")
        for name, entry in sorted(
            first["spans"].items(), key=lambda item: -item[1]["total_s"]
        ):
            print(f"  {name:<26} {entry['calls']:>7} "
                  f"{entry['total_s']:>9.3f} {entry['self_s']:>9.3f}")


def _exit_on_signal(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="scaled-down copies of the workloads (500 peers), for a smoke test",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running execution is killed.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    summaries = {}
    for name in names:
        records = measure(
            name, seed, args.seconds, trace, args.small,
            _pinned(name, seed, args.small),
        )
        summaries[name] = summarize(records, trace)
        report(name, records, summaries[name], trace)
    if len(names) == 1:
        result = summaries[names[0]]
    else:
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, summary in summaries.items()
                for metric, entry in summary["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
