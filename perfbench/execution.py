"""One execution of one workload, from spec to metrics, in a fresh process.

``run.py`` starts this file once per execution, so cold start is inside
the measured time and ``ru_maxrss`` belongs to that execution alone::

    python3 perfbench/execution.py --workload flood_cold_100k --seed 1 --trace 0

It prints one JSON document as its last line of output.  With ``--trace 1``
the layers' entry points are wrapped, the ``ScenarioRunner`` records
``TelemetryRecorder`` documents, repetitions run in this one process so all
spans land in one tree, and the spans are written to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, Optional

from tracer import Patches, Tracer

#: Shared counters the probe keeps; pool children write them too.
SLOTS = (
    "first_broadcast", "busy_s", "phase_broadcasts", "phase_bad",
    "phase_dc_net", "phase_adaptive_diffusion", "phase_flood", "dc_rounds",
)


class Probe(Patches):
    """The few wrappers every execution needs, traced or not.

    * the protocol adapter's ``broadcast``: the first call in any process
      ends ``setup_s``; the first call per process also reads the
      simulator's engine fallback reason;
    * ``run_scenario_once``: host time per repetition, for the pool's
      busy fraction;
    * ``ThreePhaseBroadcast.broadcast``: per-phase message counts, DC-net
      rounds and the phase-sum invariant.

    The values sit in fork-shared memory, so repetitions that run in
    ``ParallelSweep``'s forked workers report back to this process.
    """

    def __init__(self) -> None:
        super().__init__()
        context = multiprocessing.get_context("fork")
        self._values = context.Array("d", len(SLOTS))
        self._values[SLOTS.index("first_broadcast")] = float("inf")
        self._reason = context.Array("c", 256)
        self._stamped_pid: Optional[int] = None

    def _add(self, slot: str, value: float) -> None:
        with self._values.get_lock():
            self._values[SLOTS.index(slot)] += value

    def values(self) -> Dict[str, float]:
        """A snapshot of every slot."""
        return dict(zip(SLOTS, self._values[:]))

    def fallback_reason(self) -> Optional[str]:
        """The engine fallback reason the first broadcast reported, if any."""
        return self._reason.value.decode() or None

    def install(self, adapter: type) -> None:
        import repro.scenarios.runner as runner
        from repro.core.orchestrator import ThreePhaseBroadcast

        probe = self

        def make_broadcast(original):
            def broadcast(self, session, source, payload_id):
                first = probe._stamped_pid != os.getpid()
                if first:
                    probe._stamped_pid = os.getpid()
                    now = time.monotonic()
                    values = probe._values
                    with values.get_lock():
                        if now < values[0]:
                            values[0] = now
                outcome = original(self, session, source, payload_id)
                reason = session.simulator.fallback_reason
                if first and reason:
                    with probe._reason.get_lock():
                        if not probe._reason.value:
                            probe._reason.value = reason.encode()[:255]
                return outcome

            return broadcast

        def make_repetition(original):
            def run_scenario_once(*args, **kwargs):
                start = time.monotonic()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe._add("busy_s", time.monotonic() - start)

            return run_scenario_once

        def make_three_phase(original):
            def broadcast(self, *args, **kwargs):
                result = original(self, *args, **kwargs)
                phases = {
                    phase.value: count
                    for phase, count in result.messages_by_phase.items()
                }
                counts = [
                    phases.get(name, 0)
                    for name in ("dc_net", "adaptive_diffusion", "flood")
                ]
                probe._add("phase_broadcasts", 1)
                probe._add("dc_rounds", result.dc_rounds)
                for name, count in zip(
                    ("dc_net", "adaptive_diffusion", "flood"), counts
                ):
                    probe._add(f"phase_{name}", count)
                if min(counts) <= 0 or sum(phases.values()) != (
                    result.messages_total
                ):
                    probe._add("phase_bad", 1)
                return result

            return broadcast

        self.wrap(adapter, "broadcast", make_broadcast)
        self.wrap(runner, "run_scenario_once", make_repetition)
        self.wrap(ThreePhaseBroadcast, "broadcast", make_three_phase)


def _peak_rss_mib() -> float:
    """Peak RSS of this process and every reaped child, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def execute(
    workload_name: str,
    seed: int,
    trace: bool,
    small: bool = False,
    expect_digest: Optional[str] = None,
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload from spec to metrics and describe the run.

    Never raises for a failing run: the exception is reported in the
    document's ``error`` and the run counts as failed.
    """
    from repro.protocols import protocol_class
    from repro.scenarios.runner import ScenarioRunner

    import layers
    from workloads import WORKLOADS, check_run

    workload = WORKLOADS[workload_name]
    spec = workload.spec(seed, small)
    processes = 1 if trace else workload.processes
    probe = Probe()
    tracer = Tracer() if trace else None
    kinds: Counter = Counter()
    doc: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "small": small,
        "trace": trace,
        "processes": processes,
        "engine_requested": spec.engine,
        "expected_engine": workload.expected_engine,
    }
    result = None
    error = None
    with probe:
        probe.install(protocol_class(spec.protocol))
        try:
            if tracer is not None:
                layers.install(tracer, kinds)
            runner = ScenarioRunner(processes=processes, telemetry=trace)
            start = time.monotonic()
            if tracer is not None:
                root = tracer.open("scenario.run")
            result = runner.run(spec)
            if tracer is not None:
                tracer.close(root)
            end = time.monotonic()
        except Exception:  # the benchmark reports the failure and goes on
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.restore()
    doc["peak_rss_mib"] = _peak_rss_mib()
    values = probe.values()
    doc["fallback_reason"] = probe.fallback_reason()
    if result is None:
        doc.update(ok=False, problems=["run raised"], error=error)
        return doc

    reps = len(result.runs)
    wall = end - start
    aggregate = result.aggregate
    deliveries = (
        aggregate["messages_per_broadcast"]
        * spec.workload.broadcasts
        * reps
    )
    problems = check_run(
        workload, spec, result.runs, values, result.digest, expect_digest
    )
    doc.update(
        ok=not problems,
        problems=problems,
        error=None,
        digest=result.digest,
        engine_effective=aggregate["engine_effective"],
        wall_s=wall,
        setup_s=values["first_broadcast"] - start,
        deliveries=deliveries,
        events_per_s=deliveries / wall,
        busy_s=values["busy_s"],
        worker_busy_frac=values["busy_s"] / (processes * wall),
        sim_msgs_per_broadcast=aggregate["messages_per_broadcast"],
        sim_detection_prob=aggregate["detection_probability"],
        sim_reach=aggregate["mean_reach"],
    )
    if tracer is not None:
        metrics, absent = layers.layer_metrics(
            tracer, result.telemetry or {}, kinds, values
        )
        doc["layers"] = metrics
        doc["absent"] = absent
        doc["spans"] = tracer.totals()
        if spans_out:
            tracer.write(spans_out)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--expect-digest")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    doc = execute(
        args.workload, args.seed, bool(args.trace), small=args.small,
        expect_digest=args.expect_digest, spans_out=args.spans_out,
    )
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
