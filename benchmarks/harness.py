"""Tracked wall-clock benchmark harness behind ``scripts/bench.py``.

The pytest-benchmark files in this directory guard *shape* properties of the
reproduction; this module is the other half of the performance story: a
dependency-free harness that times the E-series hot paths the same way on
every machine, writes the numbers to a ``BENCH_<label>.json`` report, and
compares reports so a regression in events/sec is caught as a number, not a
feeling.

Design points:

* **Scenarios** pair an untimed ``setup`` (building overlays, encoding
  frames) with a timed ``run`` returning the number of simulated events it
  processed, so ``events/sec`` measures engine throughput, not scenario
  construction.
* **Warmup + median**: every scenario runs ``warmup`` throwaway iterations
  (heating allocator, caches and lazily-built latency tables), then the
  median of ``repeats`` timed iterations is reported — robust against a
  single noisy run.
* **Calibration**: each report stores the throughput of a fixed pure-Python
  spin loop measured at report time.  Comparisons divide events/sec by it,
  which removes most of the machine-to-machine CPU difference, so a report
  produced on one machine remains a usable baseline on another (and is
  exact on the same machine).
* **Peak RSS** comes from ``resource.getrusage`` — memory regressions of
  the event core show up next to the time regressions.

The harness deliberately imports nothing outside the standard library plus
``repro`` itself, so ``scripts/bench.py --src <tree>`` can aim the very same
harness at an older source tree for before/after tables.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Scenario",
    "SCENARIOS",
    "adaptive_attack_scenario",
    "attack_privacy_scenario",
    "byzantine_blame_scenario",
    "calibrate",
    "compare_reports",
    "dcnet_round_scenario",
    "flood_runphase_scenario",
    "flood_scenario",
    "gossip_scenario",
    "memory_gate",
    "peak_rss_kib",
    "run_scenario",
    "run_suite",
    "scenario_names",
    "telemetry_overhead",
]


@dataclass(frozen=True)
class Scenario:
    """One benchmark scenario: untimed setup, timed run, event count.

    Attributes:
        name: stable identifier; reports are compared per name.
        description: one line for tables and logs.
        setup: builds the scenario context (overlays, frames); not timed,
            run once per measurement.
        run: executes the measured workload on the context (or, with a
            ``prepare`` hook, on that repeat's prepared state) and returns
            the number of simulated events it processed.
        prepare: optional untimed per-repeat hook: called before *every*
            warmup and timed iteration with the setup context, its return
            value handed to ``run`` instead of the context.  The scale
            tiers use it to build the per-run simulator (hundreds of
            thousands of node objects) outside the timed region, so
            events/sec measures delivery throughput, not allocation.
        smoke: whether the scenario is part of the quick ``--smoke`` set.
        engine: the delivery engine the scenario exercises (``"event"``,
            ``"batched"``, ``"sharded"`` — or ``"event"`` for scenarios
            the knob does not apply to).  ``scripts/bench.py --engines``
            filters on it.
        memory_budget_mib: peak-RSS ceiling for this scenario in MiB, or
            ``None`` for no budget.  ``ru_maxrss`` is a process-lifetime
            high-water mark, so the budget must cover everything that ran
            in the process *before* this scenario too — the tracked suite
            orders scenarios by ascending footprint to keep the bound
            meaningful, and the scale tiers carry budgets sized to their
            own footprint plus that headroom.
    """

    name: str
    description: str
    setup: Callable[[], Any]
    run: Callable[[Any], int]
    prepare: Optional[Callable[[Any], Any]] = None
    smoke: bool = False
    engine: str = "event"
    memory_budget_mib: Optional[float] = None


def _adapter_session(
    protocol: str,
    overlay: Any,
    seed: int,
    engine: str,
    shards: Optional[int] = None,
    **options: Any,
) -> Any:
    """``(adapter, session)`` for ``protocol`` under constant 0.1 latency."""
    from repro.network import NetworkConditions
    from repro.protocols import create_protocol

    adapter = create_protocol(protocol, **options)
    session = adapter.build(
        overlay,
        conditions=NetworkConditions.ideal(),
        seed=seed,
        engine=engine,
        shards=shards,
    )
    return adapter, session


def flood_scenario(
    name: str,
    size: int,
    degree: int = 8,
    overlay_seed: int = 9,
    run_seed: int = 0,
    smoke: bool = False,
    engine: str = "event",
    memory_budget_mib: Optional[float] = None,
) -> Scenario:
    """Flood-and-prune broadcast on a ``size``-node random-regular overlay.

    Events are the deliveries the engine performed (the observation log
    length), i.e. exactly the per-event work of ``Simulator.run``.
    ``engine`` selects the simulator's delivery engine — both produce
    identical logs, so the event counts of an ``"event"`` and a
    ``"batched"`` tier of the same size are directly comparable.
    """

    def setup() -> Any:
        from repro.network.topology import random_regular_overlay

        return random_regular_overlay(size, degree=degree, seed=overlay_seed)

    def run(overlay: Any) -> int:
        flood, session = _adapter_session("flood", overlay, run_seed, engine)
        flood.broadcast(session, 0, "tx")
        return len(session.simulator.store)

    return Scenario(
        name=name,
        description=f"E11 flood-and-prune broadcast, {size:,} peers "
        f"(degree {degree}, {engine} engine)",
        setup=setup,
        run=run,
        smoke=smoke,
        engine=engine,
        memory_budget_mib=memory_budget_mib,
    )


def flood_runphase_scenario(
    name: str,
    size: int,
    degree: int = 8,
    overlay_seed: int = 9,
    run_seed: int = 0,
    smoke: bool = False,
    engine: str = "event",
    shards: Optional[int] = None,
    memory_budget_mib: Optional[float] = None,
) -> Scenario:
    """Pure run-phase flood tier: session construction is untimed.

    The plain flood tiers time a whole adapter broadcast, simulator
    construction included.  At 250k+ nodes allocating the node objects
    costs as much as delivering to them and would hide the engines'
    actual throughput difference, so these tiers build the session in the
    untimed ``prepare`` hook and time only the delivery run.  Events are
    the observation-log length, directly comparable across engines and
    shard counts (all engines produce identical logs).
    """

    def setup() -> Any:
        from repro.network.topology import random_regular_overlay

        return random_regular_overlay(size, degree=degree, seed=overlay_seed)

    def prepare(overlay: Any) -> Any:
        _, session = _adapter_session(
            "flood", overlay, run_seed, engine, shards=shards
        )
        sim = session.simulator
        sim.node(0).originate("tx")
        return sim

    def run(sim: Any) -> int:
        sim.run_until_idle()
        return len(sim.store)

    shard_note = f", {shards} shards" if shards is not None else ""
    return Scenario(
        name=name,
        description=f"E11 flood run phase, {size:,} peers "
        f"(degree {degree}, {engine} engine{shard_note})",
        setup=setup,
        run=run,
        prepare=prepare,
        smoke=smoke,
        engine=engine,
        memory_budget_mib=memory_budget_mib,
    )


def gossip_scenario(
    name: str,
    size: int,
    fanout: int = 4,
    degree: int = 8,
    overlay_seed: int = 9,
    run_seed: int = 0,
    smoke: bool = False,
    engine: str = "event",
    memory_budget_mib: Optional[float] = None,
) -> Scenario:
    """Probabilistic gossip broadcast on a ``size``-node overlay.

    The gossip fan-out draws from the protocol RNG per fresh node, so this
    tier exercises the batched engine's per-node sampling path (the part a
    pure flood never touches) at scale.
    """

    def setup() -> Any:
        from repro.network.topology import random_regular_overlay

        return random_regular_overlay(size, degree=degree, seed=overlay_seed)

    def run(overlay: Any) -> int:
        from repro.broadcast.gossip import GossipConfig

        gossip, session = _adapter_session(
            "gossip", overlay, run_seed, engine,
            config=GossipConfig(fanout=fanout),
        )
        gossip.broadcast(session, 0, "tx")
        return len(session.simulator.store)

    return Scenario(
        name=name,
        description=f"E11 gossip broadcast, {size:,} peers "
        f"(fanout {fanout}, {engine} engine)",
        setup=setup,
        run=run,
        smoke=smoke,
        engine=engine,
        memory_budget_mib=memory_budget_mib,
    )


def dcnet_round_scenario(
    name: str,
    frame_length: int = 1024,
    group_size: int = 8,
    rounds: int = 5,
    smoke: bool = False,
) -> Scenario:
    """DC-net rounds (Fig. 4) at ``frame_length``-byte frames.

    Events are the point-to-point share transmissions: ``3·k·(k−1)`` per
    round.  The XOR kernels dominate, so this scenario tracks the
    ``crypto/pads.py`` fast path.
    """

    def setup() -> Any:
        from repro.dcnet.collision import encode_payload

        group = list(range(group_size))
        frame = encode_payload(
            b"one anonymous blockchain transaction", frame_length
        )
        return group, frame

    def run(context: Any) -> int:
        from repro.dcnet.round import run_round

        group, frame = context
        rng = random.Random(0)
        events = 0
        for _ in range(rounds):
            result = run_round(group, {3: frame}, frame_length, rng)
            events += result.messages_sent
        return events

    return Scenario(
        name=name,
        description=f"E6 DC-net round, {frame_length} B frames, "
        f"group of {group_size}, {rounds} rounds",
        setup=setup,
        run=run,
        smoke=smoke,
    )


def attack_privacy_scenario(
    name: str,
    size: int = 200,
    degree: int = 8,
    overlay_seed: int = 43,
    adversary_fraction: float = 0.2,
    broadcasts: int = 5,
    run_seed: int = 0,
    smoke: bool = False,
) -> Scenario:
    """First-spy attack experiment with the privacy-metrics engine on.

    Times the full per-broadcast pipeline the scenario layer runs: flood
    dissemination, estimator posterior, streaming anonymity metrics and the
    multi-round intersection attack.  Events are the deliveries performed
    (messages per broadcast times broadcasts), so the number tracks the
    same engine work as the flood scenarios plus the measurement overhead.
    """

    def setup() -> Any:
        from repro.network.topology import random_regular_overlay

        return random_regular_overlay(size, degree=degree, seed=overlay_seed)

    def run(overlay: Any) -> int:
        from repro.analysis.experiment import run_attack_experiment
        from repro.network.conditions import NetworkConditions

        result = run_attack_experiment(
            overlay,
            "flood",
            adversary_fraction,
            broadcasts=broadcasts,
            seed=run_seed,
            conditions=NetworkConditions(),
        )
        assert result.privacy is not None
        return int(round(result.messages_per_broadcast * broadcasts))

    return Scenario(
        name=name,
        description=f"E13 attack + privacy metrics, {size} peers, "
        f"{adversary_fraction:.0%} adversary, {broadcasts} broadcasts",
        setup=setup,
        run=run,
        smoke=smoke,
    )


def adaptive_attack_scenario(
    name: str,
    size: int = 150,
    degree: int = 8,
    overlay_seed: int = 47,
    adversary_fraction: float = 0.2,
    broadcasts: int = 8,
    run_seed: int = 0,
    smoke: bool = False,
) -> Scenario:
    """E14 — first-spy attack with the posterior-chasing adaptive attacker.

    The adaptive model (``repro/threat/adaptive.py``) re-draws the
    monitored set between broadcasts from the accumulated posterior mass,
    so this scenario times the full adaptation loop on top of the E13
    pipeline: dissemination, estimator, score folding and re-placement.
    Events are the deliveries performed, comparable to E13's number — the
    gap between the two is the cost of adapting.
    """

    def setup() -> Any:
        from repro.network.topology import random_regular_overlay

        return random_regular_overlay(size, degree=degree, seed=overlay_seed)

    def run(overlay: Any) -> int:
        from repro.analysis.experiment import run_attack_experiment
        from repro.network.conditions import NetworkConditions
        from repro.threat import AdaptiveMonitoringAdversary

        result = run_attack_experiment(
            overlay,
            "flood",
            adversary_fraction,
            broadcasts=broadcasts,
            seed=run_seed,
            conditions=NetworkConditions(),
            adversary=AdaptiveMonitoringAdversary(),
        )
        assert result.adversary_metrics["adaptive_repositions"] > 0
        return int(round(result.messages_per_broadcast * broadcasts))

    return Scenario(
        name=name,
        description=f"E14 adaptive attacker, {size} peers, "
        f"{adversary_fraction:.0%} adversary, {broadcasts} broadcasts",
        setup=setup,
        run=run,
        smoke=smoke,
    )


def byzantine_blame_scenario(
    name: str,
    size: int = 100,
    group_size: int = 8,
    broadcasts: int = 4,
    run_seed: int = 5,
    smoke: bool = False,
) -> Scenario:
    """E14 — Byzantine DC-net member forcing full blame investigations.

    Each attacked broadcast replays the source's group as a committed
    round with flipped shares and runs the commit-then-open investigation
    (``repro/dcnet/blame.py``) to a verdict.  Events are the blame
    protocol's own transmissions (share digests + openings), so the number
    tracks the countermeasure's overhead, not the broadcast underneath.
    """

    def setup() -> Any:
        from repro.network.topology import random_regular_overlay

        return random_regular_overlay(size, degree=8, seed=11)

    def run(overlay: Any) -> int:
        from repro.analysis.experiment import run_attack_experiment
        from repro.protocols import protocol_class
        from repro.threat import ByzantineDCNetAdversary

        result = run_attack_experiment(
            overlay,
            protocol_class("three_phase").from_options(
                group_size=group_size, diffusion_depth=3
            ),
            0.1,
            broadcasts=broadcasts,
            seed=run_seed,
            privacy=False,
            adversary=ByzantineDCNetAdversary(tamper="flip", policy="expel"),
        )
        overhead = int(result.adversary_metrics["blame_overhead_messages"])
        assert overhead > 0
        return overhead

    return Scenario(
        name=name,
        description=f"E14 Byzantine blame rounds, {size} peers, "
        f"groups of {group_size}, {broadcasts} broadcasts",
        setup=setup,
        run=run,
        smoke=smoke,
    )


#: The tracked scenario suite.  ``--smoke`` runs the marked subset.  Kept
#: in ascending memory-footprint order so the process-lifetime ``ru_maxrss``
#: bound stays tight for the budgeted scale tiers at the end.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        dcnet_round_scenario("e6_dcnet_round_1kib", smoke=True),
        flood_scenario("e1_flood_1000", size=1000, smoke=True),
        flood_scenario("e11_flood_2000", size=2000, smoke=True),
        flood_scenario("e11_flood_5000", size=5000),
        flood_scenario("e11_flood_5000_batched", size=5000, engine="batched"),
        attack_privacy_scenario("e13_attack_privacy_200", smoke=True),
        adaptive_attack_scenario("e14_adaptive_attack_150", smoke=True),
        byzantine_blame_scenario("e14_byzantine_blame_100", smoke=True),
        # Scale tiers: only tractable on the batched engine (the event loop
        # needs minutes at 50k+), so only batched variants are tracked.
        gossip_scenario(
            "e11_gossip_50000_batched",
            size=50_000,
            engine="batched",
            memory_budget_mib=1024.0,
        ),
        flood_scenario(
            "e11_flood_50000_batched",
            size=50_000,
            engine="batched",
            memory_budget_mib=1024.0,
        ),
        flood_scenario(
            "e11_flood_100000_batched",
            size=100_000,
            engine="batched",
            memory_budget_mib=2048.0,
        ),
        # Run-phase tiers (untimed ``prepare``): session construction is
        # excluded, so these measure delivery throughput alone — the
        # apples-to-apples comparison between the batched engine and the
        # sharded engine's worker fan-out at the same node count.  The
        # sharded shard counts are the measured sweet spots per size (see
        # docs/BENCHMARKS.md for the full shard-count curve).
        flood_runphase_scenario(
            "e11_flood_250000_batched",
            size=250_000,
            engine="batched",
            memory_budget_mib=2048.0,
        ),
        flood_runphase_scenario(
            "e11_flood_250000_sharded",
            size=250_000,
            engine="sharded",
            shards=2,
            memory_budget_mib=2048.0,
        ),
        flood_runphase_scenario(
            "e11_flood_500000_sharded",
            size=500_000,
            engine="sharded",
            shards=4,
            memory_budget_mib=2560.0,
        ),
        # The 1M smoke tier: proves the sharded engine completes a
        # million-node flood within budget; not in the --smoke set (the
        # overlay alone takes minutes to generate in CI).
        flood_runphase_scenario(
            "e11_flood_1000000_sharded",
            size=1_000_000,
            engine="sharded",
            shards=4,
            memory_budget_mib=3072.0,
        ),
    )
}


def scenario_names(smoke_only: bool = False) -> List[str]:
    """Names of the tracked scenarios (optionally only the smoke set)."""
    return [
        name
        for name, scenario in SCENARIOS.items()
        if scenario.smoke or not smoke_only
    ]


def peak_rss_kib() -> int:
    """Peak resident set size in KiB (Linux semantics), workers included.

    ``ru_maxrss`` is the process-lifetime high-water mark — it never goes
    back down — so a scenario's reported value is an *upper bound* set by
    the largest scenario run so far in the process.  The tracked suite runs
    scenarios in ascending footprint order, which makes the bound tight for
    each suite's biggest scenarios; for exact per-scenario numbers run one
    scenario per process (``scripts/bench.py --scenarios <name>``).

    The sharded engine does its delivery work in forked worker processes;
    their memory must not escape the budget gate, so the reported number is
    the maximum of the parent's high-water mark and the largest reaped
    child's (``RUSAGE_CHILDREN``).  Fork shares the parent's pages
    copy-on-write, so a worker's ``ru_maxrss`` starts near the parent's —
    the max, not the sum, is the honest per-process bound.
    """
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def calibrate(loops: int = 3, inner: int = 200_000) -> float:
    """Machine speed reference: iterations/sec of a fixed pure-Python loop.

    Comparing ``events_per_second / calibration`` across two reports
    cancels most raw-CPU differences between the machines that produced
    them; on one machine the ratio test is identical to comparing raw
    events/sec.
    """
    best = float("inf")
    for _ in range(loops):
        accumulator = 0
        start = time.perf_counter()
        for i in range(inner):
            accumulator += i ^ (i >> 3)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return inner / best


def run_scenario(
    scenario: Scenario,
    repeats: int = 5,
    warmup: int = 1,
    collect_telemetry: bool = False,
) -> Dict[str, Any]:
    """Measure one scenario: median wall-clock, events/sec, peak RSS.

    The event count must be identical across repeats (scenarios are seeded
    and deterministic); a drift would mean the scenario is not measuring
    what it claims, so it fails loudly.

    With ``collect_telemetry`` the scenario runs one *extra, untimed*
    iteration under an ambient
    :class:`~repro.telemetry.recorder.TelemetryRecorder` and the result
    gains a ``"telemetry"`` block (counters, gauges, histograms,
    fallbacks, per-shard stats — spans are dropped, their wall-clock
    numbers would churn every report diff).  The timed iterations run
    without any recorder, so the measured numbers are unaffected.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    context = scenario.setup()

    def state() -> Any:
        if scenario.prepare is None:
            return context
        return scenario.prepare(context)

    for _ in range(warmup):
        scenario.run(state())
    seconds: List[float] = []
    events: Optional[int] = None
    prepared: Any = None
    for _ in range(repeats):
        # Simulator/node graphs are cyclic; collecting them *outside* the
        # timed region keeps one repeat's garbage from slowing the next and
        # makes repeats independent of how many scenarios ran before.  The
        # previous repeat's prepared state is dropped *before* the next one
        # is built — two live simulators would double a scale tier's peak.
        prepared = None
        gc.collect()
        prepared = state()
        start = time.perf_counter()
        run_events = scenario.run(prepared)
        seconds.append(time.perf_counter() - start)
        if events is None:
            events = run_events
        elif events != run_events:
            raise RuntimeError(
                f"scenario {scenario.name!r} is not deterministic: "
                f"{events} events, then {run_events}"
            )
    assert events is not None
    median_seconds = statistics.median(seconds)
    result = {
        "description": scenario.description,
        "repeats": repeats,
        "warmup": warmup,
        "events": events,
        "median_seconds": median_seconds,
        "min_seconds": min(seconds),
        "events_per_second": events / median_seconds,
        "peak_rss_kib": peak_rss_kib(),
    }
    if scenario.memory_budget_mib is not None:
        result["memory_budget_mib"] = scenario.memory_budget_mib
    if collect_telemetry:
        from repro.telemetry import TelemetryRecorder, recording

        recorder = TelemetryRecorder()
        # The recorder attaches at Simulator construction (ambient
        # lookup), so prepare-built state must happen inside the
        # recording block too.
        prepared = None
        gc.collect()
        with recording(recorder):
            scenario.run(state())
        document = recorder.to_dict()
        result["telemetry"] = {
            key: document[key]
            for key in (
                "counters", "gauges", "histograms", "fallbacks", "shards"
            )
        }
    return result


def run_suite(
    names: Sequence[str],
    repeats: int = 5,
    warmup: int = 1,
    meta: Optional[Dict[str, Any]] = None,
    collect_telemetry: bool = False,
) -> Dict[str, Any]:
    """Run the named scenarios and assemble a report dictionary.

    The report is what ``scripts/bench.py`` serialises to
    ``BENCH_<label>.json``: a ``meta`` block (environment + calibration) and
    one result block per scenario.  ``collect_telemetry`` adds a counter
    block per scenario (see :func:`run_scenario`); reports with and
    without the block remain mutually comparable.
    """
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenarios: {unknown}")
    import platform
    import sys

    report_meta: Dict[str, Any] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        # Generation time, embedded in the report: file mtimes are reset by
        # checkouts, so baseline auto-selection orders reports by this.
        "created_at": time.time(),
        "calibration_ops_per_second": calibrate(),
    }
    if meta:
        report_meta.update(meta)
    results = {
        name: run_scenario(
            SCENARIOS[name],
            repeats=repeats,
            warmup=warmup,
            collect_telemetry=collect_telemetry,
        )
        for name in names
    }
    return {"meta": report_meta, "results": results}


def telemetry_overhead(
    name: str, repeats: int = 3, warmup: int = 1
) -> Dict[str, Any]:
    """Measure the cost of an *enabled* telemetry recorder on one scenario.

    Runs the scenario's timed region ``repeats`` times without telemetry
    and ``repeats`` times under an ambient
    :class:`~repro.telemetry.recorder.TelemetryRecorder`, strictly
    interleaved (off, on, off, on, …) so machine-load drift hits both
    sides equally, then compares the *minimum* of each side — the right
    statistic for an overhead bound, since anything above the minimum is
    noise, not telemetry.

    Returns ``{"name", "off_seconds", "on_seconds", "overhead"}`` where
    ``overhead`` is ``on/off − 1`` (slightly negative values are normal
    measurement noise).
    """
    from repro.telemetry import TelemetryRecorder, recording

    scenario = SCENARIOS[name]
    context = scenario.setup()

    def state() -> Any:
        if scenario.prepare is None:
            return context
        return scenario.prepare(context)

    for _ in range(warmup):
        scenario.run(state())
    off: List[float] = []
    on: List[float] = []
    for _ in range(repeats):
        for samples, enabled in ((off, False), (on, True)):
            gc.collect()
            if not enabled:
                prepared = state()
                start = time.perf_counter()
                scenario.run(prepared)
                samples.append(time.perf_counter() - start)
            else:
                # The recorder attaches at Simulator construction, so the
                # (untimed) state build happens inside the recording block;
                # the timed region is identical to the off side.
                with recording(TelemetryRecorder()):
                    prepared = state()
                    start = time.perf_counter()
                    scenario.run(prepared)
                    samples.append(time.perf_counter() - start)
            prepared = None
    off_seconds = min(off)
    on_seconds = min(on)
    return {
        "name": name,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "overhead": on_seconds / off_seconds - 1.0,
    }


def memory_gate(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Check every budgeted scenario of a report against its budget.

    Budgets travel inside the report (``memory_budget_mib`` per result, set
    by the scenario definition at measurement time), so the gate needs no
    baseline: it is a property of the current run alone.  Scenarios without
    a budget are not listed.

    Returns one entry per budgeted scenario::

        {"name", "status" ("ok"|"over"), "peak_rss_mib", "budget_mib"}
    """
    entries: List[Dict[str, Any]] = []
    for name, result in report["results"].items():
        budget = result.get("memory_budget_mib")
        if budget is None:
            continue
        peak_mib = result["peak_rss_kib"] / 1024.0
        entries.append(
            {
                "name": name,
                "status": "over" if peak_mib > budget else "ok",
                "peak_rss_mib": peak_mib,
                "budget_mib": float(budget),
            }
        )
    return entries


def compare_reports(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    max_regression: float = 0.25,
) -> List[Dict[str, Any]]:
    """Compare two reports scenario by scenario.

    Throughput is normalised by each report's calibration number before
    comparing (see :func:`calibrate`).  A scenario regresses when its
    normalised events/sec drops by more than ``max_regression`` (fraction,
    e.g. ``0.25`` = 25 %).  Scenarios present in only one report are
    reported as ``"missing"`` and never fail the comparison.

    Returns one entry per scenario in the union of both reports::

        {"name", "status" ("ok"|"regression"|"improvement"|"missing"),
         "speedup", "baseline_eps", "current_eps",
         "baseline_counters", "current_counters"}

    where ``speedup`` is normalised current ÷ normalised baseline.  The
    counter entries surface each report's telemetry counter block when
    present and are ``None`` otherwise — reports written before the
    telemetry subsystem (or with it off) compare against newer ones, in
    either direction, without affecting any status.
    """

    def counters_of(result: Optional[Dict[str, Any]]) -> Optional[Any]:
        if not result:
            return None
        return result.get("telemetry", {}).get("counters")

    if not 0.0 <= max_regression < 1.0:
        raise ValueError("max_regression must be in [0, 1)")
    baseline_calibration = float(
        baseline["meta"].get("calibration_ops_per_second", 1.0)
    )
    current_calibration = float(
        current["meta"].get("calibration_ops_per_second", 1.0)
    )
    entries: List[Dict[str, Any]] = []
    names = list(
        dict.fromkeys(
            list(baseline["results"]) + list(current["results"])
        )
    )
    for name in names:
        base = baseline["results"].get(name)
        cur = current["results"].get(name)
        if base is None or cur is None:
            entries.append(
                {
                    "name": name,
                    "status": "missing",
                    "speedup": None,
                    "baseline_eps": base and base["events_per_second"],
                    "current_eps": cur and cur["events_per_second"],
                    "baseline_counters": counters_of(base),
                    "current_counters": counters_of(cur),
                }
            )
            continue
        base_normalised = base["events_per_second"] / baseline_calibration
        cur_normalised = cur["events_per_second"] / current_calibration
        speedup = cur_normalised / base_normalised
        if speedup < 1.0 - max_regression:
            status = "regression"
        elif speedup > 1.0 + max_regression:
            status = "improvement"
        else:
            status = "ok"
        entries.append(
            {
                "name": name,
                "status": status,
                "speedup": speedup,
                "baseline_eps": base["events_per_second"],
                "current_eps": cur["events_per_second"],
                "baseline_counters": counters_of(base),
                "current_counters": counters_of(cur),
            }
        )
    return entries
