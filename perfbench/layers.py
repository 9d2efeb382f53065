"""Which entry points each layer is timed at, and the per-layer metrics.

A layer is a ``repro`` module.  :func:`install` wraps the layers' public
entry points where their callers look them up; :func:`layer_metrics`
turns the resulting spans, the run's ``TelemetryRecorder`` document and the
probe's counters into the named per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, List, Tuple

from tracer import Tracer

#: Message kinds of the workloads' protocols, one delivery counter each.
DELIVERY_KINDS = (
    "flood", "dc_exchange", "ad_payload", "ad_spread", "ad_token",
    "ad_final", "dandelion_stem", "dandelion_fluff",
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("topology.build_s", "s"),
    ("groups.form_s", "s"),
    ("network.populate_s", "s"),
    ("adversary.place_s", "s"),
    ("protocols.session_build_s", "s"),
    ("protocols.sessions", "count"),
    ("network.engine_prepare_s", "s"),
    ("network.engine_run_s", "s"),
    ("network.events", "count"),
    ("network.engine_events_per_s", "1/s"),
    ("network.cohort_frac", "ratio"),
) + tuple(
    (f"network.deliveries.{kind}", "count") for kind in DELIVERY_KINDS
) + (
    ("sharded.windows", "count"),
    ("sharded.shard_imbalance", "ratio"),
    ("network.store_query_s", "s"),
    ("network.loss_draws", "count"),
    ("network.jitter_draws", "count"),
    ("network.loss_dropped", "count"),
    ("dcnet.session_s", "s"),
    ("dcnet.rounds", "count"),
    ("adversary.estimate_s", "s"),
    ("privacy.measure_s", "s"),
    ("protocols.broadcast_p50_s", "s"),
    ("protocols.broadcast_p95_s", "s"),
    ("protocols.broadcast_samples", "count"),
    ("analysis.worker_busy_frac", "ratio"),
    ("sim.msgs.dc_net", "count"),
    ("sim.msgs.diffusion", "count"),
    ("sim.msgs.flood", "count"),
    ("sim_detection_prob", "ratio"),
    ("error_rate", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: Span name of each timed layer (the metric is ``<span>_s``).
SPAN_METRICS = {
    "topology.build_s": "topology.build",
    "groups.form_s": "groups.form",
    "network.populate_s": "network.populate",
    "adversary.place_s": "adversary.place",
    "protocols.session_build_s": "protocols.session_build",
    "network.engine_prepare_s": "network.engine_prepare",
    "network.engine_run_s": "network.engine_run",
    "network.store_query_s": "network.store_query",
    "dcnet.session_s": "dcnet.session",
    "privacy.measure_s": "privacy.measure",
}

BROADCAST_SPAN = "protocols.broadcast"


def install(tracer: Tracer, kinds: Counter) -> None:
    """Wrap every layer's entry points; count deliveries per message kind.

    ``kinds`` receives, for every adapter ``broadcast`` call, the change in
    the session's ``ObservationStore.kind_counts()`` across the call.
    """
    import repro.analysis.experiment as experiment
    import repro.network.batched as batched
    import repro.network.sharded as sharded
    from repro.dcnet.group_session import DCNetGroupSession
    from repro.groups.directory import GroupDirectory
    from repro.network.observation_store import ObservationStore
    from repro.network.simulator import Simulator
    from repro.privacy.intersection import IntersectionAttack
    from repro.privacy.metrics import PrivacyAccumulator
    from repro.protocols import available_protocols, protocol_class
    from repro.scenarios.spec import TopologySpec
    from repro.threat.base import AdversaryModel

    trace = tracer.trace
    trace(TopologySpec, "build", "topology.build")
    trace(GroupDirectory, "__init__", "groups.form")
    trace(Simulator, "populate", "network.populate")
    trace(experiment, "deploy_botnet", "adversary.place")
    trace(AdversaryModel, "place", "adversary.place")
    trace(batched, "csr_topology", "network.engine_prepare")
    trace(sharded, "shard_assignment", "network.engine_prepare")
    trace(Simulator, "run", "network.engine_run")
    for query in ("for_receivers", "first_observations", "of_payload", "count_for"):
        trace(ObservationStore, query, "network.store_query")
    trace(DCNetGroupSession, "run_until_empty", "dcnet.session")
    for factory in set(experiment.ESTIMATORS.values()):
        for attr in ("__init__", "guess"):
            trace(factory, attr, "adversary.estimate")
    trace(experiment, "estimator_rank", "adversary.estimate")
    trace(PrivacyAccumulator, "add", "privacy.measure")
    trace(PrivacyAccumulator, "report", "privacy.measure")
    trace(IntersectionAttack, "observe", "privacy.measure")
    trace(IntersectionAttack, "outcomes", "privacy.measure")
    trace(experiment, "summarize_intersection", "privacy.measure")
    for name in available_protocols():
        adapter = protocol_class(name)
        if "build" in vars(adapter):
            trace(adapter, "build", "protocols.session_build")
        if "broadcast" in vars(adapter):
            _count_kinds(tracer, adapter, kinds)
            trace(adapter, "broadcast", BROADCAST_SPAN)


def _count_kinds(tracer: Tracer, adapter: type, kinds: Counter) -> None:
    def make(original):
        def broadcast(self, session, source, payload_id):
            store = session.simulator.store
            before = store.kind_counts()
            outcome = original(self, session, source, payload_id)
            kinds.update(store.kind_counts())
            kinds.subtract(before)
            return outcome

        return broadcast

    tracer.wrap(adapter, "broadcast", make)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(
    tracer: Tracer,
    telemetry: Dict[str, Any],
    kinds: Counter,
    probe: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics of one traced run, and why any is not applicable.

    ``analysis.worker_busy_frac``, ``sim_detection_prob``, ``error_rate``
    and ``trace.overhead_frac`` need the untraced run or the whole
    measurement, so the caller fills them in.
    """
    spans = tracer.totals()
    metrics: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = spans.get(span, {}).get("total_s", 0.0)
    metrics["protocols.sessions"] = spans.get(
        "protocols.session_build", {}
    ).get("calls", 0)
    # Estimator self time: the store queries it makes are their own layer.
    metrics["adversary.estimate_s"] = spans.get(
        "adversary.estimate", {}
    ).get("self_s", 0.0)

    counters = telemetry.get("counters", {})
    events = counters.get("events_dispatched", 0)
    metrics["network.events"] = events
    run_s = metrics["network.engine_run_s"]
    metrics["network.engine_events_per_s"] = events / run_s if run_s else 0.0
    shards = telemetry.get("shards", {})
    shard_deliveries = [
        counts.get("deliveries_processed", 0) for counts in shards.values()
    ]
    cohort_deliveries = sum(
        doc.get("histograms", {}).get("cohort_size", {}).get("sum", 0)
        for doc in telemetry.get("repetitions", [])
    )
    metrics["network.cohort_frac"] = (
        (cohort_deliveries + sum(shard_deliveries)) / events if events else 0.0
    )
    for kind in DELIVERY_KINDS:
        metrics[f"network.deliveries.{kind}"] = kinds.get(kind, 0)
    if shard_deliveries:
        metrics["sharded.windows"] = max(
            counts.get("windows", 0) for counts in shards.values()
        )
        mean = sum(shard_deliveries) / len(shard_deliveries)
        metrics["sharded.shard_imbalance"] = (
            max(shard_deliveries) / mean if mean else 0.0
        )
    else:
        metrics["sharded.windows"] = 0
        metrics["sharded.shard_imbalance"] = 0.0
        absent["sharded.shard_imbalance"] = "no sharded run"
    for name in ("loss_draws", "jitter_draws", "loss_dropped"):
        metrics[f"network.{name}"] = counters.get(name, 0)

    durations = tracer.durations(BROADCAST_SPAN)
    metrics["protocols.broadcast_samples"] = len(durations)
    metrics["protocols.broadcast_p50_s"] = (
        percentile(durations, 50) if durations else 0.0
    )
    # Report a p95 only with at least ten samples beyond it.
    if len(durations) * 0.05 >= 10:
        metrics["protocols.broadcast_p95_s"] = percentile(durations, 95)
    else:
        metrics["protocols.broadcast_p95_s"] = 0.0
        absent["protocols.broadcast_p95_s"] = (
            f"{len(durations)} samples, fewer than 10 beyond the p95"
        )

    broadcasts = probe["phase_broadcasts"]
    metrics["dcnet.rounds"] = probe["dc_rounds"]
    for metric, slot in (
        ("sim.msgs.dc_net", "phase_dc_net"),
        ("sim.msgs.diffusion", "phase_adaptive_diffusion"),
        ("sim.msgs.flood", "phase_flood"),
    ):
        metrics[metric] = probe[slot] / broadcasts if broadcasts else 0.0
    if not broadcasts:
        absent["sim.msgs.*"] = "not the three-phase protocol"
    return metrics, absent
