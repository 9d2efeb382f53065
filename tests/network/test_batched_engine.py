"""The batched cohort-delivery engine: selection, parity and limits.

The engine-equivalence *properties* live in
``tests/property/test_engine_equivalence.py``; this module pins the
engine's unit surface:

* engine selection and validation on ``Simulator`` (KeyError listing the
  registered engines, PR-6 CLI convention);
* the golden observation-log digests of the fixed fast-path scenarios,
  reproduced bit-for-bit under ``engine="batched"``;
* ``pending_events`` counting queued cohort blocks;
* in-flight cohort blocks surviving a node-population change that drops
  the cohort kernel;
* ``run(max_events=...)`` cohort-granularity stop and the descriptive
  ``run_until_idle`` error naming the engine in use;
* ``on_first`` hooks firing identically on both engines (the hook path
  forces the engine off the vectorised cohort onto per-item processing).
"""

import hashlib

import pytest

from repro.broadcast.flood import FloodNode
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.node import Node
from repro.network.simulator import ENGINES, Simulator
from repro.network.topology import random_regular_overlay


def observation_digest(sim: Simulator) -> str:
    digest = hashlib.sha256()
    for obs in sim.iter_observations():
        digest.update(
            repr(
                (
                    obs.time,
                    obs.receiver,
                    obs.sender,
                    obs.message.kind,
                    obs.message.payload_id,
                    obs.message.size_bytes,
                    obs.direct,
                )
            ).encode()
        )
    return digest.hexdigest()


class TestEngineSelection:
    def test_registered_engines(self):
        assert ENGINES == ("event", "batched", "sharded")

    def test_default_engine_is_event(self):
        overlay = random_regular_overlay(10, degree=3, seed=1)
        assert Simulator(overlay).engine == "event"

    def test_unknown_engine_lists_registered(self):
        overlay = random_regular_overlay(10, degree=3, seed=1)
        with pytest.raises(KeyError) as excinfo:
            Simulator(overlay, engine="warp")
        message = excinfo.value.args[0]
        assert "unknown engine 'warp'" in message
        assert "batched" in message and "event" in message

    def test_engine_property_reports_batched(self):
        overlay = random_regular_overlay(10, degree=3, seed=1)
        assert Simulator(overlay, engine="batched").engine == "batched"


class TestGoldenLogsBatched:
    """The fast-path goldens, reproduced on the batched engine.

    Same digests as ``tests/network/test_fastpath_determinism.py`` pins for
    the event engine — the strongest form of the parity contract.
    """

    def test_flood_log_unchanged(self, broadcast_once):
        overlay = random_regular_overlay(200, degree=8, seed=3)
        _, sim = broadcast_once(
            overlay, "flood", source=0, seed=11, engine="batched"
        )
        assert observation_digest(sim) == (
            "f4f67c74e1ab6a66909eea87966d0c547ef2bae70d1c9e5d50cc996786577723"
        )

    def test_gossip_log_unchanged(self, broadcast_once):
        overlay = random_regular_overlay(200, degree=8, seed=3)
        _, sim = broadcast_once(
            overlay, "gossip", source=5, seed=12, engine="batched"
        )
        assert observation_digest(sim) == (
            "a7e2ffccad25a793a845c35ef15ac6dfe411d28e79a197fec790ce57899b47a7"
        )

    def test_lossy_jittery_log_unchanged(self):
        overlay = random_regular_overlay(120, degree=8, seed=21)
        conditions = NetworkConditions.internet_like(
            loss_probability=0.08, jitter=0.05
        )
        sim = Simulator(
            overlay, seed=77, conditions=conditions, engine="batched"
        )
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.dropped_messages == 69
        assert observation_digest(sim) == (
            "b7cd3c318ed9d4bdd86c0f1e56af79ca49e5dfa8d8e93939b1968f70e175e43e"
        )


def _batched_flood(size=60, degree=4, seed=2):
    overlay = random_regular_overlay(size, degree=degree, seed=seed)
    sim = Simulator(
        overlay, latency=ConstantLatency(1.0), seed=0, engine="batched"
    )
    sim.populate(FloodNode)
    return sim


class TestPendingEventsAndLimits:
    def test_pending_events_counts_cohort_blocks(self):
        # After one hop the next wave lives in cohort blocks, each one heap
        # entry; pending_events must count every delivery they hold, and
        # run_until_idle must drain them.
        sim = _batched_flood()
        sim.node(0).originate("tx")
        sim.run(until=1.5)
        assert sim.pending_events > 0
        sim.run_until_idle()
        assert sim.pending_events == 0
        assert sim.metrics.reach("tx") == 60

    def test_max_events_stops_between_cohorts(self):
        sim = _batched_flood()
        sim.node(0).originate("tx")
        sim.run(max_events=5)
        # The cap is cohort-granular: the run may overshoot within one
        # cohort but must stop with the remaining waves still pending.
        assert sim.pending_events > 0

    def test_run_until_idle_error_names_batched_engine(self):
        sim = _batched_flood()
        sim.node(0).originate("tx")
        with pytest.raises(RuntimeError, match=r"'batched' engine"):
            sim.run_until_idle(max_events=5)

    def test_run_until_idle_error_names_event_engine(self):
        overlay = random_regular_overlay(60, degree=4, seed=2)
        sim = Simulator(overlay, latency=ConstantLatency(1.0), seed=0)
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        with pytest.raises(RuntimeError, match=r"'event' engine"):
            sim.run_until_idle(max_events=5)

    def test_until_clock_semantics_match_event_engine(self):
        for engine in ENGINES:
            overlay = random_regular_overlay(20, degree=4, seed=7)
            sim = Simulator(
                overlay, latency=ConstantLatency(1.0), seed=0, engine=engine
            )
            sim.populate(FloodNode)
            sim.node(0).originate("tx")
            # The queue drains well before until=50; the clock still ends
            # exactly there on both engines.
            assert sim.run(until=50.0) == 50.0
            assert sim.now == 50.0


class _Idle(Node):
    def on_message(self, sender, message):
        pass


class TestPopulationChangeInFlight:
    def test_node_of_another_type_added_while_blocks_in_flight(self):
        # Adding a non-flood node drops the cohort kernel mid-broadcast;
        # the event loop that takes over must still deliver the wave the
        # kernel queued as blocks, exactly as the event engine does.
        digests = {}
        for engine in ("event", "batched"):
            overlay = random_regular_overlay(60, degree=4, seed=2)
            overlay.add_node(60)  # isolated until a node is registered
            sim = Simulator(
                overlay, latency=ConstantLatency(1.0), seed=0, engine=engine
            )
            for node_id in range(60):
                sim.add_node(FloodNode(node_id))
            sim.node(0).originate("tx")
            sim.run(until=2.5)
            assert sim.pending_events > 0
            sim.add_node(_Idle(60))
            sim.run_until_idle()
            assert sim.metrics.reach("tx") == 60
            assert sim.engine_effective == "event"
            digests[engine] = observation_digest(sim)
        assert digests["batched"] == digests["event"]


class TestFirstHooks:
    def test_on_first_fires_identically_on_both_engines(self):
        fired = {}
        for engine in ENGINES:
            overlay = random_regular_overlay(40, degree=4, seed=9)
            sim = Simulator(
                overlay, latency=ConstantLatency(1.0), seed=0, engine=engine
            )
            sim.populate(FloodNode)
            observed = []
            sim.store.on_first(
                "tx", FloodNode.MESSAGE_KIND, observed.append
            )
            sim.node(0).originate("tx")
            sim.run_until_idle()
            assert len(observed) == 1
            obs = observed[0]
            fired[engine] = (
                obs.time, obs.receiver, obs.sender, obs.message.payload_id
            )
        assert fired["batched"] == fired["event"]
