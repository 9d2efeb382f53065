"""Fixtures shared by the tier-1 suite and the benchmarks."""

import pytest


@pytest.fixture
def broadcast_once():
    """Run one broadcast through a protocol's registry adapter.

    ``broadcast_once(graph, "gossip", source=0, seed=1, config=...)``
    builds a session under constant 0.1 latency (``engine``/``shards``
    select the delivery engine; other keywords go to the adapter),
    broadcasts payload ``"tx"`` from ``source`` and returns the
    ``(SessionBroadcast, Simulator)`` pair.
    """
    from repro.network import NetworkConditions
    from repro.protocols import create_protocol

    def run(
        graph, protocol="flood", source=0, seed=None, engine="event",
        shards=None, **options,
    ):
        adapter = create_protocol(protocol, **options)
        session = adapter.build(
            graph, conditions=NetworkConditions.ideal(), seed=seed,
            engine=engine, shards=shards,
        )
        return adapter.broadcast(session, source, "tx"), session.simulator

    return run
