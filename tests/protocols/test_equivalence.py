"""Seed-for-seed equivalence of the registry harness with the legacy loop.

The golden numbers below were captured by running the pre-registry
attack experiment (the hard-coded if/elif implementation) at the commit
that introduced the protocol registry.  The registry harness must keep
reproducing them exactly: same detection counts, same mean message counts,
for each of the three protocols that loop supported, under the conditions
it used — constant 0.1 latency for the three-phase protocol, the default
lossless per-edge latency for flood and Dandelion.
"""

import pytest

from repro.analysis.experiment import run_attack_experiment
from repro.broadcast.dandelion import DandelionConfig
from repro.core.config import ProtocolConfig
from repro.network import NetworkConditions
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol

# (protocol, kwargs, (total, guesses, correct, messages_per_broadcast, floor))
GOLDEN = [
    ("flood", dict(adversary_fraction=0.3, broadcasts=6, seed=0),
     (6, 6, 3, 301.0, 1)),
    ("flood", dict(adversary_fraction=0.15, broadcasts=5, seed=7),
     (5, 5, 4, 301.0, 1)),
    ("dandelion", dict(adversary_fraction=0.2, broadcasts=5, seed=1),
     (5, 5, 1, 308.0, 1)),
    ("dandelion", dict(adversary_fraction=0.3, broadcasts=4, seed=3,
                       config=DandelionConfig(fluff_probability=0.2)),
     (4, 4, 1, 307.25, 1)),
    ("three_phase", dict(adversary_fraction=0.2, broadcasts=4, seed=2,
                         config=ProtocolConfig(group_size=4, diffusion_depth=2)),
     (4, 4, 0, 531.25, 4)),
    ("three_phase", dict(adversary_fraction=0.3, broadcasts=3, seed=5,
                         config=ProtocolConfig(group_size=5, diffusion_depth=2)),
     (3, 3, 1, 681.3333333333334, 5)),
]

#: The conditions the pre-registry loop ran each protocol under.
LEGACY_CONDITIONS = {
    "flood": NetworkConditions(),
    "dandelion": NetworkConditions(),
    "three_phase": NetworkConditions.ideal(),
}


@pytest.fixture(scope="module")
def overlay():
    return random_regular_overlay(60, degree=6, seed=1)


class TestPreRegistryGoldens:
    @pytest.mark.parametrize(
        "protocol, kwargs, expected",
        GOLDEN,
        ids=[f"{p}-seed{kw['seed']}" for p, kw, _ in GOLDEN],
    )
    def test_registry_reproduces_pre_registry_results(
        self, overlay, protocol, kwargs, expected
    ):
        kwargs = dict(kwargs)
        options = {"config": kwargs.pop("config")} if "config" in kwargs else {}
        result = run_attack_experiment(
            overlay,
            create_protocol(protocol, **options),
            conditions=LEGACY_CONDITIONS[protocol],
            **kwargs,
        )
        total, guesses, correct, messages, floor = expected
        assert result.protocol == protocol
        assert result.detection.total == total
        assert result.detection.guesses == guesses
        assert result.detection.correct == correct
        assert result.messages_per_broadcast == pytest.approx(messages)
        assert result.anonymity_floor == floor


class TestDeterminism:
    def test_experiment_is_seed_deterministic(self, overlay):
        runs = [
            run_attack_experiment(
                overlay, "dandelion", adversary_fraction=0.25,
                broadcasts=4, seed=9,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_estimators_are_pluggable(self, overlay):
        first_spy = run_attack_experiment(
            overlay, "flood", adversary_fraction=0.3, broadcasts=3, seed=6,
            estimator="first_spy",
        )
        snapshot = run_attack_experiment(
            overlay, "flood", adversary_fraction=0.3, broadcasts=3, seed=6,
            estimator="rumor_centrality",
        )
        assert first_spy.estimator == "first_spy"
        assert snapshot.estimator == "rumor_centrality"
        # Same protocol runs (same seeds), different adversary analytics.
        assert first_spy.messages_per_broadcast == snapshot.messages_per_broadcast
        assert snapshot.detection.total == 3

    def test_unknown_estimator_rejected(self, overlay):
        with pytest.raises(ValueError, match="unknown estimator"):
            run_attack_experiment(
                overlay, "flood", 0.2, broadcasts=2, seed=0,
                estimator="crystal-ball",
            )
