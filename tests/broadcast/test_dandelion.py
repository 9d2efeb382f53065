"""Tests for the Dandelion stem/fluff baseline."""

import random

import networkx as nx
import pytest

from repro.broadcast.dandelion import (
    DandelionConfig,
    DandelionNode,
    assign_stem_successors,
)
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay


def _stem_and_fluff(sim):
    """Delivered stem and fluff message counts of one run."""
    return (
        sim.metrics.message_count(kind=DandelionNode.STEM_KIND),
        sim.metrics.message_count(kind=DandelionNode.FLUFF_KIND),
    )


class TestConfig:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            DandelionConfig(fluff_probability=0.0)
        with pytest.raises(ValueError):
            DandelionConfig(fluff_probability=1.5)

    def test_invalid_stem_length_rejected(self):
        with pytest.raises(ValueError):
            DandelionConfig(max_stem_length=0)


class TestStemSuccessors:
    def test_every_node_gets_a_neighbour(self):
        graph = random_regular_overlay(50, degree=4, seed=0)
        successors = assign_stem_successors(graph, random.Random(1))
        assert set(successors) == set(graph.nodes)
        for node, successor in successors.items():
            assert graph.has_edge(node, successor)

    def test_isolated_node_rejected(self):
        graph = nx.Graph()
        graph.add_node(0)
        with pytest.raises(ValueError):
            assign_stem_successors(graph, random.Random(0))

    def test_reassignment_changes_some_successors(self):
        graph = random_regular_overlay(100, degree=6, seed=2)
        first = assign_stem_successors(graph, random.Random(1))
        second = assign_stem_successors(graph, random.Random(2))
        assert first != second


class TestDandelionRun:
    def test_reaches_all_nodes(self, broadcast_once):
        graph = random_regular_overlay(200, degree=8, seed=0)
        result, _ = broadcast_once(graph, "dandelion", source=0, seed=1)
        assert result.reach == 200
        assert result.completion_time is not None

    def test_has_stem_and_fluff_traffic(self, broadcast_once):
        graph = random_regular_overlay(200, degree=8, seed=0)
        result, sim = broadcast_once(
            graph, "dandelion", source=0,
            config=DandelionConfig(fluff_probability=0.2), seed=3,
        )
        stem, fluff = _stem_and_fluff(sim)
        assert fluff > 0
        assert stem + fluff == result.messages

    def test_stem_length_bounded(self, broadcast_once):
        graph = random_regular_overlay(100, degree=6, seed=4)
        config = DandelionConfig(fluff_probability=0.01, max_stem_length=5)
        result, sim = broadcast_once(
            graph, "dandelion", source=0, config=config, seed=5
        )
        assert result.reach == 100
        stem, _ = _stem_and_fluff(sim)
        assert stem <= 3 * 5  # a few stems may run concurrently

    def test_immediate_fluff_when_probability_one(self, broadcast_once):
        graph = random_regular_overlay(50, degree=4, seed=6)
        config = DandelionConfig(fluff_probability=1.0)
        result, sim = broadcast_once(
            graph, "dandelion", source=0, config=config, seed=7
        )
        assert _stem_and_fluff(sim)[0] == 0
        assert result.reach == 50

    def test_deterministic(self, broadcast_once):
        graph = random_regular_overlay(100, degree=6, seed=8)
        a, sim_a = broadcast_once(graph, "dandelion", source=0, seed=9)
        b, sim_b = broadcast_once(graph, "dandelion", source=0, seed=9)
        assert a.messages == b.messages
        assert _stem_and_fluff(sim_a) == _stem_and_fluff(sim_b)


class TestDandelionNode:
    def test_new_epoch_validates_neighbour(self):
        graph = nx.path_graph(4)
        sim = Simulator(graph, seed=0)
        successors = assign_stem_successors(graph, random.Random(0))
        sim.populate(lambda n: DandelionNode(n, stem_successor=successors[n]))
        node = sim.node(1)
        node.new_epoch(2)
        assert node.stem_successor == 2
        with pytest.raises(ValueError):
            node.new_epoch(3)

    def test_missing_successor_raises_at_use(self):
        graph = nx.path_graph(3)
        sim = Simulator(graph, seed=0)
        sim.populate(lambda n: DandelionNode(n, DandelionConfig(fluff_probability=0.001)))
        with pytest.raises(RuntimeError):
            sim.node(0).originate("tx")
            sim.run_until_idle()
