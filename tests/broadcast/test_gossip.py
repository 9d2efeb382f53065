"""Tests for probabilistic gossip."""

import pytest

from repro.broadcast.gossip import GossipConfig, GossipNode
from repro.network.topology import random_regular_overlay


class TestGossip:
    def test_high_fanout_reaches_everyone(self, broadcast_once):
        graph = random_regular_overlay(100, degree=8, seed=0)
        result, _ = broadcast_once(
            graph, "gossip", source=0, config=GossipConfig(fanout=8), seed=1
        )
        assert result.reach == 100
        assert result.delivered_fraction == 1.0

    def test_low_fanout_uses_fewer_messages_than_flood(self, broadcast_once):
        graph = random_regular_overlay(200, degree=8, seed=2)
        gossip, _ = broadcast_once(
            graph, "gossip", source=0, config=GossipConfig(fanout=3), seed=3
        )
        flood, _ = broadcast_once(graph, "flood", source=0, seed=3)
        assert gossip.messages < flood.messages

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            GossipNode(0, GossipConfig(fanout=0))

    def test_deterministic(self, broadcast_once):
        graph = random_regular_overlay(100, degree=6, seed=4)
        a, _ = broadcast_once(graph, "gossip", source=0, seed=5)
        b, _ = broadcast_once(graph, "gossip", source=0, seed=5)
        assert a.messages == b.messages
        assert a.reach == b.reach

    def test_reach_non_trivial_with_moderate_fanout(self, broadcast_once):
        graph = random_regular_overlay(100, degree=8, seed=6)
        result, _ = broadcast_once(
            graph, "gossip", source=0, config=GossipConfig(fanout=4), seed=7
        )
        assert result.reach > 50
