"""Flood-and-prune broadcast.

The reference dissemination mechanism of blockchain peer-to-peer networks and
Phase 3 of the paper's protocol: on the first reception of a payload a node
forwards it to every neighbour except the one it came from; duplicates are
dropped ("pruned").  Delivery to all nodes of a connected overlay is
guaranteed, at a cost of roughly ``2·|E| − |V| + 1`` messages.
"""

from __future__ import annotations

from typing import Hashable, Optional, Set

import numpy as np

from repro.network.batched import CohortKernel, exclude_sender_fan_out
from repro.network.message import Message
from repro.network.node import Node


class FloodNode(Node):
    """A peer performing flood-and-prune broadcasts."""

    #: Message kind used on the wire.
    MESSAGE_KIND = "flood"

    def __init__(self, node_id: Hashable, payload_size_bytes: int = 256) -> None:
        super().__init__(node_id)
        self.payload_size_bytes = payload_size_bytes
        self._seen: Set[Hashable] = set()

    def originate(self, payload_id: Hashable) -> None:
        """Introduce a payload and flood it to every neighbour."""
        if payload_id in self._seen:
            return
        self._seen.add(payload_id)
        self.mark_delivered(payload_id)
        self._forward(payload_id, exclude=None)

    def on_message(self, sender: Hashable, message: Message) -> None:
        if message.kind != self.MESSAGE_KIND:
            self.on_unhandled_message(sender, message)
            return
        if message.payload_id in self._seen:
            return  # prune
        self._seen.add(message.payload_id)
        self.mark_delivered(message.payload_id)
        self._forward(message.payload_id, exclude=sender)

    def on_unhandled_message(self, sender: Hashable, message: Message) -> None:
        """Hook for subclasses that mix flooding with other message kinds."""
        raise ValueError(
            f"unexpected message kind {message.kind!r} at node {self.node_id!r}"
        )

    def has_seen(self, payload_id: Hashable) -> bool:
        """Whether this node already processed the payload."""
        return payload_id in self._seen

    def _forward(self, payload_id: Hashable, exclude: Optional[Hashable]) -> None:
        for peer in self.neighbours:
            if peer != exclude:
                self.send(
                    peer,
                    Message(
                        kind=self.MESSAGE_KIND,
                        payload_id=payload_id,
                        size_bytes=self.payload_size_bytes,
                    ),
                )


class FloodCohortKernel(CohortKernel):
    """Vectorised flood-and-prune cohorts for the batched engine.

    The fan-out is the CSR form of :meth:`FloodNode._forward`
    (:func:`~repro.network.batched.exclude_sender_fan_out`, which the
    sharded engine's workers run too): every neighbour except the
    delivering sender, with offline nodes and severed links masked out
    exactly as ``neighbours_of`` excludes them.  One
    :class:`~repro.network.message.Message` is shared across a node's
    forwards (the event engine allocates one per forward); messages carry
    no identity beyond their content, so every observable is identical.
    """

    node_type = FloodNode
    kind = FloodNode.MESSAGE_KIND
    # Flooding consumes no randomness at all — no coin flips, no sampling —
    # so shard workers can process cohorts without any shared RNG stream.
    rng_free = True

    def _node_has_seen(self, node: FloodNode, payload_id: Hashable) -> bool:
        return payload_id in node._seen

    def _mark_node_seen(self, node: FloodNode, payload_id: Hashable) -> None:
        node._seen.add(payload_id)

    def prior_seen_ids(self, payload_id: Hashable):
        # Every flood code path writes ``_seen`` and ``mark_delivered``
        # together, so ``_seen`` holders are a subset of the delivered
        # index; filtering that (usually tiny) index through the node
        # state keeps the answer exact even if a caller marked a node
        # delivered out of band.
        nodes = self.simulator._nodes
        entries = self.simulator.metrics._deliveries_by_payload.get(
            payload_id, ()
        )
        return [
            node_id
            for _, node_id in entries
            if payload_id in nodes[node_id]._seen
        ]

    def shard_node_sizes(self) -> np.ndarray:
        nodes = self.simulator._nodes
        return np.fromiter(
            (nodes[node_id].payload_size_bytes
             for node_id in self._topology.ids),
            dtype=np.int64,
            count=self._topology.n,
        )

    def _fan_out(
        self,
        time: float,
        fresh_receivers: np.ndarray,
        fresh_exclude: np.ndarray,
        payload_id: Hashable,
    ) -> None:
        topology = self._topology
        targets, senders, kept_counts = exclude_sender_fan_out(
            topology.indptr,
            topology.indices,
            fresh_receivers,
            fresh_exclude,
            self._online,
            self._edge_ok,
        )
        nodes = self.simulator._nodes
        ids = topology.ids
        fresh_count = len(fresh_receivers)
        node_messages = np.empty(fresh_count, dtype=object)
        node_sizes = np.empty(fresh_count, dtype=np.int64)
        for i, r in enumerate(fresh_receivers.tolist()):
            size = nodes[ids[r]].payload_size_bytes
            node_sizes[i] = size
            node_messages[i] = Message(
                kind=self.kind, payload_id=payload_id, size_bytes=size
            )
        self._emit(
            time,
            senders,
            targets,
            np.repeat(node_messages, kept_counts),
            np.repeat(node_sizes, kept_counts),
            payload_id,
        )


FloodNode.COHORT_KERNEL = FloodCohortKernel
