"""Message and observation records exchanged through the simulator.

A :class:`Message` is what protocol nodes send to each other; an
:class:`Observation` is the simulator-side record of a delivery, which is the
only information the honest-but-curious adversaries of
:mod:`repro.adversary` are allowed to consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional

@dataclass(slots=True)
class Message:
    """A protocol message travelling over one overlay link.

    Attributes:
        kind: protocol-specific message type, e.g. ``"flood"`` or
            ``"ad_token"``.
        payload_id: identifier of the transaction / payload being spread.
            All messages belonging to one broadcast share this id.
        body: arbitrary protocol metadata (share bytes, round counters, ...).
        size_bytes: accounted message size; used only for traffic statistics.
    """

    kind: str
    payload_id: Hashable
    body: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 256

    def copy_for_forwarding(self) -> "Message":
        """Return a fresh message instance carrying the same content.

        The body is copied, so a forwarder may change its copy without
        touching the message it received.
        """
        return Message(
            kind=self.kind,
            payload_id=self.payload_id,
            body=dict(self.body),
            size_bytes=self.size_bytes,
        )


class Observation:
    """A single delivery as seen from the receiving node.

    Observations are allocated once per delivery on the simulator's hottest
    path, so the class is hand-rolled rather than a dataclass: slotted (no
    per-instance ``__dict__``) with a plain ``__init__`` that avoids the
    ``object.__setattr__`` detour a frozen dataclass pays per field.  Treat
    instances as immutable records — every index in the observation store
    assumes a recorded observation never changes.

    Attributes:
        time: simulated delivery time.
        receiver: node that received the message.
        sender: node that sent the message (the previous hop).
        message: the delivered message.
        direct: ``True`` if the link used is an overlay edge, ``False`` for
            out-of-band group traffic (e.g. DC-net exchanges).
    """

    __slots__ = ("time", "receiver", "sender", "message", "direct")

    def __init__(
        self,
        time: float,
        receiver: Hashable,
        sender: Optional[Hashable],
        message: Message,
        direct: bool = True,
    ) -> None:
        self.time = time
        self.receiver = receiver
        self.sender = sender
        self.message = message
        self.direct = direct

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Observation:
            return NotImplemented
        return (
            self.time == other.time
            and self.receiver == other.receiver
            and self.sender == other.sender
            and self.message == other.message
            and self.direct == other.direct
        )

    # Observations contain a (mutable) Message, exactly like the previous
    # frozen-dataclass version whose generated hash would have failed on the
    # message field — so they are explicitly unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Observation(time={self.time!r}, receiver={self.receiver!r}, "
            f"sender={self.sender!r}, message={self.message!r}, "
            f"direct={self.direct!r})"
        )
