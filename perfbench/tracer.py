"""Span tracing from outside the program: wrap entry points, then restore them.

The benchmark never edits ``src/``.  It times a layer by replacing one of
the layer's public entry points with a timing wrapper, at the place where
the caller looks the name up (a module global such as
``repro.analysis.experiment.deploy_botnet`` or a class attribute such as
``Simulator.run``), and puts the original back afterwards.

Spans live in memory as flat records with parent links and are written out
once, when the traced run ends.  A call into an entry point whose layer is
already the innermost open span (``for_receivers`` calling ``count_for``,
``run_until_idle`` calling ``run``) is folded into that span, so a layer's
time is never counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(current)``.

        For a class, only the class's own ``__dict__`` entry is saved: an
        inherited attribute is restored by deleting the wrapper again, so
        the subclass goes back to inheriting it.
        """
        own = vars(owner).get(attr, _MISSING)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner.__name__}.{attr}")
        current = getattr(owner, attr)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(current))

    def restore(self) -> None:
        """Put every wrapped attribute back, in reverse order."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


class Tracer(Patches):
    """In-memory span recorder whose spans come from wrapped entry points.

    A span is ``[id, parent_id, name, start_s, end_s]`` with times from
    ``time.perf_counter`` relative to the tracer's creation; ``parent_id``
    is ``-1`` for a root span.
    """

    def __init__(self) -> None:
        super().__init__()
        self._origin = time.perf_counter()
        self.spans: List[List[Any]] = []
        self._stack: List[List[Any]] = []

    def open(self, name: str) -> Optional[List[Any]]:
        """Start a span, or return ``None`` when it folds into its parent."""
        stack = self._stack
        if stack and stack[-1][2] == name:
            return None
        span = [
            len(self.spans),
            stack[-1][0] if stack else -1,
            name,
            time.perf_counter() - self._origin,
            None,
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Optional[List[Any]]) -> None:
        """End a span opened by :meth:`open`."""
        if span is None:
            return
        span[4] = time.perf_counter() - self._origin
        stack = self._stack
        while stack:
            if stack.pop() is span:
                break

    def trace(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                span = self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(span)

            return traced

        self.wrap(owner, attr, make)

    # -- reading the spans ------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total duration and self time.

        Self time is a span's duration minus the part of it that its child
        spans cover (children never overlap: spans nest like calls).
        """
        child_time = [0.0] * len(self.spans)
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, _parent, name, start, end in self.spans:
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return out

    def durations(self, name: str) -> List[float]:
        """The duration of every closed span called ``name``, in order."""
        return [
            end - start
            for _sid, _parent, span_name, start, end in self.spans
            if span_name == name and end is not None
        ]

    def write(self, path: str) -> None:
        """Write the spans out as JSON (one record per span)."""
        records = [
            {"id": sid, "parent": parent, "name": name,
             "start_s": start, "end_s": end}
            for sid, parent, name, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records}, handle)
