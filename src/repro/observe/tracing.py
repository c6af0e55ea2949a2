"""Round-by-round execution traces for debugging distributed runs.

Attach a :class:`Tracer` to a :class:`~repro.congest.network.Network` (via
``observe=[tracer]``) and every delivered message is recorded as a
:class:`TraceEvent`.  Traces
can be filtered (by protocol, node, round window) and rendered as a compact
timeline — the tool that made the token-collision and synchronizer bugs in
this library findable, kept as a first-class debugging aid.

The tracer is an :class:`~repro.observe.events.EventBus` subscriber with
``interest = ("message",)``: it converts each
:class:`~repro.observe.events.MessageDelivered` into a :class:`TraceEvent`,
so traced runs stay on the batched CSR engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional

MAX_RENDERED_PAYLOAD = 40


@dataclass(frozen=True)
class TraceEvent:
    """One delivered message."""

    protocol: str
    round: int
    sender: int
    receiver: int
    bits: int
    payload: Any

    def render(self) -> str:
        text = repr(self.payload)
        if len(text) > MAX_RENDERED_PAYLOAD:
            text = text[:MAX_RENDERED_PAYLOAD - 3] + "..."
        return (f"[{self.protocol} r{self.round:>3}] "
                f"{self.sender:>4} -> {self.receiver:<4} "
                f"({self.bits:>4}b) {text}")


@dataclass
class Tracer:
    """Collects trace events; optionally bounded to the most recent ones."""

    #: Bus interest mask: the tracer only wants the per-message stream.
    interest = ("message",)

    capacity: Optional[int] = None
    events: List[TraceEvent] = field(default_factory=list)

    def on_event(self, event: Any) -> None:
        """Bus-subscriber entry point: a MessageDelivered per delivery."""
        self.record(TraceEvent(
            protocol=event.protocol, round=event.round,
            sender=event.sender, receiver=event.receiver,
            bits=event.bits, payload=event.payload,
        ))

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)
        if self.capacity is not None and len(self.events) > self.capacity:
            del self.events[: len(self.events) - self.capacity]

    def record_many(self, events: Iterable[TraceEvent]) -> None:
        """Record a whole round's events at once (single capacity trim)."""
        self.events.extend(events)
        if self.capacity is not None and len(self.events) > self.capacity:
            del self.events[: len(self.events) - self.capacity]

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def filter(self, protocol: Optional[str] = None,
               node: Optional[int] = None,
               rounds: Optional[range] = None,
               predicate: Optional[Callable[[TraceEvent], bool]] = None
               ) -> List[TraceEvent]:
        """Events matching every given criterion."""
        out = []
        for e in self.events:
            if protocol is not None and e.protocol != protocol:
                continue
            if node is not None and node not in (e.sender, e.receiver):
                continue
            if rounds is not None and e.round not in rounds:
                continue
            if predicate is not None and not predicate(e):
                continue
            out.append(e)
        return out

    def messages_between(self, a: int, b: int) -> List[TraceEvent]:
        """The conversation along one edge, in delivery order."""
        return [e for e in self.events
                if {e.sender, e.receiver} == {a, b}]

    def render(self, events: Optional[Iterable[TraceEvent]] = None) -> str:
        chosen = list(events) if events is not None else self.events
        return "\n".join(e.render() for e in chosen)

    def protocols(self) -> List[str]:
        seen: List[str] = []
        for e in self.events:
            if e.protocol not in seen:
                seen.append(e.protocol)
        return seen
