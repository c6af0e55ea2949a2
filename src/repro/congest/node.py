"""The per-node programming interface of the simulator.

A distributed algorithm is a subclass of :class:`NodeAlgorithm`; the network
instantiates one object per node, calls :meth:`NodeAlgorithm.start` once, and
then :meth:`NodeAlgorithm.on_round` every synchronous round with the messages
that arrived.  Both return an *outbox*: a mapping from neighbor id to payload
(use :data:`BROADCAST` to send one payload to every neighbor).

A node sees only what the model grants it: its own id, its sorted neighbor
list, the weights of incident edges, globally known scalars (n, epsilon, k,
W_max — the paper's standing assumptions), and a private random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Any, Dict, Mapping, Tuple

BROADCAST = "*"

Outbox = Dict[Any, Any]  # neighbor id (or BROADCAST) -> payload
Inbox = Dict[int, Any]   # neighbor id -> payload


@dataclass
class NodeContext:
    """Everything a node may legally observe.

    ``neighbors`` is the network's cached (sorted) neighbor tuple — shared
    across rounds and runs, never rebuilt per context — and ``degree`` is
    precomputed at construction so per-round node code pays a plain
    attribute load instead of a ``len`` call through a property.

    ``rng_seed`` is fixed by the executor when it builds the context; the
    :attr:`rng` stream is created from it on first read, so a node that
    never draws costs no ``random.Random``.
    """

    node_id: int
    neighbors: Tuple[int, ...]
    edge_weights: Mapping[int, float]
    n: int
    rng_seed: int
    shared: Mapping[str, Any] = field(default_factory=dict)
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        self.degree = len(self.neighbors)

    @cached_property
    def rng(self) -> Random:
        """This node's private random stream for the run."""
        return Random(self.rng_seed)

    def weight(self, neighbor: int) -> float:
        return self.edge_weights[neighbor]


class NodeAlgorithm:
    """Base class for node programs.

    Subclasses override :meth:`start` and :meth:`on_round`, set
    ``self.finished = True`` when the node halts, and leave their result in
    ``self.output``.  A finished node neither sends nor receives.

    ``passive = True`` declares the node purely event-driven: it will never
    send again unless a message arrives.  The network stops when every node
    is finished, or when nothing is in flight and every unfinished node is
    passive (quiescence).  Clock-driven nodes (which may act after silent
    rounds, like Israeli-Itai's coin flips) keep the default ``False``.
    """

    passive = False

    def __init__(self, ctx: NodeContext) -> None:
        self.ctx = ctx
        self.finished = False
        self.output: Any = None

    # -- convenience ----------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.ctx.node_id

    @property
    def neighbors(self) -> Tuple[int, ...]:
        return self.ctx.neighbors

    @property
    def rng(self) -> Random:
        return self.ctx.rng

    def halt(self, output: Any = None) -> Outbox:
        """Mark the node finished; optionally set its output register."""
        self.finished = True
        if output is not None:
            self.output = output
        return {}

    def broadcast(self, payload: Any) -> Outbox:
        """An outbox sending ``payload`` to every neighbor.

        Pure-broadcast outboxes take the engine's fastest delivery path
        (one pricing pass expanded along the CSR neighbor row), so prefer
        ``return self.broadcast(x)`` over building per-neighbor dicts when
        all neighbors receive the same payload.
        """
        return {BROADCAST: payload}

    # -- protocol hooks --------------------------------------------------
    def start(self) -> Outbox:
        """Round 0: produce the initial outbox (may already halt)."""
        return {}

    def on_round(self, inbox: Inbox) -> Outbox:  # pragma: no cover - abstract
        """One synchronous round: consume arrivals, produce departures."""
        raise NotImplementedError
