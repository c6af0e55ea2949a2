"""Dynamic maintenance of a (1 - 1/(k+1))-approximate matching (shim).

.. deprecated:: 1.7
   :class:`DynamicMatcher` is now a thin compatibility shim over
   :class:`repro.stream.service.MatchingService` — the streaming service
   that batches updates, coalesces them, and escalates huge repairs onto
   the execution-plan ladder.  The shim drives the service in its
   ``repair="legacy"`` mode with one single-update batch per call, which
   reproduces the historical per-update behavior *bit for bit*: the same
   graphs, the same matchings, the same ``UpdateStats`` history (pinned by
   golden tests).  New code should construct a ``MatchingService`` (or use
   ``repro.run("stream", ...)``) directly.

The maintained property is the paper's invariant — no augmenting path of
length <= 2k-1 — so by Lemma 3.3 the matching is a (1 - 1/(k+1))-
approximation after every update.  Locality (why repair stays near the
update): a new short augmenting path must pass through a touched node, and
augmenting along a path P only creates short paths intersecting P, so a
worklist seeded at the update site restores the invariant.  See the
service's module docstring for the batched generalization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List

from ..graphs.graph import Graph, GraphError
from ..matching.core import Matching


@dataclass
class UpdateStats:
    """Cost of one update operation."""

    operation: str
    augmentations: int
    nodes_explored: int


@dataclass
class DynamicMatcher:
    """Maintains a matching with no augmenting path of length <= 2k-1.

    By Lemma 3.3 the matching is a (1 - 1/(k+1))-approximation at every
    point in time.  Updates: :meth:`insert_edge`, :meth:`delete_edge`,
    :meth:`insert_node`, :meth:`delete_node` — each one is applied and
    repaired immediately (a one-update batch of the streaming service).

    Deprecated: use :class:`repro.stream.MatchingService`, which batches
    and coalesces updates instead of repairing per event.
    """

    k: int = 2
    graph: Graph = field(default_factory=Graph)
    matching: Matching = field(default_factory=Matching)
    history: List[UpdateStats] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        from ..stream.service import MatchingService

        warnings.warn(
            "DynamicMatcher is deprecated; use repro.stream.MatchingService "
            "(or repro.run('stream', ...)), which batches and coalesces "
            "updates", DeprecationWarning, stacklevel=3)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        self._service = MatchingService(
            self.graph, matching=self.matching, k=self.k, seed=self.seed,
            repair="legacy", name="dynamic_matcher")
        # the service owns private copies; alias them (legacy surface)
        self.graph = self._service.graph
        self.matching = self._service.matching
        init = self._service.history[0]
        self.history.append(UpdateStats(
            operation="init", augmentations=init.augmentations,
            nodes_explored=init.nodes_explored))

    # ------------------------------------------------------------------
    @property
    def max_path_length(self) -> int:
        return 2 * self.k - 1

    @property
    def guarantee(self) -> float:
        return 1 - 1 / (self.k + 1)

    # -- updates -----------------------------------------------------------
    def insert_edge(self, u: int, v: int, weight: float = 1.0) -> UpdateStats:
        self._service.insert_edge(u, v, weight)
        return self._commit("insert_edge")

    def delete_edge(self, u: int, v: int) -> UpdateStats:
        self._service.delete_edge(u, v)
        return self._commit("delete_edge")

    def insert_node(self, v: int) -> UpdateStats:
        self._service.insert_node(v)
        return self._commit("insert_node")

    def delete_node(self, v: int) -> UpdateStats:
        if not self.graph.has_node(v):
            raise GraphError(f"node {v} not in graph")
        self._service.delete_node(v)
        return self._commit("delete_node")

    def _commit(self, operation: str) -> UpdateStats:
        batch = self._service.commit(operation=operation)
        stats = UpdateStats(operation=operation,
                            augmentations=batch.augmentations,
                            nodes_explored=batch.nodes_explored)
        self.history.append(stats)
        return stats

    # -- inspection ------------------------------------------------------------
    def verify_invariant(self) -> bool:
        """Exhaustively check that no short augmenting path survives."""
        return self._service.verify_invariant()

    def current_ratio(self) -> float:
        """Measured ratio against the exact optimum (test/diagnostic aid)."""
        return self._service.current_ratio()
