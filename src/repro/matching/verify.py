"""Verification and certification of matchings.

Every algorithm result in the library can be checked against these
verifiers; the high-level API runs them automatically and attaches a
:class:`Certificate` to each result.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Callable, List, Optional, Tuple, Union

from ..graphs.graph import Graph
from .core import Matching, MatchingError
from .paths import shortest_augmenting_path_length


class StaleCertificateError(RuntimeError):
    """A certificate's deferred optimum was read after its graph changed.

    The optimum would be that of a different graph than the one the
    matching was certified on, so the read is refused instead.
    """


class Certificate:
    """What was verified about a matching, and the measured quality.

    ``valid``, ``maximal``, ``size`` and ``weight`` are checked when the
    certificate is made.  The reference optimum is only a diagnostic (the
    paper's guarantees are structural), so ``optimum_size`` and
    ``optimum_weight`` may be given as zero-argument callables: the
    optimum is then computed on the first read of ``optimum_size``,
    ``optimum_weight``, ``cardinality_ratio`` or ``weight_ratio``, at most
    once, and kept.  ``None`` means "no reference".  Certificates are
    immutable; equality, hashing and pickling compare or carry every
    field, so they read both optima.
    """

    __slots__ = ("valid", "maximal", "size", "weight",
                 "_optimum_size", "_optimum_weight")

    def __init__(self, valid: bool, maximal: bool, size: int, weight: float,
                 optimum_size: Union[None, int, Callable[[], Any]] = None,
                 optimum_weight: Union[None, float, Callable[[], Any]] = None
                 ) -> None:
        init = object.__setattr__
        init(self, "valid", valid)
        init(self, "maximal", maximal)
        init(self, "size", size)
        init(self, "weight", weight)
        init(self, "_optimum_size", optimum_size)
        init(self, "_optimum_weight", optimum_weight)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _resolve(self, slot: str) -> Any:
        value = getattr(self, slot)
        if callable(value):
            value = value()
            object.__setattr__(self, slot, value)
        return value

    @property
    def optimum_size(self) -> Optional[int]:
        return self._resolve("_optimum_size")

    @property
    def optimum_weight(self) -> Optional[float]:
        return self._resolve("_optimum_weight")

    @property
    def cardinality_ratio(self) -> Optional[float]:
        optimum = self.optimum_size
        if optimum in (None, 0):
            return None if optimum is None else 1.0
        return self.size / optimum

    @property
    def weight_ratio(self) -> Optional[float]:
        optimum = self.optimum_weight
        if optimum is None:
            return None
        if optimum == 0:
            return 1.0
        return self.weight / optimum

    def _fields(self) -> Tuple[Any, ...]:
        return (self.valid, self.maximal, self.size, self.weight,
                self.optimum_size, self.optimum_weight)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> Tuple[Any, ...]:
        return (Certificate, self._fields())

    def __repr__(self) -> str:
        def shown(slot: str) -> str:
            value = getattr(self, slot)
            return "<on first read>" if callable(value) else repr(value)

        return (f"Certificate(valid={self.valid!r}, maximal={self.maximal!r}, "
                f"size={self.size!r}, weight={self.weight!r}, "
                f"optimum_size={shown('_optimum_size')}, "
                f"optimum_weight={shown('_optimum_weight')})")


def _matched_weights(graph: Graph, matching: Matching) -> List[float]:
    """Check every matched edge in sorted order; return their weights.

    Raises :class:`MatchingError` at the first matched edge (in
    :meth:`Matching.edges` order) that is not a graph edge or reuses a
    node.  The weights come back in that order, so summing them gives
    :meth:`Matching.weight` bit for bit.
    """
    adj = graph._adj
    mate = matching._mate
    seen = set()
    weights = []
    for u in sorted(mate):
        v = mate[u]
        if u < v:
            nbrs = adj.get(u)
            if nbrs is None or v not in nbrs:
                raise MatchingError(
                    f"matched edge ({u}, {v}) is not a graph edge")
            if u in seen or v in seen:
                raise MatchingError(f"node reused by matched edge ({u}, {v})")
            seen.add(u)
            seen.add(v)
            weights.append(nbrs[v])
    return weights


def verify_matching(graph: Graph, matching: Matching) -> None:
    """Raise :class:`MatchingError` unless ``matching`` is valid in ``graph``.

    Validity: every matched edge exists in the graph and no node is used
    twice (the latter is structural in :class:`Matching`, but we re-check
    defensively since distributed runs assemble matchings from node-local
    registers).
    """
    _matched_weights(graph, matching)


def is_maximal(graph: Graph, matching: Matching) -> bool:
    """True iff no graph edge has both endpoints free.

    Only free nodes can start such an edge, so only their neighbours are
    scanned.
    """
    mate = matching._mate
    matched = mate.keys()
    return all(nbrs.keys() <= matched
               for v, nbrs in graph._adj.items() if v not in mate)


def has_augmenting_path_shorter_than(graph: Graph, matching: Matching,
                                     ell: int) -> bool:
    """True iff an augmenting path of length < ``ell`` exists."""
    shortest = shortest_augmenting_path_length(graph, matching, max_len=ell - 1)
    return shortest is not None


def certify(graph: Graph, matching: Matching,
            optimum_size: Union[None, int, Callable[[], Any]] = None,
            optimum_weight: Union[None, float, Callable[[], Any]] = None
            ) -> Certificate:
    """Verify and measure a matching; raises if it is invalid.

    ``optimum_size``/``optimum_weight`` are numbers, ``None``, or
    zero-argument callables that compute the reference optimum of
    ``graph``.  A callable runs on the certificate's first read of it
    (see :class:`Certificate`); if ``graph`` was mutated in between, that
    read raises :class:`StaleCertificateError`.
    """
    weights = _matched_weights(graph, matching)
    return Certificate(
        valid=True,
        maximal=is_maximal(graph, matching),
        size=matching.size,
        weight=sum(weights),
        optimum_size=_bind(optimum_size, graph),
        optimum_weight=_bind(optimum_weight, graph),
    )


def _bind(optimum: Any, graph: Graph) -> Any:
    """Bind a deferred optimum to ``graph``'s current mutation version."""
    if not callable(optimum):
        return optimum
    version = graph._version

    def deferred() -> Any:
        if graph._version != version:
            raise StaleCertificateError(
                f"the graph was mutated after this certificate was made "
                f"(version {version} -> {graph._version}); read the "
                f"optimum before changing the graph, or certify again")
        return optimum()
    return deferred
