"""Seeded O(m) input generators for the end-to-end benchmark.

``repro.graphs.generators.gnp`` flips a coin for each of the n(n-1)/2
pairs, which is O(n^2) (17 s at n = 2*10^4), and
``repro.stream.workload.random_churn`` rejects every delete that lands on
a non-edge, so on a sparse graph it emits almost only inserts and the
density drifts.  The generators here sample edges directly by rejection
against a set (expected O(m) while m << n^2/2) and keep the churn's
edge count stationary by deleting from a live-edge list.  Every function
is a pure function of its arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.graphs import BipartiteGraph, Graph
from repro.stream import EdgeUpdate

Pair = Tuple[int, int]


def derive(seed: int, *tags: object) -> int:
    """A 32-bit seed from the run seed and a tag path (stable across runs:
    string seeding of ``random.Random`` goes through SHA-512)."""
    return random.Random(":".join(map(str, (seed,) + tags))).getrandbits(32)


@dataclass
class Instance:
    """One generated graph: the benchmark's own edge list plus the
    program's :class:`Graph` built from it."""

    n: int
    pairs: List[Pair]
    weights: List[float]
    graph: Graph

    @cached_property
    def edge_set(self) -> FrozenSet[Pair]:
        return frozenset(self.pairs)

    @cached_property
    def weight_of(self) -> Dict[Pair, float]:
        return dict(zip(self.pairs, self.weights))


def _sample_pairs(m: int, draw) -> List[Pair]:
    seen = set()
    pairs: List[Pair] = []
    while len(pairs) < m:
        u, v = draw()
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def random_pairs(n: int, m: int, rng: random.Random) -> List[Pair]:
    """m distinct uniform pairs of nodes 0..n-1."""
    if m > n * (n - 1) // 4:
        raise ValueError("random_pairs samples sparse graphs only")
    return _sample_pairs(m, lambda: (rng.randrange(n), rng.randrange(n)))


def random_general(n: int, m: int, seed: int,
                   max_weight: Optional[int] = None) -> Instance:
    """m distinct uniform edges on nodes 0..n-1 (isolated nodes kept).

    With ``max_weight`` each edge gets an integer weight in 1..max_weight,
    otherwise the implicit weight 1.
    """
    rng = random.Random(seed)
    pairs = random_pairs(n, m, rng)
    weights = [float(rng.randint(1, max_weight)) if max_weight else 1.0
               for _ in pairs]
    g = Graph()
    g.add_nodes(range(n))
    for (u, v), w in zip(pairs, weights):
        g.add_edge(u, v, w)
    return Instance(n, pairs, weights, g)


def random_bipartite(n: int, m: int, seed: int) -> Instance:
    """m distinct uniform edges between 0..n/2-1 and n/2..n-1."""
    left = n // 2
    right = n - left
    if m > left * right // 2:
        raise ValueError("random_bipartite samples sparse graphs only")
    rng = random.Random(seed)
    pairs = _sample_pairs(
        m, lambda: (rng.randrange(left), left + rng.randrange(right)))
    g = BipartiteGraph(range(left), range(left, n))
    for u, v in pairs:
        g.add_edge(u, v)
    return Instance(n, pairs, [1.0] * m, g)


def balanced_churn(pairs: Sequence[Pair], n: int, updates: int, seed: int,
                   mix: Sequence[float] = (0.45, 0.45, 0.10),
                   max_weight: int = 100) -> List[EdgeUpdate]:
    """A valid update stream over nodes 0..n-1 whose edge count stays
    stationary.

    ``mix`` is the (insert, delete, weight) share.  Inserts pick a uniform
    non-edge, deletes and weight writes a uniform live edge, so every
    update is valid when replayed in order from the edge set ``pairs``.
    """
    p_insert, p_delete, _ = mix
    rng = random.Random(seed)
    live: List[Pair] = list(pairs)
    slot = {e: i for i, e in enumerate(live)}
    out: List[EdgeUpdate] = []
    while len(out) < updates:
        r = rng.random()
        if r < p_insert or not live:
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                e = (u, v) if u < v else (v, u)
                if u != v and e not in slot:
                    break
            slot[e] = len(live)
            live.append(e)
            out.append(EdgeUpdate("insert", e[0], e[1],
                                  float(rng.randint(1, max_weight))))
            continue
        e = live[rng.randrange(len(live))]
        if r < p_insert + p_delete:
            i = slot.pop(e)
            last = live.pop()
            if i < len(live):
                live[i] = last
                slot[last] = i
            out.append(EdgeUpdate("delete", e[0], e[1]))
        else:
            out.append(EdgeUpdate("weight", e[0], e[1],
                                  float(rng.randint(1, max_weight))))
    return out


def replay(edges: set, updates: Sequence[EdgeUpdate]) -> None:
    """Apply edge updates to a set of sorted pairs, in place."""
    for up in updates:
        e = (up.u, up.v) if up.u < up.v else (up.v, up.u)
        if up.op == "insert":
            edges.add(e)
        elif up.op == "delete":
            edges.discard(e)
