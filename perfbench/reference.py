"""Correctness references the benchmark computes itself, outside timing.

Nothing here calls into ``repro``: a matching is checked against the
benchmark's own edge list, and the exact optimum comes from the
benchmark's own Edmonds blossom search, not from the program's
certificate.  The wrapped layers therefore never see these computations.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Pair = Tuple[int, int]


class CheckFailed(Exception):
    """An output broke a property the workload promises."""


def adjacency(n: int, pairs: Iterable[Pair]) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def check_matching(n: int, edges: set,
                   pairs: Sequence[Pair]) -> Dict[int, int]:
    """Raise unless ``pairs`` is a matching of the edge set; return mates."""
    mate: Dict[int, int] = {}
    for u, v in pairs:
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            raise CheckFailed(f"matched pair {key} is not an edge")
        if u in mate or v in mate:
            raise CheckFailed(f"node of {key} is matched twice")
        if not (0 <= u < n and 0 <= v < n):
            raise CheckFailed(f"matched pair {key} names an unknown node")
        mate[u] = v
        mate[v] = u
    return mate


def check_maximal(edges: Iterable[Pair], mate: Dict[int, int]) -> None:
    """Raise if some edge has both endpoints free."""
    for u, v in edges:
        if u not in mate and v not in mate:
            raise CheckFailed(f"edge {(u, v)} has two free endpoints")


def greedy_weight(pairs: Sequence[Pair], weights: Sequence[float]) -> float:
    """Weight of the heaviest-edge-first greedy matching (>= OPT/2)."""
    taken = set()
    total = 0.0
    for i in sorted(range(len(pairs)), key=lambda i: -weights[i]):
        u, v = pairs[i]
        if u not in taken and v not in taken:
            taken.add(u)
            taken.add(v)
            total += weights[i]
    return total


def maximum_matching_size(n: int, adj: List[List[int]]) -> int:
    """Exact maximum-cardinality matching size (Edmonds' blossom search).

    Greedy start, then one alternating-forest BFS per free node.  Blossom
    bases are kept in a union-find, so a contraction costs the length of
    its cycle rather than a pass over all n nodes.
    """
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for w in adj[v]:
                if mate[w] == -1:
                    mate[v], mate[w] = w, v
                    break
    for root in range(n):
        if mate[root] == -1 and adj[root]:
            _augment_from(root, n, adj, mate)
    return sum(1 for v in range(n) if mate[v] != -1) // 2


def _augment_from(root: int, n: int, adj: List[List[int]],
                  mate: List[int]) -> bool:
    parent = [-1] * n
    uf = list(range(n))
    outer = [False] * n

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = find(a)
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = find(b)
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, base: int, child: int, marked: set) -> None:
        while find(v) != base:
            m = mate[v]
            marked.add(find(v))
            marked.add(find(m))
            parent[v] = child
            child = m
            v = parent[m]

    outer[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if find(v) == find(w) or mate[v] == w:
                continue
            if w == root or (mate[w] != -1 and parent[mate[w]] != -1):
                base = lca(v, w)
                marked: set = set()
                mark_path(v, base, w, marked)
                mark_path(w, base, v, marked)
                for b in marked:
                    if b != base:
                        uf[b] = base
                        if not outer[b]:
                            outer[b] = True
                            queue.append(b)
            elif parent[w] == -1:
                parent[w] = v
                if mate[w] == -1:
                    while w != -1:
                        pv = parent[w]
                        nxt = mate[pv]
                        mate[w], mate[pv] = pv, w
                        w = nxt
                    return True
                m = mate[w]
                outer[m] = True
                queue.append(m)
    return False


def optimum_check(size: int, optimum: int, floor: Optional[float]) -> float:
    """Ratio of ``size`` to an exact ``optimum``; raise below ``floor``."""
    if size > optimum:
        raise CheckFailed(f"matching of {size} edges beats the optimum "
                          f"{optimum}: the reference is wrong")
    r = size / optimum if optimum else 1.0
    if floor is not None and r < floor - 1e-12:
        raise CheckFailed(f"ratio {r:.4f} below the guarantee {floor:.4f}")
    return r
