"""Self-tests of the benchmark's helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import repro
from repro.matching.sequential import blossom
from perfbench.inputs import (balanced_churn, derive, random_bipartite,
                              random_general, replay)
from perfbench.reference import (CheckFailed, adjacency, check_matching,
                                 check_maximal, maximum_matching_size,
                                 optimum_check)
from perfbench.spans import SPAN_POINTS, Tracer, self_times
from perfbench.workloads import layer_units, percentile

ROOT = Path(__file__).resolve().parent.parent


# -- percentile ---------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 0) == 1
    assert percentile([1, 2, 3, 4, 5], 100) == 5
    assert percentile([10, 20], 25) == 12.5
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- spans --------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["core.call", 0.0, 10.0, None, 1],
        ["congest.run", 1.0, 7.0, 0, 1],
        ["congest.partition", 2.0, 5.0, 1, 1],
        ["matching.exact", 8.0, 9.5, 0, 1],
    ]
    assert self_times(spans) == [2.5, 3.0, 3.0, 1.5]


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_nests_spans_and_counts_only_inside_roots():
    tracer = Tracer(clock=_Clock())
    calls = []

    def inner():
        calls.append("inner")

    wrapped_inner = tracer._wrap("dist.inner", "span", inner)

    def outer():
        wrapped_inner()
        wrapped_inner()

    wrapped_outer = tracer._wrap("congest.outer", "span", outer)
    wrapped_outer()                      # outside a root: not recorded
    assert tracer.spans == []
    with tracer.root("core.call"):
        wrapped_outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["core.call", "congest.outer", "dist.inner", "dist.inner"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [None, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {1}
    own = self_times(tracer.spans)
    # clock ticks: root 1..8, outer 2..7, inners 3..4 and 5..6
    assert own == [2.0, 3.0, 1.0, 1.0]
    assert len(calls) == 4


def test_uninstall_restores_every_binding_site():
    import repro.core.api as api

    before = api.max_cardinality
    assert before is blossom.max_cardinality
    network_init = repro.congest.network.Network.__dict__["__init__"]
    tracer = Tracer()
    with tracer:
        patched = tracer.patched
        assert len(patched) >= len(SPAN_POINTS)
        assert api.max_cardinality is not before
        assert blossom.max_cardinality is api.max_cardinality
    assert tracer.patched == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert api.max_cardinality is before
    assert repro.congest.network.Network.__dict__["__init__"] is network_init


def _pairs_and_rounds(res):
    rounds = (res.detail.supersteps if res.algorithm.startswith("mpc")
              else res.metrics.rounds_total)
    return sorted(res.matching.edges()), rounds


@pytest.mark.parametrize("entry, make, kwargs", [
    ("approx_mcm", lambda: random_bipartite(200, 800, 3), {"eps": 0.25}),
    ("approx_mwm", lambda: random_general(200, 800, 3, max_weight=100),
     {"eps": 0.1, "execution": "auto"}),
    ("mpc_maximal_matching", lambda: random_general(300, 1200, 3),
     {"alpha": 0.5}),
])
def test_traced_and_untraced_runs_agree(entry, make, kwargs):
    graph = make().graph
    fn = getattr(repro, entry)
    plain = _pairs_and_rounds(fn(graph, seed=11, **kwargs))
    tracer = Tracer()
    with tracer:
        with tracer.root("core." + entry):
            traced = _pairs_and_rounds(fn(graph, seed=11, **kwargs))
    assert traced == plain
    summary = tracer.summary()
    assert summary["congest.run.calls" if entry != "mpc_maximal_matching"
                   else "mpc.driver.calls"] >= 1
    assert summary["matching.certify.calls"] == 1


def test_traced_stream_matches_untraced_stream():
    inst = random_general(300, 1200, 5)
    updates = balanced_churn(inst.pairs, inst.n, 640, 6)
    plain = repro.MatchingService(inst.graph, k=2, seed=1)
    traced = repro.MatchingService(inst.graph, k=2, seed=1)
    tracer = Tracer()
    for b in range(10):
        batch = updates[64 * b:64 * (b + 1)]
        plain.apply(batch)
        plain.commit()
        with tracer:
            with tracer.root("core.batch"):
                traced.apply(batch)
                traced.commit()
    assert plain.snapshot().edges() == traced.snapshot().edges()
    assert tracer.summary()["stream.commit.calls"] == 1


def test_tier_provenance_counts_network_runs():
    graph = random_bipartite(200, 800, 4).graph
    tracer = Tracer()
    with tracer:
        with tracer.root("core.approx_mcm"):
            repro.approx_mcm(graph, eps=0.25, seed=1)
    summary = tracer.summary()
    tiers = sum(v for k, v in summary.items() if k.startswith("models.tier."))
    assert tiers == summary["congest.run.calls"] > 0


# -- checker ------------------------------------------------------------------

def test_checker_rejects_corrupted_matchings():
    edges = {(0, 1), (1, 2), (2, 3)}
    assert check_matching(4, edges, [(0, 1), (2, 3)]) == {0: 1, 1: 0,
                                                          2: 3, 3: 2}
    with pytest.raises(CheckFailed):
        check_matching(4, edges, [(0, 2)])            # not an edge
    with pytest.raises(CheckFailed):
        check_matching(4, edges, [(0, 1), (1, 2)])    # node 1 twice
    with pytest.raises(CheckFailed):
        check_maximal(edges, {})                      # (0, 1) both free
    check_maximal(edges, check_matching(4, edges, [(0, 1), (2, 3)]))
    with pytest.raises(CheckFailed):
        optimum_check(2, 3, 0.75)                     # below k/(k+1)
    with pytest.raises(CheckFailed):
        optimum_check(4, 3, None)                     # beats the optimum


def test_checker_rejects_a_corrupted_program_output():
    inst = random_bipartite(200, 800, 7)
    res = repro.approx_mcm(inst.graph, eps=0.25, seed=2)
    pairs = sorted(res.matching.edges())
    check_matching(inst.n, inst.edge_set, pairs)
    (u, _), (_, y) = pairs[0], pairs[1]
    with pytest.raises(CheckFailed):      # u and y end up matched twice
        check_matching(inst.n, inst.edge_set, pairs + [(u, y)])


def test_exact_reference_matches_networkx():
    nx = pytest.importorskip("networkx")
    for t in range(150):
        rng = random.Random(t)
        n = rng.randint(2, 30)
        pairs = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randint(0, 3 * n))}
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        expected = len(nx.max_weight_matching(g, maxcardinality=True))
        assert maximum_matching_size(n, adjacency(n, pairs)) == expected


# -- inputs -------------------------------------------------------------------

def test_generators_are_seeded_and_exact():
    a = random_general(500, 2000, 9, max_weight=100)
    b = random_general(500, 2000, 9, max_weight=100)
    assert a.pairs == b.pairs and a.weights == b.weights
    assert len(a.edge_set) == 2000 == a.graph.num_edges
    assert a.graph.num_nodes == 500
    assert all(1 <= w <= 100 and w == int(w) for w in a.weights)
    bi = random_bipartite(500, 2000, 9)
    assert bi.graph.bipartition() is not None
    assert all(u < 250 <= v for u, v in bi.pairs)
    assert derive(1, "x", 2) == derive(1, "x", 2) != derive(2, "x", 2)


def test_balanced_churn_is_valid_and_stationary():
    inst = random_general(400, 1600, 2)
    updates = balanced_churn(inst.pairs, inst.n, 4000, 3)
    edges = set(inst.pairs)
    for up in updates:
        e = (up.u, up.v)
        assert up.u < up.v
        assert (e in edges) == (up.op != "insert")
        replay(edges, [up])
    ops = [up.op for up in updates]
    assert 0.40 < ops.count("insert") / len(ops) < 0.50
    assert 0.40 < ops.count("delete") / len(ops) < 0.50
    assert abs(len(edges) - 1600) < 200


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units()
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"call_s_p50", "edges_per_s", "ratio_min", "setup_s",
                     "peak_rss_mb"}
