"""Certificates: checks made in the call, the exact optimum on first read.

* **Solver calls** — no entry point runs an exact solver (or, for
  ``approx_mwm`` on general graphs, the bipartiteness test) inside the
  call; reading the certificate runs it exactly once.
* **Stale graphs** — a deferred optimum read after its graph changed
  raises :class:`StaleCertificateError`, never another graph's optimum.
* **Differential** — every lazy certificate field (and ``==``) equals the
  eager certificate built from the exact solvers; the single-pass
  :func:`certify` agrees with the edge-generator reference below on
  random valid and invalid matchings.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.api as api
import repro.matching.sequential.blossom as blossom
from repro import (
    MatchingService,
    approx_mcm,
    approx_mwm,
    maximal_matching,
    mpc_maximal_matching,
    stream_matching,
)
from repro.graphs import (
    BipartiteGraph,
    Graph,
    cycle_graph,
    gnp,
    random_bipartite,
    uniform_weights,
)
from repro.matching import Matching, MatchingError, StaleCertificateError
from repro.matching.sequential.blossom import max_cardinality
from repro.matching.sequential.hungarian import max_weight_bipartite
from repro.matching.verify import Certificate, certify


# ----------------------------------------------------------------------
# the reference: certify as an edge-generator walk (verify_matching over
# Matching.edges(), is_maximal over Graph.edges(), Matching.weight)
# ----------------------------------------------------------------------

def reference_certify(graph, matching, optimum_size=None,
                      optimum_weight=None):
    seen = set()
    for u, v in matching.edges():
        if not graph.has_edge(u, v):
            raise MatchingError(f"matched edge ({u}, {v}) is not a graph edge")
        if u in seen or v in seen:
            raise MatchingError(f"node reused by matched edge ({u}, {v})")
        seen.add(u)
        seen.add(v)
    maximal = True
    for u, v, _ in graph.edges():
        if matching.is_free(u) and matching.is_free(v):
            maximal = False
            break
    return Certificate(valid=True, maximal=maximal, size=matching.size,
                       weight=matching.weight(graph),
                       optimum_size=optimum_size,
                       optimum_weight=optimum_weight)


def _eager_mwm_optimum(graph):
    if isinstance(graph, BipartiteGraph) or graph.bipartition() is not None:
        return max_weight_bipartite(graph).weight(graph)
    return None


#: input families of the differential matrix
FAMILIES = {
    "bipartite": lambda: random_bipartite(10, 12, 0.25, rng=3),
    "plain-bipartite": lambda: cycle_graph(12),
    "general": lambda: gnp(22, 0.18, rng=4),
    "weighted-float": lambda: gnp(24, 0.2, rng=5,
                                  weight_fn=uniform_weights(0.1, 7.3)),
    "empty": Graph,
}

#: entry point -> (call, eager certificate as the parent built it)
ENTRIES = {
    "approx_mcm": (
        lambda g: approx_mcm(g, eps=0.25, seed=2),
        lambda g, m: reference_certify(
            g, m, optimum_size=max_cardinality(g).size)),
    "maximal_matching": (
        lambda g: maximal_matching(g, seed=2),
        lambda g, m: reference_certify(
            g, m, optimum_size=max_cardinality(g).size)),
    "mpc_maximal_matching": (
        lambda g: mpc_maximal_matching(g, alpha=0.9, seed=2),
        lambda g, m: reference_certify(
            g, m, optimum_size=max_cardinality(g).size)),
    "approx_mwm": (
        lambda g: approx_mwm(g, eps=0.1, seed=2),
        lambda g, m: reference_certify(
            g, m, optimum_weight=_eager_mwm_optimum(g))),
}

FIELDS = ("valid", "maximal", "size", "weight", "optimum_size",
          "optimum_weight", "cardinality_ratio", "weight_ratio")


def _graph_for(entry, family):
    graph = FAMILIES[family]()
    if entry == "mpc_maximal_matching" and graph.num_edges:
        # S = ceil(n^alpha) needs n >= 22 at alpha=0.9 to clear the
        # 16-word floor; pad with isolated nodes
        graph.add_nodes(range(1000, 1040))
    return graph


class TestDifferential:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_lazy_equals_eager(self, entry, family):
        call, eager_cert = ENTRIES[entry]
        graph = _graph_for(entry, family)
        result = call(graph)
        lazy = result.certificate
        eager = eager_cert(graph, result.matching)
        for name in FIELDS:
            got, want = getattr(lazy, name), getattr(eager, name)
            assert type(got) is type(want), name
            assert got == want, name
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)

    def test_reference_is_returned_as_given(self, monkeypatch):
        calls = _count_solvers(monkeypatch)
        graph = random_bipartite(8, 8, 0.3, rng=1)
        cert = approx_mwm(graph, eps=0.1, seed=0, reference=123.5).certificate
        assert cert.optimum_weight == 123.5
        assert cert.weight_ratio == cert.weight / 123.5
        assert calls == {"max_cardinality": 0, "max_weight_bipartite": 0,
                         "bipartition": 0}

    def test_pickle_and_repr(self):
        graph = gnp(16, 0.2, rng=2)
        cert = approx_mcm(graph, eps=0.25, seed=0).certificate
        assert "<on first read>" in repr(cert)
        clone = pickle.loads(pickle.dumps(cert))
        assert clone == cert
        assert repr(clone) == repr(cert)  # pickling read the optimum
        with pytest.raises(AttributeError):
            cert.size = 0


# ----------------------------------------------------------------------
# single-pass certify vs the reference walk
# ----------------------------------------------------------------------

@st.composite
def graph_and_mate(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    g = Graph()
    g.add_nodes(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(st.floats(min_value=1e-3,
                                                max_value=1e3,
                                                allow_nan=False)))
    kind = draw(st.sampled_from(["valid", "pairs", "raw"]))
    m = Matching()
    if kind == "valid":
        # a greedy matching over a random edge order: always valid
        edges = draw(st.permutations([(u, v) for u, v, _ in g.edges()]))
        for u, v in edges:
            if m.is_free(u) and m.is_free(v) and draw(st.booleans()):
                m.add(u, v)
    elif kind == "pairs":
        # disjoint pairs that need not be graph edges (ids may leave it)
        ids = draw(st.permutations(list(range(n + 3))))
        for i in range(0, draw(st.integers(0, len(ids) // 2)) * 2, 2):
            m.add(ids[i], ids[i + 1])
    else:
        # a mate map the Matching type would never build: overlapping
        # pairs and stray entries make it asymmetric, which exercises
        # the node-reuse check
        pool = [(u, v) for u, v, _ in g.edges()] or [(0, 1)]
        mate = draw(st.dictionaries(st.integers(0, n + 2),
                                    st.integers(0, n + 2), max_size=3))
        for u, v in draw(st.lists(st.sampled_from(pool), max_size=6)):
            mate[u], mate[v] = v, u
        m._mate = {u: v for u, v in mate.items() if u != v}
    return g, m


def _outcome(fn, graph, matching):
    try:
        cert = fn(graph, matching)
    except MatchingError as exc:
        return ("error", str(exc))
    return (cert.valid, cert.maximal, cert.size, repr(cert.weight))


@given(graph_and_mate())
@settings(deadline=None, max_examples=300)
def test_single_pass_certify_matches_reference(case):
    graph, matching = case
    assert (_outcome(certify, graph, matching)
            == _outcome(reference_certify, graph, matching))


# ----------------------------------------------------------------------
# solver calls: none in the call, exactly one across reads
# ----------------------------------------------------------------------

def _count_solvers(monkeypatch):
    calls = {"max_cardinality": 0, "max_weight_bipartite": 0,
             "bipartition": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    mcm = counting("max_cardinality", blossom.max_cardinality)
    monkeypatch.setattr(api, "max_cardinality", mcm)
    monkeypatch.setattr(blossom, "max_cardinality", mcm)
    monkeypatch.setattr(api, "max_weight_bipartite",
                        counting("max_weight_bipartite",
                                 api.max_weight_bipartite))
    monkeypatch.setattr(Graph, "bipartition",
                        counting("bipartition", Graph.bipartition))
    return calls


def _read_everything(cert):
    for _ in range(3):
        for name in FIELDS:
            getattr(cert, name)


@pytest.mark.parametrize("entry, make, solver", [
    ("approx_mcm", lambda: random_bipartite(12, 12, 0.2, rng=0),
     "max_cardinality"),
    ("approx_mcm", lambda: gnp(20, 0.2, rng=1), "max_cardinality"),
    ("maximal_matching", lambda: gnp(20, 0.2, rng=1), "max_cardinality"),
    ("mpc_maximal_matching", lambda: gnp(300, 0.02, rng=1),
     "max_cardinality"),
    ("approx_mwm", lambda: random_bipartite(8, 8, 0.3, rng=2,
                                            weight_fn=uniform_weights()),
     "max_weight_bipartite"),
    ("approx_mwm", lambda: cycle_graph(10), "max_weight_bipartite"),
])
def test_exact_solver_runs_once_on_first_read(monkeypatch, entry, make,
                                              solver):
    graph = make()
    calls = _count_solvers(monkeypatch)
    result = getattr(repro, entry)(graph, seed=3)
    assert calls["max_cardinality"] == calls["max_weight_bipartite"] == 0
    _read_everything(result.certificate)
    assert calls[solver] == 1
    assert sum(calls[s] for s in ("max_cardinality",
                                  "max_weight_bipartite")) == 1


def test_mwm_general_skips_the_bipartiteness_test(monkeypatch):
    graph = gnp(20, 0.25, rng=6, weight_fn=uniform_weights())
    calls = _count_solvers(monkeypatch)
    cert = approx_mwm(graph, eps=0.1, seed=1).certificate
    assert calls == {"max_cardinality": 0, "max_weight_bipartite": 0,
                     "bipartition": 0}
    _read_everything(cert)
    assert cert.optimum_weight is None and cert.weight_ratio is None
    assert calls == {"max_cardinality": 0, "max_weight_bipartite": 0,
                     "bipartition": 1}


def test_stream_result_defers_blossom(monkeypatch):
    graph = gnp(30, 0.15, rng=7)
    absent = next((0, v) for v in range(1, 30) if not graph.has_edge(0, v))
    updates = [("insert", *absent),
               ("delete", *sorted(graph.edge_set())[0])]
    calls = _count_solvers(monkeypatch)
    result = stream_matching(graph, updates=updates, k=2, seed=0)
    assert calls["max_cardinality"] == 0
    _read_everything(result.certificate)
    assert calls["max_cardinality"] == 1


# ----------------------------------------------------------------------
# staleness
# ----------------------------------------------------------------------

class TestStaleGraph:
    def test_mutation_before_first_read_raises(self):
        graph = gnp(20, 0.2, rng=1)
        cert = approx_mcm(graph, eps=0.25, seed=0).certificate
        graph.add_edge(0, 100)
        with pytest.raises(StaleCertificateError):
            cert.cardinality_ratio
        with pytest.raises(StaleCertificateError):
            cert.optimum_size  # still refused: nothing was cached
        assert cert.valid and cert.size >= 0  # eager fields stay readable

    def test_mwm_weight_ratio_raises(self):
        graph = random_bipartite(8, 8, 0.3, rng=2)
        cert = approx_mwm(graph, eps=0.1, seed=0).certificate
        graph.set_weight(*next(iter(graph.edge_set())), 9.0)
        with pytest.raises(StaleCertificateError):
            cert.weight_ratio

    def test_read_before_mutation_keeps_its_value(self):
        graph = gnp(20, 0.2, rng=1)
        cert = maximal_matching(graph, seed=0).certificate
        ratio = cert.cardinality_ratio
        graph.remove_node(0)
        assert cert.cardinality_ratio == ratio

    def test_no_op_updates_are_not_mutations(self):
        graph = gnp(20, 0.2, rng=1)
        cert = approx_mcm(graph, eps=0.25, seed=0).certificate
        graph.add_node(0)                     # already present
        u, v = next(iter(graph.edge_set()))
        graph.set_weight(u, v, graph.weight(u, v))
        assert cert.optimum_size == max_cardinality(graph).size


def test_stream_ratio_is_the_result_epochs():
    graph = gnp(40, 0.1, rng=8)
    service = MatchingService(graph, k=2, seed=0)
    service.apply([("insert", 0, 39), ("insert", 1, 38)])
    result = service.result(certify_result=True)
    optimum = max_cardinality(service.graph).size
    service.apply([("delete", u, v) for u, v in
                   sorted(service.graph.edge_set())[:20]])
    service.commit()
    assert max_cardinality(service.graph).size != optimum
    assert result.certificate.optimum_size == optimum
    assert result.certificate.cardinality_ratio == result.size / optimum
    service.close()
