"""Pins for the retired 2.x spellings: each concern has exactly one.

Execution is chosen with ``execution=``, observers attach with
``observe=``, faults come from ``faults=FaultSpec(...)``, sub-runs go
through ``Subnetwork`` and node streams come from the splitmix64 chain.
The old spellings must fail loudly (a ``TypeError`` or a missing module),
and the old environment switches must not change a run: a script written
for 2.x either breaks at the call or gets the same results as before.
"""

import importlib
import warnings

import pytest

import repro.congest as congest
from repro.congest import Network, Subnetwork, Tracer
from repro.core.api import approx_mcm, approx_mwm, maximal_matching
from repro.dist.generic_mcm import generic_mcm
from repro.dist.luby_mis import LubyMISNode
from repro.dist.weighted import approximate_mwm, class_greedy_mwm
from repro.dist.weighted.hv_local import hv_mwm
from repro.graphs import gnp, path_graph, uniform_weights
from repro.models.execution import ExecutionPlan


@pytest.fixture
def graph():
    return gnp(14, 0.3, rng=4)


@pytest.fixture
def weighted():
    return gnp(12, 0.3, rng=5, weight_fn=uniform_weights())


class TestRemovedKeywords:
    @pytest.mark.parametrize("kwargs", [
        {"engine": "csr"}, {"engine": "legacy"}, {"shards": 2},
        {"tracer": Tracer()},
    ], ids=["engine-csr", "engine-legacy", "shards", "tracer"])
    def test_network_rejects(self, graph, kwargs):
        with pytest.raises(TypeError):
            Network(graph, **kwargs)

    @pytest.mark.parametrize("entry", [approx_mcm, approx_mwm,
                                       maximal_matching])
    def test_entry_points_reject_tracer(self, graph, entry):
        with pytest.raises(TypeError):
            entry(graph, tracer=Tracer())

    def test_subnetwork_rejects_engine(self, graph):
        parent = Network(graph)
        with pytest.raises(TypeError):
            Subnetwork(parent, path_graph(3), label="x", engine="csr")

    def test_drivers_reject_subnetworks(self, weighted):
        with pytest.raises(TypeError):
            hv_mwm(weighted, subnetworks="inherit")
        with pytest.raises(TypeError):
            generic_mcm(weighted, k=1, subnetworks="inherit")


class TestRemovedCallForms:
    @pytest.mark.parametrize("call", [
        lambda g: approx_mcm(g, 0.25),
        lambda g: approx_mwm(g, 0.2, 1),
        lambda g: maximal_matching(g, 5),
    ], ids=["approx_mcm", "approx_mwm", "maximal_matching"])
    def test_positional_arguments_raise(self, weighted, call):
        with pytest.raises(TypeError):
            call(weighted)

    def test_two_argument_black_box_raises(self, weighted):
        def old_box(graph, seed):  # no network= parameter
            return class_greedy_mwm(graph, seed=seed)

        with pytest.raises(TypeError):
            approximate_mwm(weighted, eps=0.2, seed=3, black_box=old_box)

    def test_keyword_calls_emit_no_deprecation_warning(self, weighted):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            approx_mcm(weighted, eps=0.4, seed=0)
            approx_mwm(weighted, eps=0.2, seed=0)
            maximal_matching(weighted, seed=0)


class TestRemovedNames:
    @pytest.mark.parametrize("module", [
        "repro.congest.events", "repro.congest.metrics",
        "repro.congest.tracing", "repro.congest.runtime",
        "repro.congest.execution", "repro.congest.profiling",
        "repro._compat",
    ])
    def test_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("name", ["LossyNetwork", "nested_network",
                                      "LEGACY_ENGINE_ENV", "default_engine"])
    def test_congest_does_not_export(self, name):
        assert not hasattr(congest, name)
        assert name not in congest.__all__

    def test_plan_and_network_have_one_spelling(self, graph):
        assert not hasattr(ExecutionPlan, "from_legacy")
        assert not hasattr(ExecutionPlan, "engine_name")
        net = Network(graph)
        for attr in ("engine", "requested_shards", "tracer"):
            assert not hasattr(net, attr)


class TestRetiredEnvironment:
    """Old switches left in an environment change nothing."""

    @pytest.mark.parametrize("execution", [None, "node", "kernel"])
    def test_legacy_engine_env_is_ignored(self, graph, monkeypatch,
                                          execution):
        monkeypatch.delenv("REPRO_LEGACY_ENGINE", raising=False)
        before = Network(graph, execution=execution)
        monkeypatch.setenv("REPRO_LEGACY_ENGINE", "1")
        after = Network(graph, execution=execution)
        assert after.execution_plan == before.execution_plan
        assert (after.explain_execution(LubyMISNode).tier
                == before.explain_execution(LubyMISNode).tier)
        assert after.explain_execution(LubyMISNode).tier != "legacy"

    def test_additive_node_rng_env_is_ignored(self, graph, monkeypatch):
        def draws():
            net = Network(graph, seed=9)
            net._run_counter = 2
            return [net.node_rng(v, salt).random()
                    for v in graph.nodes for salt in (0, 3)]

        monkeypatch.delenv("REPRO_ADDITIVE_NODE_RNG", raising=False)
        before = draws()
        monkeypatch.setenv("REPRO_ADDITIVE_NODE_RNG", "1")
        assert draws() == before

    def test_additive_env_does_not_change_a_run(self, graph, monkeypatch):
        monkeypatch.delenv("REPRO_ADDITIVE_NODE_RNG", raising=False)
        before = maximal_matching(graph, seed=2, execution="node")
        monkeypatch.setenv("REPRO_ADDITIVE_NODE_RNG", "1")
        after = maximal_matching(graph, seed=2, execution="node")
        assert sorted(after.matching.edges()) == \
            sorted(before.matching.edges())
        assert after.rounds == before.rounds
