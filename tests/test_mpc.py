"""Tests for the simulated MPC model (repro.mpc).

Covers the memory guard (hard cap, provable trip below the alpha floor,
peak accounting into Metrics), the maximal-matching driver on a
seed x alpha x graph-family matrix, determinism, and the observability
trio (trace/profile/observe) through ``repro.run("mpc_maximal", ...)``.
"""

import json
import random

import pytest

import repro
from repro.graphs import Graph, gnp, grid_graph, path_graph, random_bipartite
from repro.graphs.generators import star_graph
from repro.matching.verify import is_maximal, verify_matching
from repro.models.base import ModelExecutionError
from repro.mpc import (
    BASE_WORDS,
    MIN_MACHINE_WORDS,
    MemoryExceeded,
    MPCCluster,
    MPCMachine,
    machine_words,
    mpc_maximal,
)


def _families():
    # all large enough that S = ceil(n**0.5) clears the 16-word floor
    return {
        "gnp": gnp(300, 0.02, rng=random.Random(7)),
        "path": path_graph(280),
        "grid": grid_graph(17, 17),
        "bipartite": random_bipartite(140, 140, 0.025, rng=random.Random(3)),
    }


class TestMachineWords:
    def test_budget_formula(self):
        assert machine_words(10_000, 0.5) == 100
        assert machine_words(1, 0.5) == 1

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            machine_words(100, alpha)


class TestMachineLedger:
    def test_charge_release_peak(self):
        mach = MPCMachine(0, limit=10)
        mach.charge(6, "test")
        mach.charge(4, "test")
        assert mach.resident == 10 and mach.peak == 10
        mach.release(7)
        assert mach.resident == 3
        assert mach.peak == 10  # peaks are sticky
        mach.release(100)
        assert mach.resident == 0

    def test_overflow_raises_with_context(self):
        mach = MPCMachine(3, limit=8)
        mach.charge(8, "fill")
        with pytest.raises(MemoryExceeded) as err:
            mach.charge(1, "overflow phase")
        exc = err.value
        assert (exc.machine, exc.needed, exc.limit) == (3, 9, 8)
        assert exc.phase == "overflow phase"
        assert "raise alpha" in str(exc)


class TestMemoryGuard:
    def test_floor_trips_at_construction(self):
        # S = ceil(300**0.3) = 6 < 16: provably cannot hold even the
        # base state plus one record with working headroom
        with pytest.raises(MemoryExceeded) as err:
            MPCCluster(path_graph(300), alpha=0.3)
        assert err.value.limit == machine_words(300, 0.3)
        assert err.value.needed == MIN_MACHINE_WORDS

    def test_peak_never_exceeds_cap(self):
        for name, g in _families().items():
            for alpha in (0.5, 0.7, 0.9):
                cluster = MPCCluster(g, alpha=alpha, seed=0)
                res = mpc_maximal(cluster)
                assert res.peak_words <= cluster.machine_words, (name, alpha)
                assert all(m.resident <= m.limit for m in cluster.machines)

    def test_metrics_memory_account(self):
        cluster = MPCCluster(path_graph(280), alpha=0.7, seed=0)
        res = mpc_maximal(cluster)
        m = cluster.metrics
        assert m.memory_peak_words == res.peak_words > 0
        assert m.memory_limit_words == cluster.machine_words
        assert m.memory_machines == cluster.num_machines

    def test_memory_fields_do_not_affect_equality(self):
        # CONGEST goldens compare Metrics objects; the memory account is
        # a gauge (compare=False) so pre-refactor equality still holds
        from repro.runtime.metrics import Metrics
        a, b = Metrics(), Metrics()
        a.record_memory(100, 128, 4)
        assert a == b

    def test_base_words_charged_everywhere(self):
        cluster = MPCCluster(path_graph(280), alpha=0.9)
        assert all(m.resident >= BASE_WORDS for m in cluster.machines)


class TestMaximalMatching:
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_and_maximal_matrix(self, alpha, seed):
        for name, g in _families().items():
            cluster = MPCCluster(g, alpha=alpha, seed=seed)
            res = mpc_maximal(cluster)
            verify_matching(g, res.matching)
            assert is_maximal(g, res.matching), (name, alpha, seed)

    def test_deterministic(self):
        g = gnp(300, 0.02, rng=random.Random(11))
        runs = [mpc_maximal(MPCCluster(g, alpha=0.6, seed=5))
                for _ in range(2)]
        assert (sorted(runs[0].matching.edges())
                == sorted(runs[1].matching.edges()))
        assert runs[0].supersteps == runs[1].supersteps
        assert runs[0].peak_words == runs[1].peak_words

    def test_result_surface(self):
        g = gnp(300, 0.02, rng=random.Random(2))
        cluster = MPCCluster(g, alpha=0.6, seed=0)
        res = mpc_maximal(cluster)
        assert res.alpha == 0.6
        assert res.iterations >= 1
        assert res.supersteps == cluster.metrics.rounds  # the loop unit
        assert res.num_machines == cluster.num_machines
        assert len(res.iteration_stats) == res.iterations
        # every iteration matches at least one edge (the mutual-minimum
        # progress certificate)
        assert all(matched >= 1 for _, _, matched in res.iteration_stats)

    def test_edgeless_graph(self):
        res = mpc_maximal(MPCCluster(gnp(300, 0.0), alpha=0.6))
        assert res.matching.size == 0
        assert res.iterations == 0

    def test_tiny_graph_needs_the_floor(self):
        # even alpha=1 cannot give a 1-node graph 16 words: the guard is
        # honest about inputs too small for the sublinear regime
        with pytest.raises(MemoryExceeded):
            MPCCluster(path_graph(1), alpha=0.9)

    def test_star_matches_exactly_one(self):
        res = mpc_maximal(MPCCluster(star_graph(280), alpha=0.5))
        assert res.matching.size == 1


class TestRunEntryPoint:
    def test_run_mpc_maximal(self):
        g = gnp(300, 0.02, rng=random.Random(4))
        result = repro.run("mpc_maximal", g, alpha=0.6, seed=1)
        assert result.certificate.valid
        assert result.algorithm == "mpc_maximal(alpha=0.6)"
        assert result.network_metrics.memory_peak_words > 0
        # "mpc" is an alias
        alias = repro.run("mpc", g, alpha=0.6, seed=1)
        assert (sorted(alias.matching.edges())
                == sorted(result.matching.edges()))

    def test_trace_integration(self, tmp_path):
        g = gnp(300, 0.02, rng=random.Random(0))
        path = tmp_path / "mpc.jsonl"
        result = repro.run("mpc_maximal", g, alpha=0.7, trace=str(path))
        assert str(result.trace_path) == str(path)
        kinds = {json.loads(line)["kind"]
                 for line in path.read_text().splitlines() if line.strip()}
        assert {"phase_start", "phase_end", "round_start",
                "round_end", "augmentation"} <= kinds

    def test_profile_integration(self):
        g = gnp(300, 0.02, rng=random.Random(0))
        result = repro.run("mpc_maximal", g, alpha=0.7, profile=True)
        assert result.profile is not None
        protocols = {p.protocol for p in result.profile.protocols}
        assert "mpc_maximal" in protocols
        phases = {ph.phase for ph in result.profile.phases}
        assert any(ph.startswith("sparsify") for ph in phases)
        assert any(ph.startswith("ball_growing") for ph in phases)

    def test_guard_propagates_through_run(self):
        with pytest.raises(MemoryExceeded):
            repro.run("mpc_maximal", path_graph(300), alpha=0.3)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("n", [0, 1, 5, 300])
    def test_edgeless_input_needs_no_machine(self, n, alpha):
        graph = Graph()
        graph.add_nodes(range(n))
        result = repro.mpc_maximal_matching(graph, alpha=alpha, profile=True)
        assert result.size == 0
        assert result.rounds == 0 and result.detail.supersteps == 0
        m = result.network_metrics
        assert (m.memory_peak_words, m.memory_limit_words,
                m.memory_machines) == (0, 0, 0)
        cert = result.certificate
        assert cert.valid and cert.maximal and cert.cardinality_ratio == 1.0
        assert result.profile is not None

    def test_edgeless_input_still_checks_the_plan(self):
        with pytest.raises(ModelExecutionError):
            repro.mpc_maximal_matching(path_graph(1), execution="kernel")
