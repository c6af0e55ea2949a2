"""The four workloads: set-up, the closed measuring loop, and the checks.

Every workload runs one public entry point from this single process, one
call at a time (a closed loop with one client and no extra threads).
Inputs are generated before timing; each call sees only the generated
graph and a per-call seed.  Correctness checks run after the loop, or,
for the stream, in pauses that are excluded from every timed interval.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import repro

from .inputs import (Instance, balanced_churn, derive, random_bipartite,
                     random_general, random_pairs, replay)
from .reference import (CheckFailed, adjacency, check_matching,
                        check_maximal, greedy_weight, maximum_matching_size,
                        optimum_check)
from .spans import Tracer, metric_units

clock = time.perf_counter

#: input generations per run; set-up time reports their median
SETUP_REPEATS = 3
#: seed of the warm-up call's input
WARM_SEED = 0

#: the host-speed probe: the benchmark's own blossom search on a fixed
#: graph of PROBE_N nodes, timed between measured calls ...
PROBE_N = 2000
PROBE_SEED = 12345
#: ... and its median on the reference host (2-core VM, Python 3.11.7);
#: reported times are scaled by PROBE_NOMINAL_S / (the run's median)
PROBE_NOMINAL_S = 0.015


@dataclass(frozen=True)
class Static:
    """A static workload: one entry point on one random graph family."""

    name: str
    entry: str
    kwargs: Dict[str, Any]
    bipartite: bool
    n: int
    max_weight: Optional[int]
    graphs: int        # graphs per run; call i uses graph i % graphs
    warm_n: int        # warm-up graph size (same family, m = warm_m)
    warm_m: int
    env: Dict[str, str] = field(default_factory=dict)

    def instance(self, n: int, m: int, seed: int) -> Instance:
        if self.bipartite:
            return random_bipartite(n, m, seed)
        return random_general(n, m, seed, max_weight=self.max_weight)


STATIC = {
    w.name: w for w in (
        # Auto-sharding starts at 4096 nodes, where one call takes 10 s
        # and its Algorithm 5 iteration count varies 6-16 with the input:
        # too few calls per run for a steady median.  REPRO_SHARDS=1 makes
        # the auto tier run every kernel protocol of this smaller graph
        # through a one-worker shard pool (partition, pool start-up,
        # barrier rounds); with two workers, identical runs varied by 15%
        # on a shared 2-core host.  A program without the variable just
        # runs the auto tier.
        Static("mwm-general", "approx_mwm", {"eps": 0.1, "execution": "auto"},
               bipartite=False, n=1000, max_weight=100, graphs=16,
               warm_n=300, warm_m=1200, env={"REPRO_SHARDS": "1"}),
        Static("mcm-bipartite", "approx_mcm", {"eps": 0.25},
               bipartite=True, n=4000, max_weight=None, graphs=8,
               warm_n=1000, warm_m=4000),
        # Bipartite, so the exact optimum inside each call is
        # Hopcroft-Karp: on general graphs the program's blossom takes
        # 0.4-2.6 s at n=5000 depending on the graph, which no per-run
        # median over a few dozen graphs makes steady.
        Static("mpc-bipartite", "mpc_maximal_matching", {"alpha": 0.5},
               bipartite=True, n=10000, max_weight=None, graphs=8,
               warm_n=1000, warm_m=4000),
    )
}

#: the stream workload: n nodes, m = 4n, batches of BATCH updates
STREAM_N = 5000
STREAM_K = 2
BATCH = 64
#: the stream always commits this many batches, so the ratio epochs exist
MIN_COMMITS = 100
#: epochs whose snapshot is checked (validity + ``verify_invariant``) ...
CHECK_EPOCHS = (1, 25, 50, 100, 200, 400, 800, 1600)
#: ... and whose ratio against the exact optimum enters ``ratio_min``
RATIO_EPOCHS = (50, 100)
#: pre-generated batches per measured second (about 2x today's rate; a
#: faster program that runs out of batches ends the run early)
BATCHES_PER_SECOND = 50
#: the stream samples the host probe once per this many batches
PROBE_EVERY = 8

WORKLOADS = tuple(STATIC) + ("stream-churn",)

#: per-layer values read from what the program returns (means per call or
#: per batch), beside the span metrics of :func:`spans.metric_units`
RESULT_UNITS = {
    "rounds_p50": "count",
    "congest.rounds": "count",
    "congest.messages": "count",
    "congest.bits": "count",
    "mpc.supersteps": "count",
    "mpc.peak_over_limit": "ratio",
    "mpc.tier.mpc_kernel.runs": "count",
    "mpc.tier.node.runs": "count",
    "stream.seeds": "count",
    "stream.augmentations": "count",
    "stream.nodes_explored": "count",
    "stream.augment_per_explored": "ratio",
    "stream.recomputes": "count",
    "observe.trace_overhead": "ratio",
    "host.probe_s": "s",
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    return {**metric_units(), **RESULT_UNITS}


def percentile(values: List[float], q: float) -> float:
    """The q-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class HostProbe:
    """Times a fixed pure-Python workload between measured calls.

    On a shared host the speed of a process drifts by 10-30% over tens of
    seconds, and the probe slows with it: over eight 25 s runs of
    ``approx_mcm`` the quartile spread was 10% for call time and 3% for
    call time over probe time.  The collector is off while the probe
    runs, so the program's heap size does not reach it.
    """

    def __init__(self) -> None:
        pairs = random_pairs(PROBE_N, 4 * PROBE_N, random.Random(PROBE_SEED))
        self.adj = adjacency(PROBE_N, pairs)
        self.times: List[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            maximum_matching_size(PROBE_N, self.adj)
            self.times.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()


@dataclass
class Run:
    """What one run measured; ``metrics`` maps name -> (value, unit, n).

    :meth:`finish` scales every time by the host probe; ``raw`` keeps the
    values as measured.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    env: Dict[str, str] = field(default_factory=dict)
    probe: HostProbe = field(default_factory=HostProbe)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (value, unit, samples)

    def finish(self) -> None:
        """Scale times to the reference host: x PROBE_NOMINAL_S / probe."""
        probe_s = statistics.median(self.probe.times)
        scale = PROBE_NOMINAL_S / probe_s
        for name, (value, unit, samples) in self.metrics.items():
            self.raw[name] = value
            if unit in ("s", "ms"):
                value *= scale
            elif unit == "1/s":
                value /= scale
            self.metrics[name] = (value, unit, samples)
        self.layers["host.probe_s"] = probe_s


# ---------------------------------------------------------------------------
# static workloads
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    graph: int
    seed: int
    wall: float
    pairs: list
    rounds: int
    counts: Dict[str, float]


def _outcome(w: Static, gi: int, seed: int, wall: float, res: Any) -> Outcome:
    pairs = sorted(res.matching.edges())
    counts: Dict[str, float] = {}
    if w.entry == "mpc_maximal_matching":
        d = res.detail
        rounds = d.supersteps
        counts["mpc.supersteps"] = d.supersteps
        counts["mpc.peak_over_limit"] = d.peak_words / d.machine_words
        counts[f"mpc.tier.{d.tier}.runs"] = 1
    else:
        m = res.metrics
        rounds = m.rounds_total
        counts["congest.rounds"] = m.rounds_total
        counts["congest.messages"] = m.messages + m.sub_messages
        counts["congest.bits"] = m.total_bits + m.sub_bits
    return Outcome(gi, seed, wall, pairs, rounds, counts)


def run_static(w: Static, seed: int, seconds: float,
               tracer: Optional[Tracer]) -> Run:
    saved = {key: os.environ.get(key) for key in w.env}
    os.environ.update(w.env)
    try:
        run = _run_static(w, seed, seconds, tracer)
        run.env = dict(w.env)
        return run
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run_static(w: Static, seed: int, seconds: float,
                tracer: Optional[Tracer]) -> Run:
    run = Run()
    entry = getattr(repro, w.entry)
    m = 4 * w.n
    gens = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        graphs = [w.instance(w.n, m, derive(seed, w.name, "graph", i))
                  for i in range(w.graphs)]
        gens.append(clock() - t0)
    # the warm-up pays the process's one-time costs (lazy imports, the
    # first shard pool); its input is fixed so set-up time does not vary
    # with the seed
    t0 = clock()
    warm = w.instance(w.warm_n, w.warm_m, WARM_SEED)
    entry(warm.graph, seed=WARM_SEED, **w.kwargs)
    setup_s = statistics.median(gens) + (clock() - t0)

    outcomes: List[Outcome] = []
    traced_wall = untraced_wall = 0.0
    start = clock()
    i = 0
    while i == 0 or clock() - start < seconds:
        gi, cs = i % w.graphs, derive(seed, w.name, "call", i)
        graph = graphs[gi].graph
        i += 1
        run.attempted += 1
        try:
            t0 = clock()
            res = entry(graph, seed=cs, **w.kwargs)
            wall = clock() - t0
        except Exception as exc:  # a raised call is a counted failure
            run.fail(f"call {i - 1} raised {exc!r}")
            continue
        out = _outcome(w, gi, cs, wall, res)
        del res
        if tracer is not None:
            with tracer:
                t0 = clock()
                with tracer.root("core." + w.entry):
                    twin = entry(graph, seed=cs, **w.kwargs)
                traced_wall += clock() - t0
            untraced_wall += wall
            twin_out = _outcome(w, gi, cs, 0.0, twin)
            if (twin_out.pairs, twin_out.rounds) != (out.pairs, out.rounds):
                run.fail(f"call {i - 1}: traced run changed the output")
        outcomes.append(out)
        run.probe.sample()
    if not run.probe.times:
        run.probe.sample()

    ratios = _check_static(w, graphs, outcomes, run)
    walls = [o.wall for o in outcomes]
    if walls:
        run.put("call_s_p50", statistics.median(walls), "s", len(walls))
        run.put("edges_per_s", m * len(walls) / sum(walls), "1/s", len(walls))
        run.put("rounds_p50", statistics.median(o.rounds for o in outcomes),
                "count", len(walls))
    if ratios:
        run.put("ratio_min", min(ratios), "ratio", len(ratios))
    run.put("setup_s", setup_s, "s", SETUP_REPEATS)
    if tracer is not None:
        run.layers = tracer.summary()
        for o in outcomes:
            for key, value in o.counts.items():
                run.layers[key] = (run.layers.get(key, 0.0)
                                   + value / len(outcomes))
        if walls:
            run.layers["rounds_p50"] = run.metrics["rounds_p50"][0]
        if untraced_wall:
            run.layers["observe.trace_overhead"] = traced_wall / untraced_wall
    return run


def _check_static(w: Static, graphs: List[Instance],
                  outcomes: List[Outcome], run: Run) -> List[float]:
    """Validate every output against references computed here."""
    refs: Dict[int, float] = {}
    ratios = []
    for o in outcomes:
        inst = graphs[o.graph]
        try:
            mate = check_matching(inst.n, inst.edge_set, o.pairs)
            if w.entry == "approx_mwm":
                if o.graph not in refs:
                    refs[o.graph] = greedy_weight(inst.pairs, inst.weights)
                weight = sum(inst.weight_of[p] for p in o.pairs)
                floor = (0.5 - w.kwargs["eps"]) * refs[o.graph]
                if weight < floor:
                    raise CheckFailed(f"weight {weight} below (1/2-eps) x "
                                      f"greedy = {floor}")
                ratios.append(weight / (2 * refs[o.graph]))
                continue
            if o.graph not in refs:
                refs[o.graph] = maximum_matching_size(
                    inst.n, adjacency(inst.n, inst.pairs))
            if w.entry == "mpc_maximal_matching":
                check_maximal(inst.pairs, mate)
                floor = None
            else:
                k = math.ceil(1 / w.kwargs["eps"]) - 1
                floor = k / (k + 1)
            ratios.append(optimum_check(len(o.pairs), refs[o.graph], floor))
        except CheckFailed as exc:
            run.fail(f"graph {o.graph} seed {o.seed}: {exc}")
    return ratios


# ---------------------------------------------------------------------------
# stream workload
# ---------------------------------------------------------------------------

def run_stream(seed: int, seconds: float, tracer: Optional[Tracer]) -> Run:
    run = Run()
    name = "stream-churn"
    n = STREAM_N
    batches = max(MIN_COMMITS, int(seconds * BATCHES_PER_SECOND)) + 1
    gens = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        inst = random_general(n, 4 * n, derive(seed, name, "graph"))
        churn = balanced_churn(inst.pairs, n, batches * BATCH,
                               derive(seed, name, "churn"))
        gens.append(clock() - t0)
    t0 = clock()
    svc = repro.MatchingService(inst.graph, k=STREAM_K,
                                seed=derive(seed, name, "service"))
    svc.apply(churn[:BATCH])          # warm-up batch, epoch 1
    svc.commit()
    svc.snapshot()
    setup_s = statistics.median(gens) + (clock() - t0)

    edges = set(inst.pairs)
    replayed = 0                      # updates already applied to ``edges``
    commit_s: List[float] = []
    read_s: List[float] = []
    loop_wall = 0.0
    traced = [0.0, 0]
    untraced = [0.0, 0]
    stats = []
    ratios: List[float] = []

    def checkpoint(snap: Any) -> None:
        nonlocal replayed
        upto = snap.epoch * BATCH
        replay(edges, churn[replayed:upto])
        replayed = upto
        try:
            if snap.num_edges != len(edges):
                raise CheckFailed(f"epoch {snap.epoch}: service holds "
                                  f"{snap.num_edges} edges, expected "
                                  f"{len(edges)}")
            check_matching(n, edges, list(snap.matching.edges()))
            if not svc.verify_invariant():
                raise CheckFailed(f"epoch {snap.epoch}: short augmenting "
                                  "path survived the commit")
            if snap.epoch in RATIO_EPOCHS:
                opt = maximum_matching_size(n, adjacency(n, edges))
                ratios.append(optimum_check(snap.size, opt,
                                            STREAM_K / (STREAM_K + 1)))
        except CheckFailed as exc:
            run.fail(str(exc))

    checkpoint(svc.snapshot())
    b = 1
    while b < batches and (b <= MIN_COMMITS or loop_wall < seconds):
        batch = churn[b * BATCH:(b + 1) * BATCH]
        b += 1
        run.attempted += 1
        try:
            if tracer is not None and b % 2 == 0:
                with tracer:
                    t0 = clock()
                    with tracer.root("core.batch"):
                        svc.apply(batch)
                        st = svc.commit()
                        snap = svc.snapshot()
                    t2 = clock()
                traced[0] += t2 - t0
                traced[1] += 1
            else:
                t0 = clock()
                svc.apply(batch)
                st = svc.commit()
                t1 = clock()
                snap = svc.snapshot()
                t2 = clock()
                commit_s.append(t1 - t0)
                read_s.append(t2 - t1)
                untraced[0] += t2 - t0
                untraced[1] += 1
        except Exception as exc:  # a raised commit is a counted failure
            run.fail(f"batch {b - 1} raised {exc!r}")
            break
        loop_wall += t2 - t0
        stats.append(st)
        if snap.epoch in CHECK_EPOCHS:
            checkpoint(snap)
        if b % PROBE_EVERY == 0:
            run.probe.sample()
    checkpoint(svc.snapshot())
    svc.close()
    if not run.probe.times:
        run.probe.sample()

    updates = len(stats) * BATCH
    if commit_s:
        run.put("call_s_p50", statistics.median(commit_s), "s",
                len(commit_s))
        run.put("edges_per_s", updates / loop_wall, "1/s", len(stats))
    if ratios:
        run.put("ratio_min", min(ratios), "ratio", len(ratios))
    run.put("setup_s", setup_s, "s", SETUP_REPEATS)
    if tracer is None and commit_s:
        # printed for readers; not in the JSON result (see NOTES.md)
        run.put("commit_ms_p50", 1e3 * percentile(commit_s, 50), "ms",
                len(commit_s))
        run.put("commit_ms_p99", 1e3 * percentile(commit_s, 99), "ms",
                len(commit_s))
        run.put("read_ms_p50", 1e3 * percentile(read_s, 50), "ms",
                len(read_s))
    elif tracer is not None:
        layers = tracer.summary()
        explored = sum(s.nodes_explored for s in stats)
        augmented = sum(s.augmentations for s in stats)
        count = max(1, len(stats))
        layers["stream.seeds"] = sum(s.seeds for s in stats) / count
        layers["stream.augmentations"] = augmented / count
        layers["stream.nodes_explored"] = explored / count
        layers["stream.augment_per_explored"] = (augmented / explored
                                                 if explored else 0.0)
        layers["stream.recomputes"] = sum(s.mode == "recompute"
                                          for s in stats)
        if untraced[1] and traced[1]:
            layers["observe.trace_overhead"] = ((traced[0] / traced[1])
                                                / (untraced[0] / untraced[1]))
        run.layers = layers
    return run


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for
    (shard workers are forked children); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    tracer = Tracer() if trace else None
    if name == "stream-churn":
        run = run_stream(seed, seconds, tracer)
    else:
        run = run_static(STATIC[name], seed, seconds, tracer)
    run.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    run.finish()
    return run
