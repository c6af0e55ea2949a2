"""Layer spans recorded from outside the program.

:class:`Tracer` replaces each function or method in :data:`SPAN_POINTS`
with a timing wrapper at every place the program binds it: a function
imported with ``from x import f`` lives on in the importing module's
namespace, so every ``repro`` module attribute that *is* the target object
is swapped, and methods are swapped on their defining class.  A span is
``[name, start, end, parent, call]``; ``call`` is the id of the
entry-point call (the root span) it belongs to.  Spans and counts are
recorded only while a root span is open, so work the benchmark does
between calls, such as correctness checks, is never counted.
:meth:`Tracer.uninstall` restores every original binding.

Forked shard workers inherit the wrappers, but what they record stays in
the worker; their work shows in the parent as ``congest.shard_execute``,
which includes the barrier wait.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer names: the ``repro`` subpackages, plus ``core`` for entry-point
#: time not covered by any wrapped child span
LAYERS = ("graphs", "congest", "models", "runtime", "dist", "matching",
          "mpc", "stream", "observe", "core")

#: (span name, module, attribute path, kind).  ``span`` records a timed
#: span; ``count`` only counts calls (for functions called per node).
SPAN_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("graphs.to_csr", "repro.graphs.graph", "Graph.to_csr", "span"),
    ("graphs.bipartition", "repro.graphs.graph", "Graph.bipartition", "span"),
    ("congest.network_init", "repro.congest.network", "Network.__init__",
     "span"),
    ("congest.run", "repro.congest.network", "Network.run", "span"),
    ("congest.node_rng", "repro.congest.network", "Network.node_rng",
     "count"),
    ("congest.exchange_tokens", "repro.congest.utilities", "exchange_tokens",
     "span"),
    ("congest.partition", "repro.congest.sharding", "partition_graph",
     "span"),
    ("congest.shard_pool", "repro.congest.sharding",
     "ShardedNetwork.__init__", "span"),
    ("congest.shard_execute", "repro.congest.sharding",
     "ShardedNetwork.execute", "span"),
    ("models.resolve", "repro.models.execution", "resolve_execution",
     "span"),
    ("runtime.subnetwork", "repro.runtime.driver", "Subnetwork.__init__",
     "span"),
    ("runtime.fold", "repro.runtime.driver", "Subnetwork.__exit__", "span"),
    ("dist.driver", "repro.dist.weighted.algorithm5", "approximate_mwm",
     "span"),
    ("dist.driver", "repro.dist.bipartite_mcm", "bipartite_mcm", "span"),
    ("dist.driver", "repro.dist.general_mcm", "general_mcm", "span"),
    ("dist.alg5_residual", "repro.dist.weighted.gain", "residual_graph",
     "span"),
    ("dist.alg5_wraps", "repro.dist.weighted.gain", "apply_wraps", "span"),
    ("dist.class_greedy", "repro.dist.weighted.class_greedy",
     "class_greedy_mwm", "span"),
    ("dist.israeli_itai", "repro.dist.israeli_itai", "israeli_itai", "span"),
    ("dist.counting", "repro.dist.bipartite_counting", "run_counting",
     "span"),
    ("dist.token_mis", "repro.dist.token_mis", "run_token_selection",
     "span"),
    ("dist.augment", "repro.dist.bipartite_mcm", "augment_to_level", "span"),
    ("matching.exact", "repro.matching.sequential.blossom", "max_cardinality",
     "span"),
    ("matching.exact", "repro.matching.sequential.hungarian",
     "max_weight_bipartite", "span"),
    ("matching.certify", "repro.matching.verify", "certify", "span"),
    ("mpc.cluster_init", "repro.mpc.cluster", "MPCCluster.__init__", "span"),
    ("mpc.driver", "repro.mpc.matching", "mpc_maximal", "span"),
    ("stream.apply", "repro.stream.service", "MatchingService.apply", "span"),
    ("stream.commit", "repro.stream.service", "MatchingService.commit",
     "span"),
    ("stream.snapshot", "repro.stream.service", "MatchingService.snapshot",
     "span"),
    ("observe.emit", "repro.observe.events", "EventBus.emit", "span"),
    ("observe.finish", "repro.observe.profiling", "ObservabilityScope.finish",
     "span"),
)

#: CONGEST execution tiers, counted per ``Network.run`` by the
#: ``models.resolve`` wrapper (see :meth:`Tracer._note_tier`); listed here
#: rather than read from the program so the metric list stays fixed when
#: a tier is removed
TIERS = ("compiled", "sharded-kernel", "kernel", "sharded", "node", "legacy")


def metric_units() -> Dict[str, str]:
    """Every key :meth:`Tracer.summary` reports, with its unit."""
    units: Dict[str, str] = {}
    for name, _, _, kind in SPAN_POINTS:
        units[name + ".calls"] = "count"
        if kind == "span":
            units[name + ".self_s"] = "s"
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
    for tier in TIERS:
        units[f"models.tier.{tier}.runs"] = "count"
    return units


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest properly, so direct children are disjoint
    sub-intervals of their parent.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    """Span recorder plus the binding-site patcher (one per traced run)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._call: Optional[int] = None
        self._calls = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------
    def root(self, name: str) -> "_Root":
        """Context manager for one entry-point call (a new call id)."""
        return _Root(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), 0.0, parent, self._call])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def _note_tier(self, decision: Any) -> None:
        # Network.run is the only caller that executes the decision;
        # explain/compat callers resolve without running anything
        parent = self._stack[-1] if self._stack else None
        if parent is not None and self.spans[parent][0] == "congest.run":
            self.counts[f"models.tier.{decision.tier}.runs"] += 1

    def _wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        tracer = self
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer._call is not None:
                    tracer.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if tracer._call is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "models.resolve":
                tracer._note_tier(result)
            return result
        return timed

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Swap every span point at every binding site in ``repro``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, kind in SPAN_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(name, kind,
                                                  vars(cls)[attr]))
                continue
            target = getattr(module, path)
            wrapper = self._wrap(name, kind, target)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        """The (owner, attribute, original) triples currently swapped."""
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- aggregation ------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Per-call means: ``<span>.calls``, ``<span>.self_s``,
        ``<layer>.self_s``, plus the raw counts, each divided by the
        number of root calls."""
        calls = max(1, self._calls)
        own = self_times(self.spans)
        out = dict.fromkeys(metric_units(), 0.0)
        per_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span, t in zip(self.spans, own):
            acc = per_name[span[0]]
            acc[0] += 1
            acc[1] += t
            layer = "core" if span[3] is None else span[0].split(".")[0]
            out[layer + ".self_s"] += t / calls
        for name, (n, t) in per_name.items():
            if name + ".self_s" in out:
                out[name + ".calls"] = n / calls
                out[name + ".self_s"] = t / calls
        for key, n in self.counts.items():
            out[key] = n / calls
        return out


class _Root:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        if t._call is not None:
            raise RuntimeError("root spans do not nest")
        t._calls += 1
        t._call = t._calls
        self.idx = t._open(self.name)

    def __exit__(self, *exc: Any) -> None:
        t = self.tracer
        t._close(self.idx)
        t._call = None
