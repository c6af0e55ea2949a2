"""Execution plans: one inspectable config for how a Network runs.

The engine has three performance tiers (vectorized kernels inside shard
workers, in-process kernels, per-node dispatch) plus a legacy reference
engine.  One frozen config object, :class:`ExecutionPlan`, selects among
them; it is accepted as ``Network(execution=...)`` and
``repro.run(execution=...)``:

>>> net = Network(g, execution=ExecutionPlan(tier="sharded-kernel", shards=4))
>>> net = Network(g, execution="node")            # tier name shorthand

``tier`` names the highest rung the run may use; resolution walks *down*
the ladder when a rung is ineligible (exactly like the historical silent
fallbacks).  The rungs, fastest first::

    sharded-kernel   RoundKernel array fast path inside shard workers
    kernel           RoundKernel fast path, single process
    node             per-node dispatch, single process (the reference)

``legacy`` (the original per-message dict engine) sits outside the
ladder: it runs only when a plan pins it, as the reference the golden
tests compare every rung against.

``tier="auto"`` (the default) applies the auto rules: kernels whenever a
protocol registers one, sharding on top when requested or when the
network is large and the machine multi-core.  ``shards=None`` follows
the auto rules, ``shards=0`` is the kill switch (never shard — same
semantics as ``REPRO_SHARDS=0``), ``shards=k`` forces ``k`` workers.
``kernels=False`` excludes both kernel tiers — and with them sharding,
since shard workers only run kernels.  ``env_overrides=False`` makes the
plan ignore ``REPRO_NO_KERNELS``/``REPRO_SHARDS`` at run time.

:func:`resolve_execution` is the single resolution routine used by both
``Network.run`` and ``Network.explain_execution``; the latter collects a
human-readable reason chain explaining why each faster tier was or was
not selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..observe.events import MESSAGE_DELIVERED

#: CONGEST's resolved tier names, fastest first (``"auto"`` is a plan
#: input, never a resolution result).  Plans are validated against
#: :data:`ALL_TIERS`, which also covers the per-model rungs of other
#: computation models.
TIERS = ("sharded-kernel", "kernel", "node", "legacy")

#: The MPC model's ladder, fastest first: whole-cluster array passes
#: over packed machine ledgers, then the per-machine reference path.
#: (``"node"`` is shared vocabulary: on every model it names the
#: single-process pure-python reference rung.)
MPC_TIERS = ("mpc_kernel", "node")

#: Every tier name any registered computation model can resolve to.  A
#: plan may name any of these; *which* of them a concrete run accepts is
#: the model's call (:meth:`~repro.models.base.ComputationModel.check_plan`).
ALL_TIERS = ("sharded-kernel", "kernel", "mpc_kernel", "node", "legacy")

#: The rungs each plan tier may resolve to, in preference order.  A tier
#: is a *ceiling*: explicitly asking for the in-process kernel tier
#: never silently spawns worker processes.
_LADDER: Dict[str, Tuple[str, ...]] = {
    "auto": ("sharded-kernel", "kernel", "node"),
    "sharded-kernel": ("sharded-kernel", "kernel", "node"),
    "kernel": ("kernel", "node"),
    "node": ("node",),
    "legacy": ("legacy",),
}

#: The per-model ladder walked by :meth:`MPCModel.resolve` (the MPC
#: analogue of :data:`_LADDER`; ``"auto"`` prefers the vectorized rung).
MPC_LADDER: Dict[str, Tuple[str, ...]] = {
    "auto": ("mpc_kernel", "node"),
    "mpc_kernel": ("mpc_kernel", "node"),
    "node": ("node",),
}


@dataclass(frozen=True)
class ExecutionPlan:
    """Frozen description of how protocols on a network should execute.

    ``tier`` — ``"auto"`` or one of :data:`ALL_TIERS`: the highest rung this
    plan allows (resolution falls down the ladder when a rung is
    ineligible for a given run).  ``shards`` — None follows the auto
    rules, ``0`` disables sharding entirely (the kwarg kill switch,
    mirroring ``REPRO_SHARDS=0``), ``k >= 1`` forces ``k`` workers.
    ``kernels`` — False excludes the kernel tiers.  ``env_overrides`` —
    False makes the plan ignore ``REPRO_NO_KERNELS`` and
    ``REPRO_SHARDS`` when the run resolves.
    """

    tier: str = "auto"
    shards: Optional[int] = None
    kernels: bool = True
    env_overrides: bool = True

    def __post_init__(self) -> None:
        if self.tier != "auto" and self.tier not in ALL_TIERS:
            raise ValueError(
                f"unknown execution tier {self.tier!r}; use 'auto' or one "
                f"of {', '.join(ALL_TIERS)}")
        if self.shards is not None and self.shards < 0:
            raise ValueError("shards must be >= 0 (0 disables sharding)")
        if self.shards and self.tier in ("kernel", "mpc_kernel", "node",
                                         "legacy"):
            raise ValueError(
                f"tier {self.tier!r} never shards; drop shards= or pick "
                f"'auto' or 'sharded-kernel'")
        if self.shards and not self.kernels:
            raise ValueError(
                "kernels=False never shards (shard workers only run "
                "kernels); drop shards= or kernels=False")
        if not self.kernels and self.tier in ("kernel", "sharded-kernel",
                                              "mpc_kernel"):
            raise ValueError(
                f"kernels=False contradicts tier {self.tier!r}")

    @classmethod
    def coerce(cls, execution: Any) -> "ExecutionPlan":
        """The plan an ``execution=`` argument names: ``None`` (the
        default plan), a tier name, or an :class:`ExecutionPlan`."""
        if execution is None:
            return cls()
        if isinstance(execution, str):
            return cls(tier=execution)
        if isinstance(execution, ExecutionPlan):
            return execution
        raise TypeError(
            f"execution= wants an ExecutionPlan or a tier name, "
            f"got {type(execution).__name__}")


@dataclass
class ExecutionDecision:
    """The outcome of resolving a plan for one concrete run.

    ``tier`` is the selected rung (one of :data:`TIERS`); ``shards`` is
    the worker count for the sharded tiers (None otherwise);
    ``reasons`` is the human-readable chain (populated by
    ``Network.explain_execution``, empty on hot-path resolutions).
    ``kernel``/``kernel_cls`` carry the selected kernel for the kernel
    tiers (consumed by ``Network.run``).
    """

    tier: str
    shards: Optional[int] = None
    reasons: Tuple[str, ...] = ()
    kernel: Any = field(default=None, repr=False, compare=False)
    kernel_cls: Any = field(default=None, repr=False, compare=False)

    def explain(self) -> str:
        """The reason chain as one printable block."""
        lines = [f"resolved tier: {self.tier}"
                 + (f" ({self.shards} shard(s))" if self.shards else "")]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def resolve_execution(net: Any, factory: Any = None,
                      shared: Optional[Dict[str, Any]] = None,
                      collect: bool = False) -> ExecutionDecision:
    """Resolve ``net``'s plan for one run of ``factory``.

    The single source of truth behind ``Network.run``'s dispatch and
    ``Network.explain_execution``'s report.  ``collect=True`` records a
    reason per considered rung.
    """
    plan: ExecutionPlan = net.execution_plan
    reasons: List[str] = []

    def say(msg: str) -> None:
        if collect:
            reasons.append(msg)

    model_name = getattr(getattr(net, "model", None), "name", "congest")
    say(f"model '{model_name}': resolving plan tier '{plan.tier}' on the "
        f"CONGEST execution ladder ({' > '.join(_LADDER['auto'])})")

    def done(tier: str, shards: Optional[int] = None,
             kernel: Any = None, kernel_cls: Any = None,
             ) -> ExecutionDecision:
        return ExecutionDecision(tier=tier, shards=shards,
                                 reasons=tuple(reasons), kernel=kernel,
                                 kernel_cls=kernel_cls)

    if plan.tier == "legacy":
        say("tier 'legacy': selected — pinned by the plan")
        return done("legacy")
    if plan.tier == "node":
        say("tier 'node': selected — pinned by the plan (batched delivery, "
            "per-node dispatch)")
        return done("node")

    from ..congest import kernels as _kernels
    from ..congest.policies import BandwidthPolicy

    # The numpy probe decides which branch every kernel tier runs; report
    # it up front so a fallthrough is diagnosable without running.
    if _kernels._np is not None:
        say("numpy probe: available — eligible kernels run their "
            "vectorized branch")
    else:
        say("numpy probe: unavailable — eligible kernels run the "
            "pure-python fallback")

    # -- kernel availability (both kernel tiers) ------------------------
    kernels_off_why = None
    if not plan.kernels:
        kernels_off_why = "the plan excludes kernels (kernels=False)"
    elif plan.env_overrides and not _kernels.kernels_enabled():
        kernels_off_why = f"{_kernels.NO_KERNELS_ENV} disables kernels"

    kernel_cls = _kernels.kernel_for(factory) if factory is not None else None

    # -- gates shared by both kernel tiers ------------------------------
    base_why = None
    if net._fault_rng is not None:
        base_why = "fault injection needs real per-node inboxes"
    elif type(net.policy) is not BandwidthPolicy:
        base_why = ("the bandwidth policy is a subclass and may price "
                    "per edge")
    elif net.bus is not None and net.bus.wants(MESSAGE_DELIVERED):
        base_why = "a per-message observer is subscribed"

    kernel = None
    kernel_why = kernels_off_why or base_why
    if kernel_why is None:
        if factory is None:
            kernel_why = "no node factory was given to look up a kernel for"
        elif kernel_cls is None:
            name = getattr(factory, "__name__", None) or repr(factory)
            kernel_why = (f"no RoundKernel is registered for {name} "
                          f"(exact class match required)")
        else:
            kernel = kernel_cls(net)
            if not kernel.accepts():
                kernel = None
                kernel_why = (f"{kernel_cls.__name__}.accepts() vetoed "
                              f"this run")

    # -- shard eligibility (sharded-kernel only: needs the kernel) ------
    k = None
    shard_why = None
    if kernel is not None and "sharded-kernel" in _LADDER[plan.tier]:
        from ..congest import sharding as _sharding

        k = _sharding.resolve_shards(net)
        n = net.graph.num_nodes
        if k is None:
            shard_why = ("no shard count resolved (not requested, and "
                         "the auto rules did not fire — they need "
                         f">= {_sharding.AUTO_SHARD_MIN_NODES} nodes and "
                         f">= 2 cores, with no kill switch set)")
        elif kernel_cls.shard_words <= 0:
            shard_why = (f"{kernel_cls.__name__} declares no shard hooks "
                         f"(shard_words == 0), so it is not audited for "
                         f"multi-process execution")
        elif shared and any(callable(v) for v in shared.values()):
            shard_why = ("shared values include callables, which cannot "
                         "cross process boundaries")
        elif n == 0:
            shard_why = "the graph is empty"
        if shard_why is not None:
            k = None
        else:
            k = min(k, n)

    # -- walk the ladder ------------------------------------------------
    for rung in _LADDER[plan.tier]:
        if rung == "sharded-kernel":
            if k is not None:
                say(f"tier 'sharded-kernel': selected — "
                    f"{kernel_cls.__name__} runs inside {k} shard "
                    f"worker(s)")
                return done("sharded-kernel", shards=k, kernel=kernel,
                            kernel_cls=kernel_cls)
            say(f"tier 'sharded-kernel': skipped — "
                f"{kernel_why or shard_why}")
        elif rung == "kernel":
            if kernel is not None:
                say(f"tier 'kernel': selected — {kernel_cls.__name__} "
                    f"runs in-process")
                return done("kernel", kernel=kernel, kernel_cls=kernel_cls)
            say(f"tier 'kernel': skipped — {kernel_why}")
    say("tier 'node': selected — the per-node reference path")
    return done("node")
