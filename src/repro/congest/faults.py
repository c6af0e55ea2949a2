"""Fault injection: what happens when the paper's assumptions break.

The paper assumes reliable synchronous communication (footnote 2: "we do
not consider faults").  This module makes that assumption *testable*: pass
``faults=FaultSpec(loss=0.05)`` to :class:`~repro.congest.network.Network`
and each delivered message is dropped independently with probability
``loss``, so one can observe the algorithms mis-behave — and, crucially,
watch the distributed self-checkers of :mod:`repro.dist.checkers` catch
the damage.  Fault injection composes with either delivery engine and with
any observer; it exists for experiments and tests, not as a recommended
execution mode.

:class:`FaultSpec` actually lives in :mod:`repro.congest.network` (the
constructor needs it); it is re-exported here for discoverability.
"""

from __future__ import annotations

from .network import FaultSpec

__all__ = ["FaultSpec"]
