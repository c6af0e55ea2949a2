"""Result types returned by the high-level API."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from ..runtime.metrics import Metrics
from ..matching.core import Matching
from ..matching.verify import Certificate


@dataclass
class MatchingResult:
    """A matching plus its verification certificate and distributed cost.

    ``metrics`` is ``None`` for sequential algorithms; ``detail`` carries the
    algorithm-specific result object (phase traces, iteration stats, ...).
    ``profile`` is the :class:`~repro.observe.profiling.ProfileReport` when
    the run was profiled (``profile=True``), and ``trace_path`` the JSONL
    file written when it was traced (``trace=path``); both are ``None``
    otherwise.
    """

    matching: Matching
    algorithm: str
    certificate: Certificate
    metrics: Optional[Metrics] = None
    detail: Any = None
    profile: Any = None
    trace_path: Optional[Path] = None

    @property
    def network_metrics(self) -> Optional[Metrics]:
        """The distributed run's :class:`Metrics` (None for sequential runs).

        The canonical accessor of the unified API surface; ``metrics`` is
        the underlying field.
        """
        return self.metrics

    @property
    def size(self) -> int:
        return self.matching.size

    @property
    def weight(self) -> float:
        return self.certificate.weight

    @property
    def rounds(self) -> Optional[int]:
        """Physical rounds of the parent network (the legacy account)."""
        return self.metrics.total_rounds if self.metrics is not None else None

    @property
    def rounds_total(self) -> Optional[int]:
        """End-to-end rounds including emulated subnetwork rounds.

        Sub-protocols run through :class:`repro.runtime.driver.Subnetwork`
        (e.g. Luby MIS on a conflict graph) execute virtual rounds whose
        physical cost appears in ``rounds`` as an emulation charge; this
        property adds the raw virtual rounds on top — the complete picture
        of everything that executed anywhere in the composition.
        """
        return self.metrics.rounds_total if self.metrics is not None else None

    def __repr__(self) -> str:
        rounds = f" rounds={self.rounds}" if self.metrics is not None else ""
        return (
            f"<MatchingResult {self.algorithm}: size={self.size} "
            f"weight={self.weight:.4g}{rounds}>"
        )
