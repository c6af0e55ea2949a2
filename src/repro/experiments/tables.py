"""Plain-text tables for the benchmark harness.

The paper has no evaluation section; the experiment suite prints its results
as tables in the style a systems paper would, and EXPERIMENTS.md records
claim-vs-measured for each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence


@dataclass
class Table:
    """A titled table with typed-ish formatting of floats.

    ``profile`` optionally carries a
    :class:`~repro.observe.profiling.ProfileReport` of the experiment's
    distributed runs (attached by ``run_all(..., profile=True)``); it is
    rendered below the table when present.
    """

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    profile: Any = None

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} "
                f"columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.001:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def format(self) -> str:
        cells = [[self._fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(r[i]) for r in cells)) if cells else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines = [self.title, "=" * len(self.title), header, sep]
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        profile = getattr(self, "profile", None)
        if profile is not None:
            lines.append("")
            lines.append("profile:")
            lines.extend("  " + line for line in str(profile).splitlines())
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.format())
        print()
