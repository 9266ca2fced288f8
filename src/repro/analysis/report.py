"""Experiment reports: paper value vs measured value, side by side.

Every benchmark prints one of these so EXPERIMENTS.md can be regenerated
mechanically and the *shape* agreement (who wins, by what factor) is
auditable at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.analysis.stats import relative_error
from repro.io import Header

Number = Union[int, float]


@dataclass(frozen=True)
class ComparisonRow:
    """One measured quantity against its published counterpart."""

    label: str
    paper: Optional[Number]
    measured: Number

    @property
    def error(self) -> Optional[float]:
        """Relative error, when the paper gives a number."""
        if self.paper is None:
            return None
        return relative_error(float(self.measured), float(self.paper))


@dataclass
class ExperimentReport:
    """A named collection of comparison rows plus free-form notes."""

    codec_header = Header("experiment-report")

    experiment: str
    rows: List[ComparisonRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, label: str, paper: Optional[Number], measured: Number) -> None:
        """Record one comparison."""
        self.rows.append(ComparisonRow(label=label, paper=paper, measured=measured))

    def note(self, text: str) -> None:
        """Attach a free-form observation."""
        self.notes.append(text)

    def add_failure_taxonomy(self, taxonomy, prefix: str = "") -> None:
        """Add one row per failure category (no paper counterparts).

        ``taxonomy`` is any object with ``rows() -> (label, count)`` pairs —
        in practice :class:`repro.faults.taxonomy.FailureTaxonomy`.
        """
        for label, count in taxonomy.rows():
            self.add(f"{prefix}{label}", None, count)

    def add_completeness(self, manifest) -> None:
        """Render a supervision completeness manifest into this report.

        ``manifest`` is any object with ``summary_lines() -> [str]`` and a
        ``complete`` flag — in practice
        :class:`repro.supervise.manifest.CompletenessManifest`.  A complete
        run adds a single confirming note; a degraded or partial one spells
        out exactly what is missing so the numbers above it are read with
        the right amount of trust.
        """
        if manifest.complete:
            self.note("supervision: run complete (no degradation)")
            return
        self.note("supervision: PARTIAL RESULT")
        for line in manifest.summary_lines():
            self.note(f"supervision: {line}")

    def max_error(self) -> float:
        """Worst relative error across rows that have a paper value."""
        errors = [row.error for row in self.rows if row.error is not None]
        return max(errors) if errors else 0.0

    def format(self) -> str:
        """Printable paper-vs-measured table."""
        width = max((len(row.label) for row in self.rows), default=10)
        lines = [f"== {self.experiment} =="]
        lines.append(f"{'quantity':<{width}}  {'paper':>12}  {'measured':>12}  {'err':>7}")
        for row in self.rows:
            paper = f"{row.paper:g}" if row.paper is not None else "-"
            error = f"{row.error * 100:.1f}%" if row.error is not None else "-"
            measured = (
                f"{row.measured:g}"
                if isinstance(row.measured, (int, float))
                else str(row.measured)
            )
            lines.append(
                f"{row.label:<{width}}  {paper:>12}  {measured:>12}  {error:>7}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
