"""Popularity ranking (Table II)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.onion import OnionAddress
from repro.io import Header


@dataclass(frozen=True)
class RankedService:
    """One Table II row."""

    rank: int
    requests: int
    onion: OnionAddress
    description: str = "<n/a>"


@dataclass
class PopularityRanking:
    """Sorted popularity table with label annotations."""

    codec_header = Header("popularity-ranking")

    rows: List[RankedService] = field(default_factory=list)
    _rank_by_onion: Dict[OnionAddress, int] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._rank_by_onion = {row.onion: row.rank for row in self.rows}

    @classmethod
    def from_counts(
        cls,
        requests_per_onion: Dict[OnionAddress, int],
        descriptions: Optional[Dict[OnionAddress, str]] = None,
    ) -> "PopularityRanking":
        """Build the ranking; ties broken by onion for determinism."""
        descriptions = descriptions or {}
        ordered = sorted(
            requests_per_onion.items(), key=lambda item: (-item[1], item[0])
        )
        ranking = cls()
        for index, (onion, count) in enumerate(ordered, start=1):
            ranking.rows.append(
                RankedService(
                    rank=index,
                    requests=count,
                    onion=onion,
                    description=descriptions.get(onion, "<n/a>"),
                )
            )
            ranking._rank_by_onion[onion] = index
        return ranking

    def __len__(self) -> int:
        return len(self.rows)

    def top(self, n: int) -> List[RankedService]:
        """The first ``n`` rows."""
        return self.rows[:n]

    def rank_of(self, onion: OnionAddress) -> Optional[int]:
        """1-based rank of ``onion``, or None if never requested."""
        return self._rank_by_onion.get(onion)

    def row_for(self, onion: OnionAddress) -> Optional[RankedService]:
        """The row for ``onion``, if ranked."""
        rank = self._rank_by_onion.get(onion)
        return self.rows[rank - 1] if rank else None

    def rows_matching(self, description: str) -> List[RankedService]:
        """All rows whose description equals ``description``."""
        return [row for row in self.rows if row.description == description]

    def relabel(self, descriptions: Dict[OnionAddress, str]) -> None:
        """Apply (additional) label annotations in place."""
        for index, row in enumerate(self.rows):
            label = descriptions.get(row.onion)
            if label:
                self.rows[index] = RankedService(
                    rank=row.rank,
                    requests=row.requests,
                    onion=row.onion,
                    description=label,
                )

    def format_table(self, limit: int = 30) -> str:
        """Text rendering in Table II's column layout."""
        lines = [f"{'#':>4} {'RQSTS':>7}  {'Addr':<24} Desc"]
        for row in self.rows[:limit]:
            lines.append(
                f"{row.rank:>4} {row.requests:>7}  {row.onion:<24} {row.description}"
            )
        return "\n".join(lines)
