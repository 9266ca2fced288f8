"""Scan results and the Fig 1 aggregation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.crypto.onion import OnionAddress
from repro.faults.taxonomy import FailureTaxonomy
from repro.io import SORTED_ROWS, Header
from repro.net.endpoint import ConnectOutcome

# The named bins of Fig 1, in the paper's order (top of the chart first).
FIG1_BINS: Tuple[Tuple[int, str], ...] = (
    (55080, "55080-Skynet"),
    (80, "80-http"),
    (443, "443-https"),
    (22, "22-ssh"),
    (11009, "11009-TorChat"),
    (4050, "4050"),
    (6667, "6667-irc"),
)


@dataclass
class PortDistribution:
    """Fig 1: open-port counts per named bin plus 'other'."""

    codec_header = Header("port-distribution")

    counts: Dict[str, int]
    unique_ports: int
    total_open: int

    def as_rows(self) -> List[Tuple[str, int]]:
        """Rows in descending count order, 'other' last — as Fig 1 prints."""
        named = [(label, self.counts.get(label, 0)) for _, label in FIG1_BINS]
        named.sort(key=lambda row: -row[1])
        return named + [("other", self.counts.get("other", 0))]


@dataclass
class ScanResults:
    """Everything the multi-day scan observed."""

    codec_header = Header("scan-results")

    scanned_onions: int = 0
    # Onions whose descriptor was fetchable on at least one scan day (the
    # paper: descriptors were available for 24,511 of the 39,824 addresses).
    descriptor_onions: Set[OnionAddress] = field(default_factory=set)
    reachable_onions: Set[OnionAddress] = field(default_factory=set)
    # (onion, port) -> outcome for every counts-as-open observation; its
    # encoding sorts the rows (insertion order follows probe completion).
    open_ports: Dict[Tuple[OnionAddress, int], ConnectOutcome] = field(
        default_factory=dict, metadata=SORTED_ROWS
    )
    timeouts: int = 0
    probes_answered: int = 0
    # Retry accounting: how probe failures were ultimately classified, and
    # how many extra descriptor fetches the retry layer spent.  Both stay
    # zero when the scanner runs without a retry policy.
    failures: FailureTaxonomy = field(default_factory=FailureTaxonomy)
    descriptor_refetches: int = 0

    def record(self, onion: OnionAddress, port: int, outcome: ConnectOutcome) -> None:
        """Account one non-refused probe result."""
        self.probes_answered += 1
        if outcome is ConnectOutcome.TIMEOUT:
            self.timeouts += 1
            return
        if outcome.counts_as_open:
            self.open_ports[(onion, port)] = outcome
            self.reachable_onions.add(onion)

    @property
    def total_open_ports(self) -> int:
        """All (onion, port) pairs found open (abnormal errors included)."""
        return len(self.open_ports)

    def ports_of(self, onion: OnionAddress) -> List[int]:
        """Open ports found on one onion."""
        return sorted(
            port for (addr, port) in self.open_ports if addr == onion
        )

    def onions_with_port(self, port: int) -> List[OnionAddress]:
        """Onions where ``port`` was found open."""
        return sorted(
            addr for (addr, p) in self.open_ports if p == port
        )

    def port_distribution(self) -> PortDistribution:
        """Aggregate into the Fig 1 bins."""
        named_ports = {port for port, _ in FIG1_BINS}
        labels = dict(FIG1_BINS)
        counter: Counter = Counter()
        unique: Set[int] = set()
        for (_, port), _outcome in self.open_ports.items():
            unique.add(port)
            if port in named_ports:
                counter[labels[port]] += 1
            else:
                counter["other"] += 1
        return PortDistribution(
            counts=dict(counter),
            unique_ports=len(unique),
            total_open=self.total_open_ports,
        )

    def destinations_excluding(self, *ports: int) -> List[Tuple[OnionAddress, int]]:
        """(onion, port) pairs excluding the given ports — the crawl input.

        Section IV excludes 55080 and connects to "the remaining 8,153
        destinations (onion address:port pairs)".
        """
        excluded = set(ports)
        return sorted(
            (addr, port)
            for (addr, port) in self.open_ports
            if port not in excluded
        )
