"""The results layer: per-epoch query views over the stage artifacts.

Pure functions from one epoch's stage results (plus the previous epoch's
views, for deltas) to the schema-versioned envelopes the API serves.
Everything iterates in sorted order and every value is plain JSON, so a
view's canonical encoding — and therefore its content digest, which is
its ETag — is byte-stable across worker counts, fault profiles, crash
restarts, and service-vs-batch execution.

The builders accept live stage objects and store-replayed ones
interchangeably: they only touch the fields the :mod:`repro.io` codec
round-trips (a crash-resumed epoch recomputes its views from decoded
artifacts and must land on the same bytes).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro import io as repro_io
from repro.experiments.pipeline import ClassificationOutcome
from repro.experiments.table2_popularity import Table2Result
from repro.scan import ScanResults
from repro.service.schema import view_envelope
from repro.worldbuild import EpochWorld


def ranking_view_body(table2: Table2Result) -> Dict[str, Any]:
    """The popularity ranking: Table II rows plus Section V totals."""
    return {
        "rows": [repro_io.encode(row) for row in table2.ranking.rows],
        "total_requests_observed": table2.total_requests_observed,
        "unique_ids_observed": table2.unique_ids_observed,
    }


def ports_view_body(scan: ScanResults) -> Dict[str, Any]:
    """The port histogram: Fig 1 bins plus scan reachability totals."""
    distribution = scan.port_distribution()
    return {
        "counts": {
            label: distribution.counts[label]
            for label in sorted(distribution.counts)
        },
        "unique_ports": distribution.unique_ports,
        "total_open": distribution.total_open,
        "scanned_onions": scan.scanned_onions,
        "descriptor_onions": len(scan.descriptor_onions),
        "reachable_onions": len(scan.reachable_onions),
    }


def topics_view_body(classification: ClassificationOutcome) -> Dict[str, Any]:
    """The topic breakdown: Fig 2 shares plus the language funnel."""
    return {
        "topic_counts": {
            topic: classification.topic_counts[topic]
            for topic in sorted(classification.topic_counts)
        },
        "topic_shares_percent": {
            topic: share
            for topic, share in sorted(
                classification.topic_shares_percent().items()
            )
        },
        "language_counts": {
            language: classification.language_counts[language]
            for language in sorted(classification.language_counts)
        },
        "classified_pages": classification.classified_pages,
        "english_pages": classification.english_pages,
        "torhost_default_count": classification.torhost_default_count,
    }


def dossiers_view_body(
    scan: ScanResults,
    classification: ClassificationOutcome,
    table2: Table2Result,
) -> Dict[str, Any]:
    """Per-onion dossiers over every onion the epoch observed.

    The universe is the union of descriptor-bearing and reachable onions
    (both round-trip through the scan artifact); each dossier joins the
    scan's ports, the classifier's page topics, and the ranking's row.
    """
    topics_by_onion: Dict[str, List[List[Any]]] = {}
    for (onion, port), topic in classification.page_topics.items():
        topics_by_onion.setdefault(str(onion), []).append([port, topic])
    onions = sorted(set(scan.descriptor_onions) | set(scan.reachable_onions))
    dossiers: Dict[str, Dict[str, Any]] = {}
    for onion in onions:
        row = table2.ranking.row_for(onion)
        dossiers[onion] = {
            "descriptor": onion in scan.descriptor_onions,
            "reachable": onion in scan.reachable_onions,
            "open_ports": scan.ports_of(onion),
            "topics": sorted(topics_by_onion.get(onion, [])),
            "rank": row.rank if row is not None else None,
            "requests": row.requests if row is not None else None,
            "description": row.description if row is not None else None,
        }
    return {"onions": dossiers, "total": len(dossiers)}


def delta_view_body(
    current: Mapping[str, Dict[str, Any]],
    previous: Optional[Mapping[str, Dict[str, Any]]],
) -> Dict[str, Any]:
    """Epoch-over-epoch movement, computed view-to-view.

    Operates on the already-built ranking/ports/topics envelopes (not the
    stage objects) so the delta is exactly the difference a reader of the
    two epochs' views would compute — and epoch 0's delta is well-defined
    (everything empty, ``prev_epoch`` null).
    """
    if previous is None:
        return {
            "prev_epoch": None,
            "new_onions": [],
            "vanished_onions": [],
            "rank_moves": {},
            "port_count_changes": {},
            "topic_count_changes": {},
        }
    cur_ranks = {
        row["onion"]: row["rank"]
        for row in current["ranking"]["body"]["rows"]
    }
    prev_ranks = {
        row["onion"]: row["rank"]
        for row in previous["ranking"]["body"]["rows"]
    }
    rank_moves = {
        onion: {"prev_rank": prev_ranks[onion], "rank": cur_ranks[onion]}
        for onion in sorted(set(cur_ranks) & set(prev_ranks))
        if prev_ranks[onion] != cur_ranks[onion]
    }
    cur_ports = current["ports"]["body"]["counts"]
    prev_ports = previous["ports"]["body"]["counts"]
    port_changes = {
        label: cur_ports.get(label, 0) - prev_ports.get(label, 0)
        for label in sorted(set(cur_ports) | set(prev_ports))
        if cur_ports.get(label, 0) != prev_ports.get(label, 0)
    }
    cur_topics = current["topics"]["body"]["topic_counts"]
    prev_topics = previous["topics"]["body"]["topic_counts"]
    topic_changes = {
        topic: cur_topics.get(topic, 0) - prev_topics.get(topic, 0)
        for topic in sorted(set(cur_topics) | set(prev_topics))
        if cur_topics.get(topic, 0) != prev_topics.get(topic, 0)
    }
    return {
        "prev_epoch": previous["ranking"]["epoch"],
        "new_onions": sorted(set(cur_ranks) - set(prev_ranks)),
        "vanished_onions": sorted(set(prev_ranks) - set(cur_ranks)),
        "rank_moves": rank_moves,
        "port_count_changes": port_changes,
        "topic_count_changes": topic_changes,
    }


def build_views(
    world: EpochWorld,
    scan: ScanResults,
    classification: ClassificationOutcome,
    table2: Table2Result,
    prev_views: Optional[Mapping[str, Dict[str, Any]]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Materialize every query view for one epoch, as envelopes by kind."""

    def wrap(kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
        return view_envelope(kind, world.epoch, world.seed, world.scale, body)

    views = {
        "ranking": wrap("ranking", ranking_view_body(table2)),
        "ports": wrap("ports", ports_view_body(scan)),
        "topics": wrap("topics", topics_view_body(classification)),
        "dossiers": wrap(
            "dossiers", dossiers_view_body(scan, classification, table2)
        ),
    }
    views["delta"] = wrap("delta", delta_view_body(views, prev_views))
    return views


def dossier_envelope(
    views: Mapping[str, Dict[str, Any]], onion: str
) -> Optional[Dict[str, Any]]:
    """One onion's dossier re-wrapped as its own addressable envelope.

    Returns ``None`` when the epoch never observed ``onion`` (the API
    turns that into a 404 rather than an empty dossier).
    """
    dossiers = views["dossiers"]
    entry = dossiers["body"]["onions"].get(onion)
    if entry is None:
        return None
    return {
        "schema": dossiers["schema"],
        "kind": "dossier",
        "epoch": dossiers["epoch"],
        "seed": dossiers["seed"],
        "scale": dossiers["scale"],
        "onion": onion,
        "body": dict(entry),
    }
