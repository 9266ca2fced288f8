"""Tests for repro.io — the one artifact codec."""

import json
from collections import Counter

import pytest

from repro.analysis.report import ExperimentReport
from repro.bench import BenchRecord, Trajectory, WallStats
from repro.crawl.crawler import CrawlResults
from repro.crawl.page import FetchedPage, PageKind
from repro.errors import BenchSchemaError, ReproError, SupervisionError
from repro.experiments.harvest import HarvestExperimentResult
from repro.experiments.pipeline import ClassificationOutcome
from repro.experiments.sec7_tracking import Sec7Result
from repro.experiments.table2_popularity import Table2Result
from repro.faults.taxonomy import FailureTaxonomy
from repro.io import decode, encode, load_json, save_json
from repro.net.endpoint import ConnectOutcome
from repro.popularity.ranking import PopularityRanking
from repro.popularity.timeseries import RequestTimeSeries
from repro.scan.results import PortDistribution, ScanResults
from repro.scan.tls import CertificateAnalysis
from repro.service.schema import VIEW_KINDS, EpochViews, view_envelope
from repro.supervise import CompletenessManifest, CrashEvent, StageStatus

ONION_A = "aa" * 8 + ".onion"
ONION_B = "bb" * 8 + ".onion"


def make_report():
    report = ExperimentReport(experiment="x")
    report.add("alpha", 100, 103)
    report.add("beta", None, 7)
    report.note("a note")
    return report


def make_ranking():
    return PopularityRanking.from_counts({ONION_A: 50, ONION_B: 99}, {ONION_B: "Goldnet"})


def make_crawl():
    crawl = CrawlResults(tried=2, open_at_crawl=2, connected=1)
    crawl.add_page(FetchedPage(ONION_A, 80, "http", PageKind.HTML, 200, "hello", "", 2))
    crawl.add_page(FetchedPage(ONION_B, 22, "http", PageKind.DEAD, error="refused"))
    return crawl


def make_scan():
    scan = ScanResults(scanned_onions=2, descriptor_onions={ONION_B, ONION_A})
    # Insertion order is not key order; the encoding sorts the rows.
    scan.record(ONION_B, 443, ConnectOutcome.OPEN)
    scan.record(ONION_A, 80, ConnectOutcome.ABNORMAL_ERROR)
    scan.failures = FailureTaxonomy(transient_recovered=1, retry_attempts=2)
    return scan


def make_classification():
    outcome = ClassificationOutcome(
        language_counts={"en": 1, "de": 1}, topic_counts={"drugs": 1},
        english_pages=1, classified_pages=2,
    )
    # Crawl order, not key order: the encoding keeps it.
    outcome.page_languages[(ONION_B, 80)] = "en"
    outcome.page_languages[(ONION_A, 80)] = "de"
    outcome.page_topics[(ONION_B, 80)] = "drugs"
    return outcome


def make_manifest():
    return CompletenessManifest(
        stages=[StageStatus("scan", "complete", sim_seconds=12)],
        crashes=[CrashEvent("stage:scan:exit", 1)],
        restarts_used=1,
        backoff_sim_seconds=2,
        quarantined_items=[{"index": 4, "error": "E: x"}],
        crash_plan={"name": "custom", "rules": ["stage:scan:exit@1"]},
    )


def make_record():
    return BenchRecord(
        name="toy", hot_path="h", tier="smoke", kernel="batch", label="t",
        workers=1, warmup=0, repeats=2, items=64, checksum="ab" * 32,
        sim_seconds=0,
        wall=WallStats(mean_seconds=0.02, min_seconds=0.01, max_seconds=0.03,
                       per_repeat_seconds=(0.01, 0.03)),
    )


#: One small instance of every artifact class, with its decode error type.
SAMPLES = {
    "ExperimentReport": (make_report, ReproError),
    "PopularityRanking": (make_ranking, ReproError),
    "PortDistribution": (
        lambda: PortDistribution(counts={"80-http": 5, "other": 2}, unique_ports=4, total_open=7),
        ReproError,
    ),
    "CertificateAnalysis": (
        lambda: CertificateAnalysis(
            total_certificates=2, self_signed_mismatch=1, dominant_cn="x.example",
            dominant_cn_count=1, public_dns_onions=[ONION_A],
            cn_histogram=Counter({"x.example": 1, "a.example": 1}),
        ),
        ReproError,
    ),
    "CrawlResults": (make_crawl, ReproError),
    "ScanResults": (make_scan, ReproError),
    "ClassificationOutcome": (make_classification, ReproError),
    "RequestTimeSeries": (
        lambda: RequestTimeSeries(start=100, bucket_seconds=3600, counts=[1, 0, 7]),
        ReproError,
    ),
    # harvest_fraction=1: an int passes where a float is declared.
    "HarvestExperimentResult": (
        lambda: HarvestExperimentResult(
            published_onions=3, harvest_fraction=1, naive_ips_needed=300,
            hsdir_count=60, report=make_report(),
        ),
        ReproError,
    ),
    "Table2Result": (
        lambda: Table2Result(
            ranking=make_ranking(), total_requests_observed=149,
            unique_ids_observed=4, report=make_report(),
            label_to_onion={"Goldnet": ONION_B},
        ),
        ReproError,
    ),
    "Sec7Result": (lambda: Sec7Result(report=make_report()), ReproError),
    "BenchRecord": (make_record, BenchSchemaError),
    "Trajectory": (lambda: Trajectory(name="toy", points=[make_record()]), BenchSchemaError),
    "CompletenessManifest": (make_manifest, SupervisionError),
    "EpochViews": (
        lambda: EpochViews(
            {kind: view_envelope(kind, 0, 1, 0.02, {"rows": []}) for kind in VIEW_KINDS}
        ),
        ReproError,
    ),
}

KINDED = [name for name in SAMPLES if "kind" in encode(SAMPLES[name][0]())]


def _first_field(data):
    return next(key for key in data if key not in ("schema", "kind"))


def _wrong_type(value):
    """A JSON value of another type (a bool where an int is declared)."""
    if isinstance(value, (bool, float)):
        return "x"
    if isinstance(value, int):
        return True
    if isinstance(value, str):
        return 1
    if isinstance(value, list):
        return {}
    return []


class TestEveryArtifactRoundtrips:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_reencoding_is_byte_identical(self, name):
        """decode(encode(x)) re-encodes to the same bytes — the invariant
        repro.store's content addresses rest on."""
        obj = SAMPLES[name][0]()
        text = json.dumps(encode(obj), sort_keys=True)
        clone = decode(type(obj), json.loads(text))
        assert json.dumps(encode(clone), sort_keys=True) == text


class TestReportRoundtrip:
    def test_roundtrip_preserves_everything(self):
        report = make_report()
        clone = decode(ExperimentReport, encode(report))
        assert clone.experiment == report.experiment
        assert [(r.label, r.paper, r.measured) for r in clone.rows] == [
            (r.label, r.paper, r.measured) for r in report.rows
        ]
        assert clone.notes == report.notes
        assert clone.max_error() == report.max_error()

    def test_kind_mismatch_rejected(self):
        data = encode(make_report())
        data["kind"] = "something-else"
        with pytest.raises(ReproError):
            decode(ExperimentReport, data)

    def test_schema_mismatch_rejected(self):
        data = encode(make_report())
        data["schema"] = 999
        with pytest.raises(ReproError):
            decode(ExperimentReport, data)


class TestRankingRoundtrip:
    def test_roundtrip(self):
        clone = decode(PopularityRanking, encode(make_ranking()))
        assert len(clone) == 2
        assert clone.rank_of(ONION_B) == 1
        assert clone.row_for(ONION_B).description == "Goldnet"


class TestDistributionRoundtrip:
    def test_roundtrip(self):
        distribution = PortDistribution(
            counts={"80-http": 5, "other": 2}, unique_ports=4, total_open=7
        )
        clone = decode(PortDistribution, encode(distribution))
        assert clone.counts == distribution.counts
        assert clone.unique_ports == 4
        assert clone.total_open == 7
        assert clone.as_rows()[-1] == ("other", 2)


class TestScanRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        scan = small_pipeline.scan()
        data = encode(scan)
        clone = decode(ScanResults, data)
        assert clone.scanned_onions == scan.scanned_onions
        assert clone.descriptor_onions == scan.descriptor_onions
        assert clone.reachable_onions == scan.reachable_onions
        assert clone.open_ports == scan.open_ports
        assert clone.timeouts == scan.timeouts
        assert clone.probes_answered == scan.probes_answered
        assert data["open_ports"] == sorted(data["open_ports"])
        assert data["descriptor_onions"] == sorted(scan.descriptor_onions)
        # Re-encoding the clone reproduces the encoding byte-for-byte —
        # the invariant repro.store's content addresses rest on.
        assert encode(clone) == data


class TestCertificatesRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        analysis = small_pipeline.certificates()
        data = encode(analysis)
        clone = decode(CertificateAnalysis, data)
        assert clone.total_certificates == analysis.total_certificates
        assert clone.self_signed_mismatch == analysis.self_signed_mismatch
        assert clone.dominant_cn == analysis.dominant_cn
        assert clone.cn_histogram == analysis.cn_histogram
        assert isinstance(clone.cn_histogram, Counter)
        assert encode(clone) == data


class TestCrawlRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        crawl = small_pipeline.crawl()
        data = encode(crawl)
        clone = decode(CrawlResults, data)
        assert clone.pages == crawl.pages
        assert clone.tried == crawl.tried
        assert clone.open_at_crawl == crawl.open_at_crawl
        assert clone.connected == crawl.connected
        assert encode(clone) == data

    def test_destination_index_rebuilt(self, small_pipeline):
        crawl = small_pipeline.crawl()
        clone = decode(CrawlResults, encode(crawl))
        page = crawl.pages[0]
        assert clone._page_index[page.destination] == page


class TestClassificationRoundtrip:
    def test_roundtrip_is_exact(self, small_pipeline):
        outcome = small_pipeline.classify()
        data = encode(outcome)
        clone = decode(ClassificationOutcome, data)
        assert clone.language_counts == outcome.language_counts
        assert clone.topic_counts == outcome.topic_counts
        assert clone.classified_pages == outcome.classified_pages
        # Insertion order carries ranking-relevant tie-breaks; it must
        # survive the trip, not just the mapping contents.
        assert list(clone.page_topics) == list(outcome.page_topics)
        assert encode(clone) == data


class TestTimeseriesRoundtrip:
    def test_roundtrip_is_exact(self):
        series = RequestTimeSeries(start=100, bucket_seconds=3600, counts=[1, 0, 7])
        data = encode(series)
        clone = decode(RequestTimeSeries, data)
        assert clone.start == 100
        assert clone.bucket_seconds == 3600
        assert clone.counts == [1, 0, 7]
        assert encode(clone) == data


class TestStrictLoaders:
    """Loaders fail loudly at the boundary, never with a bare KeyError."""

    @pytest.mark.parametrize(
        "name, path",
        [pytest.param(name, "", id=f"{name}-first") for name in sorted(SAMPLES)]
        + [
            # Fields older decoders defaulted when absent; every writer
            # emits them, so their absence now means a damaged artifact.
            pytest.param(name, path, id=f"{name}-{path}")
            for name, path in [
                ("ExperimentReport", "notes"),
                ("PopularityRanking", "rows.0.description"),
                ("CrawlResults", "pages.0.attempts"),
                ("CompletenessManifest", "stages.0.sim_seconds"),
                ("CompletenessManifest", "backoff_sim_seconds"),
                ("CompletenessManifest", "quarantined_items"),
                ("CompletenessManifest", "reason"),
                ("CompletenessManifest", "crash_plan"),
            ]
        ],
    )
    def test_missing_field_raises_repro_error(self, name, path):
        build, error = SAMPLES[name]
        data = encode(build())
        *steps, leaf = path.split(".") if path else [_first_field(data)]
        parent = data
        for step in steps:
            parent = parent[int(step) if step.isdigit() else step]
        del parent[leaf]
        with pytest.raises(error, match=f"missing field '{leaf}'"):
            decode(type(build()), data)

    @pytest.mark.parametrize(
        "name, damage",
        [(name, "type") for name in sorted(SAMPLES)]
        + [(name, "kind") for name in KINDED],
    )
    def test_wrong_kind_or_type_rejected(self, name, damage):
        build, error = SAMPLES[name]
        data = encode(build())
        if damage == "kind":
            data["kind"] = "request-timeseries" if name != "RequestTimeSeries" else "x"
            match = "expected artifact kind"
        else:
            field = _first_field(data)
            data[field] = _wrong_type(data[field])
            match = f"field '{field}' has type"
        with pytest.raises(error, match=match):
            decode(type(build()), data)

    def test_wrong_kind_rejected(self):
        data = encode(RequestTimeSeries(start=0, bucket_seconds=60, counts=[]))
        with pytest.raises(ReproError, match="expected artifact kind"):
            decode(ScanResults, data)

    def test_missing_row_field_names_the_row(self):
        data = encode(make_report())
        del data["rows"][0]["measured"]
        with pytest.raises(ReproError, match=r"experiment-report\.rows: missing field 'measured'"):
            decode(ExperimentReport, data)

    def test_newer_schema_rejected_with_upgrade_hint(self):
        data = encode(make_report())
        data["schema"] = 2
        with pytest.raises(ReproError, match="newer than this build"):
            decode(ExperimentReport, data)

    def test_older_schema_rejected(self):
        data = encode(make_report())
        data["schema"] = 0
        with pytest.raises(ReproError, match="unsupported schema"):
            decode(ExperimentReport, data)

    def test_non_integer_schema_rejected(self):
        data = encode(make_report())
        data["schema"] = "1"
        with pytest.raises(ReproError, match="field 'schema' has type str"):
            decode(ExperimentReport, data)

    def test_non_mapping_fragment_rejected(self):
        data = encode(CrawlResults())
        data["failures"] = None
        with pytest.raises(ReproError, match="field 'failures' has type NoneType"):
            decode(CrawlResults, data)


class TestFiles:
    def test_save_and_load(self, tmp_path):
        report = make_report()
        path = tmp_path / "sub" / "report.json"
        save_json(encode(report), path)
        assert decode(ExperimentReport, load_json(path)).experiment == "x"
