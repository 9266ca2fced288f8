"""Bench: whole-program lint wall-time over the full source tree.

Runs every registered rule (the whole-program analyses included)
against ``src/repro`` and records the wall-clock plus the parse count.
The parse-count assertion is the "each file parsed exactly once"
guarantee as a measured property: the AST cache must hand every rule —
per-file and project-wide alike — the same parse.
"""

import pathlib

from conftest import save_report

from repro.devtools import run_lint
from repro.devtools.astcache import AstCache

REPRO_SRC = str(pathlib.Path(__file__).parent.parent / "src" / "repro")


def test_lint_whole_program(benchmark, report_dir):
    """Full rule sweep: one parse per file, zero findings."""

    def sweep():
        cache = AstCache()
        report = run_lint([REPRO_SRC], cache=cache)
        return report, cache

    (report, cache) = benchmark.pedantic(sweep, rounds=1, iterations=1)

    assert cache.parses == report.files_scanned, "a file was parsed twice"
    assert report.findings == [], "lint must stay clean repo-wide"

    benchmark.extra_info["files_scanned"] = report.files_scanned
    benchmark.extra_info["parses"] = cache.parses
    wall = benchmark.stats.stats.mean
    save_report(
        report_dir,
        "lint",
        (
            f"lint: {report.files_scanned} files, {cache.parses} parses, "
            f"{len(report.findings)} findings, {wall:.3f}s wall"
        ),
    )
