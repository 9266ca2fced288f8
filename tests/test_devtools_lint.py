"""Tests for the ``repro lint`` static-analysis engine (REP001–REP010, REP014)."""

import json
import os
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.devtools import run_lint
from repro.devtools.baseline import load_baseline, write_baseline
from repro.devtools.engine import iter_python_files, module_name_for, parse_file
from repro.errors import ConfigError
from repro.sim.rng import derive_rng, split_rng

REPRO_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def lint_source(tmp_path, source, rules=None, name="snippet.py"):
    """Lint one inline snippet; returns the findings list."""
    target = tmp_path / name
    target.write_text(textwrap.dedent(source))
    return run_lint([str(target)], rule_ids=rules).findings


def write_package(root, files):
    """Materialise ``{relative_path: source}`` as a package tree."""
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        # Every directory on the way down needs an __init__.py.
        probe = target.parent
        while probe != root.parent:
            init = probe / "__init__.py"
            if not init.exists():
                init.write_text("")
            probe = probe.parent


class TestRep001RawSeed:
    def test_flags_literal_seed(self, tmp_path):
        findings = lint_source(
            tmp_path, "import random\nrng = random.Random(0)\n", rules=["REP001"]
        )
        assert [f.rule for f in findings] == ["REP001"]
        assert findings[0].line == 2

    def test_flags_from_import_alias(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from random import Random as R\nrng = R(42)\n",
            rules=["REP001"],
        )
        assert [f.rule for f in findings] == ["REP001"]

    def test_derive_rng_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.sim.rng import derive_rng\nrng = derive_rng(0, 'a')\n",
            rules=["REP001"],
        )
        assert findings == []

    def test_sim_rng_module_is_allowlisted(self, tmp_path):
        rng_dir = tmp_path / "sim"
        rng_dir.mkdir()
        target = rng_dir / "rng.py"
        target.write_text("import random\nrng = random.Random(7)\n")
        assert run_lint([str(target)], rule_ids=["REP001"]).findings == []


class TestRep002AdHocSplit:
    def test_flags_getrandbits_reseed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "def f(rng):\n"
            "    return random.Random(rng.getrandbits(64))\n",
            rules=["REP001", "REP002"],
        )
        assert [f.rule for f in findings] == ["REP002"]

    def test_plain_getrandbits_draw_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(rng):\n    return rng.getrandbits(32)\n",
            rules=["REP002"],
        )
        assert findings == []


class TestRep003WallClock:
    @pytest.mark.parametrize(
        "call",
        [
            "time.time()",
            "datetime.now()",
            "datetime.utcnow()",
            "date.today()",
            "datetime.datetime.now()",
        ],
    )
    def test_flags_wall_clock(self, tmp_path, call):
        source = (
            "import time\nimport datetime\n"
            "from datetime import date, datetime\n"
            f"stamp = {call}\n"
        )
        findings = lint_source(tmp_path, source, rules=["REP003"])
        assert [f.rule for f in findings] == ["REP003"]

    def test_flags_bare_time_import(self, tmp_path):
        findings = lint_source(
            tmp_path, "from time import time\nstamp = time()\n", rules=["REP003"]
        )
        assert [f.rule for f in findings] == ["REP003"]

    def test_perf_counter_is_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\nelapsed = time.perf_counter()\n",
            rules=["REP003"],
        )
        assert findings == []


class TestRep004BuiltinRaise:
    @pytest.mark.parametrize(
        "exc", ["ValueError", "RuntimeError", "TypeError", "KeyError"]
    )
    def test_flags_builtin_raise(self, tmp_path, exc):
        findings = lint_source(
            tmp_path, f"def f():\n    raise {exc}('x')\n", rules=["REP004"]
        )
        assert [f.rule for f in findings] == ["REP004"]

    def test_repro_error_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.errors import ConfigError\n"
            "def f():\n    raise ConfigError('x')\n",
            rules=["REP004"],
        )
        assert findings == []

    def test_bare_reraise_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        raise\n",
            rules=["REP004"],
        )
        assert findings == []


class TestRep005SetOrdering:
    def test_flags_list_of_set(self, tmp_path):
        findings = lint_source(
            tmp_path, "items = list(set([1, 2]))\n", rules=["REP005"]
        )
        assert [f.rule for f in findings] == ["REP005"]

    def test_flags_for_over_set_call(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "for item in set([1, 2]):\n    print(item)\n",
            rules=["REP005"],
        )
        assert [f.rule for f in findings] == ["REP005"]

    def test_flags_comprehension_over_set_literal(self, tmp_path):
        findings = lint_source(
            tmp_path, "out = [x for x in {1, 2}]\n", rules=["REP005"]
        )
        assert [f.rule for f in findings] == ["REP005"]

    def test_sorted_set_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "items = sorted(set([1, 2]))\n"
            "for item in sorted({3, 4}):\n    print(item)\n",
            rules=["REP005"],
        )
        assert findings == []

    def test_membership_test_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "hit = 3 in set([1, 2, 3])\n", rules=["REP005"]
        )
        assert findings == []


class TestRep006Layering:
    def test_flags_layer_violation(self, tmp_path):
        write_package(
            tmp_path / "pkg",
            {
                "crypto/keys.py": "from pkg.experiments import driver\n",
                "experiments/driver.py": "X = 1\n",
            },
        )
        findings = run_lint([str(tmp_path / "pkg")], rule_ids=["REP006"]).findings
        assert len(findings) == 1
        assert "layer violation" in findings[0].message
        assert "crypto" in findings[0].message

    def test_flags_import_cycle(self, tmp_path):
        write_package(
            tmp_path / "pkg",
            {
                "alpha.py": "import pkg.beta\n",
                "beta.py": "import pkg.alpha\n",
            },
        )
        findings = run_lint([str(tmp_path / "pkg")], rule_ids=["REP006"]).findings
        assert len(findings) == 1
        assert "import cycle" in findings[0].message
        assert "pkg.alpha" in findings[0].message and "pkg.beta" in findings[0].message

    def test_type_checking_imports_excluded(self, tmp_path):
        write_package(
            tmp_path / "pkg",
            {
                "alpha.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    import pkg.beta\n"
                ),
                "beta.py": "import pkg.alpha\n",
            },
        )
        assert run_lint([str(tmp_path / "pkg")], rule_ids=["REP006"]).findings == []

    def test_relative_imports_resolve(self, tmp_path):
        write_package(
            tmp_path / "pkg",
            {
                "sim/clock.py": "from ..trawl import harvest\n",
                "trawl/harvest.py": "X = 1\n",
            },
        )
        findings = run_lint([str(tmp_path / "pkg")], rule_ids=["REP006"]).findings
        assert len(findings) == 1
        assert "layer violation" in findings[0].message


    def test_codec_importing_a_measurement_layer_is_a_violation(self, tmp_path):
        write_package(
            tmp_path / "pkg",
            {
                "io.py": "from pkg.experiments import pipeline\n",
                "experiments/pipeline.py": "X = 1\n",
            },
        )
        findings = run_lint([str(tmp_path / "pkg")], rule_ids=["REP006"]).findings
        assert len(findings) == 1
        assert "layer violation: io module pkg.io" in findings[0].message


class TestRep007RawConcurrency:
    @pytest.mark.parametrize(
        "source",
        [
            "import multiprocessing\n",
            "import concurrent.futures\n",
            "from multiprocessing import Pool\n",
            "from concurrent.futures import ProcessPoolExecutor\n",
            "import multiprocessing.pool as mp\n",
        ],
    )
    def test_flags_raw_concurrency_import(self, tmp_path, source):
        findings = lint_source(tmp_path, source, rules=["REP007"])
        assert len(findings) == 1
        assert findings[0].rule == "REP007"
        assert "repro.parallel.pmap" in findings[0].message

    def test_pmap_import_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "from repro.parallel import pmap\n", rules=["REP007"]
        )
        assert findings == []

    def test_unrelated_module_with_similar_prefix_is_clean(self, tmp_path):
        # Only the top-level modules count: ``concurrently`` is not
        # ``concurrent``.
        findings = lint_source(
            tmp_path, "import concurrently\n", rules=["REP007"]
        )
        assert findings == []

    def test_parallel_package_is_allowlisted(self, tmp_path):
        target = tmp_path / "repro" / "parallel" / "executor.py"
        target.parent.mkdir(parents=True)
        target.write_text("from concurrent import futures\n")
        findings = run_lint([str(target)], rule_ids=["REP007"]).findings
        assert findings == []


class TestRep008ExceptionSwallow:
    def test_flags_bare_except(self, tmp_path):
        source = """
        try:
            probe()
        except:
            handle()
        """
        findings = lint_source(tmp_path, source, rules=["REP008"])
        assert len(findings) == 1
        assert "bare except" in findings[0].message

    @pytest.mark.parametrize("exc", ["Exception", "BaseException"])
    def test_flags_catch_all(self, tmp_path, exc):
        source = f"""
        try:
            probe()
        except {exc} as err:
            log(err)
        """
        findings = lint_source(tmp_path, source, rules=["REP008"])
        assert len(findings) == 1
        assert "repro.errors" in findings[0].message

    def test_flags_catch_all_inside_a_tuple(self, tmp_path):
        source = """
        try:
            probe()
        except (OSError, Exception):
            handle()
        """
        findings = lint_source(tmp_path, source, rules=["REP008"])
        assert len(findings) == 1

    def test_flags_silent_swallow_of_a_typed_exception(self, tmp_path):
        source = """
        try:
            probe()
        except NetworkError:
            pass
        """
        findings = lint_source(tmp_path, source, rules=["REP008"])
        assert len(findings) == 1
        assert "swallowed" in findings[0].message

    def test_typed_and_handled_is_clean(self, tmp_path):
        source = """
        try:
            probe()
        except NetworkError as err:
            taxonomy.record(err)
        """
        assert lint_source(tmp_path, source, rules=["REP008"]) == []

    def test_fault_plane_is_exempt(self, tmp_path):
        target = tmp_path / "repro" / "faults" / "transport.py"
        target.parent.mkdir(parents=True)
        target.write_text("try:\n    probe()\nexcept Exception:\n    pass\n")
        findings = run_lint([str(target)], rule_ids=["REP008"]).findings
        assert findings == []


class TestRep009AdHocInstrumentation:
    def test_flags_print(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(count):\n    print('scanned', count)\n",
            rules=["REP009"],
        )
        assert [f.rule for f in findings] == ["REP009"]
        assert "Observer" in findings[0].message

    def test_flags_time_perf_counter(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\nstart = time.perf_counter()\n",
            rules=["REP009"],
        )
        assert [f.rule for f in findings] == ["REP009"]
        assert "span" in findings[0].message

    def test_flags_aliased_perf_counter(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from time import perf_counter as tick\nstart = tick()\n",
            rules=["REP009"],
        )
        assert [f.rule for f in findings] == ["REP009"]

    def test_observer_calls_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(obs):\n"
            "    obs.count('probes_total')\n"
            "    with obs.span('scan.day'):\n"
            "        obs.add_time(86400)\n",
            rules=["REP009"],
        )
        assert findings == []

    def test_unrelated_name_print_attribute_is_clean(self, tmp_path):
        # Only the builtin ``print`` name counts, not arbitrary attributes.
        findings = lint_source(
            tmp_path, "report.print_summary()\n", rules=["REP009"]
        )
        assert findings == []

    @pytest.mark.parametrize(
        "relative",
        [
            ("repro", "obs", "export.py"),
            ("repro", "cli.py"),
            ("benchmarks", "bench_scan.py"),
            ("tests", "test_scan.py"),
            ("examples", "quickstart.py"),
        ],
    )
    def test_exempt_surfaces_may_print(self, tmp_path, relative):
        target = tmp_path.joinpath(*relative)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "import time\nprint('x')\nstart = time.perf_counter()\n"
        )
        assert run_lint([str(target)], rule_ids=["REP009"]).findings == []


class TestRep010ArtifactWrite:
    def test_flags_open_write_mode(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "with open('out.json', 'w') as fh:\n    fh.write('{}')\n",
            rules=["REP010"],
        )
        assert [f.rule for f in findings] == ["REP010"]
        assert "repro.io" in findings[0].message

    def test_flags_open_mode_keyword(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "fh = open('out.bin', mode='ab')\n",
            rules=["REP010"],
        )
        assert [f.rule for f in findings] == ["REP010"]

    def test_open_for_reading_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "with open('in.json') as fh:\n    data = fh.read()\n"
            "with open('in.txt', 'r') as fh:\n    text = fh.read()\n",
            rules=["REP010"],
        )
        assert findings == []

    def test_flags_json_dump(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import json\ndef f(data, fh):\n    json.dump(data, fh)\n",
            rules=["REP010"],
        )
        assert [f.rule for f in findings] == ["REP010"]

    def test_json_dumps_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import json\ntext = json.dumps({'a': 1})\n",
            rules=["REP010"],
        )
        assert findings == []

    @pytest.mark.parametrize("method", ["write_text", "write_bytes"])
    def test_flags_pathlib_writes(self, tmp_path, method):
        findings = lint_source(
            tmp_path,
            f"def f(path):\n    path.{method}('x')\n",
            rules=["REP010"],
        )
        assert [f.rule for f in findings] == ["REP010"]

    def test_flags_path_open_write_mode(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(path):\n    return path.open('a')\n",
            rules=["REP010"],
        )
        assert [f.rule for f in findings] == ["REP010"]

    def test_path_open_read_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(path):\n    return path.open()\n",
            rules=["REP010"],
        )
        assert findings == []

    @pytest.mark.parametrize(
        "relative",
        [
            ("repro", "io.py"),
            ("repro", "store", "cas.py"),
            ("repro", "obs", "export.py"),
            ("repro", "devtools", "baseline.py"),
            ("repro", "cli.py"),
            ("benchmarks", "conftest.py"),
            ("tests", "test_scan.py"),
            ("examples", "quickstart.py"),
        ],
    )
    def test_exempt_surfaces_may_write(self, tmp_path, relative):
        target = tmp_path.joinpath(*relative)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "import json\n"
            "with open('out.json', 'w') as fh:\n"
            "    json.dump({}, fh)\n"
        )
        assert run_lint([str(target)], rule_ids=["REP010"]).findings == []


class TestRep014SupervisionContainment:
    @pytest.mark.parametrize(
        "exc",
        ["BaseException", "KeyboardInterrupt", "SystemExit", "SimulatedCrashError"],
    )
    def test_flags_teardown_catches(self, tmp_path, exc):
        source = f"""
        try:
            probe()
        except {exc}:
            recover()
        """
        findings = lint_source(tmp_path, source, rules=["REP014"])
        assert [f.rule for f in findings] == ["REP014"]
        assert "repro.supervise" in findings[0].message

    def test_flags_teardown_name_inside_a_tuple(self, tmp_path):
        source = """
        try:
            probe()
        except (ValueError, KeyboardInterrupt):
            recover()
        """
        assert len(lint_source(tmp_path, source, rules=["REP014"])) == 1

    def test_flags_attribute_spelling(self, tmp_path):
        source = """
        import repro.errors
        try:
            probe()
        except repro.errors.SimulatedCrashError:
            recover()
        """
        assert len(lint_source(tmp_path, source, rules=["REP014"])) == 1

    def test_flags_bare_except(self, tmp_path):
        source = """
        try:
            probe()
        except:
            recover()
        """
        findings = lint_source(tmp_path, source, rules=["REP014"])
        assert len(findings) == 1
        assert "teardown" in findings[0].message

    def test_flags_signal_handler_installs(self, tmp_path):
        source = """
        import signal
        signal.signal(signal.SIGTERM, handler)
        """
        findings = lint_source(tmp_path, source, rules=["REP014"])
        assert len(findings) == 1
        assert "signal" in findings[0].message

    def test_flags_aliased_signal_install(self, tmp_path):
        source = """
        from signal import signal as install
        install(15, handler)
        """
        assert len(lint_source(tmp_path, source, rules=["REP014"])) == 1

    def test_reading_signal_constants_is_clean(self, tmp_path):
        source = """
        import signal
        name = signal.Signals(15).name
        pending = signal.getsignal(signal.SIGTERM)
        """
        assert lint_source(tmp_path, source, rules=["REP014"]) == []

    def test_typed_repro_error_catch_is_clean(self, tmp_path):
        source = """
        try:
            probe()
        except NetworkError:
            recover()
        """
        assert lint_source(tmp_path, source, rules=["REP014"]) == []

    def test_even_exception_catch_all_is_not_rep014(self, tmp_path):
        # ``except Exception`` is REP008's finding; REP014 is only about
        # teardown interception, which Exception does not catch.
        source = """
        try:
            probe()
        except Exception:
            recover()
        """
        assert lint_source(tmp_path, source, rules=["REP014"]) == []

    def test_supervision_plane_is_exempt(self, tmp_path):
        target = tmp_path / "repro" / "supervise" / "supervisor.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "try:\n    probe()\nexcept SimulatedCrashError:\n    restart()\n"
        )
        assert run_lint([str(target)], rule_ids=["REP014"]).findings == []

    def test_fault_plane_is_not_exempt(self, tmp_path):
        # REP008 exempts faults/parallel (they catch broadly by design);
        # REP014 does not — teardown containment has no second home.
        target = tmp_path / "repro" / "faults" / "retry.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "try:\n    probe()\nexcept BaseException:\n    pass\n"
        )
        findings = run_lint([str(target)], rule_ids=["REP014"]).findings
        assert [f.rule for f in findings] == ["REP014"]


class TestSuppression:
    def test_inline_disable_specific_rule(self, tmp_path):
        report_src = (
            "import random\n"
            "rng = random.Random(0)  # repro-lint: disable=REP001\n"
        )
        target = tmp_path / "s.py"
        target.write_text(report_src)
        report = run_lint([str(target)], rule_ids=["REP001"])
        assert report.findings == []
        assert report.suppressed == 1

    def test_inline_disable_all_rules(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text(
            "import time\nstamp = time.time()  # repro-lint: disable\n"
        )
        assert run_lint([str(target)]).findings == []

    def test_inline_disable_wrong_rule_still_reports(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text(
            "import random\n"
            "rng = random.Random(0)  # repro-lint: disable=REP003\n"
        )
        assert len(run_lint([str(target)], rule_ids=["REP001"]).findings) == 1

    def test_file_wide_disable(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text(
            "# repro-lint: disable-file=REP005\n"
            "a = list(set([1]))\n"
            "b = list(set([2]))\n"
        )
        report = run_lint([str(target)], rule_ids=["REP005"])
        assert report.findings == []
        assert report.suppressed == 2


class TestBaseline:
    def test_round_trip_filters_recorded_findings(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text("import random\nrng = random.Random(0)\n")
        baseline = tmp_path / "baseline.json"

        first = run_lint([str(target)], rule_ids=["REP001"])
        assert len(first.findings) == 1
        assert write_baseline(str(baseline), first.findings) == 1

        second = run_lint(
            [str(target)], rule_ids=["REP001"], baseline_path=str(baseline)
        )
        assert second.findings == []
        assert second.baselined == 1

    def test_new_findings_escape_the_baseline(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text("import random\nrng = random.Random(0)\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(
            str(baseline), run_lint([str(target)], rule_ids=["REP001"]).findings
        )
        target.write_text(
            "import random\n"
            "rng = random.Random(0)\n"
            "other = random.Random(99)\n"
        )
        report = run_lint(
            [str(target)], rule_ids=["REP001"], baseline_path=str(baseline)
        )
        assert len(report.findings) == 1
        assert "Random(99)" in report.findings[0].snippet

    def test_fingerprint_survives_line_shift(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text("import random\nrng = random.Random(0)\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(
            str(baseline), run_lint([str(target)], rule_ids=["REP001"]).findings
        )
        target.write_text(
            "import random\n\n\n# shifted\nrng = random.Random(0)\n"
        )
        report = run_lint(
            [str(target)], rule_ids=["REP001"], baseline_path=str(baseline)
        )
        assert report.findings == []

    def test_malformed_baseline_raises_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(ConfigError):
            load_baseline(str(bad))


class TestEngine:
    def test_unknown_rule_rejected(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text("x = 1\n")
        with pytest.raises(ConfigError):
            run_lint([str(target)], rule_ids=["REP999"])

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigError):
            iter_python_files(["/no/such/path/anywhere"])

    def test_syntax_error_rejected(self, tmp_path):
        target = tmp_path / "s.py"
        target.write_text("def broken(:\n")
        with pytest.raises(ConfigError):
            parse_file(str(target))

    def test_module_name_walks_package_chain(self, tmp_path):
        write_package(tmp_path / "pkg", {"sub/mod.py": "X = 1\n"})
        assert module_name_for(str(tmp_path / "pkg" / "sub" / "mod.py")) == (
            "pkg.sub.mod"
        )
        assert module_name_for(str(tmp_path / "pkg" / "__init__.py")) == "pkg"

    def test_pycache_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [os.path.basename(f) for f in files] == ["real.py"]


class TestSelfLint:
    def test_src_repro_is_clean(self):
        report = run_lint([REPRO_SRC])
        assert report.findings == [], "\n".join(
            finding.format() for finding in report.findings
        )
        assert report.files_scanned > 100


class TestLintCli:
    def test_cli_exit_zero_on_clean_tree(self, capsys):
        assert cli_main(["lint", REPRO_SRC]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_cli_exit_one_with_json_records(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nrng = random.Random(0)\n")
        assert cli_main(["lint", str(target), "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)
        # REP001 flags the raw construction; REP011 flags the same RNG
        # escaping into a module global.
        assert [record["rule"] for record in records] == ["REP001", "REP011"]
        record = records[0]
        assert record["file"].endswith("bad.py")
        assert record["line"] == 2
        assert "derive_rng" in record["message"]

    def test_cli_write_baseline_then_clean(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nrng = random.Random(0)\n")
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(["lint", str(target), "--write-baseline", str(baseline)]) == 0
        )
        capsys.readouterr()
        assert cli_main(["lint", str(target), "--baseline", str(baseline)]) == 0

    def test_cli_rules_subset(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nrng = random.Random(0)\n")
        assert cli_main(["lint", str(target), "--rules", "REP003"]) == 0

    def test_cli_bad_path_exits_two(self, capsys):
        assert cli_main(["lint", "/no/such/dir"]) == 2


class TestSplitRng:
    def test_split_is_deterministic(self):
        a = split_rng(derive_rng(7, "parent"), "child")
        b = split_rng(derive_rng(7, "parent"), "child")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_paths_decorrelate_siblings(self):
        parent = derive_rng(7, "parent")
        state = parent.getstate()
        left = split_rng(parent, "left")
        parent.setstate(state)
        right = split_rng(parent, "right")
        assert [left.random() for _ in range(5)] != [
            right.random() for _ in range(5)
        ]

    def test_parent_advances_one_draw_regardless_of_path(self):
        one, two = derive_rng(3, "p"), derive_rng(3, "p")
        split_rng(one, "a")
        split_rng(two, "completely", "different", "path")
        assert one.random() == two.random()
