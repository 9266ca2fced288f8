"""Tests for repro.cli."""

import json

import pytest

from repro.cli import build_parser, main
from repro.analysis.report import ExperimentReport
from repro.io import decode, load_json


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("fig1", "table1", "fig2", "table2", "fig3", "sec6", "sec7",
                        "harvest", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_common_options(self):
        args = build_parser().parse_args(["fig1", "--seed", "9", "--scale", "0.2"])
        assert args.seed == 9
        assert args.scale == 0.2

    def test_table2_options(self):
        args = build_parser().parse_args(
            ["table2", "--sweep-hours", "4", "--thinning", "0.5", "--top", "10"]
        )
        assert args.sweep_hours == 4
        assert args.thinning == 0.5
        assert args.top == 10

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])


class TestExecution:
    def test_fig1_runs_and_archives(self, tmp_path, capsys):
        json_path = tmp_path / "fig1.json"
        code = main(["fig1", "--scale", "0.02", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig1-open-ports" in out
        assert "55080-Skynet" in out
        report = decode(ExperimentReport, load_json(json_path))
        assert report.experiment == "fig1-open-ports"

    def test_harvest_runs(self, capsys):
        code = main(
            ["harvest", "--scale", "0.01", "--ips", "6", "--relays-per-ip", "8"]
        )
        assert code == 0
        assert "harvest-shadow-relays" in capsys.readouterr().out

    def test_fig3_runs(self, capsys):
        code = main(["fig3", "--relays", "200", "--clients", "300", "--days", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3-client-geomap" in out


class TestCrashtest:
    def test_parser_registers_crashtest(self):
        args = build_parser().parse_args(
            ["crashtest", "--crash-profile", "light", "--min-crashes", "2"]
        )
        assert args.command == "crashtest"
        assert args.crash_profile == "light"
        assert args.min_crashes == 2
        assert args.scale == 0.02
        assert args.store == ".repro-crashtest-store"

    def test_crashtest_survives_the_moderate_schedule(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.supervise import CRASHES_ENV, CompletenessManifest

        monkeypatch.delenv(CRASHES_ENV, raising=False)
        crash_json = tmp_path / "crash.json"
        clean_json = tmp_path / "clean.json"
        manifest_json = tmp_path / "manifest.json"
        code = main(
            [
                "crashtest",
                "--scale",
                "0.02",
                "--seed",
                "11",
                "--store",
                str(tmp_path / "store"),
                "--json",
                str(crash_json),
                "--clean-json",
                str(clean_json),
                "--manifest-out",
                str(manifest_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crashtest: OK" in out
        assert "byte-identical" in out
        # The archived documents are what CI byte-compares.
        assert crash_json.read_bytes() == clean_json.read_bytes()
        manifest = decode(CompletenessManifest, load_json(manifest_json))
        assert manifest.complete
        assert len(manifest.crashes) >= 5
        assert len({e.point for e in manifest.crashes}) >= 5
        assert manifest.restarts_used >= 5
        assert manifest.crash_plan["name"] == "moderate"

    def test_crashtest_fails_below_min_crashes(self, tmp_path, capsys):
        code = main(
            [
                "crashtest",
                "--scale",
                "0.02",
                "--seed",
                "11",
                "--crash-profile",
                "none",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "crashtest: FAIL" in err
        assert "need >= 5" in err


class TestObservability:
    def test_obs_prints_text_snapshot(self, capsys):
        code = main(["obs", "--scale", "0.01", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# metrics" in out
        assert "scan_ports_requested_total" in out
        assert "# spans (simulated seconds)" in out
        assert "pipeline.scan" in out

    def test_obs_json_format_parses(self, capsys):
        code = main(["obs", "--scale", "0.01", "--seed", "3", "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in document["metrics"]}
        assert "scan_ports_requested_total" in names
        assert document["spans"]

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "metrics.txt"
        code = main(
            ["fig1", "--scale", "0.01", "--metrics-out", str(snap)]
        )
        assert code == 0
        assert f"[metrics snapshot written to {snap}]" in capsys.readouterr().out
        assert "# metrics" in snap.read_text()

    def test_metrics_env_variable_is_the_default(
        self, tmp_path, capsys, monkeypatch
    ):
        snap = tmp_path / "metrics.json"
        monkeypatch.setenv("REPRO_METRICS", str(snap))
        assert main(["obs", "--scale", "0.01", "--seed", "3"]) == 0
        capsys.readouterr()
        json.loads(snap.read_text())


class TestStoreCli:
    def test_warm_rerun_replays_and_matches_bytes(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        args = ["fig1", "--scale", "0.02", "--store", root]
        assert main(args + ["--json", str(first)]) == 0
        capsys.readouterr()
        assert main(args + ["--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

        assert main(["store", "ls", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "run-000002" in out
        assert "misses=0" in out

    def test_store_env_variable_is_the_default(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_STORE", str(root))
        assert main(["fig1", "--scale", "0.02"]) == 0
        capsys.readouterr()
        assert main(["store", "ls"]) == 0
        assert "misses=" in capsys.readouterr().out
        assert (root / "ledger.jsonl").exists()

    def test_store_verify_and_gc_clean(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(["fig1", "--scale", "0.02", "--store", root]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--store", root]) == 0
        assert "[verify: 0 problem(s)" in capsys.readouterr().out
        assert main(["store", "gc", "--store", root]) == 0
        assert "removed 0 object(s)" in capsys.readouterr().out

    def test_store_verify_flags_corruption(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["fig1", "--scale", "0.02", "--store", str(root)]) == 0
        capsys.readouterr()
        victim = next((root / "objects").glob("*/*.json"))
        victim.write_bytes(b'{"tampered": true}')
        assert main(["store", "verify", "--store", str(root)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_store_without_configuration_exits_two(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "ls"]) == 2
        assert "no store configured" in capsys.readouterr().err
