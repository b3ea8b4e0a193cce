"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_flags(self):
        args = build_parser().parse_args(["study", "--smoke", "--seed", "7"])
        assert args.command == "study"
        assert args.smoke and not args.paper_scale
        assert args.seed == 7

    def test_dataset_flags(self):
        args = build_parser().parse_args(
            ["dataset", "out.npz", "--n-series", "20", "--subsample-length", "10"]
        )
        assert args.out == "out.npz"
        assert args.n_series == 20
        assert args.subsample_length == 10


class TestBoundsCommand:
    def test_prints_all_bound_families(self, capsys):
        assert main(["bounds", "0", "959"]) == 0
        out = capsys.readouterr().out
        for name in ("clopper-pearson", "wilson", "jeffreys", "hoeffding"):
            assert name in out
        assert "0.0071" in out or "0.0072" in out  # the paper's minimum u

    def test_invalid_counts_fail_gracefully(self, capsys):
        assert main(["bounds", "10", "5"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDatasetCommand:
    def test_generates_and_saves(self, tmp_path, capsys):
        out = tmp_path / "ds.npz"
        code = main(
            ["dataset", str(out), "--n-series", "8", "--subsample-length", "5"]
        )
        assert code == 0
        assert out.exists()
        from repro.datasets import load_dataset_npz

        dataset = load_dataset_npz(out)
        assert len(dataset) == 8
        assert all(s.n_frames == 5 for s in dataset)

    def test_settings_multiply_series(self, tmp_path):
        out = tmp_path / "ds.npz"
        main(["dataset", str(out), "--n-series", "4", "--settings-per-series", "3"])
        from repro.datasets import load_dataset_npz

        assert len(load_dataset_npz(out)) == 12


class TestStudyCommand:
    def test_smoke_study_with_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "results.json"
        csv_dir = tmp_path / "csv"
        code = main(
            [
                "study",
                "--smoke",
                "--json",
                str(json_path),
                "--csv-dir",
                str(csv_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert json_path.exists()
        assert (csv_dir / "table1.csv").exists()
        assert (csv_dir / "fig4.csv").exists()

    def test_conflicting_scales_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "--smoke", "--paper-scale"])


class TestSimulateStreamsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate-streams", "--smoke"])
        assert args.command == "simulate-streams"
        assert args.streams == 256
        assert args.ticks == 50
        assert args.threshold is None

    def test_smoke_replay_with_comparison_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "serving.json"
        code = main(
            [
                "simulate-streams",
                "--smoke",
                "--streams", "16",
                "--ticks", "8",
                "--threshold", "0.5",
                "--compare-naive",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frames/s" in out
        assert "outputs identical: True" in out

        import json

        report = json.loads(json_path.read_text())
        assert report["streams"] == 16
        assert report["frames"] == 16 * 8
        assert report["outputs_identical"] is True
        assert report["speedup"] > 1.0
        assert 0.0 <= report["acceptance_rate"] <= 1.0


class TestServeClusterCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-cluster", "--smoke"])
        assert args.command == "serve-cluster"
        assert args.shards == 4
        assert args.streams == 1024
        assert args.snapshot_every == 0
        assert args.restore is None

    def test_sharded_replay_with_snapshots_and_equivalence(self, tmp_path, capsys):
        json_path = tmp_path / "cluster.json"
        code = main(
            [
                "serve-cluster",
                "--smoke",
                "--streams", "12",
                "--ticks", "6",
                "--shards", "2",
                "--threshold", "0.5",
                "--snapshot-every", "3",
                "--snapshot-dir", str(tmp_path / "snaps"),
                "--compare-single",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outputs identical: True" in out

        import json

        report = json.loads(json_path.read_text())
        assert report["shards"] == 2
        assert report["frames"] == 12 * 6
        assert report["outputs_identical"] is True
        assert len(report["snapshots_written"]) == 2
        assert (tmp_path / "snaps" / "tick_000006.json").exists()
        assert (tmp_path / "snaps" / "tick_000006.npz").exists()

        # Resume from the final snapshot in a different topology.
        code = main(
            [
                "serve-cluster",
                "--smoke",
                "--streams", "12",
                "--ticks", "3",
                "--shards", "3",
                "--threshold", "0.5",
                "--restore", str(tmp_path / "snaps" / "tick_000006"),
                "--compare-single",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "restored 12 streams at tick 6" in out
        assert "outputs identical: True" in out

    def test_simulate_streams_sharded_path(self, tmp_path, capsys):
        args = build_parser().parse_args(["simulate-streams", "--smoke"])
        assert args.shards == 1  # default stays single-process
        code = main(
            [
                "simulate-streams",
                "--smoke",
                "--streams", "8",
                "--ticks", "4",
                "--shards", "2",
                "--compare-naive",
            ]
        )
        assert code == 0
        assert "outputs identical: True" in capsys.readouterr().out


class TestControlPlaneFlags:
    def test_parser_defaults(self):
        for command in ("simulate-streams", "serve-cluster"):
            args = build_parser().parse_args([command, "--smoke"])
            assert args.latency_budget_ms is None
            assert args.autoscale is None
            assert args.priority_field == "priority"
            assert args.priority_classes == 1
            assert args.stats_every == 0

    def test_autoscale_requires_budget(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["simulate-streams", "--smoke", "--streams", "4",
                 "--ticks", "2", "--autoscale", "1:2"]
            )

    def test_bad_autoscale_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate-streams", "--smoke", "--streams", "4",
                 "--ticks", "2", "--latency-budget-ms", "5",
                 "--autoscale", "4:2"]
            )

    def test_admission_and_stats_every_smoke(self, capsys):
        # A generous budget admits everything: the run must match the
        # naive replay exactly and print telemetry lines.
        code = main(
            [
                "simulate-streams", "--smoke",
                "--streams", "8", "--ticks", "6",
                "--latency-budget-ms", "5000",
                "--priority-classes", "2",
                "--stats-every", "2",
                "--compare-naive",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outputs identical: True" in out
        assert "admission:" in out
        assert "tick 2: latency" in out

    def test_autoscale_inproc_smoke(self, capsys):
        code = main(
            [
                "simulate-streams", "--smoke",
                "--streams", "8", "--ticks", "5",
                "--latency-budget-ms", "5000",
                "--autoscale", "1:2",
                "--transport", "inproc",
                "--compare-naive",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "autoscale:" in out
        assert "outputs identical: True" in out

    def test_serve_cluster_clamps_shards_into_autoscale_range(self, capsys):
        # --shards 1 with --autoscale 2:3 must start at the policy
        # minimum (the policy only shrinks above it, never grows into it).
        code = main(
            [
                "serve-cluster", "--smoke",
                "--streams", "6", "--ticks", "3",
                "--shards", "1", "--transport", "inproc",
                "--latency-budget-ms", "5000",
                "--autoscale", "2:3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "starting 2 inproc shard worker(s)" in out
        assert "final shard count 2" in out

    def test_serve_cluster_with_admission(self, capsys):
        code = main(
            [
                "serve-cluster", "--smoke",
                "--streams", "8", "--ticks", "5",
                "--shards", "2", "--transport", "inproc",
                "--latency-budget-ms", "5000",
                "--priority-classes", "2",
                "--compare-single",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "admission:" in out
        assert "outputs identical: True" in out


class TestObservabilityCLI:
    def test_parser_defaults(self):
        for command in ("simulate-streams", "serve-cluster"):
            args = build_parser().parse_args([command, "--smoke"])
            assert args.metrics_port is None
            assert args.telemetry_window == 4096
            assert args.inflight_window == 1
        cluster = build_parser().parse_args(["serve-cluster", "--smoke"])
        assert cluster.flight_record is None
        worker = build_parser().parse_args(
            ["serve-worker", "--listen", "127.0.0.1:0"]
        )
        assert worker.metrics_port is None
        replay = build_parser().parse_args(["replay-flight", "some/dir"])
        assert replay.command == "replay-flight"
        assert replay.log == "some/dir"
        assert replay.seed == 42
        assert replay.json is None

    def test_metrics_endpoint_announced(self, capsys):
        code = main(
            [
                "simulate-streams", "--smoke",
                "--streams", "4", "--ticks", "2",
                "--metrics-port", "0",
                "--telemetry-window", "2",
            ]
        )
        assert code == 0
        assert "serving metrics at http://127.0.0.1:" in capsys.readouterr().out

    def test_record_then_replay_flight(self, tmp_path, capsys):
        flight_dir = tmp_path / "flight"
        code = main(
            [
                "serve-cluster", "--smoke",
                "--streams", "8", "--ticks", "4",
                "--shards", "2", "--transport", "inproc",
                "--threshold", "0.5",
                "--flight-record", str(flight_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"flight-recording wire frames to {flight_dir}" in out
        assert "wrote flight log" in out
        assert (flight_dir / "frames.bin").exists()
        assert (flight_dir / "manifest.json").exists()

        json_path = tmp_path / "replay.json"
        code = main(
            [
                "replay-flight", str(flight_dir),
                "--smoke", "--threshold", "0.5",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bitwise-identical" in out

        import json

        report = json.loads(json_path.read_text())
        assert report["ok"] is True
        assert report["mismatches"] == []
        assert report["shards"] == [0, 1]
        assert report["helloes"] >= 2

    def test_replay_flight_wrong_config_is_explained(self, tmp_path, capsys):
        flight_dir = tmp_path / "flight"
        code = main(
            [
                "serve-cluster", "--smoke",
                "--streams", "6", "--ticks", "3",
                "--shards", "2", "--transport", "inproc",
                "--threshold", "0.5",
                "--flight-record", str(flight_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        # Replaying without the monitor (--threshold) is a different
        # engine configuration; the probe must name the differing key
        # instead of replaying into opaque byte mismatches.
        code = main(["replay-flight", str(flight_dir), "--smoke"])
        assert code == 1
        err = capsys.readouterr().err
        assert "engine configuration does not match" in err
        assert "monitor: recorded" in err

    def test_replay_flight_missing_log_fails_fast(self, tmp_path, capsys):
        assert main(["replay-flight", str(tmp_path)]) == 1
        assert "manifest" in capsys.readouterr().err


class TestImportanceCommand:
    def test_smoke_importance_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fig7.csv"
        code = main(["importance", "--smoke", "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "FEATURE IMPORTANCE" in out
        assert csv_path.exists()
        assert len(csv_path.read_text().strip().splitlines()) == 17
