"""Self times and the unattributed share of a tick; the compare tool
flags, attributes and filters."""

import io
import json

import compare
import layers
from workloads import metric_spec

TICK = {
    "wall": 0.100,
    "spans": {
        "intake": 0.001,
        "step": 0.090,
        "engine.validate": 0.010,
        "model.ddm_predict": 0.005,
        "core.ragged_gather": 0.015,
    },
}


def test_breakdown_self_times_are_the_parents_residuals():
    b = layers.breakdown([TICK])
    assert abs(b["engine.self"] - 0.060) < 1e-12
    assert abs(b["controller.self"] - 0.009) < 1e-12
    assert abs(b["unattributed_frac"] - 0.069 / 0.100) < 1e-12


def test_an_uninstrumented_delay_raises_the_unattributed_share():
    base = layers.breakdown([TICK])["unattributed_frac"]
    # 20 ms spent inside the engine's step but in no wrapped call ...
    in_step = {"wall": 0.120, "spans": {**TICK["spans"], "step": 0.110}}
    # ... or in the controller outside every tracer span.
    in_controller = {"wall": 0.120, "spans": TICK["spans"]}
    for tick in (in_step, in_controller):
        assert abs(layers.breakdown([tick])["unattributed_frac"] - 0.089 / 0.120) < 1e-12
        assert layers.breakdown([tick])["unattributed_frac"] > base + 0.05
    # A delay inside a wrapped call is attributed to it instead.
    in_child = {"wall": 0.120, "spans": {**TICK["spans"], "step": 0.110, "engine.validate": 0.030}}
    assert abs(layers.breakdown([in_child])["unattributed_frac"] - 0.069 / 0.120) < 1e-12


def test_timed_proxy_forwards_attributes_and_records_calls():
    class Model:
        is_calibrated = True

        def predict(self, x):
            return x

    log = layers.SpanLog()
    proxy = layers.TimedProxy(Model(), log, {"predict": "model.ddm_predict"})
    assert proxy.is_calibrated
    assert proxy.predict(3) == 3 and log.spans == []
    log.enabled = True
    assert proxy.predict(4) == 4
    assert [span[1] for span in log.spans] == ["model.ddm_predict"]


def _write(directory, seed, p50, trace=0, stage_ms=1.0, run=0, **fields):
    directory.mkdir(exist_ok=True)
    e2e = {
        "frames_per_s": 1e5,
        "tick_p50_ms": p50,
        "tick_p95_ms": 2 * p50,
        "served_frac": 1.0,
        "rss_bytes_per_stream": 5000.0,
        "setup_s": 3.0,
    }
    per_layer = {m["name"]: 0.0 for m in metric_spec()["per_layer"]}
    per_layer["engine.validate_ms"] = stage_ms
    record = {
        "workload": "engine-10k",
        "trace": trace,
        "seed": seed,
        "seconds": metric_spec()["run_seconds"],
        "correct": True,
        "inject_mismatch": False,
        "e2e": e2e,
        "per_layer": per_layer,
        **fields,
    }
    (directory / f"{seed}-{trace}-{run}.json").write_text(json.dumps(record))


def test_compare_flags_a_regression_and_names_the_stage(tmp_path):
    for seed in range(5):
        _write(tmp_path / "base", seed, 60.0 + seed * 0.1)
        _write(tmp_path / "new", seed, 80.0 + seed * 0.1)
    _write(tmp_path / "base", 0, 60.0, trace=1, stage_ms=7.0)
    _write(tmp_path / "new", 0, 80.0, trace=1, stage_ms=27.0)
    out = io.StringIO()
    code = compare.main([str(tmp_path / "base"), str(tmp_path / "new")], out=out)
    text = out.getvalue()
    assert code == 1
    assert "engine-10k/tick_p50_ms worse than its bound" in text
    assert "stage that moved most: engine.validate_ms regressed" in text


def test_compare_keeps_repeated_seeds_and_skips_invalid_runs(tmp_path):
    for run in range(2):
        for seed in range(3):
            _write(tmp_path / "base", seed, 60.0, run=run)
            _write(tmp_path / "new", seed, 60.0, run=run)
    # A smoke run, a self-test run and a hung run: none may enter the medians.
    _write(tmp_path / "base", 0, 1.0, run=2, seconds=1)
    _write(tmp_path / "base", 1, 1.0, run=2, inject_mismatch=True)
    _write(tmp_path / "base", 2, 1.0, run=2, correct=False)
    out = io.StringIO()
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")], out=out) == 0
    text = out.getvalue()
    assert "6 base runs, 6 new runs" in text
    assert "base: skipped 3 records (1 --inject-mismatch, 1 failed or hung, 1 other --seconds)" in text


def test_compare_flags_failed_runs_of_the_change(tmp_path):
    for seed in range(3):
        _write(tmp_path / "base", seed, 60.0)
        _write(tmp_path / "new", seed, 60.0)
    _write(tmp_path / "new", 3, 150e3, correct=False)
    out = io.StringIO()
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")], out=out) == 1
    assert "1 failed or hung new runs" in out.getvalue()


def test_compare_passes_identical_sets(tmp_path):
    for seed in range(3):
        _write(tmp_path / "base", seed, 60.0)
        _write(tmp_path / "new", seed, 60.0)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")], out=io.StringIO()) == 0
