"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

Every workload must emit every metric BENCHMARK.json names, with its unit,
and a deliberately corrupted output must count as a failed operation.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import run  # pins BLAS threads before numpy is used and finds the checkout

assert run.use_checkout_sources()

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "desk_train": {"n_stocks": 30, "n_days": 80, "n_features": 4, "min_val_ic": 0.2},
    "wide_eval": {"n_stocks": 30, "n_days": 24, "n_features": 12},
    "panel_ingest": {"n_stocks": 20, "n_days": 80, "n_features": 4},
}


def tiny_run(name, tmp_path, trace=False, seed=3):
    return workloads.run(name, seed=seed, seconds=0.01, trace=trace, workdir=tmp_path, size=TINY[name])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_with_its_unit(name, trace, tmp_path):
    result = tiny_run(name, tmp_path, trace=trace)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert all(np.isfinite(v) for v, _ in result.metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in result.metrics.values())
    assert result.failed == 0, result.lines
    assert result.attempted > 0


def test_trace_reports_the_layers_each_workload_exercises(tmp_path):
    desk = tiny_run("desk_train", tmp_path, trace=True).metrics
    for metric in ("tensor.backward_ms", "encoders.forward_ms", "moe.agg_ms", "train.adam_ms",
                   "objective.loss_ms", "tensor.graph_nodes"):
        assert desk[metric][0] > 0, metric
    assert desk["moe.slot_use_ratio"][0] == pytest.approx(8 / 63)
    assert desk["train.param_tensors"][0] == 158
    assert (tmp_path / "trace-desk_train-seed3.json").is_file()
    wide = tiny_run("wide_eval", tmp_path, trace=True).metrics
    assert wide["train.adam_ms"][0] == 0 and wide["metrics.per_expert_s"][0] > 0
    assert wide["train.checkpoint_load_ms"][0] > 0


def test_same_seed_same_parameters(tmp_path):
    def digest(seed):
        lines = tiny_run("desk_train", tmp_path, seed=seed).lines
        return next(line.split()[1] for line in lines if line.startswith("params_sha256"))

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_flipped_prediction_byte_is_a_failure(tmp_path, monkeypatch):
    real_load = workloads.TR.load_checkpoint

    def load_with_flipped_byte(path, *args, **kwargs):
        model, meta = real_load(path, *args, **kwargs)
        clean = model.predict

        def predict(batch):
            out = clean(batch)
            out.view(np.uint8)[0] ^= 1
            return out

        model.predict = predict
        return model, meta

    monkeypatch.setattr(workloads.TR, "load_checkpoint", load_with_flipped_byte)
    result = tiny_run("wide_eval", tmp_path)
    assert result.failed > 0
    assert any("reloaded checkpoint" in line for line in result.lines)


def test_numerical_error_in_a_step_is_a_failure(tmp_path, monkeypatch):
    real_step = workloads.TR.step
    calls = []

    def step(model, batches, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise workloads.TR.NumericalError("injected")
        return real_step(model, batches, *args, **kwargs)

    monkeypatch.setattr(workloads.TR, "step", step)
    assert tiny_run("desk_train", tmp_path).failed == 1


def test_corrupted_csv_load_is_a_failure(tmp_path, monkeypatch):
    real_load = workloads.P.load_csv

    def load(path):
        panel = real_load(path)
        panel.features[0, 0, 0] += 1e-9
        return panel

    monkeypatch.setattr(workloads.P, "load_csv", load)
    assert tiny_run("panel_ingest", tmp_path).failed > 0


def test_reference_split_sees_dropped_stocks(tmp_path):
    result = tiny_run("panel_ingest", tmp_path)
    share = next(line for line in result.lines if line.startswith("split dropped"))
    assert 0 < float(share.split()[2]) < 1


def test_command_line_prints_result_last(monkeypatch):
    monkeypatch.setattr(workloads.PanelIngest, "SIZE", TINY["panel_ingest"])
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "panel_ingest", "--seed", "5", "--seconds", "0.01", "--trace", "0"])
    assert code == 0
    lines = out.getvalue().splitlines()
    env = json.loads(lines[1][len("env "):])
    assert env["seed"] == 5 and env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(run.ROOT / "perfbench" / name, bench / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    times = tr.self_times()
    assert times["inner"][1] == 2 and times["outer"][1] == 1
    outer_total = tr.spans[0][3] - tr.spans[0][2]
    assert times["outer"][0] == pytest.approx(outer_total - times["inner"][0])
