"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import run
from inputs import WORKLOADS
from tracing import Span, Tracer, instrument, self_times, union_length

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "desk_run": dict(inputs_per_run=2, n=8, T=5),
    "wide_sweep": dict(inputs_per_run=1, n=12, T=5),
    "libsvm_sweep": dict(inputs_per_run=1, T=5, libsvm_lines=200),
}


@pytest.fixture(scope="module")
def dogsim():
    return run.load_dogsim()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_named_metric(dogsim, tmp_path, capsys, name, trace):
    workload = replace(WORKLOADS[name], **TINY[name])
    result = run.measure(workload, seed=3, seconds=0.0, trace=bool(trace),
                         workdir=tmp_path, dogsim=dogsim)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        invocations = json.loads((tmp_path / "invocations.json").read_text())
        cal = statistics.fmean(json.loads((tmp_path / "calibration.json").read_text()))
        wall = statistics.fmean(u["wall_s"] for u in invocations)
        assert result["metrics"]["wall_cal"]["value"] == pytest.approx(wall / cal)
    assert "failed_ratio 0 " in capsys.readouterr().out


def _span(name, start, end, parent=None):
    return Span(name, start, parent, cell=0, invocation=1, end=end)


def test_self_time_is_duration_minus_union_of_children():
    spans = list(enumerate([
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),       # overlaps a (another thread)
        _span("c", 8.0, 12.0, parent=0),      # runs past the parent: clipped
        _span("a.leaf", 1.5, 2.0, parent=1),
        _span("a.leaf", 2.5, 3.5, parent=1),
    ]))
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(0.5)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (3, 4), (6, 7)]) == 5


def test_worker_thread_spans_take_the_blocked_main_span_as_parent():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda: worker_done.wait() or None)
    inner = tracer.wrap("inner", lambda: None)
    worker_done = threading.Event()

    def worker():
        while not tracer.spans:
            pass
        inner()
        worker_done.set()

    thread = threading.Thread(target=worker)
    thread.start()
    outer()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]


def test_instrument_restores_every_original(dogsim):
    before = {m: dict(vars(mod)) for m, mod in sys.modules.items()
              if m == "dogsim" or m.startswith("dogsim.")}
    method = dogsim.datagen.SyntheticStream.round_batch
    with instrument(dogsim, Tracer(), full=True):
        assert dogsim.engine.run_experiment is not before["dogsim.engine"]["run_experiment"]
        assert dogsim.cli.smoothness_bound is dogsim.losses.smoothness_bound
    for m, attrs in before.items():
        assert all(vars(sys.modules[m])[k] is v for k, v in attrs.items())
    assert dogsim.datagen.SyntheticStream.round_batch is method


def test_benchmark_json_follows_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        names.append(m["name"])
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_predictions_name_only_benchmark_metrics_and_workloads():
    predictions = json.loads((Path(__file__).parent / "predictions.json").read_text())
    metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for entry in predictions["layers"]:
        assert set(entry["metrics"]) <= metrics
        assert set(entry["moves"]) <= metrics
        assert set(entry["on"] + entry["not_on"]) <= set(WORKLOADS)
    assert set(predictions["dominant"]) == set(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
