"""dogsim benchmark: closed-loop CLI invocations, end-to-end and per-layer.

    python3 bench/run.py --workload desk_run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy. One process calls
``dogsim.cli.main(argv)`` on seeded inputs, one invocation after another,
until ``--seconds`` have passed, and checks every invocation's outputs.
The process runs on one CPU, so wide_sweep's two gradient threads measure
the pool's overhead, not a parallel speed-up.

``--trace 0`` wraps only the per-cell boundaries (``cli.load_config``,
``cli.build_run``, ``engine.run_experiment``) and reports the end-to-end
metrics. A fixed calibration loop (``calibrate.py``) is timed before the
first invocation and after each one, for a tenth of that invocation's
wall time. wall_cal, report_cal and node_rounds_per_cal are the run's
mean timings (node-rounds over engine time) in units of its mean
calibration time, which cancels the shared host's drift in speed.
setup_s and peak_rss_mb are in plain seconds and megabytes. The same
timings in seconds, as medians and tails over the invocations, are
printed above the result line.
``--trace 1`` alternates untraced invocations with ones that wrap every
public function of every layer module, and reports per-layer metrics
(medians over the traced invocations) plus the tracing overhead.
Human-readable lines come first; the last line of stdout is the JSON
result. Spans, per-invocation values and input digests are written under
``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# The whole run, program threads and numpy's BLAS workers included, stays on
# one CPU: on a shared host each vCPU slows down on its own, and handing work
# to another vCPU adds delays the calibration loop never sees. BLAS sizes its
# thread pool from this set when numpy loads, so this comes first.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
from inputs import WORKLOADS, Workload, describe, make_inputs  # noqa: E402
from tracing import Tracer, instrument, layer_totals  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: Calibration time after each invocation, as a share of its wall time: enough
#: passes that their mean is steady, few enough to leave the run to the CLI.
CALIBRATION_SHARE = 0.1

END_TO_END_UNITS = {
    "wall_cal": "cal",
    "setup_s": "s",
    "node_rounds_per_cal": "1/cal",
    "report_cal": "cal",
    "peak_rss_mb": "MB",
}


def load_dogsim():
    """Import dogsim from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "dogsim" / "cli.py").is_file():
        print(f"error: no dogsim sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dogsim
    import dogsim.cli

    if Path(dogsim.__file__).resolve().parent != (src / "dogsim").resolve():
        print(f"error: imported dogsim from {dogsim.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return dogsim


class Runner:
    """Invokes the CLI on one workload's inputs and checks each invocation."""

    def __init__(self, dogsim, workdir: Path):
        self.dogsim = dogsim
        self.workdir = workdir
        self.tracer = Tracer()
        self.count = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.rho_abs_err = 0.0
        self.regret_rel_err = 0.0
        self.comparator_residual = 0.0
        self._mixing_cache: dict = {}
        self._regret_cache: dict = {}

    def invoke(self, inp, traced: bool, threads: str | None = None) -> dict:
        """One CLI call; returns its wall time and span totals."""
        outdir = self.workdir / "out" / inp.key
        shutil.rmtree(outdir, ignore_errors=True)
        argv = inp.argv(outdir)
        if threads is not None:
            argv[argv.index("--threads") + 1] = threads
        self.count += 1
        self.tracer.begin_invocation(self.count)
        first = len(self.tracer.spans)
        with instrument(self.dogsim, self.tracer, full=traced):
            start = time.perf_counter()
            try:
                code = self.dogsim.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - start
        spans = self.tracer.spans_since(first)
        if code != 0:
            errors = [f"exit code {code}"]
        else:
            try:
                errors = self._check(inp, outdir, spans)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        for _, span in spans:
            span.result = None
        if errors:
            self.failures.append(f"{inp.key} #{self.count}: " + "; ".join(errors))
        return {"input": inp.key, "wall_s": wall, "totals": layer_totals(spans), "traced": traced}

    def _check(self, inp, outdir: Path, spans) -> list[str]:
        errors = []
        if inp.command == "run":
            csvs = [outdir / "metrics.csv"]
        else:
            csvs = sorted(outdir.glob("*/metrics.csv"))
            rows = (outdir / "sweep_summary.csv").read_text().splitlines()
            if len(rows) != inp.cells + 1:
                errors.append(f"sweep_summary.csv has {len(rows) - 1} rows, expected {inp.cells}")
        if len(csvs) != inp.cells:
            errors.append(f"{len(csvs)} metrics.csv files, expected {inp.cells}")
        for path in csvs:
            errors += checks.check_metrics_csv(path, inp.T)

        digest = checks.digest(outdir)
        if self.digests.setdefault(inp.key, digest) != digest:
            errors.append("output bytes differ from this input's first invocation")

        by_name = {}
        for _, span in spans:
            by_name.setdefault(span.name, []).append(span)
        for span in by_name.get("cli.build_run", []):
            mix = span.result[1]
            key = (hashlib.sha256(mix.entries.tobytes()).hexdigest(), mix.rho)
            if key not in self._mixing_cache:
                self._mixing_cache[key] = checks.check_mixing(mix.entries, mix.rho)
            mix_errors, rho_err = self._mixing_cache[key]
            errors += mix_errors
            self.rho_abs_err = max(self.rho_abs_err, rho_err)

        if inp.command == "run":
            result = by_name["engine.run_experiment"][0].result
            features = result.sample_features.reshape(-1, result.sample_features.shape[-1])
            labels = result.sample_labels.reshape(-1)
            gamma = result.loss_spec.gamma
            if inp.key not in self._regret_cache:
                self._regret_cache[inp.key] = checks.regret_rel_err(
                    outdir / "summary.txt", csvs[0], features, labels, gamma)
            err = self._regret_cache[inp.key]
            self.regret_rel_err = max(self.regret_rel_err, err)
            if err > checks.REGRET_REL_TOL:
                errors.append(f"static_regret relative error {err:.3g}")
            for span in by_name.get("metrics.offline_comparator", []):
                self.comparator_residual = max(
                    self.comparator_residual,
                    checks.comparator_residual(features, labels, gamma, span.result))
        return errors


def _busy(totals, name):
    return totals.get(name, {}).get("busy_s", 0.0)


def end_to_end(record: dict) -> dict:
    totals = record["totals"]
    setup = _busy(totals, "cli.load_config") + _busy(totals, "cli.build_run")
    simulate = _busy(totals, "engine.run_experiment")
    node_rounds = totals.get("engine.run_experiment", {}).get("counts", {}).get("node_rounds", 0)
    return {
        "input": record["input"],
        "wall_s": record["wall_s"],
        "setup_s": setup,
        "simulate_s": simulate,
        "node_rounds": node_rounds,
        "node_rounds_per_s": node_rounds / simulate if simulate > 0 else 0.0,
        "report_s": record["wall_s"] - setup - simulate,
    }


PER_LAYER_UNITS = {
    "metrics.offline_comparator.busy_s": "s",
    "metrics.gradient_descent.grad_evals": "count",
    "engine.loss_events.busy_s": "s",
    "losses.smoothness_bound.busy_s": "s",
    "metrics.static_regret.busy_s": "s",
    "datagen.round_batch.busy_s": "s",
    "datagen.round_batch.calls": "count",
    "datagen.samples_per_s": "1/s",
    "mixing.spectral_gap.busy_s": "s",
    "mixing.build_mixing.self_s": "s",
    "topology.build_topology.busy_s": "s",
    "ingest.parse_libsvm.busy_s": "s",
    "ingest.parse_libsvm.calls": "count",
    "ingest.parse_libsvm.bytes": "B",
    "ingest.normalize.busy_s": "s",
    "ingest.kmeans.busy_s": "s",
    "ingest.split_stoch_adv.self_s": "s",
    "losses.batch_loss_and_gradient.busy_s": "s",
    "losses.batch_loss_and_gradient.calls_per_round": "1/round",
    "engine.run_experiment.self_s": "s",
    "metrics.consensus_error.busy_s": "s",
    "mixing.rho_abs_err": "1",
    "metrics.regret_rel_err": "1",
    "metrics.comparator_residual": "1",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_wall_s": "s",
}


def per_layer(totals: dict) -> dict:
    """Per-layer metrics of one traced invocation (0 for a layer not called)."""
    def get(name, field):
        return totals.get(name, {}).get(field, 0.0)

    def count(name, key):
        return totals.get(name, {}).get("counts", {}).get(key, 0)

    out = {}
    for metric in PER_LAYER_UNITS:
        layer, _, field = metric.rpartition(".")
        if field in ("busy_s", "self_s", "calls"):
            out[metric] = get(layer, field)
    out["metrics.gradient_descent.grad_evals"] = count("metrics.gradient_descent", "grad_evals")
    out["ingest.parse_libsvm.bytes"] = count("ingest.parse_libsvm", "bytes")
    batch_busy = get("datagen.round_batch", "busy_s")
    out["datagen.samples_per_s"] = (
        count("datagen.round_batch", "samples") / batch_busy if batch_busy > 0 else 0.0)
    rounds = count("engine.run_experiment", "rounds")
    out["losses.batch_loss_and_gradient.calls_per_round"] = (
        get("losses.batch_loss_and_gradient", "calls") / rounds if rounds else 0.0)
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"median {_median(values):.6g} (n={n})"
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {float(np.percentile(values, q)):.6g}"
    return text


def measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
            dogsim=None) -> dict:
    """Run one benchmark measurement; print human lines and return the result."""
    dogsim = dogsim or load_dogsim()
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = make_inputs(workload, seed, workdir / "inputs")
    manifest = {inp.key: [describe(p) for p in inp.files] for inp in inputs}
    (workdir / "inputs.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(inputs)} inputs, n={workload.n} T={workload.T} threads={workload.threads}")
    for key, files in manifest.items():
        for f in files:
            print(f"  input {f['file']} sha256={f['sha256']} bytes={f['bytes']}")

    runner = Runner(dogsim, workdir)
    # Untimed first call: fills lazy imports and, at --threads 1, gives the
    # bytes every later multi-threaded call of this input must reproduce.
    runner.invoke(inputs[0], traced=False, threads="1")

    records = []
    cal_s = calibrate.calibrate(0.0)
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds or (trace and len(records) < 2):
        k = len(records)
        traced = trace and k % 2 == 1
        gc.collect()  # each invocation starts on a clean heap, as a new CLI process would
        records.append(runner.invoke(inputs[(k // 2 if trace else k) % len(inputs)], traced))
        cal_s += calibrate.calibrate(CALIBRATION_SHARE * records[-1]["wall_s"])
    loop_s = time.perf_counter() - start

    attempted, failed = runner.count, len(runner.failures)
    for line in runner.failures[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"{len(records)} timed invocations in {loop_s:.1f} s, plus one untimed; "
          f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")

    untraced = [end_to_end(r) for r in records if not r["traced"]]
    (workdir / "invocations.json").write_text(json.dumps(untraced) + "\n")
    (workdir / "calibration.json").write_text(json.dumps(cal_s) + "\n")
    if not trace:
        cal = statistics.fmean(cal_s)
        metrics = {
            "wall_cal": statistics.fmean(u["wall_s"] for u in untraced) / cal,
            "setup_s": _median([u["setup_s"] for u in untraced]),
            "node_rounds_per_cal": (sum(u["node_rounds"] for u in untraced)
                                    / sum(u["simulate_s"] for u in untraced) * cal),
            "report_cal": statistics.fmean(u["report_s"] for u in untraced) / cal,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"  {len(untraced)} invocations over {len({u['input'] for u in untraced})} inputs; "
              f"calibration loop {_tail(cal_s)} s")
        for name in ("wall_s", "setup_s", "node_rounds_per_s", "report_s"):
            print(f"  {name}: {_tail([u[name] for u in untraced])}")
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
        units = END_TO_END_UNITS
    else:
        traced = [r for r in records if r["traced"]]
        layers = [per_layer(r["totals"]) for r in traced]
        metrics = {name: _median([l[name] for l in layers]) for name in layers[0]}
        metrics["mixing.rho_abs_err"] = runner.rho_abs_err
        metrics["metrics.regret_rel_err"] = runner.regret_rel_err
        metrics["metrics.comparator_residual"] = runner.comparator_residual
        untraced_wall = _median([u["wall_s"] for u in untraced])
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - untraced_wall
        metrics["trace.self_sum_s"] = _median(
            [sum(t["self_s"] for t in r["totals"].values()) for r in traced])
        _print_layers(traced)
        print(f"  self times sum to {metrics['trace.self_sum_s']:.6g} s per traced invocation; "
              f"untraced wall {untraced_wall:.6g} s, tracing overhead "
              f"{metrics['trace.overhead_s']:.6g} s")
        units = PER_LAYER_UNITS
        with open(workdir / "spans.json", "w") as fh:
            json.dump([s.to_json() for s in runner.tracer.spans], fh)

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _print_layers(traced: list):
    """Median self time per span name over the traced invocations, largest first."""
    names = {name for r in traced for name in r["totals"]}
    rows = []
    for name in names:
        selfs = [r["totals"].get(name, {}).get("self_s", 0.0) for r in traced]
        busys = [r["totals"].get(name, {}).get("busy_s", 0.0) for r in traced]
        calls = [r["totals"].get(name, {}).get("calls", 0) for r in traced]
        rows.append((_median(selfs), _median(busys), _median(calls), name))
    print(f"  per-layer medians over {len(traced)} traced invocations:")
    print(f"  {'self_s':>10} {'busy_s':>10} {'calls':>8}  span")
    for self_s, busy_s, calls, name in sorted(rows, reverse=True)[:15]:
        print(f"  {self_s:10.4f} {busy_s:10.4f} {calls:8.0f}  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    dogsim = load_dogsim()
    workload = WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     WORK / workload.name, dogsim)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
