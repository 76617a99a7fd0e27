"""Workload definitions and the seeded inputs each benchmark run feeds the CLI.

A workload is a `dogsim` subcommand and its options; its inputs (configs
and LIBSVM files) are derived from the benchmark's ``--seed``. A run cycles
through several inputs because the cost of some layers depends on the data
(the comparator's iteration count and k-means' rounds vary by a third
between seeds), so one run measures the workload, not one draw of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    inputs_per_run: int
    n: int
    T: int
    threads: int
    libsvm_lines: int = 0


WORKLOADS = {
    # Ring n=50, dim=10, DOG with eta = auto: the only workload whose CLI
    # call runs the report (comparator, regret, bound). T=40 keeps one call
    # near 1.3 s, so a run sees 20 or so inputs; the comparator still
    # dominates. Its iteration count varies by about 14% between inputs at
    # T=40 and 80 and by over 20% at T=10 and 20; averaged over 20 inputs
    # that leaves about 3% between seeds.
    "desk_run": Workload("desk_run", inputs_per_run=20, n=50, T=40, threads=1),
    # Three topologies at n=500: a 125k-edge complete graph, ring rho by
    # power iteration, the synthetic stream at 10x the desk width, the
    # two-thread gradient pool (on the run's one CPU, so its overhead, not
    # a parallel speed-up). Never calls the comparator. The power iteration
    # on a seed's Watts-Strogatz graph can take a third longer than on
    # another's, so a run spreads over 6 inputs, each invoked about twice.
    "wide_sweep": Workload("wide_sweep", inputs_per_run=6, n=500, T=50, threads=2),
    # Node sweep 10,20,40 with COG on a generated LIBSVM file: parse,
    # normalize and k-means for every cell. Never calls datagen. K-means'
    # rounds make one file cost up to a third more than another, so a run
    # spreads over 16 files, each invoked about twice.
    "libsvm_sweep": Workload("libsvm_sweep", inputs_per_run=16, n=10, T=100, threads=1,
                             libsvm_lines=4000),
}

TOPOLOGIES = "ring,watts_strogatz:0.5,complete"
NODE_COUNTS = "10,20,40"
LIBSVM_DIM = 18
LIBSVM_CENTERS = 8
LIBSVM_ZERO_SHARE = 0.2


@dataclass(frozen=True)
class Input:
    key: str
    command: str
    config: Path
    options: tuple
    files: tuple  # paths whose sha256 and size describe this input
    T: int
    cells: int

    def argv(self, outdir: Path) -> list:
        return [self.command, str(self.config), str(outdir), *self.options]


def _synthetic_config(w: Workload, seed: int, eta: str, bounds: bool) -> str:
    # kind = ring is the sweep's base; the topology axis replaces it per cell.
    text = f"""[network]
kind = ring
n = {w.n}
k = 4
scheme = max_degree

[algorithm]
kind = dog
eta = {eta}
T = {w.T}
seed = {seed}

[loss]
gamma = 0.001

[data]
beta = 0.3
dim = 10
"""
    if bounds:
        text += "\n[bounds]\nG = 2.0\nsigma = 1.0\nR = 1.0\nM = 0.0\n"
    return text


def libsvm_text(seed: int, lines: int) -> str:
    """±1 labels from a noisy linear rule over clustered Gaussian features,
    with a share of entries exactly zero (omitted, as LIBSVM does)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, (LIBSVM_CENTERS, LIBSVM_DIM))
    x = centers[rng.integers(0, LIBSVM_CENTERS, lines)] + rng.normal(0.0, 1.0, (lines, LIBSVM_DIM))
    x[rng.random((lines, LIBSVM_DIM)) < LIBSVM_ZERO_SHARE] = 0.0
    w = rng.normal(0.0, 1.0, LIBSVM_DIM)
    labels = np.where(x @ w + rng.normal(0.0, 1.0, lines) > 0.0, "+1", "-1")
    out = []
    for label, row in zip(labels, x):
        out.append(" ".join([label] + ["%d:%.17g" % (j + 1, v) for j, v in enumerate(row) if v != 0.0]))
    return "\n".join(out) + "\n"


def _libsvm_config(w: Workload, seed: int, data_file: Path) -> str:
    return f"""[network]
kind = ring
n = {w.n}
scheme = max_degree

[algorithm]
kind = cog
eta = 0.2
T = {w.T}
seed = {seed}

[loss]
gamma = 0.001

[data]
file = {data_file}
stochastic_fraction = 0.5
"""


def make_inputs(w: Workload, seed: int, workdir: Path) -> list[Input]:
    """Write this run's configs (and LIBSVM files) under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    sub_seeds = np.random.SeedSequence(seed).generate_state(w.inputs_per_run)
    inputs = []
    for k, sub in enumerate(int(s) for s in sub_seeds):
        key = f"{w.name}-{k:02d}"
        cfg = workdir / f"{key}.cfg"
        threads = ("--threads", str(w.threads))
        if w.name == "desk_run":
            cfg.write_text(_synthetic_config(w, sub, "auto", bounds=True))
            command, options, files, cells = "run", threads, (cfg,), 1
        elif w.name == "wide_sweep":
            cfg.write_text(_synthetic_config(w, sub, "0.2", bounds=False))
            command, files = "sweep", (cfg,)
            options = ("--axis", "topology", "--values", TOPOLOGIES) + threads
            cells = len(TOPOLOGIES.split(","))
        else:
            data = workdir / f"{key}.libsvm"
            data.write_text(libsvm_text(sub, w.libsvm_lines))
            cfg.write_text(_libsvm_config(w, sub, data))
            command, files = "sweep", (cfg, data)
            options = ("--axis", "nodes", "--values", NODE_COUNTS) + threads
            cells = len(NODE_COUNTS.split(","))
        inputs.append(Input(key, command, cfg, options, files, w.T, cells))
    return inputs


def describe(path: Path) -> dict:
    data = path.read_bytes()
    return {"file": path.name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
