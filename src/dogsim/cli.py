"""Experiment harness: config files, subcommands, sweeps, CSV emission.

Config files are INI-style text with sections [network], [algorithm],
[loss], [data], and optional [bounds] / [resolved]. Unknown sections or
keys are rejected with their line number. Desk-scale defaults: scheme
max_degree, seed 42, gamma 1e-3, dim 10.

Exit codes: 0 success, 1 config error, 2 runtime failure (divergence or a
non-converging solver), 3 I/O error. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import engine, ingest, metrics, mixing, topology
from .datagen import SyntheticSpec
from .errors import (
    ConfigError,
    DegenerateParameters,
    DivergenceDetected,
    NonConvergence,
    SimulationError,
)
from .losses import LossSpec, smoothness_bound
from .metrics import fmt17

_SCHEMA = {
    "network": {"kind", "n", "k", "p", "scheme"},
    "algorithm": {"kind", "eta", "T", "seed", "project_radius"},
    "loss": {"gamma"},
    "data": {"beta", "dim", "file", "stochastic_fraction"},
    "bounds": {"G", "sigma", "R", "M"},
    "resolved": {"rho"},
}

SYNTHETIC = "synthetic"
FILE = "file"


@dataclass(frozen=True)
class ExperimentFile:
    """Fully validated experiment description."""

    kind: str
    n: int
    k: int
    p: float
    scheme: str
    algorithm: str
    eta: object  # float or "auto"
    T: int
    seed: int
    project_radius: float | None
    gamma: float
    data_mode: str
    beta: float
    dim: int
    file: str
    stochastic_fraction: float
    bounds: engine.Bounds | None


def _parse_ini(text: str) -> dict:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = (lineno, {})
            current = name
            continue
        if current is None:
            raise ConfigError(f"key outside any section: {line!r}", lineno)
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key = key.strip()
        if key in sections[current][1]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        sections[current][1][key] = (value.strip(), lineno)
    return sections


def _typed(entries: dict, key: str, convert, default=None, required=False, section=""):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    value, lineno = entries[key]
    try:
        return convert(value)
    except ValueError:
        raise ConfigError(f"invalid value for {key!r}: {value!r}", lineno)


def _eta_value(raw: str):
    if raw == engine.AUTO:
        return engine.AUTO
    return float(raw)


def parse_config(text: str) -> ExperimentFile:
    """Parse and validate a config; raises ConfigError naming key and line."""
    sections = _parse_ini(text)
    for name, (lineno, entries) in sections.items():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]", lineno)
        for key, (_, key_line) in entries.items():
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]", key_line)
    for required in ("network", "algorithm", "loss", "data"):
        if required not in sections:
            raise ConfigError(f"missing section [{required}]")

    net = sections["network"][1]
    alg = sections["algorithm"][1]
    los = sections["loss"][1]
    dat = sections["data"][1]

    kind = _typed(net, "kind", str, required=True, section="network")
    if kind not in topology.KINDS:
        raise ConfigError(f"unknown topology kind {kind!r}", net["kind"][1])
    n = _typed(net, "n", int, required=True, section="network")
    k = _typed(net, "k", int, default=0)
    p = _typed(net, "p", float, default=0.0)
    scheme = _typed(net, "scheme", str, default=mixing.MAX_DEGREE)
    if scheme not in mixing.SCHEMES:
        raise ConfigError(f"unknown mixing scheme {scheme!r}", net["scheme"][1])

    algorithm = _typed(alg, "kind", str, required=True, section="algorithm")
    if algorithm not in engine.ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}", alg["kind"][1])
    eta = _typed(alg, "eta", _eta_value, required=True, section="algorithm")
    horizon = _typed(alg, "T", int, required=True, section="algorithm")
    seed = _typed(alg, "seed", int, default=42)
    project_radius = _typed(alg, "project_radius", float, default=None)

    gamma = _typed(los, "gamma", float, default=1e-3)

    if "file" in dat:
        for bad in ("beta", "dim"):
            if bad in dat:
                raise ConfigError(f"key {bad!r} is not valid with file data", dat[bad][1])
        data_mode = FILE
        file_path = _typed(dat, "file", str, required=True, section="data")
        fraction = _typed(dat, "stochastic_fraction", float, required=True, section="data")
        beta, dim = 0.0, 0
    else:
        if "stochastic_fraction" in dat:
            raise ConfigError(
                "key 'stochastic_fraction' is not valid with synthetic data",
                dat["stochastic_fraction"][1],
            )
        data_mode = SYNTHETIC
        beta = _typed(dat, "beta", float, required=True, section="data")
        dim = _typed(dat, "dim", int, default=10)
        file_path, fraction = "", 0.0

    bounds = None
    if "bounds" in sections:
        ent = sections["bounds"][1]
        bounds = engine.Bounds(
            G=_typed(ent, "G", float, required=True, section="bounds"),
            sigma=_typed(ent, "sigma", float, required=True, section="bounds"),
            R=_typed(ent, "R", float, required=True, section="bounds"),
            M=_typed(ent, "M", float, required=True, section="bounds"),
        )

    if eta == engine.AUTO and bounds is None:
        raise ConfigError("eta=auto requires a [bounds] section with G, sigma, R, M")

    try:
        return ExperimentFile(
            kind=kind, n=n, k=k, p=p, scheme=scheme,
            algorithm=algorithm, eta=eta, T=horizon, seed=seed,
            project_radius=project_radius, gamma=gamma,
            data_mode=data_mode, beta=beta, dim=dim,
            file=file_path, stochastic_fraction=fraction, bounds=bounds,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def load_config(path) -> ExperimentFile:
    return parse_config(Path(path).read_text())


def build_graph(ef: ExperimentFile) -> topology.Graph:
    try:
        return topology.build_topology(ef.kind, ef.n, seed=ef.seed, k=ef.k, p=ef.p)
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_data(ef: ExperimentFile, rounds: int, datasets: dict | None = None):
    """The config's data source for `rounds` rounds: the synthetic stream, or
    the LIBSVM file parsed, normalized and split into node streams. Both
    hand out samples through ``block(first, last)``.

    `datasets` maps a file path to its normalized `Dataset`; a file found
    there is not read again, and one parsed here is added to it."""
    if ef.data_mode == SYNTHETIC:
        return SyntheticSpec(dim=ef.dim, beta=ef.beta, n=ef.n, seed=ef.seed)
    datasets = {} if datasets is None else datasets
    if ef.file not in datasets:
        datasets[ef.file] = ingest.normalize(ingest.parse_libsvm(Path(ef.file).read_text()))
    return ingest.split_stoch_adv(
        datasets[ef.file], ef.stochastic_fraction, ef.n, rounds, seed=ef.seed
    )


def build_run(ef: ExperimentFile, record_samples: bool = False, datasets: dict | None = None):
    """Assemble (RunConfig, MixingMatrix) from a validated config, with its
    step size resolved, so that every config error surfaces here. `datasets`
    is passed to `build_data`."""
    graph = build_graph(ef)
    try:
        mix = mixing.build_mixing(graph, ef.scheme)
        cfg = engine.RunConfig(
            algorithm=ef.algorithm,
            n=ef.n,
            T=ef.T,
            eta=ef.eta,
            loss_spec=LossSpec(gamma=ef.gamma),
            data=build_data(ef, ef.T, datasets),
            mixing=mix,
            bounds=ef.bounds,
            seed=ef.seed,
            project_radius=ef.project_radius,
            record_samples=record_samples,
        )
        engine.resolve_eta(cfg)
    except (ValueError, SimulationError) as exc:
        if isinstance(exc, (DivergenceDetected, NonConvergence)):
            raise
        raise ConfigError(str(exc))
    return cfg, mix


def render_resolved(ef: ExperimentFile, eta: float, rho: float) -> str:
    """Config text with eta fixed to its numeric value plus computed rho."""
    lines = [
        "[network]",
        f"kind = {ef.kind}",
        f"n = {ef.n}",
        f"k = {ef.k}",
        f"p = {fmt17(ef.p)}",
        f"scheme = {ef.scheme}",
        "",
        "[algorithm]",
        f"kind = {ef.algorithm}",
        f"eta = {fmt17(eta)}",
        f"T = {ef.T}",
        f"seed = {ef.seed}",
    ]
    if ef.project_radius is not None:
        lines.append(f"project_radius = {fmt17(ef.project_radius)}")
    lines += ["", "[loss]", f"gamma = {fmt17(ef.gamma)}", "", "[data]"]
    if ef.data_mode == SYNTHETIC:
        lines += [f"beta = {fmt17(ef.beta)}", f"dim = {ef.dim}"]
    else:
        lines += [f"file = {ef.file}", f"stochastic_fraction = {fmt17(ef.stochastic_fraction)}"]
    if ef.bounds is not None:
        lines += [
            "",
            "[bounds]",
            f"G = {fmt17(ef.bounds.G)}",
            f"sigma = {fmt17(ef.bounds.sigma)}",
            f"R = {fmt17(ef.bounds.R)}",
            f"M = {fmt17(ef.bounds.M)}",
        ]
    lines += ["", "[resolved]", f"rho = {fmt17(rho)}", ""]
    return "\n".join(lines)


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _check_threads(threads: int):
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


def cmd_run(config_path, outdir, threads: int = 1) -> int:
    """Run one experiment; writes metrics.csv, resolved.cfg, summary.txt.

    `threads` is validated and otherwise unused."""
    try:
        _check_threads(threads)
        ef = load_config(config_path)
        cfg, mix = build_run(ef, record_samples=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        result = engine.run_experiment(cfg)
        summary = _summarize(result, ef)
    except (DivergenceDetected, NonConvergence) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    try:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "metrics.csv", metrics.metrics_to_csv(result.records))
        _write_text(out / "resolved.cfg", render_resolved(ef, result.resolved["eta"], mix.rho))
        _write_text(out / "summary.txt", summary)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


def _summarize(result: engine.RunResult, ef: ExperimentFile) -> str:
    lines = []
    if result.records:
        avg = metrics.average_loss(result.records)
        final_ce = result.records[-1].consensus_error
        features, labels = result.pooled_samples()
        gamma = result.loss_spec.gamma
        comparator = metrics.offline_comparator(features, labels, gamma)
        regret = metrics.static_regret(result.records, features, labels, gamma, comparator)
        lines += [
            f"average_loss={fmt17(avg)}",
            f"final_consensus_error={fmt17(final_ce)}",
            f"static_regret={fmt17(regret)}",
        ]
        if ef.bounds is not None and result.resolved["rho"] is not None:
            g_hat, sigma_hat = metrics.estimate_gradient_bounds(result.grad_norms)
            lipschitz = smoothness_bound(features, gamma)
            try:
                bound = metrics.regret_bound(metrics.BoundParams(
                    n=result.resolved["n"], T=result.resolved["T"],
                    eta=result.resolved["eta"], G=g_hat, sigma=sigma_hat,
                    L=lipschitz, rho=result.resolved["rho"],
                    R=ef.bounds.R, M=ef.bounds.M,
                ))
                lines.append(f"regret_bound={fmt17(bound)}")
            except DegenerateParameters:
                lines.append("regret_bound=unavailable (rho >= 1)")
    else:
        lines += ["average_loss=nan", "final_consensus_error=nan", "static_regret=nan"]
    return "\n".join(lines) + "\n"


def _sweep_number(convert, text: str, value: str):
    """convert(text), where text is all or part of the sweep value `value`."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"invalid sweep value {value!r}")


def _sweep_cells(ef: ExperimentFile, axis: str, values: list):
    """Yield (cell_name, value, algorithm, config) for one sweep axis."""
    if axis == "beta":
        if ef.data_mode != SYNTHETIC:
            raise ConfigError("beta sweep requires synthetic data")
        for value in values:
            beta = _sweep_number(float, value, value)
            for alg in (engine.DOG, engine.LOCAL_OGD):
                yield (
                    f"beta_{value}_{alg}",
                    value,
                    alg,
                    replace(ef, beta=beta, algorithm=alg),
                )
    elif axis == "nodes":
        for value in values:
            n = _sweep_number(int, value, value)
            yield f"nodes_{value}", value, ef.algorithm, replace(ef, n=n)
    elif axis == "topology":
        for value in values:
            kind, _, p_raw = value.partition(":")
            if kind not in topology.KINDS:
                raise ConfigError(f"unknown topology {kind!r} in sweep values")
            patched = replace(ef, kind=kind, algorithm=engine.DOG)
            if p_raw:
                if kind != topology.WATTS_STROGATZ:
                    raise ConfigError(f"topology {value!r} takes no ':p' suffix; only watts_strogatz reads p")
                patched = replace(patched, p=_sweep_number(float, p_raw, value))
            name = f"topology_{value.replace(':', '_p')}"
            yield name, value, engine.DOG, patched
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")


def cmd_sweep(config_path, axis: str, values: list, outdir, threads: int = 1) -> int:
    """Run one experiment per axis value; writes per-cell metrics and a summary.

    `threads` is validated and otherwise unused."""
    try:
        _check_threads(threads)
        ef = load_config(config_path)
        if not values:
            raise ConfigError("sweep needs at least one axis value")
        cells = list(_sweep_cells(ef, axis, values))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    # Build every cell before running any, so a config error writes nothing.
    # The cells share one parse of the data file.
    built, datasets = [], {}
    for name, value, alg, cell_ef in cells:
        try:
            built.append((name, value, alg, build_run(cell_ef, datasets=datasets)[0]))
        except OSError as exc:
            print(f"sweep cell {name} error: {exc}", file=sys.stderr)
            return 3
        except ConfigError as exc:
            print(f"sweep cell {name} config error: {exc}", file=sys.stderr)
            return 1

    rows = []
    for name, value, alg, cfg in built:
        try:
            result = engine.run_experiment(cfg)
        except DivergenceDetected as exc:
            print(f"sweep cell {name} runtime error: {exc}", file=sys.stderr)
            return 2
        try:
            cell_dir = Path(outdir) / name
            cell_dir.mkdir(parents=True, exist_ok=True)
            _write_text(cell_dir / "metrics.csv", metrics.metrics_to_csv(result.records))
        except OSError as exc:
            print(f"sweep cell {name} i/o error: {exc}", file=sys.stderr)
            return 3
        final_avg = metrics.average_loss(result.records) if result.records else float("nan")
        rows.append(f"{value},{alg},{fmt17(final_avg)}")

    try:
        _write_text(
            Path(outdir) / "sweep_summary.csv",
            "value,algorithm,final_avg_loss\n" + "\n".join(rows) + "\n",
        )
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_matrix(config_path) -> int:
    """Print the constructed mixing matrix, its rho, and stochasticity checks."""
    try:
        ef = load_config(config_path)
        graph = build_graph(ef)
        mix = mixing.build_mixing(graph, ef.scheme)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    report = mixing.verify_doubly_stochastic(mix.entries)
    sys.stdout.write(mixing.matrix_to_csv(mix.entries))
    print(f"rho={fmt17(mix.rho)}")
    print(f"max_row_dev={fmt17(report.max_row_dev)}")
    print(f"max_col_dev={fmt17(report.max_col_dev)}")
    print(f"min_entry={fmt17(report.min_entry)}")
    if mix.rho >= 1.0 - 1e-12:
        print("warning: rho >= 1, gossip cannot contract disagreement", file=sys.stderr)
    return 0


def cmd_data(config_path, count: int, output) -> int:
    """Dump the first `count` samples per node as LIBSVM text (node-major)."""
    try:
        ef = load_config(config_path)
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        features, labels = build_data(ef, count).block(1, count + 1)
    except (ValueError, SimulationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    node_major = features.transpose(1, 0, 2).reshape(-1, features.shape[-1])
    try:
        _write_text(Path(output), ingest.serialize_libsvm(node_major, labels.T.reshape(-1)))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


_THREADS_HELP = "kept for compatibility: must be >= 1, otherwise ignored (runs are single-threaded)"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dogsim",
        description="Deterministic decentralized online gradient simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("config")
    run.add_argument("outdir")
    run.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    sweep = sub.add_parser("sweep", help="run an axis sweep")
    sweep.add_argument("config")
    sweep.add_argument("outdir")
    sweep.add_argument("--axis", required=True, choices=("beta", "nodes", "topology"))
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values")
    sweep.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    matrix = sub.add_parser("matrix", help="print the mixing matrix and rho")
    matrix.add_argument("config")

    data = sub.add_parser("data", help="dump stream samples as LIBSVM text")
    data.add_argument("config")
    data.add_argument("count", type=int)
    data.add_argument("output")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command == "run":
        return cmd_run(args.config, args.outdir, threads=args.threads)
    if args.command == "sweep":
        values = [v for v in args.values.split(",") if v]
        return cmd_sweep(args.config, args.axis, values, args.outdir, threads=args.threads)
    if args.command == "matrix":
        return cmd_matrix(args.config)
    return cmd_data(args.config, args.count, args.output)


if __name__ == "__main__":
    sys.exit(main())
