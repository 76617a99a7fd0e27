"""Experiment harness: config files, subcommands, sweeps, CSV emission.

Config files are INI-style text with sections [network], [algorithm],
[loss], [data], and optional [bounds] / [resolved]. `_KEYS` lists every
key with its field, converter and default, and is the only declaration of
the schema: `ExperimentFile`'s fields and the sweep axes' values follow
it. Unknown sections or keys, and values that do not convert or are out
of range, are rejected with their line number. `build_run` resolves
eta = auto from the [bounds] keys, so every RunConfig holds a number.

Exit codes: 0 success, 1 config error, 2 runtime failure (divergence, a
non-converging solver, or an allocation numpy refuses: MemoryError), 3 I/O
error. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager
from dataclasses import make_dataclass, replace
from pathlib import Path

from . import engine, ingest, metrics, mixing, topology
from .datagen import SyntheticSpec, SyntheticStream
from .errors import ConfigError, DivergenceDetected, NonConvergence
from .losses import LossSpec, smoothness_bound
from .metrics import fmt17


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _checked(convert, ok, wanted: str):
    """A converter: `convert`, then reject a value for which `ok` is false.

    The config-file range checks live here so that their errors name the
    line; the library repeats them for its own callers."""
    def checked(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"must be {wanted}")
        return value
    return checked


_positive = _checked(_finite, lambda v: v > 0, "> 0")
_nonnegative = _checked(_finite, lambda v: v >= 0, ">= 0")
_unit = _checked(_finite, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


AUTO = "auto"


def _eta(raw: str):
    return AUTO if raw == AUTO else _positive(raw)


def _one_of(choices):
    def convert(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw
    return convert


_REQUIRED = object()

#: section -> key -> (field, converter, default), in the order that
#: resolved.cfg is written. A _REQUIRED key must be given whenever its
#: section is present; every key of an absent optional section is None.
#: The [bounds] keys are the a-priori constants of `auto_learning_rate`.
_KEYS = {
    "network": {
        "kind": ("kind", _one_of(topology.KINDS), _REQUIRED),
        "n": ("n", _at_least(1), _REQUIRED),
        "k": ("k", _at_least(0), 0),
        "p": ("p", _unit, 0.0),
        "scheme": ("scheme", _one_of(mixing.SCHEMES), mixing.MAX_DEGREE),
    },
    "algorithm": {
        "kind": ("algorithm", _one_of(engine.ALGORITHMS), _REQUIRED),
        "eta": ("eta", _eta, _REQUIRED),
        "T": ("T", _at_least(1), _REQUIRED),
        "seed": ("seed", _checked(int, lambda v: 0 <= v < 2**64, "in [0, 2^64)"), 42),
        "project_radius": ("project_radius", _positive, None),
    },
    "loss": {"gamma": ("gamma", _nonnegative, 1e-3)},
    "data": {
        "beta": ("beta", _unit, None),
        "dim": ("dim", _at_least(1), None),
        "file": ("file", _checked(str, bool, "non-empty"), None),
        "stochastic_fraction": ("stochastic_fraction", _unit, None),
    },
    "bounds": {key: (key, _nonnegative, _REQUIRED) for key in ("G", "sigma", "R", "M")},
    "resolved": {"rho": ("rho", _finite, None)},
}
_OPTIONAL_SECTIONS = ("bounds", "resolved")


ExperimentFile = make_dataclass(
    "ExperimentFile",
    [field for section, keys in _KEYS.items() if section != "resolved"
     for field, _, _ in keys.values()],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": """Fully validated experiment description; None marks a key not given.

    One field per `_KEYS` key outside [resolved], in its order. `eta` is a
    float or "auto". Synthetic data sets `beta` and `dim`, file data `file`
    and `stochastic_fraction`. G, sigma, R and M are all set with [bounds]
    and all None without it.""",
    },
)


def _check_data(values: dict, lines: dict, header: int | None = None):
    """Check the [data] fields of `values` (None: not given) against the
    data mode, naming a key's line from `lines`: file data needs
    `stochastic_fraction` and synthetic data `beta`; `dim` is synthetic."""
    if values["file"] is None:
        mode, excluded, needed = "synthetic", ("stochastic_fraction",), "beta"
    else:
        mode, excluded, needed = "file", ("beta", "dim"), "stochastic_fraction"
    for key in excluded:
        if values[key] is not None:
            raise ConfigError(f"key {key!r} is not valid with {mode} data", lines.get(key))
    if values[needed] is None:
        raise ConfigError(f"missing required key {needed!r} in [data]", header)


def _parse_ini(text: str) -> dict:
    """section -> (header line, key -> (raw value, line)), checked against
    `_KEYS` for unknown sections and keys."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ConfigError(f"unknown section [{name}]", lineno)
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
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current][1]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        sections[current][1][key] = (value.strip(), lineno)
    return sections


def parse_config(text: str) -> ExperimentFile:
    """Parse and validate a config; raises ConfigError naming key and line."""
    sections = _parse_ini(text)
    values = {}
    for name, keys in _KEYS.items():
        if name not in sections:
            if name not in _OPTIONAL_SECTIONS:
                raise ConfigError(f"missing section [{name}]")
            values |= {field: None for field, _, _ in keys.values()}
            continue
        header, entries = sections[name]
        for key, (field, convert, default) in keys.items():
            if key in entries:
                raw, lineno = entries[key]
                try:
                    values[field] = convert(raw)
                except ValueError as exc:
                    raise ConfigError(f"invalid value for {key!r}: {raw!r} ({exc})", lineno) from None
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{name}]", header)
            else:
                values[field] = default

    header, data = sections["data"]
    _check_data(values, {key: lineno for key, (_, lineno) in data.items()}, header)
    if values["file"] is None and values["dim"] is None:
        values["dim"] = 10

    # A resolved.cfg's rho is checked as finite and dropped: runs recompute it.
    del values["rho"]
    return ExperimentFile(**values)


def load_config(path) -> ExperimentFile:
    """Read and parse a config file; text that does not decode is a config
    error, as in a data file."""
    with _config_errors():
        return parse_config(Path(path).read_text())


@contextmanager
def _config_errors():
    """Re-raise a ValueError from building a run as a ConfigError: an
    argument the library cannot use, eta = auto without a positive value
    among them. Every other exception passes through unchanged."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mixing_matrix(ef: ExperimentFile) -> mixing.MixingMatrix:
    graph = topology.build_topology(ef.kind, ef.n, seed=ef.seed, k=ef.k, p=ef.p)
    return mixing.build_mixing(graph, ef.scheme)


def build_data(ef: ExperimentFile, rounds: int, sources: dict):
    """The config's data source for `rounds` rounds: the synthetic stream, or
    the LIBSVM file parsed, normalized and split into node streams. Both
    hand out samples through ``block(first, last)``.

    `sources` memoizes every source under what it is built from, so calls
    that would build equal sources share one. A `SyntheticStream` is keyed
    by its `SyntheticSpec`, and generates its block once for every run that
    reads it. A file is parsed and normalized once per path, and split once
    per argument list of `split_stoch_adv`."""
    if ef.file is None:
        spec = SyntheticSpec(dim=ef.dim, beta=ef.beta, n=ef.n, seed=ef.seed)
        if spec not in sources:
            sources[spec] = SyntheticStream(spec)
        return sources[spec]
    if ef.file not in sources:
        sources[ef.file] = ingest.normalize(ingest.parse_libsvm(Path(ef.file).read_text()))
    split = (ef.file, ef.stochastic_fraction, ef.n, rounds, ef.seed)
    if split not in sources:
        sources[split] = ingest.split_stoch_adv(sources[ef.file], *split[1:])
    return sources[split]


def build_run(ef: ExperimentFile, sources: dict):
    """Assemble (RunConfig, MixingMatrix) from a validated config, with its
    data source from `sources` (see `build_data`). eta = auto is resolved
    here, by `auto_learning_rate` on the [bounds] keys and the mixing
    matrix's rho, so every config error surfaces here."""
    with _config_errors():
        mix = _mixing_matrix(ef)
        data = build_data(ef, ef.T, sources)
        eta = ef.eta
        if eta == AUTO:
            if ef.G is None:
                raise ConfigError("eta = auto requires [bounds] (G, sigma, R, M)")
            eta = engine.auto_learning_rate(ef.n, ef.T, ef.G, ef.sigma, ef.R, ef.M, mix.rho)
        cfg = engine.RunConfig(
            algorithm=ef.algorithm,
            T=ef.T,
            eta=eta,
            loss_spec=LossSpec(gamma=ef.gamma),
            data=data,
            mixing=mix,
            project_radius=ef.project_radius,
        )
    return cfg, mix


def render_resolved(ef: ExperimentFile, eta: float, rho: float) -> str:
    """Config text with eta fixed to its numeric value plus computed rho:
    every key that holds a value, in `_KEYS` order."""
    values = {**vars(ef), "eta": eta, "rho": rho}
    lines = []
    for section, keys in _KEYS.items():
        body = [
            f"{key} = {fmt17(value) if isinstance(value, float) else value}"
            for key, (field, _, _) in keys.items()
            if (value := values.get(field)) is not None
        ]
        if body:
            lines += [f"[{section}]", *body, ""]
    return "\n".join(lines)


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


#: exception -> (exit code, stderr label). Anything else raised by a
#: subcommand is a bug and propagates as a traceback.
_EXIT_CODES = {
    ConfigError: (1, "config error"),
    DivergenceDetected: (2, "runtime error"),
    NonConvergence: (2, "runtime error"),
    MemoryError: (2, "runtime error"),
    OSError: (3, "i/o error"),
}
_REPORTED = tuple(_EXIT_CODES)


def _report(exc: Exception, prefix: str = "") -> int:
    """Print `exc` to stderr under its label; return its exit code."""
    code, label = next(v for kind, v in _EXIT_CODES.items() if isinstance(exc, kind))
    print(f"{prefix}{label}: {exc}", file=sys.stderr)
    return code


_RHO_WARNING = "warning: rho >= 1, gossip cannot contract disagreement"


def _warn_rho(cfg: engine.RunConfig, prefix: str = ""):
    """Print the rho warning to stderr for a dog run whose gossip does not
    contract; COG and Local OGD runs do not gossip."""
    if cfg.algorithm == engine.DOG and not cfg.mixing.contracts:
        print(f"{prefix}{_RHO_WARNING}", file=sys.stderr)


def cmd_run(config_path, outdir) -> int:
    """Run one experiment; writes metrics.csv, resolved.cfg, summary.txt."""
    try:
        ef = load_config(config_path)
        cfg = build_run(ef, {})[0]
        _warn_rho(cfg)
        result = engine.run_experiment(cfg)
        avg_loss, cum_loss = metrics.loss_columns(result.losses)
        summary = _summarize(result, avg_loss, cum_loss, cfg, ef)
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "metrics.csv", metrics.metrics_to_csv(avg_loss, result.consensus_error, cum_loss))
        _write_text(out / "resolved.cfg", render_resolved(ef, cfg.eta, cfg.mixing.rho))
        _write_text(out / "summary.txt", summary)
    except _REPORTED as exc:
        return _report(exc)
    return 0


def _summarize(result, avg_loss, cum_loss, cfg: engine.RunConfig, ef: ExperimentFile) -> str:
    """summary.txt from a run and its loss columns; with [bounds], the regret
    bound at R = max(R, ||x*||^2) as regret_bound_R, covering the static comparator x*."""
    features, labels = result.sample_features.reshape(-1, cfg.dim), result.sample_labels.reshape(-1)
    gamma = cfg.loss_spec.gamma
    comparator = metrics.offline_comparator(features, labels, gamma)
    regret = metrics.static_regret(cum_loss, features, labels, gamma, comparator)
    lines = [
        f"average_loss={fmt17(metrics.average_loss(avg_loss))}",
        f"final_consensus_error={fmt17(result.consensus_error[-1])}",
        f"static_regret={fmt17(regret)}",
    ]
    if ef.G is not None and not cfg.mixing.contracts:
        lines.append("regret_bound=unavailable (rho >= 1)")
    elif ef.G is not None:
        g_hat, sigma_hat = metrics.estimate_gradient_bounds(result.grad_norms)
        r_used = max(ef.R, float(comparator @ comparator))
        bound = metrics.regret_bound(
            n=cfg.n, T=cfg.T, eta=cfg.eta, G=g_hat, sigma=sigma_hat,
            L=smoothness_bound(features, gamma), rho=cfg.mixing.rho,
            R=r_used, M=ef.M,
        )
        lines += [f"regret_bound_R={fmt17(r_used)}", f"regret_bound={fmt17(bound)}"]
    return "\n".join(lines) + "\n"


#: sweep axis -> (the (section, key) that each ':'-separated part of a
#: value sets, the algorithms each value runs: () runs the config's own)
_AXES = {
    "beta": ((("data", "beta"),), (engine.DOG, engine.LOCAL_OGD)),
    "nodes": ((("network", "n"),), ()),
    "topology": ((("network", "kind"), ("network", "p")), (engine.DOG,)),
}


def _sweep_cells(ef: ExperimentFile, axis: str, values: list):
    """Yield (cell_name, value, config) per value of `axis` and algorithm.

    Each part of a value is stripped of blanks and converted by its key's
    `_KEYS` converter, so an empty part is an invalid value. A cell is named
    <axis>_<part 0>, then _<key><part> per later part, then _<algorithm>
    when a value runs more than one. Each cell's config is checked as a
    config file is, and one equal to an earlier cell's is a config error."""
    if axis not in _AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    keys, algorithms = _AXES[axis]
    seen = {}
    for raw in values:
        parts = [part.strip() for part in raw.split(":", len(keys) - 1)]
        value = ":".join(parts)
        fields = {}
        for (section, key), part in zip(keys, parts):
            if key == "p" and parts[0] != topology.WATTS_STROGATZ:
                raise ConfigError(f"topology {value!r} takes no ':p' suffix; only watts_strogatz reads p")
            field, convert, _ = _KEYS[section][key]
            try:
                fields[field] = convert(part)
            except ValueError as exc:
                raise ConfigError(f"invalid sweep value {value!r} ({exc})") from None
        name = "_".join([axis, parts[0]] + [key + part for (_, key), part in zip(keys[1:], parts[1:])])
        for alg in algorithms or (ef.algorithm,):
            cell = replace(ef, **fields, algorithm=alg)
            _check_data(vars(cell), {})
            if cell in seen:
                raise ConfigError(f"sweep value {value!r} repeats cell {seen[cell]}")
            seen[cell] = f"{name}_{alg}" if len(algorithms) > 1 else name
            yield seen[cell], value, cell


def cmd_sweep(config_path, axis: str, values: list, outdir) -> int:
    """Run every cell of an axis sweep (see `_sweep_cells`); writes each
    cell's metrics.csv and one sweep_summary.csv.

    Every cell is built before any runs, from one `build_data` memo, so
    cells whose data sources are built from the same arguments share one:
    the DOG and Local OGD cells of each beta value, and every cell of a
    topology sweep. A nodes sweep shares only its parsed data file. Like
    `dogsim run`, a running cell holds all its samples, one
    T·n·(dim+1)·8-byte block. Each cell is dropped once its CSV and summary
    row are written, so a shared block is freed after the last cell that
    reads it and a nodes sweep holds one cell's block at a time. A cell's
    bytes are those of a standalone `dogsim run` of its config."""
    prefix = ""  # names the cell being built or run in a diagnostic
    try:
        ef = load_config(config_path)
        if not values:
            raise ConfigError("sweep needs at least one axis value")
        cells = list(_sweep_cells(ef, axis, values))
        # Build every cell before running any, so a config error writes
        # nothing. A shared stream generates its block lazily, inside the
        # run of the first cell that reads it.
        built, sources = [], {}
        for name, value, cell_ef in cells:
            prefix = f"sweep cell {name} "
            built.append((name, value, build_run(cell_ef, sources)[0]))
        del sources  # from here only the cells hold their data sources
        rows = []
        while built:
            name, value, cfg = built.pop(0)
            prefix = f"sweep cell {name} "
            _warn_rho(cfg, prefix)
            result = engine.run_experiment(cfg)
            cell_dir = Path(outdir) / name
            cell_dir.mkdir(parents=True, exist_ok=True)
            avg_loss, cum_loss = metrics.loss_columns(result.losses)
            _write_text(cell_dir / "metrics.csv",
                        metrics.metrics_to_csv(avg_loss, result.consensus_error, cum_loss))
            rows.append(f"{value},{cfg.algorithm},{fmt17(metrics.average_loss(avg_loss))}")
            del result, cfg  # frees the cell's samples before the next cell runs
        prefix = ""
        _write_text(
            Path(outdir) / "sweep_summary.csv",
            "value,algorithm,final_avg_loss\n" + "\n".join(rows) + "\n",
        )
    except _REPORTED as exc:
        return _report(exc, prefix)
    return 0


def cmd_matrix(config_path) -> int:
    """Print the constructed mixing matrix, its rho, and stochasticity checks."""
    try:
        ef = load_config(config_path)
        with _config_errors():
            mix = _mixing_matrix(ef)
        report = mixing.verify_doubly_stochastic(mix.entries)
        sys.stdout.write(mixing.matrix_to_csv(mix.entries))
        print(f"rho={fmt17(mix.rho)}")
        print(f"max_row_dev={fmt17(report.max_row_dev)}")
        print(f"max_col_dev={fmt17(report.max_col_dev)}")
        print(f"min_entry={fmt17(report.min_entry)}")
    except _REPORTED as exc:
        return _report(exc)
    if not mix.contracts:
        print(_RHO_WARNING, file=sys.stderr)
    return 0


def cmd_data(config_path, count: int, output) -> int:
    """Dump the first `count` samples per node as LIBSVM text (node-major)."""
    try:
        ef = load_config(config_path)
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        with _config_errors():
            features, labels = build_data(ef, count, {}).block(1, count + 1)
        node_major = features.transpose(1, 0, 2).reshape(-1, features.shape[-1])
        _write_text(Path(output), ingest.serialize_libsvm(node_major, labels.T.reshape(-1)))
    except _REPORTED as exc:
        return _report(exc)
    return 0


_THREADS_HELP = "ignored: runs are single-threaded"


@functools.cache  # one tree per process: `prog` is fixed and parse_args leaves it unchanged
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
    sweep.add_argument("--axis", required=True, choices=tuple(_AXES))
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
        return cmd_run(args.config, args.outdir)
    if args.command == "sweep":
        values = [v for v in args.values.split(",") if v.strip()]
        return cmd_sweep(args.config, args.axis, values, args.outdir)
    if args.command == "matrix":
        return cmd_matrix(args.config)
    return cmd_data(args.config, args.count, args.output)


if __name__ == "__main__":
    sys.exit(main())
