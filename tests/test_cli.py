import contextlib
import io
import hashlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dogsim import cli, datagen, engine, metrics, mixing, topology
from dogsim.datagen import SyntheticSpec, synthetic_block
from dogsim.errors import ConfigError
from dogsim.ingest import parse_libsvm, serialize_libsvm
from dogsim.losses import smoothness_bound

BASE_CONFIG = """\
[network]
kind = ring
n = 6
scheme = max_degree

[algorithm]
kind = dog
eta = 0.2
T = 30
seed = 42

[loss]
gamma = 0.001

[data]
beta = 0.5
dim = 4
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_writes_three_files(tmp_path, capsys):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert cli.cmd_run(cfg, out) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "resolved.cfg").exists()
    assert (out / "summary.txt").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "t,avg_loss,consensus_error,cum_loss"
    assert len(lines) == 31
    summary = (out / "summary.txt").read_text()
    assert "average_loss=" in summary
    assert "static_regret=" in summary


def test_unknown_key_names_key_and_line(tmp_path, capsys):
    bad = BASE_CONFIG.replace("[loss]", "foo = 1\n[loss]")
    code = cli.cmd_run(_write(tmp_path, bad), tmp_path / "out")
    assert code == 1
    err = capsys.readouterr().err
    assert "foo" in err and "line 12" in err


def test_unknown_section_rejected(tmp_path, capsys):
    code = cli.cmd_run(_write(tmp_path, BASE_CONFIG + "\n[extra]\nx = 1\n"), tmp_path / "o")
    assert code == 1
    assert "extra" in capsys.readouterr().err


def test_auto_eta_without_bounds_fails(tmp_path, capsys):
    bad = BASE_CONFIG.replace("eta = 0.2", "eta = auto")
    code = cli.cmd_run(_write(tmp_path, bad), tmp_path / "out")
    assert code == 1
    assert capsys.readouterr().err == "config error: eta = auto requires [bounds] (G, sigma, R, M)\n"
    assert not (tmp_path / "out").exists()


def test_auto_eta_with_bounds_runs(tmp_path):
    cfg_text = BASE_CONFIG.replace("eta = 0.2", "eta = auto") + (
        "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n"
    )
    out = tmp_path / "out"
    assert cli.cmd_run(_write(tmp_path, cfg_text), out) == 0
    resolved = (out / "resolved.cfg").read_text()
    rho = mixing.build_mixing(topology.build_topology("ring", 6), "max_degree").rho
    eta = engine.auto_learning_rate(6, 30, G=2.0, sigma=1.0, R=1.0, M=0.0, rho=rho)
    assert f"\neta = {metrics.fmt17(eta)}\n" in resolved and "auto" not in resolved
    assert f"\nrho = {metrics.fmt17(rho)}\n" in resolved
    assert "regret_bound=" in (out / "summary.txt").read_text()


def test_run_determinism_across_invocations_and_threads(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    outs = []
    for name, threads in (("a", []), ("b", []), ("c", ["--threads", "5"])):
        out = tmp_path / name
        assert cli.main(["run", str(cfg), str(out), *threads]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


_SUBCOMMANDS = {
    "run": [],
    "sweep": ["--axis", "nodes", "--values", "4,6"],
}


def _tree_bytes(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@pytest.mark.parametrize("threads", ["0", "-3", "4"])
def test_threads_flag_is_accepted_and_ignored(tmp_path, capsys, command, threads):
    cfg = _write(tmp_path, BASE_CONFIG)
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert cli.main([command, str(cfg), str(plain), *_SUBCOMMANDS[command]]) == 0
    assert cli.main([command, str(cfg), str(flagged), *_SUBCOMMANDS[command], "--threads", threads]) == 0
    assert capsys.readouterr().err == ""
    assert _tree_bytes(flagged) == _tree_bytes(plain) != {}


_AUTO = BASE_CONFIG.replace("eta = 0.2", "eta = auto")
_DEGENERATE_AUTO_ETA = {
    # the identity W has rho = 1; the step size needs rho < 1
    "disconnected": _AUTO.replace("kind = ring", "kind = disconnected")
    + "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n",
    # the step size divides by n T G^2 + T sigma^2
    "zero_gradient_bounds": _AUTO + "\n[bounds]\nG = 0\nsigma = 0\nR = 1\nM = 0\n",
    # random_k with n=4, k=1, seed 0 has two components; the eigensolve's
    # rho there is 2 ulps below 1, which the 1e-12 grid makes exactly 1
    "split_random_k": _AUTO.replace("kind = ring", "kind = random_k\nk = 1")
    .replace("n = 6", "n = 4").replace("seed = 42", "seed = 0")
    + "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n",
    # the step size's numerator n M sqrt(R) + n R is 0 when R = 0, for any M
    "zero_radius": _AUTO + "\n[bounds]\nG = 2\nsigma = 1\nR = 0\nM = 1\n",
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@pytest.mark.parametrize("case", sorted(_DEGENERATE_AUTO_ETA))
def test_degenerate_auto_eta_is_config_error(tmp_path, capsys, command, case):
    cfg = _write(tmp_path, _DEGENERATE_AUTO_ETA[case])
    out = tmp_path / "out"
    assert cli.main([command, str(cfg), str(out), *_SUBCOMMANDS[command]]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n", [2, 300])
def test_auto_eta_on_a_disconnected_graph_is_config_error_at_any_size(tmp_path, capsys, n):
    text = _DEGENERATE_AUTO_ETA["disconnected"].replace("n = 6", f"n = {n}")
    out = tmp_path / "out"
    assert cli.main(["run", str(_write(tmp_path, text)), str(out)]) == 1
    assert "rho < 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
def test_fixed_eta_on_a_split_random_k_graph_reports_no_bound(tmp_path, algorithm):
    # the bound reads rho whatever the algorithm, so none of them has one here
    text = (_DEGENERATE_AUTO_ETA["split_random_k"].replace("eta = auto", "eta = 0.2")
            .replace("kind = dog", f"kind = {algorithm}"))
    out = tmp_path / "out"
    assert cli.main(["run", str(_write(tmp_path, text)), str(out)]) == 0
    assert "regret_bound=unavailable (rho >= 1)\n" in (out / "summary.txt").read_text()
    assert "rho = 1\n" in (out / "resolved.cfg").read_text()


def test_resolved_config_roundtrips(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    first = tmp_path / "first"
    assert cli.cmd_run(cfg, first) == 0
    second = tmp_path / "second"
    assert cli.cmd_run(first / "resolved.cfg", second) == 0
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()


def test_divergent_run_exits_two(tmp_path, capsys):
    bad = BASE_CONFIG.replace("eta = 0.2", "eta = 1e200")
    with np.errstate(over="ignore"):
        code = cli.cmd_run(_write(tmp_path, bad), tmp_path / "out")
    assert code == 2
    assert "round" in capsys.readouterr().err


def test_diverging_run_prints_one_error_line(tmp_path):
    # At n = 600 a tile is 6 rounds, so round 302 falls inside one. The
    # overflows on the way there print no numpy warnings.
    cfg = (BASE_CONFIG.replace("n = 6", "n = 600").replace("eta = 0.2", "eta = 10000")
           .replace("T = 30", "T = 400").replace("seed = 42", "seed = 3")
           .replace("beta = 0.5", "beta = 0.3").replace("dim = 4", "dim = 10"))
    proc = _run_in_subprocess(_write(tmp_path, cfg), tmp_path / "out", os.environ)
    assert proc.returncode == 2
    assert proc.stderr == "runtime error: non-finite model entry at round 302\n"
    assert proc.stdout == ""


def _python_in_subprocess(env, *args):
    """`python *args` in a child process with `env`, on this checkout's
    package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _run_in_subprocess(cfg, out, env):
    """`python -m dogsim run cfg out` in a child process with `env`."""
    return _python_in_subprocess(env, "-m", "dogsim", "run", str(cfg), str(out))


#: `cli.main` on each argv of the JSON list in argv[1], in turn, in one
#: process; the exit code is the largest of theirs.
_MAIN_EACH = "import json, sys; from dogsim import cli; sys.exit(max(cli.main(a) for a in json.loads(sys.argv[1])))"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_dog_metrics_do_not_depend_on_the_blas_kernel_or_thread_count(tmp_path):
    # Gossip calls no BLAS, and rho is rounded to a 1e-12 grid that absorbs
    # the eigensolver's rounding. So metrics.csv at a fixed eta and at
    # eta = auto, resolved.cfg and `dogsim matrix` are the same under the
    # detected kernel, Nehalem (SSE only, runs on any x86-64) and
    # Sandybridge (AVX), with 1 or 2 BLAS threads; n = 300 is large enough
    # for the thread count to change a dense product's bits. summary.txt is
    # left out: its comparator calls BLAS and LAPACK.
    fixed = (BASE_CONFIG.replace("kind = ring\nn = 6", "kind = random_k\nn = 300\nk = 4")
             .replace("dim = 4", "dim = 10"))
    auto = fixed.replace("eta = 0.2", "eta = auto") + "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n"
    fixed_cfg, auto_cfg = _write(tmp_path, fixed, "fixed.cfg"), _write(tmp_path, auto, "auto.cfg")
    outputs = set()
    for coretype, threads in itertools.product((None, "Nehalem", "Sandybridge"), ("1", "2")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["OPENBLAS_NUM_THREADS"] = threads
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / f"{coretype}_{threads}"
        argvs = [["run", str(fixed_cfg), str(out / "fixed")], ["run", str(auto_cfg), str(out / "auto")],
                 ["matrix", str(auto_cfg)]]
        proc = _python_in_subprocess(env, "-c", _MAIN_EACH, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        files = [out / run / name for run in ("fixed", "auto") for name in ("metrics.csv", "resolved.cfg")]
        outputs.add((proc.stdout, *(path.read_bytes() for path in files)))
    assert len(outputs) == 1


def test_sweep_beta_runs_both_algorithms(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "sweep"
    assert cli.cmd_sweep(cfg, "beta", ["0.9", "0.3"], out) == 0
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert cells == [
        "beta_0.3_dog", "beta_0.3_local_ogd", "beta_0.9_dog", "beta_0.9_local_ogd",
    ]
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "value,algorithm,final_avg_loss"
    assert len(summary) == 5
    for cell in cells:
        assert (out / cell / "metrics.csv").exists()


def test_sweep_topology_runs_dog_only(tmp_path):
    out = tmp_path / "sweep"
    values = ["disconnected", "ring", "watts_strogatz:1"]
    # watts_strogatz needs k; patch the base config
    cfg = _write(tmp_path, BASE_CONFIG.replace("kind = ring", "kind = ring\nk = 2"), "t.cfg")
    assert cli.cmd_sweep(cfg, "topology", values, out) == 0
    cells = {p.name for p in out.iterdir() if p.is_dir()}
    assert cells == {"topology_disconnected", "topology_ring", "topology_watts_strogatz_p1"}
    rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert all(",dog," in row for row in rows)


def test_sweep_nodes(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "sweep"
    assert cli.cmd_sweep(cfg, "nodes", ["4", "8"], out) == 0
    assert (out / "nodes_4" / "metrics.csv").exists()
    assert (out / "nodes_8" / "metrics.csv").exists()


def test_sweep_empty_values_fails(tmp_path, capsys):
    code = cli.cmd_sweep(_write(tmp_path, BASE_CONFIG), "beta", [], tmp_path / "o")
    assert code == 1


def test_sweep_failing_cell_is_named(tmp_path, capsys):
    bad = BASE_CONFIG.replace("eta = 0.2", "eta = 1e200")
    with np.errstate(over="ignore"):
        code = cli.cmd_sweep(_write(tmp_path, bad), "beta", ["0.5"], tmp_path / "o")
    assert code == 2
    assert "beta_0.5_dog" in capsys.readouterr().err


def test_sweep_config_error_in_a_later_cell_writes_nothing(tmp_path, capsys):
    # the ring cell is valid; the disconnected cell has rho >= 1, where
    # eta = auto has no value, so the sweep must fail before running any cell
    text = _AUTO + "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n"
    out = tmp_path / "out"
    argv = ["sweep", str(_write(tmp_path, text)), str(out),
            "--axis", "topology", "--values", "ring,disconnected"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "topology_disconnected config error" in err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, bad", [
    ("nodes", "10,abc", "abc"),
    ("beta", "0.3,zz", "zz"),
    ("topology", "ring,watts_strogatz:x", "watts_strogatz:x"),
    ("beta", "0.3,nan", "nan"),
    ("topology", "ring,watts_strogatz:inf", "watts_strogatz:inf"),
    # an empty ':p' part goes through its converter, or the ':p' rule, too
    ("topology", "ring,watts_strogatz:", "watts_strogatz:"),
    ("topology", "watts_strogatz:0.5,ring:", "ring:"),
])
def test_sweep_malformed_value_is_a_config_error(tmp_path, capsys, axis, values, bad):
    cfg = _write(tmp_path, BASE_CONFIG.replace("kind = ring", "kind = ring\nk = 2"))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), str(out), "--axis", axis, "--values", values]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["ring:0.5", "complete:7", "random_k:0", "disconnected:1"])
def test_sweep_p_suffix_on_a_kind_without_p_is_a_config_error(tmp_path, capsys, bad):
    cfg = _write(tmp_path, BASE_CONFIG.replace("kind = ring", "kind = ring\nk = 2"))
    out = tmp_path / "out"
    argv = ["sweep", str(cfg), str(out), "--axis", "topology", "--values", f"watts_strogatz:0.5,{bad}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, repeated, cell", [
    ("nodes", "4,4", "4", "nodes_4"),
    ("beta", "0.3,0.7,0.3", "0.3", "beta_0.3_dog"),
    ("topology", "watts_strogatz:0.5,ring,watts_strogatz:0.5", "watts_strogatz:0.5", "topology_watts_strogatz_p0.5"),
    # a repeat is a cell whose config equals an earlier cell's, however its value is written
    ("nodes", "4,+4,04", "+4", "nodes_4"),
    ("beta", "0.3,0.30", "0.30", "beta_0.3_dog"),
    ("topology", "watts_strogatz:0.5,watts_strogatz:.5", "watts_strogatz:.5", "topology_watts_strogatz_p0.5"),
    ("nodes", "4, 4 ", "4", "nodes_4"),
])
def test_sweep_repeated_value_is_a_config_error(tmp_path, capsys, axis, values, repeated, cell):
    cfg = _write(tmp_path, BASE_CONFIG.replace("kind = ring", "kind = ring\nk = 2"))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), str(out), "--axis", axis, "--values", values]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(repeated) in err and cell in err
    assert not out.exists()


def test_every_sweep_axis_sets_keys_of_the_config_schema():
    for keys, algorithms in cli._AXES.values():
        assert all(key in cli._KEYS[section] for section, key in keys)
        assert set(algorithms) <= set(engine.ALGORITHMS)
    sub = next(a for a in cli._parser()._actions if a.dest == "command").choices["sweep"]
    assert next(a for a in sub._actions if a.dest == "axis").choices == tuple(cli._AXES)


TOPOLOGY_CONFIG = """\
[network]
kind = ring
n = 40
k = 4
p = 0.2
scheme = max_degree

[algorithm]
kind = dog
eta = 0.1
T = 15
seed = 8

[loss]
gamma = 0.001

[data]
beta = 0.5
dim = 3
"""
_TOPOLOGY_VALUES = ("ring", "watts_strogatz:0.5", "complete", "random_k", "disconnected")

#: sha256 of a topology sweep of TOPOLOGY_CONFIG over _TOPOLOGY_VALUES, of
#: `dogsim run` on each value, and of `dogsim matrix` stdout for a complete
#: graph under the uniform scheme and a watts_strogatz graph under max_degree.
#: Recorded when Graph still held a frozenset of edge tuples; the edge-array
#: representation must not move a byte. The metrics.csv of every cell but
#: disconnected were recorded again when gossip stopped calling BLAS, and
#: every metrics.csv and the sweep summary when the synthetic stream took
#: one Philox counter run per round. Both matrix outputs and the resolved.cfg
#: of every cell but disconnected were recorded again when rho took the
#: 1e-12 grid.
PINNED_TOPOLOGY_DIGESTS = {
    "matrix_complete": "44d304fcad5184b9266af0a15fea39f4e01c10800f1522a9272e843b62e669f2",
    "matrix_watts_strogatz": "b267d336fd52b84a3cb297c2d18a0f92ef0b1b6d43c644f0eb212ef961ee3fba",
    "sweep_summary.csv": "918b42c8c54fe32d63998de7de90a5405ecda632ac0dc9e9046a3a391a455ebd",
    "topology_complete/metrics.csv": "587329e9bd76d8fc17a7ce4bbfa49d875da653e0431da175f31a3e8e349faf25",
    "topology_complete/resolved.cfg": "5d285818307d03fe046ef3055f1643c7b78229aaa828b97665d429c25bdd9456",
    "topology_disconnected/metrics.csv": "bf5e347fae92c4e94ef23ec0cdec942a5682054c7a7da984952b97a8d7f347aa",
    "topology_disconnected/resolved.cfg": "da1499354b8a533b6754ca101c14a2dfc364f9ffe5a19991e92211fe1bcf64a8",
    "topology_random_k/metrics.csv": "e3d46dd6c84c8be964ece1b3b39677c9f74242b577ad6a5b363dab1a85b00319",
    "topology_random_k/resolved.cfg": "4ea92ee3dcac2e10092b565f1cfb5de39edbe19a6afbc0f9145cfbfac1a85dd3",
    "topology_ring/metrics.csv": "409e0bb98c1682f192641da4bf509f420792352fc1b262ca97c64f1b790c2604",
    "topology_ring/resolved.cfg": "4c2fc35f7a8f2f2396862919fad1209c1d52fd11b4fce9147bae8f1df383af4b",
    "topology_watts_strogatz_p0.5/metrics.csv": "aed163b8dae76f432007bcd1e31f588fc6f7da4a0dccd87ffea2fd9c499a6f37",
    "topology_watts_strogatz_p0.5/resolved.cfg": "4d51f1653655463d9093dcdb8aa529e25ca372bf0667ba6b089f340548281d7f",
}


def test_topology_sweep_bytes_are_pinned(tmp_path, capsys):

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    cfg = _write(tmp_path, TOPOLOGY_CONFIG)
    sweep = tmp_path / "sweep"
    argv = ["sweep", str(cfg), str(sweep), "--axis", "topology", "--values", ",".join(_TOPOLOGY_VALUES)]
    assert cli.main(argv) == 0
    digests = {"sweep_summary.csv": digest(sweep / "sweep_summary.csv")}
    for value in _TOPOLOGY_VALUES:
        kind, _, p = value.partition(":")
        cell = f"topology_{value.replace(':', '_p')}"
        digests[f"{cell}/metrics.csv"] = digest(sweep / cell / "metrics.csv")
        text = TOPOLOGY_CONFIG.replace("kind = ring", f"kind = {kind}")
        if p:
            text = text.replace("p = 0.2", f"p = {p}")
        run_cfg = _write(tmp_path, text, f"{cell}.cfg")
        assert cli.main(["run", str(run_cfg), str(tmp_path / cell)]) == 0
        digests[f"{cell}/resolved.cfg"] = digest(tmp_path / cell / "resolved.cfg")
        assert (tmp_path / cell / "metrics.csv").read_bytes() == (sweep / cell / "metrics.csv").read_bytes()
    capsys.readouterr()
    for kind, scheme in (("complete", "uniform"), ("watts_strogatz", "max_degree")):
        text = TOPOLOGY_CONFIG.replace("kind = ring", f"kind = {kind}")
        text = text.replace("scheme = max_degree", f"scheme = {scheme}")
        assert cli.main(["matrix", str(_write(tmp_path, text, f"m_{kind}.cfg"))]) == 0
        out = capsys.readouterr().out
        digests[f"matrix_{kind}"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == PINNED_TOPOLOGY_DIGESTS


def test_a_fixed_eta_sweep_never_computes_rho(tmp_path, capsys, monkeypatch):
    # `contracts` comes from W's connectivity; only auto eta, the regret
    # bound, resolved.cfg and `dogsim matrix` read rho, each matrix's once.
    cfg = _write(tmp_path, TOPOLOGY_CONFIG)

    def sweep(out):
        argv = ["sweep", str(cfg), str(out), "--axis", "topology", "--values", ",".join(_TOPOLOGY_VALUES)]
        assert cli.main(argv) == 0
        return _tree_bytes(out), capsys.readouterr()

    plain = sweep(tmp_path / "plain")
    eigensolve = mixing.spectral_gap

    def refuse(w):
        raise AssertionError("a fixed-eta sweep computed rho")

    monkeypatch.setattr(mixing, "spectral_gap", refuse)
    assert sweep(tmp_path / "patched") == plain and plain[0] != {}

    calls = []

    def count(w):
        calls.append(w.shape[0])
        return eigensolve(w)

    monkeypatch.setattr(mixing, "spectral_gap", count)
    rho = round(eigensolve(mixing.build_mixing(topology.build_topology("ring", 40)).entries), 12)
    auto = TOPOLOGY_CONFIG.replace("eta = 0.1", "eta = auto") + "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n"
    for name, text in (("fixed", TOPOLOGY_CONFIG), ("auto", auto)):
        calls.clear()
        assert cli.main(["run", str(_write(tmp_path, text, f"{name}.cfg")), str(tmp_path / name)]) == 0
        assert calls == [40]
        resolved = (tmp_path / name / "resolved.cfg").read_text()
        assert f"\nrho = {metrics.fmt17(rho)}\n" in resolved
    eta = engine.auto_learning_rate(40, 15, G=2.0, sigma=1.0, R=1.0, M=0.0, rho=rho)
    assert f"\neta = {metrics.fmt17(eta)}\n" in resolved


def test_a_fixed_eta_sweep_never_builds_a_dense_w(tmp_path, capsys, monkeypatch):
    # gossip and `contracts` read W's nonzeros; only rho and `dogsim matrix`
    # read the dense W, and each makes it once per matrix
    cfg = _write(tmp_path, TOPOLOGY_CONFIG)

    def sweep(out):
        argv = ["sweep", str(cfg), str(out), "--axis", "topology", "--values", ",".join(_TOPOLOGY_VALUES)]
        assert cli.main(argv) == 0
        return _tree_bytes(out), capsys.readouterr()

    plain = sweep(tmp_path / "plain")
    dense = mixing._dense

    def refuse(m):
        raise AssertionError("a fixed-eta sweep built a dense W")

    monkeypatch.setattr(mixing, "_dense", refuse)
    assert sweep(tmp_path / "patched") == plain and plain[0] != {}

    calls = []

    def count(m):
        calls.append(m.n)
        return dense(m)

    monkeypatch.setattr(mixing, "_dense", count)
    auto = TOPOLOGY_CONFIG.replace("eta = 0.1", "eta = auto") + "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n"
    assert cli.main(["run", str(_write(tmp_path, auto, "auto.cfg")), str(tmp_path / "auto")]) == 0
    assert calls == [40]
    calls.clear()
    assert cli.main(["matrix", str(cfg)]) == 0
    assert calls == [40]


def test_a_topology_sweep_does_not_import_scipy_csgraph(tmp_path):
    # connectivity is decided with numpy alone; importing csgraph would add
    # about 8.6 MB to the process's resident memory
    cfg = _write(tmp_path, TOPOLOGY_CONFIG)
    argv = ["sweep", str(cfg), str(tmp_path / "out"), "--axis", "topology",
            "--values", ",".join(_TOPOLOGY_VALUES)]
    code = ("import json, sys; from dogsim import cli; assert cli.main(json.loads(sys.argv[1])) == 0; "
            "print('scipy.sparse.csgraph' in sys.modules)")
    proc = _python_in_subprocess(os.environ, "-c", code, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_a_fixed_eta_run_on_the_complete_graph_does_not_import_scipy_sparse(tmp_path):
    # the complete graph gossips by its closed form, which needs no sparse
    # module, so scipy.sparse is imported only by the first CSR gossip
    cfg = _write(tmp_path, TOPOLOGY_CONFIG.replace("kind = ring", "kind = complete"))
    code = ("import sys; from dogsim import cli; assert cli.main(sys.argv[1:]) == 0; "
            "print('scipy.sparse' in sys.modules)")
    proc = _python_in_subprocess(os.environ, "-c", code, "run", str(cfg), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_sweep_missing_data_file_is_an_io_error(tmp_path, capsys):
    text = BASE_CONFIG.replace("beta = 0.5\ndim = 4", "file = absent.libsvm\nstochastic_fraction = 0.5")
    out = tmp_path / "out"
    assert cli.cmd_sweep(_write(tmp_path, text), "nodes", ["2", "3"], out) == 3
    assert "absent.libsvm" in capsys.readouterr().err
    assert not out.exists()


def test_matrix_prints_rho_and_rows(tmp_path, capsys):
    text = BASE_CONFIG.replace("n = 6", "n = 4")
    assert cli.cmd_matrix(_write(tmp_path, text)) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    first_row = [float(v) for v in lines[0].split(",")]
    assert first_row == pytest.approx([1 / 3, 1 / 3, 0.0, 1 / 3], abs=1e-15)
    rho_line = next(ln for ln in lines if ln.startswith("rho="))
    assert float(rho_line[4:]) == pytest.approx(1 / 3, abs=1e-8)
    assert any(ln.startswith("max_row_dev=") for ln in lines)


def test_matrix_disconnected_warns(tmp_path, capsys):
    text = BASE_CONFIG.replace("kind = ring", "kind = disconnected")
    assert cli.cmd_matrix(_write(tmp_path, text)) == 0
    captured = capsys.readouterr()
    rho_line = next(ln for ln in captured.out.splitlines() if ln.startswith("rho="))
    assert float(rho_line[4:]) == pytest.approx(1.0, abs=1e-8)
    assert "warning" in captured.err


def test_each_dog_run_that_cannot_contract_prints_one_plain_warning(tmp_path, capsys):
    warning = "warning: rho >= 1, gossip cannot contract disagreement"
    split = BASE_CONFIG.replace("kind = ring", "kind = disconnected")
    run_cfg = _write(tmp_path, split, "split.cfg")
    cog_cfg = _write(tmp_path, split.replace("kind = dog", "kind = cog"), "cog.cfg")
    sweep_cfg = _write(tmp_path, BASE_CONFIG)  # k = 0, so watts_strogatz is disconnected too
    topologies = "ring,watts_strogatz:0.5,complete,disconnected"
    # a second main() call warns again, as the first did
    for attempt in ("first", "second"):
        assert cli.main(["run", str(run_cfg), str(tmp_path / attempt / "run")]) == 0
        assert capsys.readouterr().err.splitlines() == [warning]
        assert cli.main(["run", str(cog_cfg), str(tmp_path / attempt / "cog")]) == 0
        assert capsys.readouterr().err == ""
        sweep = ["sweep", str(sweep_cfg), str(tmp_path / attempt / "topology"),
                 "--axis", "topology", "--values", topologies]
        assert cli.main(sweep) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"sweep cell topology_watts_strogatz_p0.5 {warning}",
            f"sweep cell topology_disconnected {warning}",
        ]
        sweep = ["sweep", str(run_cfg), str(tmp_path / attempt / "beta"), "--axis", "beta", "--values", "0.5"]
        assert cli.main(sweep) == 0
        assert capsys.readouterr().err.splitlines() == [f"sweep cell beta_0.5_dog {warning}"]
        assert cli.main(["matrix", str(run_cfg)]) == 0
        assert capsys.readouterr().err.splitlines() == [warning]


def test_data_dump_synthetic_intervals(tmp_path):
    text = BASE_CONFIG.replace("beta = 0.5", "beta = 1")
    outfile = tmp_path / "dump.libsvm"
    assert cli.cmd_data(_write(tmp_path, text), 10, outfile) == 0
    parsed = parse_libsvm(outfile.read_text())
    assert len(parsed) == 60  # 10 per node, 6 nodes
    import math

    for idx, row in enumerate(parsed.features):
        node = idx // 10
        lo, hi = math.sin(node) - 0.5, math.sin(node) + 0.5
        present = row[row != 0.0]
        assert (present >= lo - 1e-12).all() and (present <= hi + 1e-12).all()


def test_data_dump_zero_count(tmp_path):
    outfile = tmp_path / "dump.libsvm"
    assert cli.cmd_data(_write(tmp_path, BASE_CONFIG), 0, outfile) == 0
    assert outfile.read_text() == ""


def test_data_dump_unwritable_path(tmp_path):
    target = tmp_path / "as_dir"
    target.mkdir()
    assert cli.cmd_data(_write(tmp_path, BASE_CONFIG), 2, target) == 3


def test_file_data_mode_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.standard_normal((120, 3))
    labels = np.where(rng.random(120) < 0.5, 1.0, -1.0)
    data_path = tmp_path / "data.libsvm"
    data_path.write_text(serialize_libsvm(features, labels))
    cfg_text = BASE_CONFIG.replace(
        "beta = 0.5\ndim = 4", f"file = {data_path}\nstochastic_fraction = 0.8"
    ).replace("n = 6", "n = 3").replace("T = 30", "T = 20")
    out = tmp_path / "out"
    assert cli.cmd_run(_write(tmp_path, cfg_text), out) == 0
    assert len((out / "metrics.csv").read_text().splitlines()) == 21


def test_non_finite_file_value_is_a_config_error_with_its_line(tmp_path, capsys):
    data_path = tmp_path / "data.libsvm"
    data_path.write_text("+1 1:0.5 2:1\n-1 1:nan\n")
    cfg = _write(tmp_path, BASE_CONFIG.replace(
        "beta = 0.5\ndim = 4", f"file = {data_path}\nstochastic_fraction = 0.5"))
    assert cli.cmd_run(cfg, tmp_path / "out") == 1
    assert cli.cmd_data(cfg, 1, tmp_path / "dump.libsvm") == 1
    err = capsys.readouterr().err
    assert err.count("config error: line 2:") == 2 and "1:nan" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("+1 1:0.5\n-1 2:1\n+1 1:-1\n", "need at least n*T = 180 samples, dataset has 3"),
    ("# only a comment\n\n", "cannot normalize an empty dataset"),
    ("+1\n-1\n+1\n", "cannot normalize a dataset without features"),
])
def test_unusable_data_file_is_a_config_error(tmp_path, capsys, text, message):
    data_path = tmp_path / "data.libsvm"
    data_path.write_text(text)
    for fraction in ("0.5", "1.0"):
        cfg = _write(tmp_path, BASE_CONFIG.replace(
            "beta = 0.5\ndim = 4", f"file = {data_path}\nstochastic_fraction = {fraction}"))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()


def test_missing_section_and_duplicates(tmp_path, capsys):
    no_loss = BASE_CONFIG.replace("[loss]\ngamma = 0.001\n", "")
    assert cli.cmd_run(_write(tmp_path, no_loss), tmp_path / "o1") == 1
    dup = BASE_CONFIG.replace("n = 6", "n = 6\nn = 7")
    assert cli.cmd_run(_write(tmp_path, dup), tmp_path / "o2") == 1
    assert "duplicate" in capsys.readouterr().err


def test_parse_config_details():
    with pytest.raises(ConfigError) as err:
        cli.parse_config("x = 1\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError):
        cli.parse_config("[network]\nkind ring\n")
    ef = cli.parse_config(BASE_CONFIG)
    assert ef.scheme == "max_degree"
    assert ef.seed == 42
    assert ef.eta == 0.2


def test_main_dispatch(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out = tmp_path / "main_out"
    assert cli.main(["run", str(cfg), str(out)]) == 0
    assert cli.main(["matrix", str(cfg)]) == 0
    assert cli.main(["nope"]) == 1
    assert cli.main(["--help"]) == 0


def test_seed_outside_uint64_is_a_config_error(tmp_path, capsys):
    for seed in ("18446744073709551616", "-1"):
        cfg = _write(tmp_path, BASE_CONFIG.replace("seed = 42", f"seed = {seed}"))
        assert cli.cmd_run(cfg, tmp_path / "out") == 1
        assert cli.cmd_data(cfg, 2, tmp_path / "dump.libsvm") == 1
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err
    assert not (tmp_path / "out").exists()


def test_top_uint64_seed_has_its_own_stream(tmp_path):
    # 2^64 - 1 used to become the float key 2^64, which wraps to 0
    def metrics(seed):
        out = tmp_path / f"out{seed}"
        cfg = _write(tmp_path, BASE_CONFIG.replace("seed = 42", f"seed = {seed}"))
        assert cli.cmd_run(cfg, out) == 0
        return (out / "metrics.csv").read_bytes()

    assert metrics(2**64 - 1) != metrics(0)
    assert metrics(2**63 + 1) != metrics(2**63 + 1000)


@pytest.mark.parametrize("tile_samples", [None, 12])
def test_data_dump_synthetic_matches_scalar_path(tmp_path, monkeypatch, tile_samples):
    from dogsim import datagen
    from dogsim.datagen import SyntheticSpec, synthetic_sample

    if tile_samples is not None:
        monkeypatch.setattr(datagen, "TILE_SAMPLES", tile_samples)  # 2-round tiles
    outfile = tmp_path / "dump.libsvm"
    assert cli.cmd_data(_write(tmp_path, BASE_CONFIG), 7, outfile) == 0
    spec = SyntheticSpec(dim=4, beta=0.5, n=6, seed=42)
    expected = [synthetic_sample(spec, i, t) for i in range(6) for t in range(1, 8)]
    features = np.array([f for f, _ in expected])
    labels = np.array([y for _, y in expected])
    assert outfile.read_bytes() == serialize_libsvm(features, labels).encode()


def test_python_dash_m_runs_the_cli(tmp_path, monkeypatch):
    import runpy
    import sys

    out = tmp_path / "out"
    argv = ["dogsim", "run", str(_write(tmp_path, BASE_CONFIG)), str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("dogsim", run_name="__main__")
    assert exc.value.code == 0
    assert len((out / "metrics.csv").read_text().splitlines()) == 31


FILE_CONFIG = """\
[network]
kind = ring
n = 5

[algorithm]
kind = dog
eta = auto
T = 24
seed = 11

[loss]
gamma = 0.001

[data]
file = data.libsvm
stochastic_fraction = 0.5

[bounds]
G = 2.0
sigma = 1.0
R = 1.0
M = 0.0
"""


def _pinned_libsvm_text() -> str:
    """150 rows in 6 columns from three clouds: labels in every accepted
    spelling, omitted zeros, an all-zero column 3, a comment and a blank."""
    rng = np.random.default_rng(2024)
    centers = np.array([[0.0, 2.0, 0.0, -1.0, 0.5, 3.0],
                        [4.0, -1.0, 0.0, 2.0, -2.0, 0.0],
                        [-3.0, 0.5, 0.0, 0.0, 1.0, -2.5]])
    spellings = ("+1", "1", "-1", "0")
    lines = ["# pinned file-data input", ""]
    for row in range(150):
        feats = centers[row % 3] + rng.standard_normal(6)
        feats[2] = 0.0
        feats[rng.random(6) < 0.2] = 0.0
        parts = [spellings[int(rng.integers(0, 4))]]
        parts += ["%d:%.17g" % (j + 1, v) for j, v in enumerate(feats) if v != 0.0]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


#: sha256 of the outputs of FILE_CONFIG on _pinned_libsvm_text(); any change
#: to parsing, normalization, the stochastic/adversarial split or the order in
#: which the loop reads file samples moves them. metrics.csv and summary.txt
#: were recorded again when gossip stopped calling BLAS, and with data when
#: normalization took one formula for every column; all but data when rho
#: took the 1e-12 grid.
PINNED_FILE_DIGESTS = {
    "metrics.csv": "7e8aa9c35cf6f1b04f5be9a93b092795763635106fc9e005b6771e0d72231318",
    "resolved.cfg": "ff73b1fd5be377bd4d900f76f8e2025374981b39d8afa166dad9052045d389f4",
    "summary.txt": "d71120f08119ab83bcb9a9e28f35570238952e30330bfeb8cd7f340894489cab",
    "data": "0f2f9e15792d280a953c6e9e4151b9dbe56a3cf4a08e21b959b58000f581c807",
}


def test_file_data_output_bytes_are_pinned(tmp_path, monkeypatch):

    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.libsvm").write_text(_pinned_libsvm_text())
    cfg = _write(tmp_path, FILE_CONFIG)
    assert cli.main(["run", str(cfg), "out"]) == 0
    assert cli.main(["data", str(cfg), "9", "dump.libsvm"]) == 0
    paths = {name: tmp_path / "out" / name for name in ("metrics.csv", "resolved.cfg", "summary.txt")}
    paths["data"] = tmp_path / "dump.libsvm"
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == PINNED_FILE_DIGESTS


#: sha256 of a nodes sweep 2,4,6 of FILE_CONFIG on _pinned_libsvm_text();
#: sharing one parse across the cells must not move them. The n = 4 and 6
#: metrics.csv were recorded again when gossip stopped calling BLAS, and all
#: four when normalization took one formula for every column. The n = 4
#: and 6 metrics.csv and the summary were recorded again when rho took the
#: 1e-12 grid.
PINNED_SWEEP_DIGESTS = {
    "nodes_2/metrics.csv": "dd06484d590a1c657490c8266d7d25bb70185bc3db230e31465be9044aa132df",
    "nodes_4/metrics.csv": "c5d83dfc5236cb02280b816f96dc6613b9d56434758958d55a4025fe1d92fa02",
    "nodes_6/metrics.csv": "0d3d44b56d9bc9315b6b67bc1cdc5d0175c5fd96ad51e22b7074f305dd3e3f35",
    "sweep_summary.csv": "d407940fde5ad7e32912ca48f5e682d9603ff6f76cdf8c20bbc3e2029c06e17c",
}
_SWEEP_NODES = (2, 4, 6)


def _file_sweep(tmp_path, monkeypatch, out="sweep"):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.libsvm").write_text(_pinned_libsvm_text())
    cfg = _write(tmp_path, FILE_CONFIG)
    values = ",".join(str(n) for n in _SWEEP_NODES)
    return cli.main(["sweep", str(cfg), out, "--axis", "nodes", "--values", values])


def test_file_data_sweep_bytes_are_pinned(tmp_path, monkeypatch):

    assert _file_sweep(tmp_path, monkeypatch) == 0
    digests = {name: hashlib.sha256((tmp_path / "sweep" / name).read_bytes()).hexdigest()
               for name in PINNED_SWEEP_DIGESTS}
    assert digests == PINNED_SWEEP_DIGESTS


def test_file_data_sweep_cells_match_single_runs(tmp_path, monkeypatch):
    assert _file_sweep(tmp_path, monkeypatch) == 0
    for n in _SWEEP_NODES:
        cfg = _write(tmp_path, FILE_CONFIG.replace("n = 5", f"n = {n}"), f"n{n}.cfg")
        assert cli.main(["run", str(cfg), f"run_{n}"]) == 0
        single = (tmp_path / f"run_{n}" / "metrics.csv").read_bytes()
        assert (tmp_path / "sweep" / f"nodes_{n}" / "metrics.csv").read_bytes() == single


def test_sweep_parses_its_data_file_once_per_invocation(tmp_path, monkeypatch):
    from dogsim import ingest

    calls = []
    original = ingest.parse_libsvm

    def counting(text):
        calls.append(len(text))
        return original(text)

    monkeypatch.setattr(ingest, "parse_libsvm", counting)
    assert _file_sweep(tmp_path, monkeypatch, out="first") == 0
    assert len(calls) == 1
    # nothing outlives a main() call: the next sweep reads the file again
    assert _file_sweep(tmp_path, monkeypatch, out="second") == 0
    assert len(calls) == 2


_FILE_TOPOLOGIES = ("ring", "watts_strogatz:0.5", "complete")


def test_file_data_topology_sweep_cells_match_single_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.libsvm").write_text(_pinned_libsvm_text())
    text = FILE_CONFIG.replace("n = 5", "n = 5\nk = 2")
    cfg = _write(tmp_path, text)
    argv = ["sweep", str(cfg), "sweep", "--axis", "topology", "--values", ",".join(_FILE_TOPOLOGIES)]
    assert cli.main(argv) == 0
    for value in _FILE_TOPOLOGIES:
        kind, _, p = value.partition(":")
        cell = f"topology_{value.replace(':', '_p')}"
        single = text.replace("kind = ring", f"kind = {kind}")
        if p:
            single = single.replace("k = 2", f"k = 2\np = {p}")
        assert cli.main(["run", str(_write(tmp_path, single, f"{cell}.cfg")), cell]) == 0
        assert (tmp_path / "sweep" / cell / "metrics.csv").read_bytes() == (tmp_path / cell / "metrics.csv").read_bytes()


def test_beta_sweep_cells_match_single_runs(tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(_write(tmp_path, BASE_CONFIG)), str(out), "--axis", "beta", "--values", "0.9,0.3"]) == 0
    for beta in ("0.9", "0.3"):
        for alg in ("dog", "local_ogd"):
            cell = f"beta_{beta}_{alg}"
            single = BASE_CONFIG.replace("beta = 0.5", f"beta = {beta}").replace("kind = dog", f"kind = {alg}")
            assert cli.main(["run", str(_write(tmp_path, single, f"{cell}.cfg")), str(tmp_path / cell)]) == 0
            assert (out / cell / "metrics.csv").read_bytes() == (tmp_path / cell / "metrics.csv").read_bytes()


@pytest.mark.parametrize("axis, values, cells", [
    # blanks around a value are stripped from its cell's name and summary row
    ("nodes", " 4, 8 ", {"4": ("n = 6", "n = 4"), "8": ("n = 6", "n = 8")}),
    # a topology cell runs dog whatever the config's algorithm
    ("topology", "complete,watts_strogatz:0.5", {
        "complete": ("kind = ring", "kind = complete"),
        "watts_strogatz:0.5": ("kind = ring", "kind = watts_strogatz\np = 0.5"),
    }),
])
def test_synthetic_sweep_cells_match_single_runs(tmp_path, axis, values, cells):
    text = BASE_CONFIG.replace("n = 6", "n = 6\nk = 2").replace("kind = dog", "kind = local_ogd")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(_write(tmp_path, text)), str(out), "--axis", axis, "--values", values]) == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == list(cells)
    for value, (old, new) in cells.items():
        cell = f"{axis}_{value.replace(':', '_p')}"
        single = text.replace(old, new)
        if axis == "topology":
            single = single.replace("kind = local_ogd", "kind = dog")
        assert cli.main(["run", str(_write(tmp_path, single, f"{cell}.cfg")), str(tmp_path / cell)]) == 0
        assert (out / cell / "metrics.csv").read_bytes() == (tmp_path / cell / "metrics.csv").read_bytes()


def test_beta_sweep_on_file_data_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.libsvm").write_text(_pinned_libsvm_text())
    cfg = _write(tmp_path, FILE_CONFIG)
    assert cli.main(["sweep", str(cfg), "out", "--axis", "beta", "--values", "0.3"]) == 1
    assert capsys.readouterr().err == "config error: key 'beta' is not valid with file data\n"
    assert not (tmp_path / "out").exists()


def test_sweep_stops_at_a_failing_middle_cell(tmp_path, monkeypatch, capsys):
    from dogsim import engine
    from dogsim.errors import DivergenceDetected

    original = engine.run_experiment
    calls = []

    def second_diverges(cfg):
        calls.append(cfg)
        if len(calls) == 2:
            raise DivergenceDetected(3)
        return original(cfg)

    monkeypatch.setattr(engine, "run_experiment", second_diverges)
    cfg = _write(tmp_path, BASE_CONFIG.replace("kind = ring", "kind = ring\nk = 2"))
    out = tmp_path / "out"
    argv = ["sweep", str(cfg), str(out), "--axis", "topology", "--values", "ring,watts_strogatz:1,complete"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("sweep cell topology_watts_strogatz_p1 runtime error:")
    assert len(calls) == 2
    assert sorted(p.name for p in out.iterdir()) == ["topology_ring"]
    assert (out / "topology_ring" / "metrics.csv").exists()


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call is appended to the returned list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


_WIDE_CONFIG = BASE_CONFIG.replace("n = 6", "n = 500\nk = 4").replace("T = 30", "T = 50").replace("dim = 4", "dim = 2")


@pytest.mark.parametrize("axis, values, calls", [
    ("topology", "ring,watts_strogatz:0.5,complete", 1),  # one shared stream, not 3 calls
    ("beta", "0.9,0.3", 2),  # one stream per beta value, shared by dog and local_ogd
    ("nodes", "250,500", 2),  # each n its own stream
])
def test_sweep_generates_each_shared_stream_once_per_invocation(tmp_path, monkeypatch, axis, values, calls):
    from dogsim import datagen

    blocks = _count_calls(monkeypatch, datagen, "synthetic_block")
    cfg = _write(tmp_path, _WIDE_CONFIG)
    argv = ["sweep", str(cfg), str(tmp_path / "first"), "--axis", axis, "--values", values]
    assert cli.main(argv) == 0
    assert len(blocks) == calls
    # nothing outlives a main() call: the next sweep generates every stream again
    argv[2] = str(tmp_path / "second")
    assert cli.main(argv) == 0
    assert len(blocks) == 2 * calls


def test_nodes_sweep_frees_each_cell_block_before_the_next_runs(tmp_path, monkeypatch):
    import weakref

    from dogsim import engine

    blocks = []
    original = engine.run_experiment

    def tracking(cfg):
        assert all(block() is None for block in blocks)
        result = original(cfg)
        blocks.append(weakref.ref(result.sample_features))
        return result

    monkeypatch.setattr(engine, "run_experiment", tracking)
    cfg = _write(tmp_path, BASE_CONFIG)
    assert cli.main(["sweep", str(cfg), str(tmp_path / "synthetic"), "--axis", "nodes", "--values", "3,4,5"]) == 0
    assert _file_sweep(tmp_path, monkeypatch) == 0
    assert len(blocks) == 3 + len(_SWEEP_NODES)


def test_file_data_topology_sweep_splits_its_data_once_per_invocation(tmp_path, monkeypatch):
    from dogsim import ingest

    splits = _count_calls(monkeypatch, ingest, "split_stoch_adv")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.libsvm").write_text(_pinned_libsvm_text())
    cfg = _write(tmp_path, FILE_CONFIG.replace("n = 5", "n = 5\nk = 2"))
    argv = ["sweep", str(cfg), "first", "--axis", "topology", "--values", ",".join(_FILE_TOPOLOGIES)]
    assert cli.main(argv) == 0
    assert len(splits) == 1
    argv[2] = "second"
    assert cli.main(argv) == 0
    assert len(splits) == 2


def test_file_data_nodes_sweep_splits_once_per_cell(tmp_path, monkeypatch):
    from dogsim import ingest

    splits = _count_calls(monkeypatch, ingest, "split_stoch_adv")
    assert _file_sweep(tmp_path, monkeypatch) == 0
    assert len(splits) == len(_SWEEP_NODES)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    # few values each, so that cells often build equal specs
    st.sampled_from((1, 3)),  # dim
    st.sampled_from((0.25, 1.0)),  # beta
    st.sampled_from((2, 3)),  # n
    st.sampled_from((0, 7)),  # seed
    st.sampled_from((0, 1, 4)),  # T
    st.sampled_from(engine.ALGORITHMS),
    st.sampled_from(topology.KINDS),
    st.floats(1e-3, 10.0),  # eta
), min_size=1, max_size=6))
def test_synthetic_sources_are_shared_iff_their_specs_are_equal(cells):
    base = cli.parse_config(BASE_CONFIG)
    sources, built = {}, []
    for dim, beta, n, seed, T, alg, kind, eta in cells:
        ef = replace(base, dim=dim, beta=beta, n=n, seed=seed, T=T, algorithm=alg, kind=kind, eta=eta)
        data = cli.build_data(ef, T, sources)
        spec = SyntheticSpec(dim=dim, beta=beta, n=n, seed=seed)
        features, labels = data.block(1, T + 1)
        expected = synthetic_block(spec, 1, T + 1)
        assert _same_bits(features, expected[0]) and _same_bits(labels, expected[1])
        assert not features.flags.writeable and not labels.flags.writeable
        built.append((spec, data))
    for spec_a, a in built:
        for spec_b, b in built:
            assert (a is b) == (spec_a == spec_b)


def test_file_sources_parse_once_per_path_and_split_once_per_argument_list(tmp_path, monkeypatch):
    from dogsim import ingest

    parses = _count_calls(monkeypatch, ingest, "parse_libsvm")
    paths = [str(tmp_path / name) for name in ("a.libsvm", "b.libsvm")]
    for path in paths:
        Path(path).write_text(_pinned_libsvm_text())
    base = cli.parse_config(FILE_CONFIG)
    sources, built = {}, []
    for file, fraction, n, rounds, seed, kind in itertools.product(
        paths, (0.5, 1.0), (2, 3), (10, 20), (11, 12), ("ring", "complete")
    ):
        ef = replace(base, file=file, stochastic_fraction=fraction, n=n, seed=seed, kind=kind)
        built.append(((file, fraction, n, rounds, seed), cli.build_data(ef, rounds, sources)))
    assert len(parses) == len(paths)
    for split_a, a in built:
        for split_b, b in built:
            assert (a is b) == (split_a == split_b)


@pytest.mark.parametrize("axis, values, bad, reason", [
    ("nodes", "3,0", "0", "must be >= 1"),
    ("beta", "0.3,1.5", "1.5", "must be in [0, 1]"),
    ("topology", "ring,watts_strogatz:2", "watts_strogatz:2", "must be in [0, 1]"),
    ("topology", "ring,star", "star", "expected one of " + ", ".join(topology.KINDS)),
])
def test_sweep_value_is_checked_by_the_converter_of_its_key(tmp_path, capsys, axis, values, bad, reason):
    cfg = _write(tmp_path, BASE_CONFIG.replace("kind = ring", "kind = ring\nk = 2"))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), str(out), "--axis", axis, "--values", values]) == 1
    assert capsys.readouterr().err == f"config error: invalid sweep value {bad!r} ({reason})\n"
    assert not out.exists()


RUN_CONFIG = """\
[network]
kind = ring
n = 7
scheme = max_degree

[algorithm]
kind = dog
eta = auto
T = 40
seed = 5

[loss]
gamma = 0.002

[data]
beta = 0.4
dim = 3

[bounds]
G = 2.0
sigma = 1.0
R = 1.0
M = 0.5
"""

#: sha256 of `dogsim run` outputs of RUN_CONFIG under each algorithm, and of
#: its `cog` variant on a LIBSVM file of 90 rows in 4 columns written by the
#: test. Recorded before the closure-based round helpers and the
#: single-sample loss wrappers were deleted; summary.txt carries the
#: comparator, the static regret and the regret bound, whose R line was
#: added later. The file_cog outputs were recorded again when the k-means
#: split gave way to the projection split and when normalization took one
#: formula for every column, the dog metrics.csv and summary.txt when
#: gossip stopped calling BLAS, and every synthetic metrics.csv and
#: summary.txt when the synthetic stream took one Philox counter run per
#: round. RUN_CONFIG has eta = auto, so all twelve were recorded again when
#: rho took the 1e-12 grid.
PINNED_RUN_DIGESTS = {
    "dog/metrics.csv": "2ce4ef766545a6f80074490af39e0ea362e9b37a8b2a65c1fa91d18fdd412862",
    "dog/resolved.cfg": "ed1a3bd08fa8612de2efd8308a9c3fbc1bda114f8607d8726274e24d5a1ae48e",
    "dog/summary.txt": "6a21a7b6c2a2c9b34529729bb3e02cbf79524e0b7c4f4e32c46d2d373a0cb844",
    "cog/metrics.csv": "8fb0e2630aadb2ee1c253a6d04079d3b877b772a0d865f5aa4d44c5413e3bc58",
    "cog/resolved.cfg": "e0e68788b3fa73e2f0062f4b62eaaf7e0a22d191ff4cd23d3beadf98da66bd71",
    "cog/summary.txt": "0690aa6444d3184d068f40e251973b4f53c0f883a15342b9a6affbee9a28b133",
    "local_ogd/metrics.csv": "9f725bde5e907d690cbdabcc4567d306615f33e0e2ec117fc26b5eec806bc631",
    "local_ogd/resolved.cfg": "29859dbcffa4d5678e483283e3b1ea91e8ccd9660695d358dc06d6c142e6524c",
    "local_ogd/summary.txt": "6496c9bc4c87c0b9cfaaacfc1759c53e778328ee5b1e3e60d974f71b8f552870",
    "file_cog/metrics.csv": "fa869f435749c17843b21b28397ffe01befac77602b2e2e102369667541b32f5",
    "file_cog/resolved.cfg": "20fc9b1f4c58635edce615de175a936ad8b523e140031cd49b4fa0f622588ce2",
    "file_cog/summary.txt": "9d105d848db61547a9fe0f2880c50dd325d2a84163b748e079eb9d156e8a9643",
}


def _run_config_texts(tmp_path) -> dict:
    """RUN_CONFIG under each algorithm, and its cog variant on run.libsvm,
    which this writes to `tmp_path`."""
    rng = np.random.default_rng(77)
    features = rng.standard_normal((90, 4)) + np.array([1.0, -0.5, 0.0, 2.0])
    labels = np.where(rng.random(90) < 0.5, 1.0, -1.0)
    (tmp_path / "run.libsvm").write_text(serialize_libsvm(features, labels))
    texts = {alg: RUN_CONFIG.replace("kind = dog", f"kind = {alg}")
             for alg in ("dog", "cog", "local_ogd")}
    texts["file_cog"] = texts["cog"].replace(
        "beta = 0.4\ndim = 3", "file = run.libsvm\nstochastic_fraction = 0.6"
    ).replace("T = 40", "T = 12")
    return texts


def test_run_output_bytes_are_pinned_for_every_algorithm(tmp_path, monkeypatch):

    monkeypatch.chdir(tmp_path)
    texts = _run_config_texts(tmp_path)
    digests = {}
    for name, text in texts.items():
        assert cli.main(["run", str(_write(tmp_path, text, f"{name}.cfg")), name]) == 0
        for out in ("metrics.csv", "resolved.cfg", "summary.txt"):
            digests[f"{name}/{out}"] = hashlib.sha256((tmp_path / name / out).read_bytes()).hexdigest()
    assert digests == PINNED_RUN_DIGESTS


@pytest.mark.parametrize("name, norm_sq", [("dog", 7.86), ("file_cog", 0.53)])
def test_regret_bound_covers_the_static_comparator(tmp_path, monkeypatch, name, norm_sq):
    # RUN_CONFIG has R = 1. The bound is evaluated at max(R, ||x*||^2), so
    # dog's comparator sets it and file_cog's leaves R.
    monkeypatch.chdir(tmp_path)
    text = _run_config_texts(tmp_path)[name]
    assert cli.main(["run", str(_write(tmp_path, text)), "out"]) == 0
    ef = cli.parse_config(text)
    cfg, mix = cli.build_run(ef, {})
    result = engine.run_experiment(cfg)
    features, labels = result.sample_features.reshape(-1, cfg.dim), result.sample_labels.reshape(-1)
    star = metrics.offline_comparator(features, labels, ef.gamma)
    assert round(float(star @ star), 2) == norm_sq
    r_used = float(star @ star) if name == "dog" else ef.R
    assert r_used == max(ef.R, float(star @ star))
    g_hat, sigma_hat = metrics.estimate_gradient_bounds(result.grad_norms)
    bound = metrics.regret_bound(
        n=cfg.n, T=cfg.T, eta=cfg.eta, G=g_hat, sigma=sigma_hat,
        L=smoothness_bound(features, ef.gamma), rho=mix.rho, R=r_used, M=ef.M,
    )
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert summary[-2:] == [f"regret_bound_R={metrics.fmt17(r_used)}", f"regret_bound={metrics.fmt17(bound)}"]


_FILE_DATA = "file = data.libsvm\nstochastic_fraction = 0.5"


@pytest.mark.parametrize("extra", ["beta = 0.5", "dim = 4"])
def test_synthetic_key_with_file_data_is_a_config_error(tmp_path, capsys, extra):
    text = BASE_CONFIG.replace("beta = 0.5\ndim = 4", f"{_FILE_DATA}\n{extra}")
    assert cli.main(["run", str(_write(tmp_path, text)), str(tmp_path / "out")]) == 1
    key = extra.split()[0]
    lineno = text.splitlines().index(extra) + 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {lineno}:") and repr(key) in err
    assert not (tmp_path / "out").exists()


def test_stochastic_fraction_with_synthetic_data_is_a_config_error(tmp_path, capsys):
    text = BASE_CONFIG + "stochastic_fraction = 0.5\n"
    assert cli.main(["run", str(_write(tmp_path, text)), str(tmp_path / "out")]) == 1
    lineno = len(text.splitlines())
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {lineno}:") and "'stochastic_fraction'" in err


def test_file_without_stochastic_fraction_is_a_config_error(tmp_path, capsys):
    text = BASE_CONFIG.replace("beta = 0.5\ndim = 4", "file = data.libsvm")
    assert cli.main(["run", str(_write(tmp_path, text)), str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "missing required key 'stochastic_fraction'" in err


@pytest.mark.parametrize("line, bad", [
    ("kind = ring", "kind = hypercube"),
    ("scheme = max_degree", "scheme = metropolis"),
    ("kind = dog", "kind = sgd"),
])
def test_unknown_choice_names_its_line(tmp_path, capsys, line, bad):
    text = BASE_CONFIG.replace(line, bad)
    assert cli.main(["matrix", str(_write(tmp_path, text))]) == 1
    lineno = text.splitlines().index(bad) + 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {lineno}:") and repr(bad.split()[-1]) in err


_BOUNDS = "\n[bounds]\nG = 2\nsigma = 1\nR = 1\nM = 0\n"


@pytest.mark.parametrize("missing", ["G", "sigma", "R", "M"])
def test_bounds_section_missing_a_key_is_a_config_error(tmp_path, capsys, missing):
    text = BASE_CONFIG + "\n".join(ln for ln in _BOUNDS.split("\n") if not ln.startswith(f"{missing} ="))
    assert cli.main(["run", str(_write(tmp_path, text)), str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"missing required key {missing!r}" in err


@pytest.mark.parametrize("text", [
    BASE_CONFIG,
    RUN_CONFIG.replace("T = 40", "T = 40\nproject_radius = 0.25"),
    FILE_CONFIG,
], ids=["synthetic", "bounds_and_radius", "file"])
def test_resolved_config_reads_back_to_the_same_text(tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.libsvm").write_text(_pinned_libsvm_text())
    assert cli.main(["run", str(_write(tmp_path, text)), "out"]) == 0
    resolved = (tmp_path / "out" / "resolved.cfg").read_text()
    assert "\n[resolved]\nrho = " in resolved
    ef = cli.parse_config(resolved)
    rho = float(resolved.rsplit("rho = ", 1)[1])
    assert cli.render_resolved(ef, ef.eta, rho) == resolved
    assert cli.main(["run", "out/resolved.cfg", "again"]) == 0
    for name in ("metrics.csv", "resolved.cfg"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


_FINITE = {"allow_nan": False, "allow_infinity": False}
_UNIT = st.floats(0.0, 1.0)
_NONNEGATIVE = st.floats(min_value=0.0, **_FINITE)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, **_FINITE)


@st.composite
def _experiment_files(draw):
    """A valid ExperimentFile: synthetic or file data, with or without
    [bounds], with a float eta or auto."""
    file_data, bounds = draw(st.booleans()), draw(st.booleans())
    return cli.ExperimentFile(
        kind=draw(st.sampled_from(topology.KINDS)), n=draw(st.integers(1, 10**6)),
        k=draw(st.integers(0, 10**3)), p=draw(_UNIT), scheme=draw(st.sampled_from(mixing.SCHEMES)),
        algorithm=draw(st.sampled_from(engine.ALGORITHMS)), eta=draw(st.just(cli.AUTO) | _POSITIVE),
        T=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**64 - 1)),
        project_radius=draw(st.none() | _POSITIVE), gamma=draw(_NONNEGATIVE),
        beta=None if file_data else draw(_UNIT),
        dim=None if file_data else draw(st.integers(1, 10**4)),
        file=draw(st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)) if file_data else None,
        stochastic_fraction=draw(_UNIT) if file_data else None,
        **{key: draw(_NONNEGATIVE) if bounds else None for key in ("G", "sigma", "R", "M")},
    )


@settings(max_examples=200, deadline=None)
@given(_experiment_files(), _POSITIVE, st.floats(**_FINITE))
def test_resolved_config_round_trips_every_field(ef, eta, rho):
    assert cli.parse_config(cli.render_resolved(ef, eta, rho)) == replace(ef, eta=eta)


#: sha256 of `dogsim run` on BASE_CONFIG with project_radius = 0.05, which
#: the models reach, so the projection changes the metrics. metrics.csv was
#: recorded again when gossip stopped calling BLAS and when the synthetic
#: stream took one Philox counter run per round, and resolved.cfg when rho
#: took the 1e-12 grid.
PINNED_RADIUS_DIGESTS = {
    "metrics.csv": "3cfbc4607c10383df12aee7853ed23ca9eab075ab1328bbc13d449e19c9fb61f",
    "resolved.cfg": "e4dafb45f4c90d8b947123b9b3a46ae2f2f17f2300bd5572b8e4b39233fe4aaa",
}


def test_project_radius_output_bytes_are_pinned(tmp_path):

    text = BASE_CONFIG.replace("seed = 42", "seed = 42\nproject_radius = 0.05")
    assert cli.main(["run", str(_write(tmp_path, text)), str(tmp_path / "out")]) == 0
    assert cli.main(["run", str(_write(tmp_path, BASE_CONFIG, "free.cfg")), str(tmp_path / "free")]) == 0
    out = tmp_path / "out"
    assert "project_radius = 0.050000000000000003\n" in (out / "resolved.cfg").read_text()
    assert (out / "metrics.csv").read_bytes() != (tmp_path / "free" / "metrics.csv").read_bytes()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_RADIUS_DIGESTS}
    assert digests == PINNED_RADIUS_DIGESTS


#: BASE_CONFIG with every float key set, one per line.
_FLOAT_KEYS_CONFIG = (
    BASE_CONFIG.replace("n = 6", "n = 6\np = 0.5").replace("seed = 42", "seed = 42\nproject_radius = 5")
    + _BOUNDS + "\n[resolved]\nrho = 0.5\n"
)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [
    "p", "eta", "project_radius", "gamma", "beta", "stochastic_fraction", "G", "sigma", "R", "M", "rho",
])
def test_non_finite_float_is_a_config_error_with_its_line(tmp_path, capsys, key, value):
    text = _FLOAT_KEYS_CONFIG
    if key == "stochastic_fraction":
        text = text.replace("beta = 0.5\ndim = 4", _FILE_DATA)
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} = "))
    lines[lineno - 1] = f"{key} = {value}"
    cfg = _write(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["run", str(cfg), str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {lineno}:") and f"{key!r}: {value!r}" in err
    assert not (tmp_path / "out").exists()


#: _FLOAT_KEYS_CONFIG with k as well: every key that has a range.
_RANGE_KEYS_CONFIG = _FLOAT_KEYS_CONFIG.replace("p = 0.5", "k = 2\np = 0.5")


@pytest.mark.parametrize("key, value", [
    ("n", "0"), ("k", "-1"), ("p", "1.5"), ("p", "-0.1"), ("eta", "0"), ("eta", "-1"), ("T", "-3"), ("T", "0"),
    ("seed", "-1"), ("seed", str(2**64)), ("project_radius", "0"), ("gamma", "-1"), ("beta", "2"),
    ("beta", "-0.5"), ("dim", "0"), ("stochastic_fraction", "1.5"), ("file", ""),
])
def test_out_of_range_value_is_a_config_error_with_its_line(tmp_path, capsys, key, value):
    text = _RANGE_KEYS_CONFIG
    if key in ("stochastic_fraction", "file"):
        text = text.replace("beta = 0.5\ndim = 4", _FILE_DATA)
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} = "))
    lines[lineno - 1] = f"{key} = {value}"
    cfg = _write(tmp_path, "\n".join(lines) + "\n")
    assert cli.main(["run", str(cfg), str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {lineno}:") and f"{key!r}: {value!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["G", "sigma", "R", "M"])
def test_negative_bound_is_a_config_error_with_its_line(tmp_path, capsys, key):
    lines = (BASE_CONFIG + _BOUNDS).splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} = "))
    lines[lineno - 1] = f"{key} = -1"
    assert cli.main(["run", str(_write(tmp_path, "\n".join(lines) + "\n")), str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: line {lineno}: invalid value for {key!r}: '-1' (must be >= 0)\n"
    assert not (tmp_path / "out").exists()


_EXIT_COMMANDS = {
    "run": lambda cfg, out: ["run", cfg, out],
    "sweep": lambda cfg, out: ["sweep", cfg, out, "--axis", "nodes", "--values", "4,6"],
    "matrix": lambda cfg, out: ["matrix", cfg],
    "data": lambda cfg, out: ["data", cfg, "3", out],
}

#: (command, case) -> (exit code, stderr prefix). matrix and data run no
#: model, and matrix writes only to stdout, so those cells exit 0.
_EXIT_TABLE = {
    ("run", "undecodable_config"): (1, "config error: 'utf-8' codec can't decode byte 0xff"),
    ("sweep", "undecodable_config"): (1, "config error: 'utf-8' codec can't decode byte 0xff"),
    ("matrix", "undecodable_config"): (1, "config error: 'utf-8' codec can't decode byte 0xff"),
    ("data", "undecodable_config"): (1, "config error: 'utf-8' codec can't decode byte 0xff"),
    ("run", "unreadable_config"): (3, "i/o error: "),
    ("run", "config_error"): (1, "config error: line 12: "),
    ("run", "divergence"): (2, "runtime error: "),
    ("run", "unwritable_output"): (3, "i/o error: "),
    ("sweep", "unreadable_config"): (3, "i/o error: "),
    ("sweep", "config_error"): (1, "config error: line 12: "),
    ("sweep", "divergence"): (2, "sweep cell nodes_4 runtime error: "),
    ("sweep", "unwritable_output"): (3, "sweep cell nodes_4 i/o error: "),
    ("matrix", "unreadable_config"): (3, "i/o error: "),
    ("matrix", "config_error"): (1, "config error: line 12: "),
    ("matrix", "divergence"): (0, ""),
    ("matrix", "unwritable_output"): (0, ""),
    ("data", "unreadable_config"): (3, "i/o error: "),
    ("data", "config_error"): (1, "config error: line 12: "),
    ("data", "divergence"): (0, ""),
    ("data", "unwritable_output"): (3, "i/o error: "),
    ("run", "out_of_memory"): (2, "runtime error: Unable to allocate"),
    ("sweep", "out_of_memory"): (2, "sweep cell nodes_4 runtime error: Unable to allocate"),
    ("matrix", "out_of_memory"): (0, ""),
    ("data", "out_of_memory"): (2, "runtime error: Unable to allocate"),
}


def _refuse_allocation(stream, first, last):
    # what numpy raises for a block too large to allocate, without asking the
    # OS for it (under overcommit that can kill the process instead)
    raise MemoryError(f"Unable to allocate 1.00 PiB for an array with shape "
                      f"({last - first}, {stream.n}, {stream.dim}) and data type float64")


@pytest.mark.parametrize("command, case", sorted(_EXIT_TABLE))
def test_exit_code_and_stderr_prefix(tmp_path, capsys, monkeypatch, command, case):
    cfg = _write(tmp_path, {
        "config_error": BASE_CONFIG.replace("[loss]", "foo = 1\n[loss]"),
        "divergence": BASE_CONFIG.replace("eta = 0.2", "eta = 1e200"),
    }.get(case, BASE_CONFIG))
    if case == "unreadable_config":
        cfg = tmp_path / "absent.cfg"
    if case == "undecodable_config":
        cfg.write_bytes(b"[network]\nkind = ring\xff\n")
    if case == "out_of_memory":
        monkeypatch.setattr(datagen.SyntheticStream, "block", _refuse_allocation)
    out = tmp_path / "out"
    if case == "unwritable_output":
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "out"  # below a regular file
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(_EXIT_COMMANDS[command](str(cfg), str(out)))
    err = capsys.readouterr().err
    assert (code, err[:len(_EXIT_TABLE[command, case][1])]) == _EXIT_TABLE[command, case]
    assert bool(err) == (code != 0) and "Traceback" not in err


_LABELS = {1: "config error: ", 2: "runtime error: ", 3: "i/o error: "}


def _main_on_outside_input(argv):
    """Run `cli.main(argv)` in-process and check what it shows: an exit code
    0-3; exactly one stderr line, under that code's label, when it is not 0,
    and none when it is; no traceback and no warning anywhere."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in out + err and "Warning" not in out + err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(_LABELS[code]) and err.count("\n") == 1 and err.endswith("\n"), err


_BASE_BYTES = BASE_CONFIG.encode()


@pytest.mark.parametrize("command", ["run", "matrix"])
@settings(max_examples=100, deadline=None)
@given(config=st.binary(max_size=200) | st.integers(0, len(_BASE_BYTES)).map(lambda cut: _BASE_BYTES[:cut]))
@example(config=b"[network]\nkind = ring\xff\n")
def test_any_config_bytes_exit_with_one_labelled_line(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_bytes(config)
        _main_on_outside_input(_EXIT_COMMANDS[command](str(path), str(Path(tmp) / "out")))


@st.composite
def _libsvm_texts(draw):
    """Up to 10 LIBSVM lines, each with zero or more of the indices 1..d for
    a drawn d in 0..3 (0: labels only), valued in [-10, 10] or at +-1e200."""
    d, count = draw(st.integers(0, 3)), draw(st.integers(0, 10))
    values = st.sampled_from(["1e200", "-1e200"]) | st.floats(-10, 10).map(repr)
    lines = draw(st.lists(st.tuples(
        st.sampled_from(["+1", "1", "-1", "0"]),
        st.dictionaries(st.integers(1, max(d, 1)), values, max_size=d),
    ), min_size=count, max_size=count))
    return "".join(
        " ".join([label] + [f"{i}:{v}" for i, v in sorted(tokens.items())]) + "\n"
        for label, tokens in lines
    )


@settings(max_examples=100, deadline=None)
@given(text=_libsvm_texts(), fraction=st.sampled_from(["0", "0.5", "1"]))
@example(text="+1\n-1\n" * 2, fraction="1")  # no features
@example(text="+1 1:1e200\n-1 1:-1e200\n+1 1:1\n-1\n", fraction="0.5")  # squares overflow
def test_any_libsvm_file_exits_with_one_labelled_line(text, fraction):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.libsvm"
        data.write_text(text)
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(
            "[network]\nkind = ring\nn = 2\n[algorithm]\nkind = cog\neta = 0.2\nT = 2\n[loss]\n"
            f"[data]\nfile = {data}\nstochastic_fraction = {fraction}\n"
        )
        _main_on_outside_input(["run", str(cfg), str(Path(tmp) / "out")])


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_unexpected_error_while_running_propagates(tmp_path, monkeypatch, command):
    from dogsim import engine

    def broken(cfg):
        raise ValueError("a bug, not a config error")

    monkeypatch.setattr(engine, "run_experiment", broken)
    argv = [command, str(_write(tmp_path, BASE_CONFIG)), str(tmp_path / "out"), *_SUBCOMMANDS[command]]
    with pytest.raises(ValueError, match="a bug"):
        cli.main(argv)


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_config_example_parses():
    example = _README.split("```ini\n", 1)[1].split("```", 1)[0]
    ef = cli.parse_config(example)
    assert (ef.kind, ef.n, ef.k, ef.p, ef.algorithm, ef.T, ef.beta, ef.dim) == ("ring", 50, 4, 0.5, "dog", 2000, 0.3, 10)
    assert (ef.G, ef.sigma, ef.R, ef.M) == (2.0, 1.0, 1.0, 0.0)
    assert ef.project_radius is None and ef.file is None


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _README, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    stated = re.search(r"# mix\.rho ~ ([0-9.]+)", blocks[0]).group(1)
    assert f"{namespace['mix'].rho:.{len(stated) - 2}f}" == stated
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and np.isfinite([float(v) for v in printed]).all()


def test_readme_defaults_are_the_parsers():
    prose = " ".join(_README.split())
    defaults = dict(re.findall(r"`(\w+) = ([^`]+)`", prose.split("Defaults: ", 1)[1].split(". ", 1)[0]))
    minimal = "[network]\nkind = ring\nn = 6\n[algorithm]\nkind = dog\neta = 0.2\nT = 30\n[loss]\n[data]\nbeta = 0.5\n"
    ef = cli.parse_config(minimal)
    given = {"kind", "n", "algorithm", "eta", "T", "beta"}
    parsed = {field: value for field, value in vars(ef).items() if value is not None and field not in given}
    assert set(defaults) == set(parsed)
    for key, text in defaults.items():
        assert parsed[key] == type(parsed[key])(text), key
    assert ef.project_radius is None and "`project_radius` is unset unless given" in prose
