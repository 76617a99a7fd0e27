"""Output checks and the references the benchmark computes itself.

References are solved here from the run's own data, never pinned as
digests, so an intended change such as an exact rho reads as a smaller
error, not as a failure.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

CSV_HEADER = "t,avg_loss,consensus_error,cum_loss"

#: Power iteration under-reads rho by 7.9e-8 on the n=500 ring; an error
#: this large would change the digits auto eta and the bound are built on.
RHO_ABS_TOL = 1e-6
W_SUM_TOL = 1e-9
#: The program's comparator stops at ||grad|| <= 1e-8 on an objective at
#: least 1-strongly convex here, so its minimum is off by far less than this.
REGRET_REL_TOL = 1e-8


def digest(outdir: Path) -> str:
    """sha256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(outdir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_metrics_csv(path: Path, rounds: int) -> list[str]:
    """Fixed header, one row per round numbered 1..T, finite values, LF only."""
    data = path.read_bytes()
    if b"\r" in data:
        return [f"{path}: CR in line endings"]
    lines = data.decode().split("\n")
    if lines[-1] != "":
        return [f"{path}: no final newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path}: header {lines[:1]}"]
    rows = lines[1:]
    if len(rows) != rounds:
        return [f"{path}: {len(rows)} rows, expected {rounds}"]
    for t, row in enumerate(rows, start=1):
        fields = row.split(",")
        if len(fields) != 4 or fields[0] != str(t):
            return [f"{path}: malformed row {t}: {row!r}"]
        if not all(math.isfinite(float(v)) for v in fields[1:]):
            return [f"{path}: non-finite value in row {t}"]
    return []


def last_cum_loss(path: Path) -> float:
    return float(path.read_text().rstrip("\n").rsplit("\n", 1)[1].split(",")[3])


def summary_value(path: Path, key: str) -> float:
    for line in path.read_text().splitlines():
        name, _, value = line.partition("=")
        if name == key:
            return float(value)
    raise KeyError(f"{key} missing from {path}")


def check_mixing(entries: np.ndarray, rho: float) -> tuple[list[str], float]:
    """Row/column sums and sign of W; rho against ||W - 11^T/n||_2."""
    n = entries.shape[0]
    errors = []
    row_dev = float(np.abs(entries.sum(axis=1) - 1.0).max())
    col_dev = float(np.abs(entries.sum(axis=0) - 1.0).max())
    if max(row_dev, col_dev) > W_SUM_TOL:
        errors.append(f"W sums off by {max(row_dev, col_dev):.3g}")
    if float(entries.min()) < 0.0:
        errors.append("W has a negative entry")
    reference = float(np.linalg.norm(entries - 1.0 / n, 2)) if n > 1 else 0.0
    rho_err = abs(rho - reference)
    if rho_err > RHO_ABS_TOL:
        errors.append(f"rho {rho!r} vs reference {reference!r}")
    return errors, rho_err


def _pooled(features: np.ndarray, labels: np.ndarray, gamma_total: float, x: np.ndarray):
    """Value, gradient and Hessian of sum_e softplus(-y_e a_e.x) + gamma_total/2 ||x||^2."""
    z = -labels * (features @ x)
    value = float((np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))).sum()
                  + 0.5 * gamma_total * (x @ x))
    sig = 0.5 * (1.0 + np.tanh(0.5 * z))  # sigmoid(z), stable for any z
    grad = features.T @ (-labels * sig) + gamma_total * x
    hess = (features * (sig * (1.0 - sig))[:, None]).T @ features + gamma_total * np.eye(x.size)
    return value, grad, hess


def newton_comparator(features: np.ndarray, labels: np.ndarray, gamma: float):
    """Minimizer and minimum of the pooled regularized logistic loss by
    damped Newton (backtracking on the value). Returns (x, value)."""
    gamma_total = gamma * labels.size
    x = np.zeros(features.shape[1])
    value, grad, hess = _pooled(features, labels, gamma_total, x)
    for _ in range(100):
        if float(np.linalg.norm(grad)) <= 1e-10 * max(1.0, labels.size):
            break
        step = np.linalg.solve(hess, grad)
        t = 1.0
        while True:
            cand = x - t * step
            cand_value, cand_grad, cand_hess = _pooled(features, labels, gamma_total, cand)
            if cand_value <= value - 1e-4 * t * float(grad @ step) or t < 1e-12:
                break
            t *= 0.5
        x, value, grad, hess = cand, cand_value, cand_grad, cand_hess
    return x, value


def comparator_residual(features, labels, gamma, x) -> float:
    """||grad|| of the pooled objective at the program's comparator."""
    return float(np.linalg.norm(_pooled(features, labels, gamma * labels.size, x)[1]))


def regret_rel_err(summary: Path, metrics_csv: Path, features, labels, gamma) -> float:
    """static_regret printed by the CLI against cum_loss minus our own minimum."""
    _, best = newton_comparator(features, labels, gamma)
    reference = last_cum_loss(metrics_csv) - best
    return abs(summary_value(summary, "static_regret") - reference) / abs(reference)
