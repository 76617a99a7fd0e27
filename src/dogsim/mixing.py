"""Doubly stochastic mixing matrices and their spectral properties.

A mixing (confusion) matrix W averages neighbor models each round. Both
closed-form constructions keep W symmetric; asymmetric matrices can still
be produced through Sinkhorn balancing of an asymmetric seed matrix.

The contraction rate of gossip averaging is rho = ||W - 11^T/n||_2; the
smaller rho, the faster disagreement between nodes dies out. rho = 1
(disconnected graph) is allowed at construction time and flagged by the
engine instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .topology import Graph

UNIFORM = "uniform"
MAX_DEGREE = "max_degree"
SCHEMES = (UNIFORM, MAX_DEGREE)

#: Default tolerance for doubly-stochastic invariant checks.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class MixingMatrix:
    """Dense doubly stochastic matrix with its cached contraction rate."""

    n: int
    entries: np.ndarray  # (n, n), rows and columns sum to 1
    rho: float

    def __post_init__(self):
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class StochasticityReport:
    ok: bool
    max_row_dev: float
    max_col_dev: float
    min_entry: float


def build_mixing(g: Graph, scheme: str = MAX_DEGREE) -> MixingMatrix:
    """Construct a doubly stochastic W from a graph.

    uniform:    W_ij = 1/n on edges, W_ii = 1 - N_i/n.
    max_degree: W_ij = 1/(N_max + 1) on edges, W_ii = 1 - N_i/(N_max + 1).

    Both are symmetric and well defined for any simple graph; an edgeless
    graph yields the identity (rho = 1).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown mixing scheme {scheme!r}")
    deg = g.degrees()
    if scheme == UNIFORM:
        off = 1.0 / g.n
    else:
        off = 1.0 / (int(deg.max(initial=0)) + 1)
    w = np.zeros((g.n, g.n))
    for i, j in g.edges:
        w[i, j] = off
        w[j, i] = off
    np.fill_diagonal(w, 1.0 - deg * off)
    return MixingMatrix(g.n, w, spectral_gap(w))


def spectral_gap(w: np.ndarray) -> float:
    """rho = ||W - 11^T/n||_2, the largest singular value, computed directly.

    Exact to rounding for symmetric and asymmetric (Sinkhorn) W alike.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    return float(np.linalg.norm(w - 1.0 / n, 2))


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm ||A||_2 (largest singular value)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("operator_norm expects a matrix")
    return float(np.linalg.norm(a, 2))


def verify_doubly_stochastic(w: np.ndarray, tol: float = DEFAULT_TOL) -> StochasticityReport:
    """Check non-negativity and unit row/column sums within tol."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    row_dev = float(np.abs(w.sum(axis=1) - 1.0).max())
    col_dev = float(np.abs(w.sum(axis=0) - 1.0).max())
    min_entry = float(w.min())
    ok = min_entry >= -tol and row_dev <= tol and col_dev <= tol
    return StochasticityReport(ok, row_dev, col_dev, min_entry)


def sinkhorn_balance(
    seed_matrix: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> MixingMatrix:
    """Balance a non-negative matrix into a doubly stochastic one.

    Alternately normalizes rows and columns until the largest row/column
    sum deviation from 1 is at most tol. The zero pattern of the input is
    preserved, so a seed with positive diagonal and symmetric support
    yields a valid gossip matrix for that support graph.

    Raises:
        NonConvergence: max_iters exhausted, which signals a support
            pattern that cannot be balanced.
    """
    w = np.array(seed_matrix, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    if (w < 0).any():
        raise ValueError("seed matrix must be non-negative")
    if (w.sum(axis=1) == 0).any() or (w.sum(axis=0) == 0).any():
        raise ValueError("every row and column needs a positive entry")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dev = np.inf
    for _ in range(max_iters):
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
        dev = max(
            float(np.abs(w.sum(axis=1) - 1.0).max()),
            float(np.abs(w.sum(axis=0) - 1.0).max()),
        )
        if dev <= tol:
            return MixingMatrix(n, w, spectral_gap(w))
    raise NonConvergence("sinkhorn balancing did not reach tolerance", dev)


def matrix_to_csv(w: np.ndarray) -> str:
    """CSV rendering, one row per line, 17 significant digits, LF endings."""
    w = np.asarray(w, dtype=float)
    return "\n".join(",".join("%.17g" % x for x in row) for row in w) + "\n"
