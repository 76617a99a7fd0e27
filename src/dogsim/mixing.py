"""Doubly stochastic mixing matrices and their spectral properties.

A mixing (confusion) matrix W averages neighbor models each round. Both
closed-form constructions keep W symmetric.

The contraction rate of gossip averaging is rho = ||W - 11^T/n||_2, for a
symmetric W the largest eigenvalue magnitude of W - 11^T/n; the smaller
rho, the faster disagreement between nodes dies out. Every W built here
has a positive diagonal, so rho < 1 exactly on a connected graph (Xiao &
Boyd, 2004); on a disconnected one `build_mixing` stores rho = 1 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Graph

UNIFORM = "uniform"
MAX_DEGREE = "max_degree"
SCHEMES = (UNIFORM, MAX_DEGREE)


@dataclass(frozen=True)
class MixingMatrix:
    """Dense doubly stochastic matrix with its cached contraction rate."""

    entries: np.ndarray  # (n, n), rows and columns sum to 1
    rho: float

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def contracts(self) -> bool:
        """Whether gossip contracts disagreement: the graph is connected."""
        return self.rho < 1.0


@dataclass(frozen=True)
class StochasticityReport:
    max_row_dev: float
    max_col_dev: float
    min_entry: float


def build_mixing(g: Graph, scheme: str = MAX_DEGREE) -> MixingMatrix:
    """Construct a doubly stochastic W from a graph.

    uniform:    W_ij = 1/n on edges, W_ii = 1 - N_i/n.
    max_degree: W_ij = 1/(N_max + 1) on edges, W_ii = 1 - N_i/(N_max + 1).

    Both are symmetric with a positive diagonal; an edgeless graph yields
    the identity. A rho within 1e-12 of 1, where rounding leaves that of a
    disconnected graph, is stored as exactly 1.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown mixing scheme {scheme!r}")
    i, j = g.edges.T
    deg = g.degrees()
    if scheme == UNIFORM:
        off = 1.0 / g.n
    else:
        off = 1.0 / (int(deg.max(initial=0)) + 1)
    w = np.zeros((g.n, g.n))
    w[i, j] = off
    w[j, i] = off
    np.fill_diagonal(w, 1.0 - deg * off)
    rho = spectral_gap(w)
    return MixingMatrix(w, 1.0 if rho > 1.0 - 1e-12 else rho)


def spectral_gap(w: np.ndarray) -> float:
    """rho = ||W - 11^T/n||_2 = max |lambda(W - 11^T/n)| for a symmetric W,
    from one symmetric eigensolve, exact to rounding.

    The eigensolver reads one triangle only, so a W that is not exactly
    symmetric is rejected rather than given a wrong rho.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    if not np.array_equal(w, w.T):
        raise ValueError("matrix must be symmetric")
    return float(np.abs(np.linalg.eigvalsh(w - 1.0 / n)).max())


def verify_doubly_stochastic(w: np.ndarray) -> StochasticityReport:
    """How far W is from doubly stochastic: the largest deviations of its
    row and column sums from 1, and its smallest entry."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    row_dev = float(np.abs(w.sum(axis=1) - 1.0).max())
    col_dev = float(np.abs(w.sum(axis=0) - 1.0).max())
    return StochasticityReport(row_dev, col_dev, float(w.min()))


def matrix_to_csv(w: np.ndarray) -> str:
    """CSV rendering, one row per line, 17 significant digits, LF endings."""
    w = np.asarray(w, dtype=float)
    return "\n".join(",".join("%.17g" % x for x in row) for row in w) + "\n"
