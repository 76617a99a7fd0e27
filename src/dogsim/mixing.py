"""Doubly stochastic mixing matrices and their spectral properties.

A mixing (confusion) matrix W averages neighbor models each round. Both
closed-form constructions keep W symmetric.

The contraction rate of gossip averaging is rho = ||W - 11^T/n||_2, for a
symmetric W the largest eigenvalue magnitude of W - 11^T/n; the smaller
rho, the faster disagreement between nodes dies out. `MixingMatrix`
requires a positive diagonal, so rho < 1 exactly on a connected graph
(Xiao & Boyd, 2004). It therefore decides `contracts` on construction
from the connectivity of W's nonzeros, and computes rho, a dense
eigensolve, only when something reads it: auto eta, the regret bound,
resolved.cfg and `dogsim matrix` do; a fixed-eta sweep does not. rho is
rounded to 12 decimals. The grid absorbs the eigensolver's rounding: rho
is exactly 1 on a disconnected graph, and the same under every BLAS
kernel and thread count unless two kernels' raw values straddle a grid
point.

Gossip, W @ X for the (n, d) stack of node models, takes no BLAS call, so
its bits do not depend on the BLAS kernel or thread count. The dense W is
kept for the spectral gap and for printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .topology import Graph

UNIFORM = "uniform"
MAX_DEGREE = "max_degree"
SCHEMES = (UNIFORM, MAX_DEGREE)


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Doubly stochastic, symmetric W with a positive diagonal, dense, and
    a BLAS-free product `gossip`.

    `contracts`, whether gossip contracts disagreement, is decided on
    construction: the graph of W's nonzeros is connected, which for such a
    W is rho < 1. rho = round(spectral_gap(entries), 12) is computed on
    first read. A W without a positive diagonal is rejected: [[0, 1],
    [1, 0]] is connected, but its rho is 1."""

    entries: np.ndarray  # (n, n), rows and columns sum to 1
    contracts: bool = field(init=False)

    def __post_init__(self):
        w = self.entries
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"matrix must be square, got shape {w.shape}")
        if not (w.diagonal() > 0).all():
            raise ValueError("mixing matrix must have a positive diagonal")
        w.setflags(write=False)
        object.__setattr__(self, "contracts", _connected(w != 0))

    @cached_property
    def rho(self) -> float:
        return round(spectral_gap(self.entries), 12)

    def gossip(self, x: np.ndarray) -> np.ndarray:
        """W @ x for an (n, d) stack of models, by one of two rules.

        complete graph, W = (w_ii - off) I + off 11^T:
            (w_ii - off) * x + off * x.sum(axis=0), in O(nd);
        any other W:
            a CSR product over W's nonzeros: each row sums its w_ij * x_j
            terms from 0, one multiply and one add at a time, in ascending j.

        Neither calls BLAS. The rule is chosen, and for the second one
        scipy.sparse imported, on the first call.
        """
        return self._gossip(x)

    @cached_property
    def _gossip(self):
        w, n = self.entries, self.n
        if n > 1 and w.all():
            diag, off = w[0, 0], w[0, 1]
            if np.array_equal(w, np.where(np.eye(n, dtype=bool), diag, off)):
                scale = diag - off
                return lambda x: scale * x + off * x.sum(axis=0)
        from scipy.sparse import csr_array

        sparse = csr_array(w)
        return lambda x: sparse @ x

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StochasticityReport:
    max_row_dev: float
    max_col_dev: float
    min_entry: float


def _connected(mask: np.ndarray) -> bool:
    """Whether the graph of a symmetric (n, n) boolean adjacency `mask` is
    connected: a depth-first search from node 0 over one scan for its
    nonzeros, exact, in O(nnz) after the scan."""
    n = mask.shape[0]
    if mask.all():
        return True
    nonzero = np.flatnonzero(mask)  # row-major, so row u is one slice
    cols = (nonzero % n).tolist()
    bounds = np.searchsorted(nonzero, np.arange(0, n * n + 1, n)).tolist()
    seen = [True] + [False] * (n - 1)
    stack = [0]
    while stack:
        u = stack.pop()
        for v in cols[bounds[u]:bounds[u + 1]]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def build_mixing(g: Graph, scheme: str = MAX_DEGREE) -> MixingMatrix:
    """Construct a doubly stochastic W from a graph.

    uniform:    W_ij = 1/n on edges, W_ii = 1 - N_i/n.
    max_degree: W_ij = 1/(N_max + 1) on edges, W_ii = 1 - N_i/(N_max + 1).

    Both are symmetric with a positive diagonal; an edgeless graph yields
    the identity. rho is exactly 1 on a disconnected graph and exactly 0 on
    the complete graph, where both schemes give 11^T/n up to rounding.
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
    return MixingMatrix(w)


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
