"""Doubly stochastic mixing matrices and their spectral properties.

A mixing (confusion) matrix W averages neighbor models each round. Both
closed-form constructions keep W symmetric: `off` on every edge and
1 - deg_i * off > 0 on the diagonal. `build_mixing` builds W from the
graph's edges, never as a dense n x n array, and the edge count picks the
gossip rule: the complete graph (n >= 2 nodes, n(n-1)/2 edges) keeps only
n, its diagonal and `off` and gossips by a closed form; any other graph
keeps W's nonzeros in CSR row order and gossips by a CSR product. Neither
rule calls BLAS, so gossip's bits do not depend on the BLAS kernel or
thread count. Both write into a buffer the caller may reuse every round;
the CSR rule calls scipy's compiled `csr_matvecs` on W's stored arrays
directly, so a round pays for the product, not for `csr_array @ x`'s
Python-level dispatch around it.

The contraction rate of gossip averaging is rho = ||W - 11^T/n||_2, for a
symmetric W the largest eigenvalue magnitude of W - 11^T/n; the smaller
rho, the faster disagreement between nodes dies out. On a positive
diagonal rho < 1 exactly on a connected graph (Xiao & Boyd, 2004), so
`contracts` is decided when W is built, by a depth-first search over its
nonzeros. rho, a dense eigensolve, and the dense W it reads, `entries`,
are computed only when something reads them: auto eta, the regret bound,
resolved.cfg and `dogsim matrix` do; a fixed-eta sweep does not. rho is
rounded to 12 decimals. The grid absorbs the eigensolver's rounding: rho
is exactly 1 on a disconnected graph, and the same under every BLAS
kernel and thread count unless two kernels' raw values straddle a grid
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .topology import Graph

UNIFORM = "uniform"
MAX_DEGREE = "max_degree"
SCHEMES = (UNIFORM, MAX_DEGREE)


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Doubly stochastic, symmetric W with a positive diagonal, held by its
    nonzeros, and a BLAS-free product `gossip`. Built by `build_mixing`.

    `csr` is (data, indices, indptr) of W's nonzeros, or None on the
    complete graph, where W = (w_ii - off) I + off 11^T. `contracts` says
    whether gossip contracts disagreement: the graph of W's nonzeros is
    connected, which for such a W is rho < 1. `entries`, the dense W, and
    rho = round(spectral_gap(entries), 12) are computed on first read."""

    n: int
    off: float  # W_ij on every edge
    diagonal: np.ndarray  # (n,), W_ii = 1 - deg_i * off
    csr: tuple | None  # (data, indices, indptr), or None on the complete graph
    contracts: bool

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense (n, n) W, read-only, made on first read."""
        return _dense(self)

    @cached_property
    def rho(self) -> float:
        return round(spectral_gap(self.entries), 12)

    def gossip(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """W @ x for an (n, d) stack of models, by one of two rules, written
        into `out`, a float (n, d) array, if given, else into a new one.

        complete graph, W = (w_ii - off) I + off 11^T:
            (w_ii - off) * x + off * x.sum(axis=0), in O(nd);
        any other W:
            a CSR product over W's nonzeros: each row sums its w_ij * x_j
            terms from 0, one multiply and one add at a time, in ascending j.

        Neither calls BLAS. The CSR product is scipy's compiled
        `csr_matvecs`, called on W's stored arrays: the routine that
        `csr_array @ x` runs after zeroing its result, without the
        Python-level dispatch around it. The first CSR gossip imports it.
        """
        return self._gossip(x, np.empty(x.shape) if out is None else out)

    @cached_property
    def _gossip(self):
        if self.csr is None:
            scale, off = self.diagonal[0] - self.off, self.off

            def closed_form(x, out):
                np.multiply(scale, x, out=out)
                out += off * x.sum(axis=0)
                return out

            return closed_form
        from scipy.sparse._sparsetools import csr_matvecs

        n = self.n
        data, indices, indptr = self.csr

        def product(x, out):
            out.fill(0.0)
            csr_matvecs(n, n, x.shape[1], indptr, indices, data, x, out)
            return out

        return product


@dataclass(frozen=True)
class StochasticityReport:
    max_row_dev: float
    max_col_dev: float
    min_entry: float


def _connected(indices: np.ndarray, indptr: np.ndarray) -> bool:
    """Whether the graph of a symmetric CSR pattern is connected: a
    depth-first search from node 0 over the rows, exact, in O(nnz)."""
    cols, bounds = indices.tolist(), indptr.tolist()
    seen = [True] + [False] * (len(bounds) - 2)
    stack = [0]
    while stack:
        u = stack.pop()
        for v in cols[bounds[u]:bounds[u + 1]]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def _dense(m: MixingMatrix) -> np.ndarray:
    """The (n, n) array of W, read-only."""
    if m.csr is None:
        w = np.full((m.n, m.n), m.off)
        np.fill_diagonal(w, m.diagonal)
    else:
        data, indices, indptr = m.csr
        w = np.zeros((m.n, m.n))
        w[np.arange(m.n).repeat(indptr[1:] - indptr[:-1]), indices] = data
    w.setflags(write=False)
    return w


def build_mixing(g: Graph, scheme: str = MAX_DEGREE) -> MixingMatrix:
    """Construct a doubly stochastic W from a graph's edges, in
    O(|E| log |E|) time and O(|E|) memory, never as a dense array.

    uniform:    W_ij = 1/n on edges, W_ii = 1 - N_i/n.
    max_degree: W_ij = 1/(N_max + 1) on edges, W_ii = 1 - N_i/(N_max + 1).

    Both are symmetric with a positive diagonal; an edgeless graph yields
    the identity. rho is exactly 1 on a disconnected graph and exactly 0 on
    the complete graph, where both schemes give 11^T/n up to rounding.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown mixing scheme {scheme!r}")
    n = g.n
    complete = n > 1 and g.edge_count == n * (n - 1) // 2
    deg = g.degrees()
    if scheme == UNIFORM:
        off = 1.0 / n
    else:
        off = 1.0 / (int(deg.max(initial=0)) + 1)
    diagonal = 1.0 - deg * off
    if complete:
        return MixingMatrix(n, off, diagonal, None, True)
    # The row-major positions r * n + c of W's nonzeros, sorted, are its CSR
    # order: within each row the lower neighbors, the diagonal, the upper.
    i, j = g.edges.T
    diag = np.arange(0, n * n, n + 1)
    flat = np.concatenate((i * n + j, j * n + i, diag))
    flat.sort()
    data = np.full(flat.shape, off)
    data[flat.searchsorted(diag)] = diagonal
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg + 1, out=indptr[1:])
    indices = flat % n
    return MixingMatrix(n, off, diagonal, (data, indices, indptr), _connected(indices, indptr))


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
