"""Doubly stochastic mixing matrices and their spectral properties.

A mixing (confusion) matrix W averages neighbor models each round. Both
closed-form constructions keep W symmetric: `off` on every edge and
1 - deg_i * off > 0 on the diagonal. `build_mixing` builds W from the
graph's edges, never as a dense n x n array, and the edge count picks the
gossip rule: the complete graph (n >= 2 nodes, n(n-1)/2 edges) keeps only
n, its diagonal and `off` and gossips by a closed form; any other graph
keeps W's nonzeros in CSR row order and gossips by a CSR product. Neither
rule calls BLAS, so gossip's bits do not depend on the BLAS kernel or
thread count.

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

    def gossip(self, x: np.ndarray) -> np.ndarray:
        """W @ x for an (n, d) stack of models, by one of two rules.

        complete graph, W = (w_ii - off) I + off 11^T:
            (w_ii - off) * x + off * x.sum(axis=0), in O(nd);
        any other W:
            a CSR product over W's nonzeros: each row sums its w_ij * x_j
            terms from 0, one multiply and one add at a time, in ascending j.

        Neither calls BLAS. The second rule imports scipy.sparse and builds
        its sparse array on the first call.
        """
        return self._gossip(x)

    @cached_property
    def _gossip(self):
        if self.csr is None:
            scale, off = self.diagonal[0] - self.off, self.off
            return lambda x: scale * x + off * x.sum(axis=0)
        from scipy.sparse import csr_array

        sparse = csr_array(self.csr, shape=(self.n, self.n))
        return lambda x: sparse @ x


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
    n, edges = g.n, g.edges
    complete = n > 1 and len(edges) == n * (n - 1) // 2
    deg = np.full(n, n - 1) if complete else g.degrees()
    if scheme == UNIFORM:
        off = 1.0 / n
    else:
        off = 1.0 / (int(deg.max(initial=0)) + 1)
    diagonal = 1.0 - deg * off
    if complete:
        return MixingMatrix(n, off, diagonal, None, True)
    # The row-major positions r * n + c of W's nonzeros, sorted, are its CSR
    # order: within each row the lower neighbors, the diagonal, the upper.
    i, j = edges.T
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
