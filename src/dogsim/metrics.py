"""Per-round measures, empirical bound constants, and the a-priori regret bound.

`loss_columns` derives every loss column from a run's (T, n) losses. The
headline performance number is the average loss (1/nT) sum_{i,t}
f_{i,t}(x_{i,t}); regret is reported against the best fixed model in
hindsight, found by damped Newton on the pooled empirical loss over the
run's recorded samples, passed as (T*n, d) features and (T*n,) labels.
`regret_bound` is the paper's a-priori bound on dynamic regret against
comparator sequences of path length at most M, on nine keyword constants:
n, T and rho from the run's config, eta from `cfg.eta`, G, sigma and L
measured on the run, R and M from the config's [bounds]. No dynamic
comparator is computed: the summary sets the bound beside the static
regret, whose fixed comparator x* has path length 0. It bounds that
regret only when R >= ||x*||^2, so the summary evaluates it at
R = max(R, ||x*||^2): on the desk config at beta = 0.3, ||x*||^2 is 8.6
against R = 1.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence
from .losses import softplus_sigmoid
from .reduce import node_sums

CSV_HEADER = "t,avg_loss,consensus_error,cum_loss"

#: Damped Newton steps the comparator may take before it gives up.
_MAX_NEWTON_STEPS = 100
#: Gradient norm at which the comparator's Newton iteration stops.
_GRAD_TOL = 1e-8


def fmt17(x: float) -> str:
    """Decimal rendering at 17 significant digits (float64 round-trips)."""
    return "%.17g" % x


def loss_columns(losses: np.ndarray) -> tuple:
    """(T,) avg_loss and cum_loss of (T, n) losses: row means, running total of row sums."""
    return losses.mean(axis=1), np.cumsum(losses.sum(axis=1))


def average_loss(avg_loss) -> float:
    """(1/T) sum_t avg_loss(t), i.e. (1/nT) of the total instantaneous loss."""
    if len(avg_loss) == 0:
        raise ValueError("average loss needs at least one recorded round")
    return float(np.mean(avg_loss))


def consensus_error(x_rows: np.ndarray) -> float | np.ndarray:
    """(1/n) sum_i ||x_i - mean||^2 of (n, d) rows, a float; zero iff all
    rows agree. A (k, n, d) stack gives the (k,) errors of its slices, bit
    for bit those of one call per slice.

    The mean is ``reduce.node_sums`` over n, numpy's ``mean(axis=-2)`` bit
    for bit: for d >= 2 numpy adds the nodes in index order from +0.0,
    and one einsum call gives that order on a stack of at least
    ``reduce._EINSUM_ROWS`` rows; at d = 1 numpy sums pairwise, and that
    sum, like the one of a single node or a short stack, stays numpy's own."""
    x_rows = np.asarray(x_rows, dtype=float)
    n = x_rows.shape[-2]
    centered = x_rows - (node_sums(x_rows) / n)[..., None, :]
    centered *= centered
    errors = centered.sum(axis=(-2, -1)) / n
    return errors if errors.ndim else float(errors)


def _pooled_arrays(features, labels) -> tuple:
    """Validate a pooled (N, d) feature array and its (N,) labels."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or labels.shape != features.shape[:1]:
        raise ValueError(
            f"features {features.shape} and labels {labels.shape} are not (N, d) and (N,)"
        )
    if labels.size == 0:
        raise ValueError("pooled loss needs at least one sample")
    return features, labels


def _pooled(features, labels, gamma_total: float, x: np.ndarray) -> tuple:
    """Value, gradient and sigmoid terms of the pooled objective at x."""
    values, sig = softplus_sigmoid(-labels * (features @ x))
    value = float(values.sum()) + 0.5 * gamma_total * float(x @ x)
    grad = features.T @ (-labels * sig) + gamma_total * x
    return value, grad, sig


def _separable(features: np.ndarray, labels: np.ndarray) -> bool:
    """Whether some w has y_e a_e.w >= 0 for every e and sum_e y_e a_e.w = 1.

    Such a w lowers the unregularized loss without bound, so no finite
    minimizer exists; otherwise one does (Albert & Anderson, 1984).
    """
    # Imported here: only gamma = 0 needs it, and it slows every CLI start.
    from scipy.optimize import linprog

    signed = labels[:, None] * features
    res = linprog(
        np.zeros(features.shape[1]),
        A_ub=-signed, b_ub=np.zeros(labels.size),
        A_eq=signed.sum(axis=0)[None, :], b_eq=[1.0],
        bounds=(None, None), method="highs",
    )
    return res.status == 0


def offline_comparator(features, labels, gamma: float) -> np.ndarray:
    """Best fixed model in hindsight over N pooled samples.

    Minimizes F(x) = sum_e softplus(-y_e a_e.x) + (gamma_total / 2) ||x||^2,
    gamma_total = gamma * N, for features (N, d) and labels (N,), by damped
    Newton from the origin until ||grad F|| <= `_GRAD_TOL`. Each step is the
    minimum-norm least-squares solution of the Newton system, so directions
    orthogonal to every feature vector stay at zero (up to rounding; exactly
    for a feature that is zero in every sample). The backtracking test
    allows 16 ulps of |F| as rounding slack: near the optimum a full step
    still shrinks the gradient by orders of magnitude while F, which is
    large, moves by nothing or a few ulps. Unique for gamma > 0; for
    gamma = 0 separable data have no finite minimizer and raise at once.

    Raises:
        NonConvergence: separable data with gamma = 0, a stalled line search
            or `_MAX_NEWTON_STEPS` steps taken; carries the gradient norm.
    """
    features, labels = _pooled_arrays(features, labels)
    gamma_total = gamma * labels.size
    x = np.zeros(features.shape[1])
    used = features.any(axis=0)  # coordinates no sample touches stay exactly 0
    value, grad, sig = _pooled(features, labels, gamma_total, x)
    if gamma_total == 0.0 and _separable(features, labels):
        raise NonConvergence("separable data: no finite comparator", float(np.linalg.norm(grad)))
    slack = 16.0 * np.finfo(float).eps
    diagonal, block = np.diag_indices(x.size), np.ix_(used, used)
    for _ in range(_MAX_NEWTON_STEPS):
        norm = float(np.linalg.norm(grad))
        if norm <= _GRAD_TOL:
            return x
        hess = (features * (sig * (1.0 - sig))[:, None]).T @ features
        hess[diagonal] += gamma_total
        step = np.zeros_like(x)
        step[used] = np.linalg.lstsq(hess[block], grad[used], rcond=None)[0]
        decrease = 1e-4 * float(grad @ step)
        t = 1.0
        while True:
            cand = x - t * step
            cand_value, cand_grad, cand_sig = _pooled(features, labels, gamma_total, cand)
            if cand_value <= value - t * decrease + slack * abs(value):
                break
            t *= 0.5
            if t < 1e-12:
                raise NonConvergence("comparator line search stalled", norm)
        x, value, grad, sig = cand, cand_value, cand_grad, cand_sig
    raise NonConvergence("comparator Newton did not converge", float(np.linalg.norm(grad)))


def static_regret(cum_loss, features, labels, gamma: float, comparator: np.ndarray) -> float:
    """Total loss of the run, the last entry of its cum_loss column, minus
    the pooled loss of the fixed comparator."""
    if len(cum_loss) == 0:
        raise ValueError("regret needs at least one recorded round")
    features, labels = _pooled_arrays(features, labels)
    comparator = np.asarray(comparator, dtype=float)
    if comparator.shape != (features.shape[1],):
        raise ValueError(f"comparator dim {comparator.shape} != feature dim {features.shape[1]}")
    total_star = _pooled(features, labels, gamma * labels.size, comparator)[0]
    return float(cum_loss[-1]) - total_star


def estimate_gradient_bounds(grad_norms: np.ndarray) -> tuple:
    """Empirical stand-ins for the gradient magnitude and noise constants.

    g_hat is the largest observed per-sample gradient norm (an
    over-estimate of the mean-gradient bound in general). sigma_hat is the
    sample standard deviation of the norms around their per-node means,
    pooled with denominator (count - 1); zero when only one norm exists.
    """
    norms = np.asarray(grad_norms, dtype=float)
    if norms.size == 0:
        raise ValueError("no gradients recorded")
    if norms.ndim != 2:
        raise ValueError("expected a (rounds, nodes) array of gradient norms")
    g_hat = float(norms.max())
    count = norms.size
    if count == 1:
        return g_hat, 0.0
    dev = norms - norms.mean(axis=0)
    sigma_hat = float(np.sqrt((dev * dev).sum() / (count - 1)))
    return g_hat, sigma_hat


def regret_bound(*, n: int, T: int, eta: float, G: float, sigma: float, L: float,
                 rho: float, R: float, M: float) -> float:
    """Closed-form a-priori bound on the dynamic regret of the gossip method
    (n nodes, T rounds, step eta, gradient bound G, noise sigma, smoothness
    L, mixing rate rho < 1) against comparator sequences of path length at
    most M (R bounds the comparators' squared norm); it also bounds static
    regret against a fixed x* with ||x*||^2 <= R, for any M >= 0.

    With c0 = 2L(G^2+s^2)/(1-rho)^2, c1 = 4L^2(G^2+s^2)/(1-rho)^2 and
    c2 = 2 + 1/(1-rho):

        eta*T*s^2 + c0*n*T*eta^2 + c1*n*T*eta^3
        + (n/(2 eta)) * (4 sqrt(R) M + R) + c2*n*eta*T*G^2

    Raises ValueError where it has no value: rho >= 1 or eta <= 0.
    """
    if rho >= 1.0:
        raise ValueError(f"bound requires rho < 1, got {rho}")
    if eta <= 0.0:
        raise ValueError(f"bound requires eta > 0, got {eta}")
    gap = 1.0 - rho
    noise = G**2 + sigma**2
    c0 = 2.0 * L * noise / gap**2
    c1 = 4.0 * L**2 * noise / gap**2
    c2 = 2.0 + 1.0 / gap
    return (
        eta * T * sigma**2
        + c0 * n * T * eta**2
        + c1 * n * T * eta**3
        + (n / (2.0 * eta)) * (4.0 * np.sqrt(R) * M + R)
        + c2 * n * eta * T * G**2
    )


def metrics_to_csv(avg_loss, consensus_error, cum_loss) -> str:
    """Render a run's (T,) columns in the fixed CSV schema, one row per round
    t = 1..T (17 significant digits, LF)."""
    rows = enumerate(zip(avg_loss, consensus_error, cum_loss, strict=True), start=1)
    return CSV_HEADER + "\n" + "".join(
        f"{t},{fmt17(avg)},{fmt17(ce)},{fmt17(cum)}\n" for t, (avg, ce, cum) in rows)
