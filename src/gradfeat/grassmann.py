"""Direct minimization of the Poincare loss over subspaces of coefficient space.

The loss only depends on the span of the coefficient columns, so descent runs
on the quotient of the R-orthonormal frames: gradients are preconditioned by
the Gram metric, projected onto the horizontal space, combined into a
Polak-Ribiere-style direction (reset whenever it stops being a descent
direction), and steps are retracted by re-orthonormalization under Armijo
backtracking.  Two standard initializations are provided: the active-subspace
start (top eigenvectors of the expected gradient outer product, embedded on
the degree-one basis functions) and the greedy surrogate start.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np

from .basis import _check_jacobian, assemble_gram
from .errors import IllConditionedError, InvalidInputError, RankDeficiencyError
from .geometry import _complement_factors, _complement_residual_sq
from .surrogate import FeatureMap, greedy_features, orthonormalize, poincare_loss


@dataclass
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-9          # relative to the initial gradient norm
    step_init: float = 1.0
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    trace_path: str | None = None

    def __post_init__(self):
        if not 0.0 < self.shrink < 1.0:
            raise InvalidInputError("line-search shrink factor must be in (0, 1)")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise InvalidInputError("sufficient-decrease constant must be in (0, 1)")


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def active_subspace_init(samples, basis, m, gram=None):
    """Coefficients of the best linear features (the active-subspace start).

    Takes the top-m eigenvectors of the mean gradient outer product and embeds
    each direction on the degree-one basis functions, scaling by each family's
    linear-term slope so the embedded map acts like the linear map (for the
    log-domain family the embedding is linear in its transformed coordinate).
    The result is orthonormalized in the Gram metric.
    """
    d = samples.dim
    if m > d:
        raise InvalidInputError(f"m={m} exceeds input dimension d={d}")
    unit_rows = _unit_index_rows(basis)
    C = samples.gradients.T @ samples.gradients / samples.n
    evals, evecs = np.linalg.eigh(C)
    directions = evecs[:, ::-1][:, :m]
    G = np.zeros((basis.size, m))
    slopes = np.array([fam.linear_slope() for fam in basis.families])
    for col in range(m):
        G[unit_rows, col] = directions[:, col] / slopes
    if gram is None:
        gram = assemble_gram(basis, samples)
    return orthonormalize(G, gram)


def _unit_index_rows(basis):
    lookup = {alpha: i for i, alpha in enumerate(basis.index_set.indices)}
    rows = []
    for nu in range(basis.dim):
        unit = tuple(1 if i == nu else 0 for i in range(basis.dim))
        if unit not in lookup:
            raise InvalidInputError(f"basis lacks the unit multi-index for dim {nu}")
        rows.append(lookup[unit])
    return np.array(rows)


# ---------------------------------------------------------------------------
# Loss and gradient on precomputed Jacobians
# ---------------------------------------------------------------------------

class _LossContext:
    """Loss/gradient evaluations against Jacobians precomputed once.

    ``jac`` is the basis Jacobian at the sample points, (n, d, K); None
    evaluates it.  The feature Jacobians at the last point evaluated are kept
    with their projection factors (the per-sample sums for one feature, the
    rank-revealing SVD for several), so the gradient at an accepted
    line-search point reuses what its loss computed.  A point is recognized
    by identity, so G must not be modified in place between calls.
    """

    def __init__(self, samples, basis, jac=None):
        jac = basis.jacobian_batch(samples.points) if jac is None else \
            _check_jacobian(basis, samples.n, jac)
        self.flat = jac.reshape(-1, basis.size)
        self.b = samples.gradients
        self.b_sq = np.sum(self.b ** 2, axis=1)
        self.n = samples.n
        self.d = samples.dim
        self._point = None          # (G, feature Jacobians, factors)

    def _at(self, G):
        if self._point is None or self._point[0] is not G:
            M = (self.flat @ G).reshape(self.n, self.d, -1)
            self._point = (G, M, _complement_factors(self.b, M))
        return self._point[1:]

    def loss(self, G):
        M, factors = self._at(G)
        return float(np.mean(_complement_residual_sq(self.b, M, self.b_sq,
                                                     factors)))

    def euclidean_grad(self, G):
        m = G.shape[1]
        M, factors = self._at(G)
        if m == 1:
            col = M[:, :, 0]
            nn, dot, safe = factors
            self._check_collapse(int(np.sum(nn == 0.0)))
            y = np.where(nn > 0.0, dot / safe, 0.0)
            resid = self.b - col * y[:, None]
            weighted = (resid * y[:, None]).reshape(-1)
            grad = (self.flat.T @ weighted)[:, None]
        else:
            U, S, Vt, mask = factors
            self._check_collapse(int(np.sum(mask.sum(axis=1) < m)))
            ub = np.einsum("ndr,nd->nr", U, self.b) * mask
            resid = self.b - np.einsum("ndr,nr->nd", U, ub)
            safe_S = np.where(mask, S, 1.0)
            y = np.einsum("nrm,nr->nm", Vt, ub / safe_S * mask)
            weighted = (resid[:, :, None] * y[:, None, :]).reshape(-1, m)
            grad = self.flat.T @ weighted
        return -2.0 / self.n * grad

    def _check_collapse(self, collapsed):
        if collapsed > self.n // 2:
            raise IllConditionedError(
                f"feature Jacobian rank-collapsed at {collapsed}/{self.n} samples")


def poincare_loss_gradient(samples, basis, G):
    """Euclidean gradient of the Monte-Carlo Poincare loss w.r.t. the coefficients.

    Matches central finite differences of the loss.  Raises if the feature
    Jacobian loses rank at more than half of the samples.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim == 1:
        G = G[:, None]
    return _LossContext(samples, basis).euclidean_grad(G)


# ---------------------------------------------------------------------------
# Riemannian descent
# ---------------------------------------------------------------------------

_MIN_STEP = 1e-14
_STALL_DROP = 1e-15
_STALL_LIMIT = 3


def minimize_poincare_loss(samples, basis, G0, config=None, gram=None, jac=None):
    """Descend the Poincare loss from R-orthonormal coefficients G0.

    ``gram`` and ``jac`` (the basis Jacobian at the sample points, a
    C-contiguous (n, d, K) array) are computed when None.  Returns
    ``(feature_map, trace)`` where trace rows are
    ``(iteration, loss, gradient_norm, step)`` and the loss column is
    non-increasing by construction (only sufficient-decrease steps are
    accepted).  Stops on the relative gradient tolerance, the iteration cap,
    line-search failure, or three consecutive negligible decreases.  A
    non-finite gradient raises ``IllConditionedError``.
    """
    cfg = config or OptimizerConfig()
    if gram is None:
        gram = assemble_gram(basis, samples)
    G = orthonormalize(np.asarray(G0, dtype=float), gram)
    if G.ndim == 1:
        G = G[:, None]
    ctx = _LossContext(samples, basis, jac)
    R = gram.matrix

    def riemannian_grad(G):
        E = ctx.euclidean_grad(G)
        xi = gram.solve(E) - G @ (G.T @ E)
        xi_R = R @ xi
        norm_sq = np.sum(xi * xi_R)
        if not np.isfinite(norm_sq):
            raise IllConditionedError("non-finite Riemannian gradient")
        return xi, xi_R, float(np.sqrt(max(norm_sq, 0.0)))

    loss = ctx.loss(G)
    if not np.isfinite(loss):
        raise IllConditionedError("non-finite loss at the starting point")
    xi, xi_R, gnorm = riemannian_grad(G)
    gnorm0 = gnorm
    trace = [(0, loss, gnorm, 0.0)]
    direction = -xi
    prev_xi, prev_xi_R = xi, xi_R
    stalls = 0

    for it in range(1, cfg.max_iters + 1):
        if gnorm <= cfg.grad_tol * gnorm0 or gnorm == 0.0:
            break
        slope = float(np.sum(xi_R * direction))
        if slope >= 0.0:
            direction = -xi
            slope = -gnorm ** 2
        step = cfg.step_init
        accepted = False
        while step >= _MIN_STEP:
            try:
                G_trial = orthonormalize(G + step * direction, gram)
            except RankDeficiencyError:
                step *= cfg.shrink
                continue
            loss_trial = ctx.loss(G_trial)
            if np.isfinite(loss_trial) and \
                    loss_trial <= loss + cfg.sufficient_decrease * step * slope:
                accepted = True
                break
            step *= cfg.shrink
        if not accepted:
            break
        drop = loss - loss_trial
        G, loss = G_trial, loss_trial
        xi, xi_R, gnorm = riemannian_grad(G)
        trace.append((it, loss, gnorm, step))
        beta = float(np.sum(xi_R * (xi - prev_xi)))
        denom = float(np.sum(prev_xi_R * prev_xi))
        beta = max(0.0, beta / denom) if denom > 0.0 else 0.0
        direction = -xi + beta * direction
        prev_xi, prev_xi_R = xi, xi_R
        if drop <= _STALL_DROP * max(1.0, abs(loss)):
            stalls += 1
            if stalls >= _STALL_LIMIT:
                break
        else:
            stalls = 0

    if cfg.trace_path:
        with open(cfg.trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "J", "grad_norm", "step"])
            writer.writerows(trace)
    return FeatureMap(basis, G), trace


# ---------------------------------------------------------------------------
# Method dispatcher (SUR-style eigensolve, descent from either start)
# ---------------------------------------------------------------------------

METHODS = ("sur", "gli", "gsi")


def learn_features(samples, basis, m, method, gram=None, config=None, jac=None):
    """Run one of the three learning procedures and report what happened.

    ``sur`` solves the greedy surrogate eigenproblems only; ``gli`` descends
    from the active-subspace start; ``gsi`` descends from the surrogate
    start.  ``jac`` is the basis Jacobian at the sample points as a
    C-contiguous (n, d, K) array; when None it is evaluated once.  The Gram
    matrix (``gram``, assembled from ``jac`` when None), every step of the
    fit and the final loss read that one array.  Returns
    ``(feature_map, info)`` where info carries the initial and final losses
    and the wall time.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}; expected one of {METHODS}")
    if jac is None:
        jac = basis.jacobian_batch(samples.points)
    if gram is None:
        gram = assemble_gram(basis, samples, jac=jac)
    t0 = time.perf_counter()
    if method == "sur":
        fmap = greedy_features(samples, basis, m, gram=gram, jac=jac)
        info = {"method": method, "loss_init": None, "iterations": 0}
    else:
        if method == "gli":
            G0 = active_subspace_init(samples, basis, m, gram=gram)
        else:
            G0 = greedy_features(samples, basis, m, gram=gram, jac=jac).coeffs
        fmap, trace = minimize_poincare_loss(samples, basis, G0, config=config,
                                             gram=gram, jac=jac)
        info = {"method": method, "loss_init": trace[0][1],
                "iterations": trace[-1][0]}
    info["loss_final"] = poincare_loss(samples, fmap, jac=jac)
    info["wall_time_s"] = time.perf_counter() - t0
    return fmap, info
