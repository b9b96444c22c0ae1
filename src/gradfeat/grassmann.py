"""Direct minimization of the Poincare loss over subspaces of coefficient space.

The loss only depends on the span of the coefficient columns, so descent runs
on the quotient of the R-orthonormal frames, R the Gram metric.  The
Euclidean gradient is preconditioned by a fixed SPD matrix P: for one
feature P = h + mu R, with h the convex surrogate's matrix (the loss is the
surrogate weighted by 1 / |grad g|^2 per sample, so h models its
curvature), and for several features P = R.  The preconditioned gradient is
projected onto the horizontal space, combined into a Polak-Ribiere-style
direction (reset whenever it stops being a descent direction), and steps are
retracted by re-orthonormalization under a monotone Armijo search with
the textbook c1 = 1e-4 (Nocedal & Wright, Numerical Optimization, 2nd ed.,
3.1).  Each search starts from twice the last accepted step, capped at 1,
and backtracks to the minimizer of the quadratic through the loss, its
slope and the failed trial, clamped to [0.1, 0.5] times the failed step
(ibid., 3.5), so an iteration costs about one loss evaluation; only the
iteration cap is a setting.  Two standard initializations are
provided: the active-subspace start (top eigenvectors of the expected
gradient outer product, embedded on the degree-one basis functions) and the
greedy surrogate start.
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .basis import GramMatrix, _blocks_at, assemble_gram
from .errors import (IllConditionedError, InvalidInputError, NumericError,
                     RankDeficiencyError)
from .geometry import _complement_factors, _complement_residual_sq
from .surrogate import (FeatureMap, _contract_blocks, _loss_roundoff,
                        greedy_features, orthonormalize, poincare_loss,
                        surrogate_matrices)


@dataclass
class OptimizerConfig:
    max_iters: int = 500

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or \
                not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise InvalidInputError(
                f"max_iters must be an integer >= 0, got {self.max_iters!r}")


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
    if m < 1:
        raise InvalidInputError("m must be >= 1")
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

    ``blocks`` are the support blocks (n, d, w) of the basis Jacobian at
    the sample points (``basis._blocks_at``); None evaluates them.  Only w
    of the K entries of a Jacobian row can be nonzero, so the feature
    Jacobians are ``surrogate._contract_blocks`` of the blocks, with the
    bits of ``poincare_loss``, and the Euclidean gradient is one product
    per block, scattered along ``FeatureBasis._block_columns`` (the scatter
    indices are built once per m); one path serves every m.  The point
    last evaluated is kept with its feature Jacobians, their projection
    factors (the per-sample sums for one feature, the rank-revealing SVD
    for several) and its loss, for every m, so ``loss`` is a lookup after
    the first call and the gradient at an accepted line-search point
    reuses what its loss computed.  A point is recognized by identity, so
    G must not be modified in place between calls.
    """

    def __init__(self, samples, basis, blocks=None):
        self.basis = basis
        self.blocks = _blocks_at(basis, samples.points, blocks)
        self.b = samples.gradients
        self.b_sq = np.add.reduce(self.b * self.b, axis=1)
        self.n = samples.n
        self._point = None          # (G, feature Jacobians, factors, loss)
        self._scatter = None        # (m, flat gradient index of each product)

    def _at(self, G):
        if self._point is None or self._point[0] is not G:
            M = _contract_blocks(self.basis, self.blocks, G)
            factors = _complement_factors(self.b, M)
            r = _complement_residual_sq(self.b, M, self.b_sq, factors)
            # np.mean's sum and division
            self._point = (G, M, factors, float(np.add.reduce(r) / self.n))
        return self._point[1:]

    def loss(self, G):
        return self._at(G)[2]

    def euclidean_grad(self, G):
        m = G.shape[1]
        M, factors, _ = self._at(G)
        if m == 1:
            nn, dot, safe, exp = factors
            y = dot / safe              # a zero column has a zero dot
            if exp is not None:         # the sums are of 2^-exp M; unscaled
                # ones are all positive, so only these can hold a zero column
                self._check_collapse(np.count_nonzero(nn == 0.0))
                y = np.ldexp(y, -exp)
            y = y[:, None]
            resid = self.b - M[:, :, 0] * y
        else:
            U, S, Vt, mask = factors
            self._check_collapse(np.count_nonzero(mask.sum(axis=1) < m))
            ub = np.einsum("ndr,nd->nr", U, self.b) * mask
            resid = self.b - np.einsum("ndr,nr->nd", U, ub)
            safe_S = np.where(mask, S, 1.0)
            y = np.einsum("nrm,nr->nm", Vt, ub / safe_S * mask)
        # sum_i J_i^T (resid_i y_i^T), one (w, m) product per block
        products = np.matmul(self.blocks.transpose(1, 2, 0),
                             resid.T[:, :, None] * y[None, :, :])
        if self._scatter is None or self._scatter[0] != m:
            entries = self.basis._block_columns[:, :, None] * m + np.arange(m)
            self._scatter = (m, entries.ravel())
        grad = np.bincount(self._scatter[1], products.ravel(),
                           minlength=G.size).reshape(G.shape)
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

_GRAD_TOL = 1e-9                    # stop, relative to the initial gradient norm
_STEP_INIT = 1.0                    # first trial step, then cap on the carried step
_SHRINK = 0.5                       # largest backtracking factor
_SUFFICIENT_DECREASE = 1e-4         # the Armijo constant c1
_MIN_STEP = 1e-14
_MIN_SHRINK = 0.1                   # floor of an interpolated backtracking factor
_STALL_DROP = 1e-15
_STALL_LIMIT = 3
_MU = 1e-3                          # weight of R in P = h + mu R, relative to tr(h)/tr(R)


class _Trace(list):
    """Descent trace rows ``(iteration, loss, gradient_norm, step)``, plus
    ``stop_reason``: why the descent stopped."""

    stop_reason = None


def _metric_solve(gram, h):
    """P^-1 B for the descent's metric P: h + mu R for one feature, R when h
    is None.

    mu = 1e-3 tr(h) / tr(R) weighs R a thousandth of h on average, so P
    follows the surrogate's curvature, and P is positive definite on the
    null space of h (the directions of exact recovery), where the loss is
    still curved.  The rule is invariant under scaling u, or every basis
    column, by one factor; it is not invariant under scaling the columns
    by different factors (a change of the inputs' units does that), since
    tr(h) / tr(R) reads their raw magnitudes.  When
    h + mu R does not factor (tr(h) = 0, or roundoff in h outweighs mu R on
    an ill-conditioned R), P is R.
    """
    if h is not None:
        mu = _MU * np.trace(h) / np.trace(gram.matrix)
        if mu > 0.0:
            try:
                return GramMatrix(h + mu * gram.matrix).solve
            except NumericError:
                pass
    return gram.solve


def _riemannian_grad(ctx, G, solve, R):
    """The Euclidean gradient E at G, the descent's gradient
    xi = Z - G G^T R Z with Z = P^-1 E (``solve``), and sqrt(<E, xi>)."""
    E = ctx.euclidean_grad(G)
    Z = solve(E)
    xi = Z - G @ (G.T @ (R @ Z))
    norm_sq = float((E * xi).sum())
    if not math.isfinite(norm_sq):
        raise IllConditionedError("non-finite Riemannian gradient")
    return E, xi, math.sqrt(max(norm_sq, 0.0))


def minimize_poincare_loss(samples, basis, G0, config=None, gram=None,
                           blocks=None, surrogate=None):
    """Descend the Poincare loss from R-orthonormal coefficients G0.

    ``gram`` and ``blocks`` (the support blocks of the basis Jacobian at
    the sample points, an (n, d, w) array from ``basis._blocks_at``) are
    computed when None.  For one feature the Euclidean gradient E is
    preconditioned by P = h + mu R (``_metric_solve``), with h the convex
    surrogate's matrix on these samples: ``surrogate.h`` when the
    ``SurrogateMatrices`` are given, else assembled once from ``blocks``,
    with the same bits.  P is factored once.
    For several features P = R: on u2 and u3 at m = 2 the single-feature h
    ended some descents higher, up to 2.6x, so it is not the metric for
    several columns.  Each iteration solves Z = P^-1 E and steps along
    xi = Z - G G^T R Z, which keeps G^T R xi = 0; the loss depends only on
    the span of G, so G^T E = 0 and the slope along -xi is -<E, xi> for any
    SPD P.  The Armijo slope and the Polak-Ribiere beta pair with E.

    Returns ``(feature_map, trace)`` where trace rows are
    ``(iteration, loss, gradient_norm, step)``, the gradient norm being
    sqrt(<E, xi>), the P^-1-norm of E, and the loss column is non-increasing
    by construction (only steps with sufficient decrease, Armijo constant
    1e-4, are accepted).  The first search tries a step of 1; each later one
    tries twice the last accepted step, capped at 1.  A trial that fails
    sufficient decrease is replaced by the minimizer of the quadratic through
    the loss, the slope along the direction and the trial's loss, clamped to
    [0.1, 0.5] times the failed step; a rank-deficient or non-finite trial
    is halved.  ``trace.stop_reason`` says why the descent stopped:
    ``grad_tol`` (the gradient norm fell to 1e-9 times its initial value, or
    its square, the first-order decrease of a unit step, to the loss's
    roundoff bound (2d + 1) eps mean |grad u|^2 of ``_loss_roundoff``: no
    step of the search, capped at 1, can then show a decrease the loss
    resolves), ``max_iters`` (the iteration cap), ``line_search``
    (the step fell below 1e-14) or ``stall`` (three consecutive negligible
    decreases).  A non-finite gradient raises ``IllConditionedError``.  The
    trace is returned, not written: ``learn_features`` reports it as
    ``info["trace"]`` and ``gradfeat learn`` writes it to ``trace.csv``.
    """
    cfg = config or OptimizerConfig()
    blocks = _blocks_at(basis, samples.points, blocks)
    if gram is None:
        gram = assemble_gram(basis, samples, blocks=blocks)
    G = orthonormalize(np.asarray(G0, dtype=float), gram)
    if G.ndim == 1:
        G = G[:, None]
    ctx = _LossContext(samples, basis, blocks)
    R = gram.matrix
    h = None
    if G.shape[1] == 1:
        h = (surrogate or surrogate_matrices(samples, basis, blocks)).h
    solve = _metric_solve(gram, h)
    floor_sq = _loss_roundoff(samples)

    def converged(gnorm):
        return gnorm <= _GRAD_TOL * gnorm0 or gnorm ** 2 <= floor_sq

    loss = ctx.loss(G)
    if not np.isfinite(loss):
        raise IllConditionedError("non-finite loss at the starting point")
    E, xi, gnorm = _riemannian_grad(ctx, G, solve, R)
    gnorm0 = gnorm
    trace = _Trace([(0, loss, gnorm, 0.0)])
    direction = -xi
    stalls = 0
    step = _STEP_INIT               # so the first search starts at _STEP_INIT

    for it in range(1, cfg.max_iters + 1):
        if converged(gnorm):
            trace.stop_reason = "grad_tol"
            break
        slope = float((E * direction).sum())
        if slope >= 0.0:
            direction = -xi
            slope = -gnorm ** 2
        step = min(_STEP_INIT, 2.0 * step)
        accepted = False
        while step >= _MIN_STEP:
            try:
                G_trial = orthonormalize(G + step * direction, gram)
            except RankDeficiencyError:
                step *= _SHRINK
                continue
            loss_trial = ctx.loss(G_trial)
            if not np.isfinite(loss_trial):
                step *= _SHRINK
                continue
            if loss_trial <= loss + _SUFFICIENT_DECREASE * step * slope:
                accepted = True
                break
            # minimizer of the quadratic through loss, slope and loss_trial;
            # the trial's excess over the linear model is positive because
            # sufficient decrease failed
            excess = loss_trial - loss - step * slope
            step = min(_SHRINK * step,
                       max(_MIN_SHRINK * step, -slope * step ** 2 / (2.0 * excess)))
        if not accepted:
            trace.stop_reason = "line_search"
            break
        drop = loss - loss_trial
        prev_xi, prev_sq = xi, gnorm ** 2
        G, loss = G_trial, loss_trial
        E, xi, gnorm = _riemannian_grad(ctx, G, solve, R)
        trace.append((it, loss, gnorm, step))
        beta = float((E * (xi - prev_xi)).sum())
        beta = max(0.0, beta / prev_sq) if prev_sq > 0.0 else 0.0
        direction = -xi + beta * direction
        if drop <= _STALL_DROP * max(1.0, abs(loss)):
            stalls += 1
            if stalls >= _STALL_LIMIT:
                trace.stop_reason = "stall"
                break
        else:
            stalls = 0
    else:
        trace.stop_reason = "grad_tol" if converged(gnorm) else "max_iters"

    return FeatureMap(basis, G), trace


# ---------------------------------------------------------------------------
# Method dispatcher (SUR-style eigensolve, descent from either start)
# ---------------------------------------------------------------------------

METHODS = ("sur", "gli", "gsi")


def learn_features(samples, basis, m, method, gram=None, config=None,
                   blocks=None, surrogate=None):
    """Run one of the three learning procedures and report what happened.

    ``sur`` solves the greedy surrogate eigenproblems only; ``gli`` descends
    from the active-subspace start; ``gsi`` descends from the surrogate
    start.  ``blocks`` are the support blocks (n, d, w) of the basis
    Jacobian at the sample points (``basis._blocks_at``); when None they
    are evaluated once, and the dense (n, d, K) Jacobian is never formed.
    The Gram matrix (``gram``, assembled from ``blocks`` when None), every
    step of the fit and the final loss read that one array, and so do the
    surrogate's matrices (``surrogate``, assembled once when None and
    needed); given or not, they give the same result bit for bit.  Returns
    ``(feature_map, info)``.  The map is the fit's final one and is
    R-orthonormal, since every method ends in ``orthonormalize`` (G^T R G
    = I up to roundoff that grows with the condition number of R); callers
    save, score and regress on it as it is.  ``info["loss_final"]`` is that
    map's training loss, which the map evaluated from the points alone
    reproduces bit for bit.  info also carries the initial loss, the wall
    time of the fit after the Jacobian and the Gram matrix, the ridge the
    Gram matrix needed to factor
    (``GramMatrix.ridge_added``, 0.0 when none), and for the descents the
    iteration count, the stop reason (``trace.stop_reason`` of
    ``minimize_poincare_loss``), the final gradient norm relative to the
    initial one and the descent's trace rows ``(iteration, loss,
    gradient_norm, step)`` as ``info["trace"]``; ``sur`` reports 0
    iterations and None for the rest.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}; expected one of {METHODS}")
    blocks = _blocks_at(basis, samples.points, blocks)
    if gram is None:
        gram = assemble_gram(basis, samples, blocks=blocks)
    t0 = time.perf_counter()
    if method == "sur":
        fmap = greedy_features(samples, basis, m, gram=gram, blocks=blocks,
                               surrogate=surrogate)
        info = {"method": method, "loss_init": None, "iterations": 0,
                "stop_reason": None, "grad_rel_final": None, "trace": None}
    else:
        if method == "gli":
            G0 = active_subspace_init(samples, basis, m, gram=gram)
        else:
            surrogate = surrogate or surrogate_matrices(samples, basis, blocks)
            G0 = greedy_features(samples, basis, m, gram=gram, blocks=blocks,
                                 surrogate=surrogate).coeffs
        fmap, trace = minimize_poincare_loss(samples, basis, G0, config=config,
                                             gram=gram, blocks=blocks,
                                             surrogate=surrogate)
        gnorm0 = trace[0][2]
        info = {"method": method, "loss_init": trace[0][1],
                "iterations": trace[-1][0], "stop_reason": trace.stop_reason,
                "grad_rel_final": trace[-1][2] / gnorm0 if gnorm0 > 0.0 else 0.0,
                "trace": trace}
    info["loss_final"] = poincare_loss(samples, fmap, blocks=blocks)
    info["gram_ridge_added"] = gram.ridge_added
    info["wall_time_s"] = time.perf_counter() - t0
    return fmap, info
