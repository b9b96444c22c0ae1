"""Gaussian-kernel ridge regression on learned features, with the grid
cross-validation protocol used by the experiment driver.

Two selections happen in the pipeline: the kernel width and ridge of the
regressor (10-fold, exhaustive log-spaced grid, scored by validation RMSE)
and the basis hyperparameters (p, k) of the feature class (5-fold, scored by
the validation Poincare loss of the learned features).  Both are pure
functions of (data, grid, seed): folds come from a seeded shuffle split into
contiguous blocks.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import (FeatureBasis, GramMatrix, _blocks_at, _gram_sum,
                    build_index_set)
from .errors import InvalidInputError, NumericError
from .grassmann import learn_features
from .surrogate import (FeatureMap, SurrogateMatrices, _loss_roundoff,
                        min_generalized_eig, poincare_loss, surrogate_sums)

_PK_CANDIDATES = ((0.8, 2), (0.8, 3), (0.8, 4), (0.8, 5),
                  (0.9, 2), (0.9, 3), (0.9, 4),
                  (1.0, 1), (1.0, 2), (1.0, 3))


@dataclass
class CvGrid:
    """Hyperparameter grids; defaults follow the experiment protocol exactly."""

    log10_gamma: np.ndarray = field(
        default_factory=lambda: np.linspace(-6.0, -2.0, 30))
    log10_ridge: np.ndarray = field(
        default_factory=lambda: np.linspace(-11.0, -5.0, 40))
    folds: int = 10
    pk_candidates: tuple = _PK_CANDIDATES
    pk_folds: int = 5


def kfold_indices(n, folds, seed):
    """Seeded shuffle then contiguous split; returns [(train_idx, val_idx), ...].
    Fewer than two folds, or more folds than samples, raise ``InvalidInputError``."""
    if folds < 2:
        raise InvalidInputError(f"folds={folds} must be >= 2")
    if n < folds:
        raise InvalidInputError(f"cannot make {folds} folds from {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    blocks = np.array_split(perm, folds)
    out = []
    for i, val in enumerate(blocks):
        train = np.concatenate([blocks[j] for j in range(folds) if j != i])
        out.append((train, val))
    return out


# ---------------------------------------------------------------------------
# Kernel ridge regression
# ---------------------------------------------------------------------------

def _regression_inputs(Z, u):
    """Features as an (N, m) array and values as an (N,) vector; mismatched
    shapes or non-finite entries raise ``InvalidInputError``."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    u = np.asarray(u, dtype=float).ravel()
    if Z.ndim != 2 or Z.shape[0] != u.shape[0] or Z.shape[0] < 1:
        raise InvalidInputError(f"bad regression shapes Z {Z.shape}, u {u.shape}")
    if not (np.isfinite(Z).all() and np.isfinite(u).all()):
        raise InvalidInputError("regression features and values must be finite")
    return Z, u


def _sq_dists(A, B):
    aa = np.sum(A ** 2, axis=1)[:, None]
    bb = np.sum(B ** 2, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)


@dataclass
class KrrModel:
    """Dual-form Gaussian-kernel ridge model: f(z) = sum_i a_i exp(-gamma |z_i - z|^2)."""

    train_features: np.ndarray   # (N, m)
    dual_coeffs: np.ndarray      # (N,)
    gamma: float
    ridge: float

    def save(self, path):
        N, m = self.train_features.shape
        lines = [f"{N} {m} {float(self.gamma)!r} {float(self.ridge)!r}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in self.train_features]
        lines += [repr(float(v)) for v in self.dual_coeffs]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path):
        """Read a model written by ``save``; a missing or malformed file, a
        non-finite entry included, or gamma or ridge <= 0 raises ``InvalidInputError``."""
        try:
            with open(path) as fh:
                N, m, gamma, ridge = fh.readline().split()
                N, m, gamma, ridge = int(N), int(m), float(gamma), float(ridge)
                if N < 1 or m < 1:
                    raise ValueError(f"header counts N={N}, m={m} must be positive")
                body = [fh.readline().split() for _ in range(N)]
                Z = np.array(body, dtype=float).reshape(N, m)
                a = np.array([float(fh.readline()) for _ in range(N)])
                if fh.read().strip():
                    raise ValueError(f"more than the {2 * N} lines the header announces")
                values = np.concatenate(([gamma, ridge], Z.ravel(), a))
                if not (np.isfinite(values).all() and gamma > 0 and ridge > 0):
                    raise ValueError("a non-finite entry, or gamma or ridge <= 0")
        except (OSError, ValueError) as exc:
            raise InvalidInputError(f"cannot read KRR model {path}: {exc}") from None
        return cls(Z, a, gamma, ridge)


def krr_fit(Z, u, gamma, ridge):
    """Fit the dual coefficients by an SPD solve of (K + ridge I) a = u.

    One step of iterative refinement follows the Cholesky solve, and the
    residual is then verified against 1e-8 * ||u|| plus the float64
    attainable floor (eps-scale ||K|| ||a||, which dominates only when the
    grid picks a near-singular corner); a failure raises with a condition
    estimate.
    """
    Z, u = _regression_inputs(Z, u)
    if not (gamma > 0 and ridge > 0):
        raise InvalidInputError("gamma and ridge must be positive")
    K = np.exp(-gamma * _sq_dists(Z, Z))
    system = K + ridge * np.eye(Z.shape[0])
    try:
        cho = scipy.linalg.cho_factor(system)
        a = scipy.linalg.cho_solve(cho, u)
        a = a + scipy.linalg.cho_solve(cho, u - system @ a)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            f"kernel system failed to factor (cond ~ {np.linalg.cond(system):.3e})"
        ) from exc
    residual = np.linalg.norm(system @ a - u)
    floor = 100.0 * np.finfo(float).eps * np.linalg.norm(system, 1) * np.linalg.norm(a)
    if residual > 1e-8 * max(np.linalg.norm(u), 1e-300) + floor:
        raise NumericError(
            f"kernel solve residual {residual:.3e} too large "
            f"(cond ~ {np.linalg.cond(system):.3e})")
    return KrrModel(Z, a, float(gamma), float(ridge))


def krr_predict(model, Z_query):
    """Kernel expansion at query features; returns a vector of predictions."""
    Zq = np.atleast_2d(np.asarray(Z_query, dtype=float))
    if Zq.shape[1] != model.train_features.shape[1]:
        raise InvalidInputError(
            f"query features have dim {Zq.shape[1]}, model has "
            f"{model.train_features.shape[1]}")
    Kq = np.exp(-model.gamma * _sq_dists(Zq, model.train_features))
    return Kq @ model.dual_coeffs


def _kernel_factor(Z, gamma):
    """Greedy pivoted Cholesky factor of the Gaussian kernel of the rows of Z.

    Each step pivots on the largest residual diagonal, forms that one kernel
    column and updates the residual diagonal.  It stops once the residual
    trace is at most ``n * eps`` (the Gaussian diagonal is 1, so that is the
    scale of a dense eigensolver's own backward error) or at rank n, where it
    is a full factorization.  Returns (F, trace): K ~ F F^T with F of shape
    (n, r), and every entry of K - F F^T is at most ``trace`` in magnitude,
    since the residual is positive semidefinite with that trace.
    """
    n = Z.shape[0]
    diag = np.ones(n)
    cols = np.empty((min(n, 8), n))     # row i is column i of F; grown by doubling
    r = 0
    while r < n and diag.sum() > n * np.finfo(float).eps:
        j = int(np.argmax(diag))
        if r == cols.shape[0]:
            cols = np.concatenate([cols, np.empty((min(r, n - r), n))])
        k_col = np.exp(-gamma * np.sum((Z - Z[j]) ** 2, axis=1))
        cols[r] = (k_col - cols[:r, j] @ cols[:r]) / np.sqrt(diag[j])
        diag = np.maximum(diag - cols[r] ** 2, 0.0)
        diag[j] = 0.0
        r += 1
    return cols[:r].T, float(diag.sum())


def _cv_rmse_table(Z, u, folds, gammas, ridges):
    """Mean validation RMSE over the folds for every (gamma, ridge) pair.

    One kernel factor per gamma serves every fold: the fold kernels are row
    subsets, K_tr ~ F_tr F_tr^T and K_val,tr ~ F_val F_tr^T.  With the thin
    SVD F_tr = U S W^T, the validation predictions at ridge lambda are
    (F_val W) diag(s / (s^2 + lambda)) U^T u_tr, so one product scores every
    ridge.  Folds of equal training and validation sizes go through one
    stacked SVD and one set of stacked products, which make the same LAPACK
    and BLAS calls per fold as a loop over the folds; the folds' RMSEs are
    then added in fold order, so the table is the loop's bit for bit.
    """
    by_size = {}
    for f, (train, val) in enumerate(folds):
        by_size.setdefault((train.size, val.size), []).append(f)
    groups = [(fs, np.stack([folds[f][0] for f in fs]),
               np.stack([folds[f][1] for f in fs])) for fs in by_size.values()]
    rmse = np.zeros((gammas.size, ridges.size))
    fold_rmse = np.empty((len(folds), ridges.size))
    for gi, gamma in enumerate(gammas):
        F, _ = _kernel_factor(Z, gamma)
        for fs, train, val in groups:
            U, s, Wt = np.linalg.svd(F[train], full_matrices=False)
            filt = s[..., None] / (s[..., None] ** 2 + ridges)
            coef = filt * (U.transpose(0, 2, 1) @ u[train][..., None])
            pred = (F[val] @ Wt.transpose(0, 2, 1)) @ coef
            fold_rmse[fs] = np.sqrt(np.mean((pred - u[val][..., None]) ** 2, axis=1))
        for row in fold_rmse:
            rmse[gi] += row
    return rmse / len(folds)


def cv_select_krr(Z, u, grid=None, seed=0):
    """Exhaustive (gamma, ridge) grid search by k-fold validation RMSE.

    Ties prefer the smoother model: larger ridge first, then smaller gamma.
    Returns (gamma, ridge, best mean validation RMSE).  The fold kernels
    come from one pivoted Cholesky factor per gamma (``_kernel_factor``), so
    the cost follows the kernel's numerical rank, not the sample count.
    An empty gamma or ridge grid raises ``InvalidInputError``.
    """
    grid = grid or CvGrid()
    Z, u = _regression_inputs(Z, u)
    folds = kfold_indices(Z.shape[0], grid.folds, seed)
    gammas = 10.0 ** np.asarray(grid.log10_gamma, dtype=float)
    ridges = 10.0 ** np.asarray(grid.log10_ridge, dtype=float)
    if gammas.size == 0 or ridges.size == 0:
        raise InvalidInputError("the gamma and ridge grids must be nonempty")
    rmse = _cv_rmse_table(Z, u, folds, gammas, ridges)
    best = min(
        ((rmse[gi, ri], -ridges[ri], gammas[gi], gi, ri)
         for gi in range(gammas.size) for ri in range(ridges.size)))
    _, _, _, gi, ri = best
    return float(gammas[gi]), float(ridges[ri]), float(rmse[gi, ri])


# ---------------------------------------------------------------------------
# Basis hyperparameter selection
# ---------------------------------------------------------------------------

def cv_select_basis(samples, m, method, families, grid=None, seed=0,
                    optimizer=None):
    """Pick (p, k) by k-fold validation of the learned features' Poincare loss.

    Each candidate basis is fit on every training fold with the requested
    method and scored on the held-out fold; the candidate with the smallest
    mean validation loss wins, ties going to the smaller basis.  Scores
    within the roundoff of the loss of the best score are ties
    (``_loss_roundoff``): where every candidate recovers the function
    exactly, the scores are roundoff and would otherwise pick by noise.

    Each distinct candidate's basis Jacobian is evaluated once, at every
    sample, as support blocks (``basis._blocks_at``), and sliced per fold.
    Its surrogate sums are formed once per fold's rows, and each fold's
    training h adds the other folds' sums; its Gram sum is formed once over
    every sample, and each fold's training R is that total minus the fold's
    validation sum (``_cv_score``).  A candidate whose index set equals an
    earlier candidate's reuses that score (at d = 8, (0.9, k) and (0.8, k)
    build the same set for k = 2, 3, 4), since it would be fit and scored
    the same, bit for bit.
    """
    grid = grid or CvGrid()
    folds = kfold_indices(samples.n, grid.pk_folds, seed)
    scores = {}
    results = []
    for p, k in grid.pk_candidates:
        basis = FeatureBasis(build_index_set(samples.dim, p, k), families)
        indices = basis.index_set.indices
        if indices not in scores:
            blocks = _blocks_at(basis, samples.points)
            scores[indices] = _cv_score(samples, basis, blocks, folds, m,
                                        method, optimizer)
        results.append((scores[indices], basis.size, (p, k)))
    best_score, _, best = min(results)
    limit = best_score + _loss_roundoff(samples)
    tied = [(size, pk) for score, size, pk in results if score <= limit]
    return min(tied)[1] if tied else best     # a NaN best ties with nothing


def _cv_score(samples, basis, blocks, folds, m, method, optimizer):
    """Mean validation Poincare loss of ``basis`` over the folds; ``blocks``
    are the support blocks (n, d, w) of the basis Jacobian at every sample.

    R and the surrogate's h are sample means, so a fold's training
    matrices come from sums over the folds' rows.  Each fold's validation
    sum of h is formed once and kept; a fold's training h is the other
    folds' sums added in fold order, so no sample is summed twice and no
    difference cancels.  R is the sum over every sample, formed once here,
    minus the fold's validation sum, formed when the fold is scored; its
    one subtraction adds about K n u max|R|, u = eps / 2, 7e-12 relative at
    K = 264, n = 250, far inside the PSD check's 1e-8.  Both match a
    per-fold assembly up to roundoff.  The kept sums of h are the only K x K
    blocks that outlive their fold.
    """
    r_tot = _gram_sum(basis, blocks)
    h_val = [surrogate_sums(samples.gradients[val], basis, blocks[val])
             for _, val in folds]

    def fold_score(f, train, val):
        blocks_val = blocks[val]
        gram = GramMatrix((r_tot - _gram_sum(basis, blocks_val)) / train.size)
        mats = SurrogateMatrices(h=sum(h_val[:f] + h_val[f + 1:]) / train.size)
        if method == "sur" and m == 1:
            fmap = FeatureMap(basis, min_generalized_eig(mats.h, gram)[1])
        else:
            fmap, _ = learn_features(samples.subset(train), basis, m, method,
                                     gram=gram, config=optimizer,
                                     blocks=blocks[train], surrogate=mats)
        return poincare_loss(samples.subset(val), fmap, blocks=blocks_val)

    return float(np.mean([fold_score(f, train, val)
                          for f, (train, val) in enumerate(folds)]))
