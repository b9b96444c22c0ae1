"""Gaussian-kernel ridge regression on learned features, with the grid
cross-validation protocol used by the experiment driver.

Two selections happen in the pipeline: the kernel width and ridge of the
regressor (10-fold, exhaustive log-spaced grid, scored by validation RMSE)
and the basis hyperparameters (p, k) of the feature class (5-fold, scored by
the validation Poincare loss of the learned features).  Both are pure
functions of (data, grid, seed): folds come from a seeded shuffle split into
contiguous blocks.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import (FeatureBasis, GramMatrix, MultiIndexSet, build_index_set,
                    gram_from_jacobian)
from .errors import InvalidInputError, NumericError
from .geometry import DEFAULT_RANK_TOL
from .grassmann import learn_features
from .surrogate import (SurrogateMatrices, _complement_residual_sq,
                        _poincare_loss_on_jacobian, min_generalized_eig,
                        surrogate_sums)

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
    """Seeded shuffle then contiguous split; returns [(train_idx, val_idx), ...]."""
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
        lines = [f"{N} {m} {self.gamma!r} {self.ridge!r}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in self.train_features]
        lines += [repr(float(v)) for v in self.dual_coeffs]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            head = fh.readline().split()
            N, m = int(head[0]), int(head[1])
            gamma, ridge = float(head[2]), float(head[3])
            body = [fh.readline().split() for _ in range(N)]
            Z = np.array(body, dtype=float).reshape(N, m)
            a = np.array([float(fh.readline()) for _ in range(N)])
        return cls(Z, a, gamma, ridge)


def krr_fit(Z, u, gamma, ridge):
    """Fit the dual coefficients by an SPD solve of (K + ridge I) a = u.

    One step of iterative refinement follows the Cholesky solve, and the
    residual is then verified against 1e-8 * ||u|| plus the float64
    attainable floor (eps-scale ||K|| ||a||, which dominates only when the
    grid picks a near-singular corner); a failure raises with a condition
    estimate.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    u = np.asarray(u, dtype=float).ravel()
    if Z.shape[0] != u.shape[0] or Z.shape[0] < 1:
        raise InvalidInputError(f"bad regression shapes Z {Z.shape}, u {u.shape}")
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


def cv_select_krr(Z, u, grid=None, seed=0):
    """Exhaustive (gamma, ridge) grid search by k-fold validation RMSE.

    Ties prefer the smoother model: larger ridge first, then smaller gamma.
    Returns (gamma, ridge, best mean validation RMSE).
    """
    grid = grid or CvGrid()
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    u = np.asarray(u, dtype=float).ravel()
    folds = kfold_indices(Z.shape[0], grid.folds, seed)
    gammas = 10.0 ** np.asarray(grid.log10_gamma, dtype=float)
    ridges = 10.0 ** np.asarray(grid.log10_ridge, dtype=float)
    rmse = np.zeros((gammas.size, ridges.size))
    for train, val in folds:
        D_tr = _sq_dists(Z[train], Z[train])
        D_val = _sq_dists(Z[val], Z[train])
        u_tr, u_val = u[train], u[val]
        for gi, gamma in enumerate(gammas):
            # one eigendecomposition serves every ridge on this fold
            evals, evecs = np.linalg.eigh(np.exp(-gamma * D_tr))
            evals = np.maximum(evals, 0.0)
            proj = evecs.T @ u_tr
            K_val = np.exp(-gamma * D_val)
            for ri, ridge in enumerate(ridges):
                a = evecs @ (proj / (evals + ridge))
                pred = K_val @ a
                rmse[gi, ri] += np.sqrt(np.mean((pred - u_val) ** 2))
    rmse /= len(folds)
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
    mean validation loss wins, ties going to the smaller basis.

    The basis Jacobian is evaluated once, on the union of the candidates'
    index sets, and sliced per candidate and fold.  Univariate tables do not
    depend on the highest degree tabulated, so the C-contiguous slices equal
    fresh evaluations bit for bit, and so do the scores.
    """
    grid = grid or CvGrid()
    folds = kfold_indices(samples.n, grid.pk_folds, seed)
    bases = [FeatureBasis(build_index_set(samples.dim, p, k), families)
             for p, k in grid.pk_candidates]
    union = _union_basis(bases)
    jac = union.jacobian_batch(samples.points)
    column = {alpha: j for j, alpha in enumerate(union.index_set.indices)}
    fast = method == "sur" and m == 1
    results = []
    for (p, k), basis in zip(grid.pk_candidates, bases):
        cols = [column[alpha] for alpha in basis.index_set.indices]
        jac_c = jac if cols == list(range(union.size)) else \
            np.ascontiguousarray(jac[:, :, cols])
        if fast:
            score = _single_feature_surrogate_cv(samples, jac_c, folds)
        else:
            scores = []
            for train, val in folds:
                # indexing the first axis copies into C order
                jac_tr = jac_c[train]
                fmap, _ = learn_features(samples.subset(train), basis, m, method,
                                         gram=gram_from_jacobian(jac_tr),
                                         config=optimizer, jac=jac_tr)
                scores.append(_poincare_loss_on_jacobian(
                    samples.gradients[val], jac_c[val], fmap.coeffs,
                    DEFAULT_RANK_TOL))
            score = float(np.mean(scores))
        results.append((score, basis.size, (p, k)))
    _, _, best = min(results)
    return best


def _union_basis(bases):
    """A basis over the union of the index sets of bases sharing their families.

    Its p and k describe no norm ball; only its indices are used.
    """
    indices = sorted(set().union(*(b.index_set.indices for b in bases)))
    index_set = MultiIndexSet(dim=bases[0].dim, p=math.nan, k=math.nan,
                              indices=tuple(indices))
    return FeatureBasis(index_set, bases[0].families)


def _single_feature_surrogate_cv(samples, B, folds):
    """Fold scores for the single-feature eigensolve learner in one data pass.

    ``B`` is the basis Jacobian at every sample, (n, d, K).  The
    quadratic-form matrices are sums over samples, so each fold's training
    matrices are the total sums minus that fold's validation block.  Scores
    and selections match the generic path up to accumulation roundoff.
    """
    g = samples.gradients
    blocks = []
    for _, val in folds:
        h1_v, h2_v = surrogate_sums(g[val], B[val])
        M = B[val].reshape(-1, B.shape[2])
        blocks.append((h1_v, h2_v, M.T @ M))
    h1_tot = sum(b[0] for b in blocks)
    h2_tot = sum(b[1] for b in blocks)
    r_tot = sum(b[2] for b in blocks)
    scores = []
    for (train, val), (h1_v, h2_v, r_v) in zip(folds, blocks):
        n_train = train.size
        gram = GramMatrix((r_tot - r_v) / n_train)
        mats = SurrogateMatrices(h1=(h1_tot - h1_v) / n_train,
                                 h2=(h2_tot - h2_v) / n_train)
        _, vec = min_generalized_eig(mats.h, gram)
        jac_val = np.einsum("ndk,k->nd", B[val], vec)[:, :, None]
        scores.append(float(np.mean(
            _complement_residual_sq(g[val], jac_val, 1e-10))))
    return float(np.mean(scores))
