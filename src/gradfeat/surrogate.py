"""Monte-Carlo estimators of the dimension-reduction objectives and their
convex surrogates, the quadratic-form matrices behind the surrogates, and the
greedy multi-feature learner.

Terminology used throughout the package:

* The *Poincare loss* of a feature map g is the expected squared norm of the
  function gradient after projecting off the span of the feature gradients.
  It upper-bounds the L2 reconstruction error of the best regression on
  g(X), up to a Poincare constant.
* The *convex surrogate* swaps the roles of the two gradients through the
  norm-projection identity, which makes it quadratic in the feature
  coefficients and hence minimizable by a generalized eigensolve.
* For several features the surrogate applies to one coordinate at a time
  after deflating the other feature gradients out of both sides; the greedy
  learner builds the coefficient matrix one column per pass.

Feature indices in the public API are 1-based.  Sample accumulations are
sequential over fixed-size chunks, so results are bit-reproducible for given
inputs.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import assemble_gram, basis_from_spec
from .errors import InvalidInputError, RankDeficiencyError
from .geometry import DEFAULT_RANK_TOL

_CHUNK = 8192


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSet:
    """Input points with function values and gradients; the Monte-Carlo substrate."""

    points: np.ndarray     # (N, d)
    values: np.ndarray     # (N,)
    gradients: np.ndarray  # (N, d)
    seed: int = 0

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        vals = np.asarray(self.values, dtype=float).ravel()
        grads = np.atleast_2d(np.asarray(self.gradients, dtype=float))
        if pts.shape[0] < 1:
            raise InvalidInputError("sample set is empty")
        if vals.shape[0] != pts.shape[0] or grads.shape != pts.shape:
            raise InvalidInputError(
                f"inconsistent sample shapes: points {pts.shape}, "
                f"values {vals.shape}, gradients {grads.shape}")
        for name, arr in (("points", pts), ("values", vals), ("gradients", grads)):
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"non-finite entries in {name}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gradients", grads)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def subset(self, idx):
        return SampleSet(self.points[idx], self.values[idx],
                         self.gradients[idx], seed=self.seed)

    def mean_gradient_norm_sq(self):
        """Scale of the loss: mean squared gradient norm (the loss at an empty map)."""
        return float(np.mean(np.sum(self.gradients ** 2, axis=1)))


class FeatureMap:
    """Feature map x -> G^T Phi(x) given by a K x m coefficient matrix over a basis."""

    def __init__(self, basis, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.shape[0] != basis.size:
            raise InvalidInputError(
                f"coefficients have {coeffs.shape[0]} rows, basis has {basis.size}")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("non-finite feature coefficients")
        if np.any(np.all(coeffs == 0.0, axis=0)):
            raise InvalidInputError("feature map has an all-zero column")
        self.basis = basis
        self.coeffs = coeffs

    @property
    def n_features(self):
        return self.coeffs.shape[1]

    def evaluate(self, X):
        """Feature values g(x) for each row of X; returns (n, m)."""
        return self.basis.eval_batch(X) @ self.coeffs

    def gradients(self, X):
        """Feature Jacobians at each row of X; returns (n, d, m)."""
        return _feature_jacobians(self.basis.jacobian_batch(X), self.coeffs)

    def orthonormalized(self, gram):
        return FeatureMap(self.basis, orthonormalize(self.coeffs, gram))

    # -- plain-text serialization (header "K m", one row of coefficients per line)

    def save(self, coeff_path, basis_path=None):
        K, m = self.coeffs.shape
        lines = [f"{K} {m}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in self.coeffs]
        with open(coeff_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if basis_path is not None:
            import json
            with open(basis_path, "w") as fh:
                json.dump(self.basis.spec(), fh, indent=2, sort_keys=True)
                fh.write("\n")

    @classmethod
    def load(cls, coeff_path, basis):
        if isinstance(basis, (str, bytes)):
            import json
            with open(basis) as fh:
                basis = basis_from_spec(json.load(fh))
        with open(coeff_path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise InvalidInputError(f"bad feature-map header in {coeff_path}")
            K, m = int(header[0]), int(header[1])
            coeffs = np.loadtxt(fh, ndmin=2)
        if coeffs.shape != (K, m):
            raise InvalidInputError(
                f"feature-map body {coeffs.shape} does not match header ({K}, {m})")
        return cls(basis, coeffs)


@dataclass
class SurrogateMatrices:
    """Quadratic-form matrices of the convex surrogate: h = h1 - h2, PSD."""

    h1: np.ndarray
    h2: np.ndarray
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("h1", "h2"):
            M = getattr(self, name)
            scale = np.max(np.abs(M)) or 1.0
            if np.max(np.abs(M - M.T)) > 1e-10 * scale:
                raise InvalidInputError(f"{name} is not symmetric")
            setattr(self, name, 0.5 * (M + M.T))
        self.h = self.h1 - self.h2
        evals = np.linalg.eigvalsh(self.h)
        top = max(abs(evals[0]), abs(evals[-1]), 1e-300)
        # the difference can be exactly zero in exact arithmetic (e.g. no
        # complement directions left), leaving only accumulation roundoff at
        # the scale of h1; allow for that floor
        floor = 1e-12 * max(np.max(np.abs(self.h1)), 1e-300)
        if evals[0] < -(1e-8 * top + floor):
            raise InvalidInputError(
                f"surrogate matrix is not positive semi-definite "
                f"(min eigenvalue {evals[0]:.3e} at scale {top:.3e})")


# ---------------------------------------------------------------------------
# Array-level kernels (chunk-vectorized; shared by every estimator)
# ---------------------------------------------------------------------------

def _complement_residual_sq(grad_u, jac_g, tol, b_sq=None):
    """Per-sample squared norm of grad_u projected off span(jac_g); shapes (n,d),(n,d,m).

    ``b_sq``, the per-sample squared norm of grad_u, may be passed when known.
    """
    if b_sq is None:
        b_sq = np.sum(grad_u ** 2, axis=1)
    if jac_g.shape[2] == 1:
        return _single_residual_sq(
            b_sq, *_single_feature_sums(grad_u, jac_g[:, :, 0]))
    U, S, _ = np.linalg.svd(jac_g, full_matrices=False)
    lead = S[:, :1]
    mask = S > tol * np.where(lead > 0.0, lead, 1.0)
    coef = np.einsum("ndm,nd->nm", U, grad_u) * mask
    return np.maximum(b_sq - np.sum(coef ** 2, axis=1), 0.0)


def _single_feature_sums(grad_u, col):
    """Per-sample |col|^2, <col, grad_u>, and |col|^2 with zeros replaced by 1."""
    nn = np.sum(col ** 2, axis=1)
    dot = np.sum(col * grad_u, axis=1)
    return nn, dot, np.where(nn > 0.0, nn, 1.0)


def _single_residual_sq(b_sq, nn, dot, safe):
    """The m = 1 case of ``_complement_residual_sq`` from ``_single_feature_sums``."""
    return np.maximum(b_sq - np.where(nn > 0.0, dot ** 2 / safe, 0.0), 0.0)


def _orthobasis_batch(W, tol):
    """Per-sample orthonormal span of W (n, d, r); rank-deficient columns zeroed."""
    if W.shape[2] == 0:
        return W
    U, S, _ = np.linalg.svd(W, full_matrices=False)
    lead = S[:, :1]
    mask = S > tol * np.where(lead > 0.0, lead, 1.0)
    return U * mask[:, None, :]


def _deflate(Q, V):
    """V minus its projection onto the span held in Q; V is (n, d) or (n, d, K)."""
    if Q.shape[2] == 0:
        return V
    if V.ndim == 2:
        return V - np.einsum("ndr,nr->nd", Q, np.einsum("ndr,nd->nr", Q, V))
    return V - np.einsum("ndr,nre->nde", Q, np.einsum("ndr,nde->nre", Q, V))


def _pair_term(v, w):
    """||v||^2 ||P^perp_v w||^2 = ||v||^2 ||w||^2 - <v, w>^2, elementwise over samples."""
    vv = np.sum(v ** 2, axis=1)
    ww = np.sum(w ** 2, axis=1)
    vw = np.sum(v * w, axis=1)
    return np.maximum(vv * ww - vw ** 2, 0.0)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def poincare_loss_terms(samples, fmap, tol=DEFAULT_RANK_TOL):
    """Per-sample contributions to the Poincare loss (useful for standard errors)."""
    _check_compat(samples, fmap)
    out = np.empty(samples.n)
    for sl in _chunks(samples.n):
        jac = fmap.gradients(samples.points[sl])
        out[sl] = _complement_residual_sq(samples.gradients[sl], jac, tol)
    return out


def _poincare_loss_on_jacobian(gradients, jac_phi, coeffs, tol):
    """``poincare_loss`` from the basis Jacobian at the samples, (n, d, K).

    Runs the chunks and arithmetic of ``poincare_loss``, so on a C-contiguous
    ``jac_phi`` equal to ``basis.jacobian_batch(samples.points)`` the result
    is the same bit for bit.
    """
    out = np.empty(gradients.shape[0])
    for sl in _chunks(gradients.shape[0]):
        jac = _feature_jacobians(jac_phi[sl], coeffs)
        out[sl] = _complement_residual_sq(gradients[sl], jac, tol)
    return float(np.mean(out))


def poincare_loss(samples, fmap, tol=DEFAULT_RANK_TOL):
    """Monte-Carlo Poincare loss: mean squared off-span component of the gradient.

    Always lies between 0 and the mean squared gradient norm.
    """
    return float(np.mean(poincare_loss_terms(samples, fmap, tol)))


def convex_surrogate_terms(samples, fmap):
    _check_compat(samples, fmap)
    if fmap.n_features != 1:
        raise InvalidInputError("the convex surrogate is defined for a single feature")
    out = np.empty(samples.n)
    for sl in _chunks(samples.n):
        jac = fmap.gradients(samples.points[sl])[:, :, 0]
        out[sl] = _pair_term(samples.gradients[sl], jac)
    return out


def convex_surrogate(samples, fmap):
    """Single-feature surrogate: mean of ||grad u||^2 ||P^perp_{grad u} grad g||^2.

    Quadratic in the feature coefficients; agrees with the quadratic form of
    ``surrogate_matrices`` on identical samples.
    """
    return float(np.mean(convex_surrogate_terms(samples, fmap)))


def coordinate_surrogate_terms(samples, fmap, j, tol=DEFAULT_RANK_TOL):
    _check_compat(samples, fmap)
    m = fmap.n_features
    if not 1 <= j <= m:
        raise InvalidInputError(f"feature index j={j} out of range 1..{m}")
    out = np.empty(samples.n)
    for sl in _chunks(samples.n):
        jac = fmap.gradients(samples.points[sl])
        Q = _orthobasis_batch(np.delete(jac, j - 1, axis=2), tol)
        w = _deflate(Q, jac[:, :, j - 1])
        v = _deflate(Q, samples.gradients[sl])
        out[sl] = _pair_term(v, w)
    return out


def coordinate_surrogate(samples, fmap, j, tol=DEFAULT_RANK_TOL):
    """Surrogate for feature j (1-based) with the other features deflated out.

    For m = 1 this is exactly the convex surrogate.
    """
    return float(np.mean(coordinate_surrogate_terms(samples, fmap, j, tol)))


# ---------------------------------------------------------------------------
# Quadratic-form assembly
# ---------------------------------------------------------------------------

def surrogate_sums(gradients, jac_phi):
    """Unnormalized (h1, h2) sums over the given rows; shared by the
    assemblers and the fold-arithmetic in cross-validation."""
    w2 = np.sum(gradients ** 2, axis=1)
    W = jac_phi * np.sqrt(w2)[:, None, None]
    M = W.reshape(-1, jac_phi.shape[2])
    h1 = M.T @ M
    C = np.einsum("nda,nd->na", jac_phi, gradients)
    return h1, C.T @ C


def surrogate_matrices(samples, basis):
    """K x K matrices making the single-feature surrogate a quadratic form.

    h1 accumulates the gradient-norm-weighted Jacobian cross-products, h2 the
    rank-one terms from the function gradient; h = h1 - h2 is PSD and
    satisfies G^T h G = convex surrogate of G^T Phi on the same samples.
    """
    K = basis.size
    h1 = np.zeros((K, K))
    h2 = np.zeros((K, K))
    n = samples.n
    for sl in _chunks(n):
        B = basis.jacobian_batch(samples.points[sl])
        d1, d2 = surrogate_sums(samples.gradients[sl], B)
        h1 += d1
        h2 += d2
    return SurrogateMatrices(h1=h1 / n, h2=h2 / n)


def coordinate_surrogate_matrices(samples, basis, coeffs_others, tol=DEFAULT_RANK_TOL):
    """Quadratic-form matrices for the next feature given prior coefficient columns.

    ``coeffs_others`` is K x (m-1); with zero columns this reduces exactly to
    ``surrogate_matrices``.  The assembled matrix annihilates every prior
    column, which is what allows the shifted eigensolve in the greedy pass.
    """
    coeffs_others = np.asarray(coeffs_others, dtype=float)
    if coeffs_others.ndim == 1:
        coeffs_others = coeffs_others[:, None]
    if coeffs_others.shape[1] == 0:
        return surrogate_matrices(samples, basis)
    K = basis.size
    h1 = np.zeros((K, K))
    h2 = np.zeros((K, K))
    n = samples.n
    for sl in _chunks(n, 2048):
        B = basis.jacobian_batch(samples.points[sl])
        W = np.einsum("ndk,kr->ndr", B, coeffs_others)
        Q = _orthobasis_batch(W, tol)
        v = _deflate(Q, samples.gradients[sl])
        A = np.ascontiguousarray(_deflate(Q, B))
        d1, d2 = surrogate_sums(v, A)
        h1 += d1
        h2 += d2
    return SurrogateMatrices(h1=h1 / n, h2=h2 / n)


# ---------------------------------------------------------------------------
# Generalized eigenproblems (Cholesky reduction to a standard symmetric solve)
# ---------------------------------------------------------------------------

def _reduce_to_standard(H, gram):
    L = gram.chol
    Y = scipy.linalg.solve_triangular(L, H, lower=True)
    A = scipy.linalg.solve_triangular(L, Y.T, lower=True).T
    return 0.5 * (A + A.T), L


def _fix_sign(vec):
    nz = np.nonzero(np.abs(vec) > 1e-12 * np.max(np.abs(vec)))[0]
    if nz.size and vec[nz[0]] < 0:
        return -vec
    return vec


def min_generalized_eig(H, gram):
    """Smallest generalized eigenpair of (H, R) with R the Gram metric.

    Returns (eigenvalue, vector) with vector normalized to unit R-norm and
    its first non-negligible entry positive.
    """
    H = np.asarray(H, dtype=float)
    A, L = _reduce_to_standard(H, gram)
    evals, evecs = np.linalg.eigh(A)
    y = evecs[:, 0]
    vec = scipy.linalg.solve_triangular(L, y, lower=True, trans="T")
    vec = vec / np.sqrt(vec @ (gram.matrix @ vec))
    return float(evals[0]), _fix_sign(vec)


def max_generalized_eig(H, gram):
    """Largest generalized eigenvalue of (H, R)."""
    A, _ = _reduce_to_standard(np.asarray(H, dtype=float), gram)
    return float(np.linalg.eigvalsh(A)[-1])


def orthonormalize(coeffs, gram):
    """Right-transform coefficients so G^T R G = I, preserving the column span.

    Uses the symmetric inverse square root of G^T R G, so an already
    orthonormal matrix is returned unchanged.
    """
    G = np.asarray(coeffs, dtype=float)
    squeeze = G.ndim == 1
    if squeeze:
        G = G[:, None]
    C = G.T @ (gram.matrix @ G)
    if C.shape == (1, 1):
        norm_sq = C[0, 0]
        if norm_sq <= 1e-14:
            raise RankDeficiencyError("coefficient column has zero Gram norm")
        out = G / np.sqrt(norm_sq)
        return out[:, 0] if squeeze else out
    C = 0.5 * (C + C.T)
    evals, evecs = np.linalg.eigh(C)
    if evals[0] <= 1e-14 * max(evals[-1], 1.0):
        raise RankDeficiencyError(
            f"coefficient columns are rank deficient in the Gram metric "
            f"(eigenvalues {evals})")
    inv_half = (evecs * evals ** -0.5) @ evecs.T
    out = G @ inv_half
    return out[:, 0] if squeeze else out


# ---------------------------------------------------------------------------
# Greedy multi-feature learner
# ---------------------------------------------------------------------------

def greedy_features(samples, basis, m, gram=None, tol=DEFAULT_RANK_TOL):
    """Learn m features one at a time by shifted generalized eigensolves.

    The first column minimizes the convex surrogate.  Each later column
    minimizes the coordinate surrogate given the previous columns, with the
    prior-column directions pushed up by a spectral shift (the largest
    generalized eigenvalue of the weighted Jacobian Gram matrix) so the
    eigensolver cannot return them again.  The result satisfies
    G^T R G = I_m after a final re-orthonormalization.
    """
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if m > basis.size:
        raise InvalidInputError(f"m={m} exceeds basis size K={basis.size}")
    if gram is None:
        gram = assemble_gram(basis, samples)
    mats = surrogate_matrices(samples, basis)
    _, g1 = min_generalized_eig(mats.h, gram)
    G = np.zeros((basis.size, m))
    G[:, 0] = g1
    if m > 1:
        alpha = max_generalized_eig(mats.h1, gram)
        R = gram.matrix
        for j in range(2, m + 1):
            others = G[:, :j - 1]
            mats_j = coordinate_surrogate_matrices(samples, basis, others, tol)
            shift = (R @ others) @ (others.T @ R)
            _, gj = min_generalized_eig(mats_j.h + alpha * shift, gram)
            # explicit re-orthogonalization against prior columns for robustness
            gj = gj - others @ (others.T @ (R @ gj))
            norm = np.sqrt(gj @ (R @ gj))
            if not norm > 1e-12:
                raise RankDeficiencyError(
                    f"greedy pass {j} produced a feature inside the prior span")
            G[:, j - 1] = _fix_sign(gj / norm)
    return FeatureMap(basis, orthonormalize(G, gram))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _feature_jacobians(jac_phi, coeffs):
    return np.einsum("ndk,km->ndm", jac_phi, coeffs)


def _chunks(n, size=_CHUNK):
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def _check_compat(samples, fmap):
    if fmap.basis.dim != samples.dim:
        raise InvalidInputError(
            f"sample dim {samples.dim} does not match basis dim {fmap.basis.dim}")
