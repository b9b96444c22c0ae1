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

Feature indices in the public API are 1-based.  The estimators that sum
over samples take optional ``blocks``, the support blocks (n, d, w) of the
basis Jacobian at the sample points (``basis._blocks_at``), and evaluate
them once when None: only w of the K entries of a Jacobian row can be
nonzero, so the dense (n, d, K) Jacobian is never stored.  The surrogate
sums walk the blocks in fixed slices of _SUM_ROWS samples, scattering a
slice into one reused dense buffer; results are bit-reproducible for given
inputs and the same with and without ``blocks``.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import _POTRF, _TRTRS, _blocks_at, assemble_gram, basis_from_spec
from .errors import InvalidInputError, NumericError, RankDeficiencyError
from .geometry import _complement_residual_sq, _deflate, _orthobasis_batch

# resolved once: one fold's eigensolve is a few milliseconds, and the
# surrogate's matrices are always float64; ``basis`` resolves the Cholesky
# factorization and the triangular solve
_sygst, _syevr = scipy.linalg.get_lapack_funcs(("sygst", "syevr"),
                                               dtype=np.float64)
_ABSTOL = 2.0 * scipy.linalg.lapack.dlamch("S")
# samples per slice of a surrogate sum (``surrogate_sums``)
_SUM_ROWS = 256


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSet:
    """Input points with function values and gradients; the Monte-Carlo substrate."""

    points: np.ndarray     # (N, d)
    values: np.ndarray     # (N,)
    gradients: np.ndarray  # (N, d)

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
        return SampleSet(self.points[idx], self.values[idx], self.gradients[idx])

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
        """Feature Jacobians at each row of X; returns (n, d, m).

        Built from the support blocks of the basis Jacobian: the univariate
        tables once per _EVAL_CHUNK rows, the block products and their
        contraction with the coefficients _BLOCK_ROWS rows at a time, in one
        reused buffer; the (n, d, K) array is never formed.
        """
        return _feature_jacobians(self.basis, self.coeffs,
                                  self.basis._check_points(X))

    # -- plain-text serialization (header "K m", one row of coefficients per line)

    def save(self, coeff_path, basis_path=None):
        K, m = self.coeffs.shape
        lines = [f"{K} {m}"]
        lines += [" ".join(repr(float(v)) for v in row) for row in self.coeffs]
        with open(coeff_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if basis_path is not None:
            with open(basis_path, "w") as fh:
                json.dump(self.basis.spec(), fh, indent=2, sort_keys=True)
                fh.write("\n")

    @classmethod
    def load(cls, coeff_path, basis):
        """Read a map written by ``save``; ``basis`` may be a basis-spec path.

        A missing or malformed file raises ``InvalidInputError``.
        """
        if isinstance(basis, (str, bytes)):
            try:
                with open(basis) as fh:
                    basis = json.load(fh)
            except (OSError, ValueError) as exc:
                raise InvalidInputError(f"cannot read basis spec {basis}: {exc}") from None
            basis = basis_from_spec(basis)
        try:
            with open(coeff_path) as fh:
                K, m = (int(v) for v in fh.readline().split())
                coeffs = np.loadtxt(fh, ndmin=2)
        except (OSError, ValueError) as exc:
            raise InvalidInputError(f"cannot read feature map {coeff_path}: {exc}") from None
        if coeffs.shape != (K, m):
            raise InvalidInputError(
                f"feature-map body {coeffs.shape} does not match header ({K}, {m})")
        return cls(basis, coeffs)


@dataclass
class SurrogateMatrices:
    """Quadratic-form matrix h of the convex surrogate, PSD.

    A non-finite or asymmetric h raises ``InvalidInputError``, and so does
    one that is not PSD up to roundoff: one whose smallest eigenvalue lies
    below -1e-8 * top, with top the largest eigenvalue magnitude.  A
    Cholesky factorization of h + tau_lo * I, tau_lo = 1e-8 * max diag(h),
    certifies the usual case without the spectrum: max diag(h) <= top, so
    tau_lo is below the tolerance and a successful factorization means h
    passes.  Only when it fails are the eigenvalues computed and the rule
    applied to them.
    """

    h: np.ndarray

    def __post_init__(self):
        h = self.h
        if not np.all(np.isfinite(h)):
            raise InvalidInputError("non-finite entries in h")
        # the symmetry check works in the array that then holds the
        # symmetric h, and the certificate in one copy of it
        sym = np.abs(h)
        scale = np.max(sym) or 1.0
        np.subtract(h, h.T, out=sym)
        if np.max(np.abs(sym, out=sym)) > 1e-10 * scale:
            raise InvalidInputError("h is not symmetric")
        self.h = np.add(h, h.T, out=sym)
        self.h *= 0.5
        scratch = self.h.copy()
        scratch[np.diag_indices_from(scratch)] += \
            1e-8 * max(np.max(np.diag(self.h)), 1e-300)
        # h is exactly symmetric, so the transpose, which LAPACK takes in
        # place, holds the same matrix
        if _POTRF(scratch.T, lower=1, overwrite_a=1, clean=0)[1] == 0:
            return
        evals = np.linalg.eigvalsh(self.h)
        top = max(abs(evals[0]), abs(evals[-1]), 1e-300)
        if evals[0] < -1e-8 * top:
            raise InvalidInputError(
                f"surrogate matrix is not positive semi-definite "
                f"(min eigenvalue {evals[0]:.3e} at scale {top:.3e})")


# ---------------------------------------------------------------------------
# Estimators (the projections run in ``geometry``'s batched kernel)
# ---------------------------------------------------------------------------

def _pair_term(v, w):
    """||v||^2 ||P^perp_v w||^2 = ||v||^2 ||w||^2 - <v, w>^2, elementwise over samples."""
    vv = np.sum(v ** 2, axis=1)
    ww = np.sum(w ** 2, axis=1)
    vw = np.sum(v * w, axis=1)
    return np.maximum(vv * ww - vw ** 2, 0.0)


def poincare_loss_terms(samples, fmap, blocks=None):
    """Per-sample contributions to the Poincare loss (useful for standard errors)."""
    _check_compat(samples, fmap)
    jac_g = _feature_jacobians(fmap.basis, fmap.coeffs, samples.points, blocks)
    return _complement_residual_sq(samples.gradients, jac_g)


def poincare_loss(samples, fmap, blocks=None):
    """Monte-Carlo Poincare loss: mean squared off-span component of the gradient.

    Always lies between 0 and the mean squared gradient norm.
    """
    return float(np.mean(poincare_loss_terms(samples, fmap, blocks)))


def _loss_roundoff(samples):
    """Bound on the roundoff of a mean Poincare loss over these samples.

    A per-sample term is |b|^2 - <c, b>^2 / |c|^2 for the gradient b and a
    feature gradient c in R^d.  Each of the three d-term sums is within
    gamma_d = d u / (1 - d u) of its value, relative to the sum of absolute
    values (u = eps / 2), and the quotient and subtraction add a few u.  With
    |<c, b>| <= |c| |b| the term is within (4 d + 2) u |b|^2 =
    (2 d + 1) eps |b|^2, which averages to (2 d + 1) eps times the mean
    squared gradient norm.  The roundoff in c itself moves the projection
    only at second order.  For several features the projection runs through
    ``geometry._span_svd``: Gram-Schmidt run twice and a rotation for one or
    two columns, an SVD for more, each backward stable, so its roundoff is
    of the same order.
    """
    return (2 * samples.dim + 1) * np.finfo(float).eps * \
        samples.mean_gradient_norm_sq()


def convex_surrogate_terms(samples, fmap):
    if fmap.n_features != 1:
        raise InvalidInputError("the convex surrogate is defined for a single feature")
    return coordinate_surrogate_terms(samples, fmap, 1)


def convex_surrogate(samples, fmap):
    """Single-feature surrogate: mean of ||grad u||^2 ||P^perp_{grad u} grad g||^2.

    Quadratic in the feature coefficients; agrees with the quadratic form of
    ``surrogate_matrices`` on identical samples.
    """
    return float(np.mean(convex_surrogate_terms(samples, fmap)))


def coordinate_surrogate_terms(samples, fmap, j):
    _check_compat(samples, fmap)
    m = fmap.n_features
    if not 1 <= j <= m:
        raise InvalidInputError(f"feature index j={j} out of range 1..{m}")
    jac = fmap.gradients(samples.points)
    Q = _orthobasis_batch(np.delete(jac, j - 1, axis=2))
    return _pair_term(_deflate(Q, samples.gradients), _deflate(Q, jac[:, :, j - 1]))


def coordinate_surrogate(samples, fmap, j):
    """Surrogate for feature j (1-based) with the other features deflated out.

    For m = 1 this is exactly the convex surrogate.
    """
    return float(np.mean(coordinate_surrogate_terms(samples, fmap, j)))


# ---------------------------------------------------------------------------
# Quadratic-form assembly
# ---------------------------------------------------------------------------

def surrogate_sums(gradients, basis, blocks, Q=None):
    """Unnormalized surrogate sum over the given rows; the assemblers divide
    it by the row count, and the (p, k) cross-validation adds the sums over
    the other folds' rows into a fold's training sum.

    The sum is a Gram, sum_i M_i^T M_i with M_i = |v_i| P_i J_i, v_i the
    gradient, J_i the basis Jacobian (``blocks`` holds its support blocks)
    and P_i the projector off v_i and, with ``Q`` (the per-sample spans of
    ``_orthobasis_batch``; ``gradients`` must then be deflated by it), off
    Q_i, so no difference cancels.  The rows go in slices of _SUM_ROWS: a
    slice's blocks are scattered along ``FeatureBasis._block_columns`` into
    one dense buffer, zeroed once since every slice fills the same entries,
    so it holds the rows of ``FeatureBasis.jacobian_batch`` bit for bit;
    the d x d operators |v_i| P_i multiply it into a second buffer, whose
    product M^T M is the first slice's sum and is added to it for every
    later slice.  A sum over at most _SUM_ROWS rows is thus one matrix
    product.  A sample with v_i = 0 adds nothing.
    """
    n, d, _ = blocks.shape
    K = basis.size
    norm = np.sqrt(np.sum(gradients ** 2, axis=1))
    unit = np.divide(gradients, norm[:, None], out=np.zeros_like(gradients),
                     where=norm[:, None] > 0.0)
    jac = np.zeros((min(n, _SUM_ROWS), d, K))
    buffer = np.empty_like(jac)
    dims, columns = np.arange(d)[:, None], basis._block_columns
    eye = np.eye(d)
    total = None
    for start in range(0, n, _SUM_ROWS):
        rows = slice(start, start + _SUM_ROWS)
        u = unit[rows]
        size = len(u)
        jac[:size, dims, columns] = blocks[rows]
        P = eye - u[:, :, None] * u[:, None, :]
        if Q is not None:
            q = Q[rows]
            P -= q @ q.transpose(0, 2, 1)
        P *= norm[rows, None, None]
        M = np.matmul(P, jac[:size], out=buffer[:size]).reshape(-1, K)
        if total is None:
            total = M.T @ M
        else:
            total += M.T @ M
    return total


def surrogate_matrices(samples, basis, blocks=None):
    """K x K matrix making the single-feature surrogate a quadratic form.

    h is the mean over samples of (|grad u| P J)^T (|grad u| P J), J the
    basis Jacobian and P the projector off grad u; it is PSD and satisfies
    G^T h G = convex surrogate of G^T Phi on the same samples.
    """
    h = surrogate_sums(samples.gradients, basis,
                       _blocks_at(basis, samples.points, blocks))
    h /= samples.n
    return SurrogateMatrices(h=h)


def coordinate_surrogate_matrices(samples, basis, coeffs_others, blocks=None):
    """Quadratic-form matrix for the next feature given prior coefficient columns.

    ``coeffs_others`` is K x (m-1); with zero columns this reduces exactly to
    ``surrogate_matrices``.  The assembled matrix annihilates every prior
    column, which is what allows the shifted eigensolve in the greedy pass.
    """
    coeffs_others = np.asarray(coeffs_others, dtype=float)
    if coeffs_others.ndim == 1:
        coeffs_others = coeffs_others[:, None]
    if coeffs_others.shape[1] == 0:
        return surrogate_matrices(samples, basis, blocks)
    blocks = _blocks_at(basis, samples.points, blocks)
    Q = _orthobasis_batch(_contract_blocks(basis, blocks, coeffs_others))
    h = surrogate_sums(_deflate(Q, samples.gradients), basis, blocks, Q)
    h /= samples.n
    return SurrogateMatrices(h=h)


# ---------------------------------------------------------------------------
# Generalized eigenproblems (one eigenpair of the Cholesky-reduced problem)
# ---------------------------------------------------------------------------

def _check_info(name, info):
    if info != 0:
        raise NumericError(f"generalized eigensolve failed (LAPACK {name} "
                           f"info {info})")


def _fix_sign(vec):
    nz = np.nonzero(np.abs(vec) > 1e-12 * np.max(np.abs(vec)))[0]
    if nz.size and vec[nz[0]] < 0:
        return -vec
    return vec


def min_generalized_eig(H, gram):
    """Smallest generalized eigenpair of (H, R) with R the Gram metric.

    H is symmetric; only its lower triangle is read.  The pencil is reduced
    once to L^-1 H L^-T (LAPACK sygst) with L the cached Cholesky factor of
    R, and only the smallest pair of the reduced matrix is computed (syevr).
    Its bisection runs to LAPACK's most accurate tolerance, twice the
    underflow threshold, rather than its default eps * ||A||, so a small
    eigenvalue of a badly scaled pencil keeps its relative accuracy; the
    extra bisection steps cost little next to the reduction.  Returns
    (eigenvalue, vector) with vector normalized to unit R-norm and its first
    non-negligible entry positive.  A non-finite H or a failed LAPACK call
    raises ``NumericError``.
    """
    H = np.asarray(H, dtype=float)
    if not np.all(np.isfinite(H)):
        raise NumericError("non-finite entries in the eigenproblem matrix")
    A, info = _sygst(H, gram.chol, itype=1, lower=1)
    _check_info("sygst", info)
    w, y, _, _, info = _syevr(A, compute_v=1, range="I", lower=1, il=1, iu=1,
                              abstol=_ABSTOL, overwrite_a=1)
    _check_info("syevr", info)
    vec, info = _TRTRS(gram.chol, y[:, 0], lower=1, trans=1)
    _check_info("trtrs", info)
    vec = vec / np.sqrt(vec @ (gram.matrix @ vec))
    return float(w[0]), _fix_sign(vec)


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

def greedy_features(samples, basis, m, gram=None, blocks=None, surrogate=None):
    """Learn m features one at a time by shifted generalized eigensolves.

    The first column minimizes the convex surrogate.  Each later column
    minimizes the coordinate surrogate given the previous columns, with the
    prior-column directions pushed up by the shift alpha = max_i |grad u_i|^2
    so the eigensolver cannot return them again.  alpha bounds every
    coordinate surrogate's Rayleigh quotient, as |v_i| <= |grad u_i| and a
    projection does not lengthen J_i x: x^T h_j x <= alpha x^T R x, where
    ``gram`` (R) must be these samples' Gram matrix, plus any ridge.  The
    result satisfies G^T R G = I_m after a final re-orthonormalization.
    ``blocks``, the support blocks of the basis Jacobian at the sample
    points, are evaluated once when None, and ``gram`` and ``surrogate``
    (the ``surrogate_matrices`` of the samples) are assembled from them when
    None.
    """
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if m > samples.dim:
        # the feature Jacobian (d x m) then has rank below m at every point
        raise InvalidInputError(f"m={m} exceeds input dimension d={samples.dim}")
    if m > basis.size:
        raise InvalidInputError(f"m={m} exceeds basis size K={basis.size}")
    blocks = _blocks_at(basis, samples.points, blocks)
    if gram is None:
        gram = assemble_gram(basis, samples, blocks=blocks)
    mats = surrogate
    if mats is None:
        mats = surrogate_matrices(samples, basis, blocks)
    _, g1 = min_generalized_eig(mats.h, gram)
    G = np.zeros((basis.size, m))
    G[:, 0] = g1
    if m > 1:
        alpha = float(np.max(np.sum(samples.gradients ** 2, axis=1)))
        R = gram.matrix
        for j in range(2, m + 1):
            others = G[:, :j - 1]
            mats_j = coordinate_surrogate_matrices(samples, basis, others,
                                                   blocks)
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

def _feature_jacobians(basis, coeffs, points, blocks=None):
    """Jacobians (n, d, m) at the points of the features with coefficients
    ``coeffs`` (K, m); ``blocks`` are the support blocks of the basis
    Jacobian at the points, or None.

    Row nu of a point's Jacobian only involves the basis columns with
    alpha_nu > 0, so ``_contract_blocks`` builds it from the support
    blocks: the given ones, or blocks evaluated by
    ``FeatureBasis._support_blocks``, whose tables are computed once per
    _EVAL_CHUNK rows and whose _BLOCK_ROWS-row blocks land in one reused
    buffer, so the (n, d, w) array is not formed.  An entry depends on its
    own point only, so both sources give the same bits.
    """
    if blocks is not None:
        blocks = _blocks_at(basis, points, blocks)
        return _contract_blocks(basis, blocks, coeffs)
    out = np.empty((points.shape[0], basis.dim, coeffs.shape[1]))
    for rows, block in basis._support_blocks(points):
        _contract_blocks(basis, block, coeffs, out=out[rows])
    return out


def _contract_blocks(basis, blocks, coeffs, out=None):
    """Jacobians (n, d, m) of the features with coefficients ``coeffs``
    (K, m) from the support blocks (n, d, w) of the basis Jacobian.

    Entry (nu, j) is one dot product of a contiguous block row with the
    coefficients of feature j on that block's columns, gathered into a
    contiguous row; a padding entry of a block is zero, so its coefficient
    does not count.  A matrix product would let BLAS pick its kernel, and
    so its summation order, by the number of rows; this way an entry
    depends on its own point only.
    """
    block_coeffs = coeffs[basis._block_columns].transpose(0, 2, 1)
    return np.vecdot(blocks[:, :, None, :],
                     np.ascontiguousarray(block_coeffs), out=out)


def _check_compat(samples, fmap):
    if fmap.basis.dim != samples.dim:
        raise InvalidInputError(
            f"sample dim {samples.dim} does not match basis dim {fmap.basis.dim}")
