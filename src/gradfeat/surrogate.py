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
over samples take an optional ``jac``, the basis Jacobian at the sample
points, and evaluate it once when it is None.  Each K x K sum walks that
array in fixed blocks of 256 samples (``basis._block_sums``), writing a
block's weighted or projected copy into one reused buffer, so no second
Jacobian-sized array is formed; results are bit-reproducible for given
inputs and the same with and without ``jac``.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .basis import _BLOCK_ROWS, _block_sums, _jacobian_at, _sum_buffer, \
    assemble_gram, basis_from_spec
from .errors import InvalidInputError, NumericError, RankDeficiencyError
from .geometry import _complement_residual_sq, _deflate, _orthobasis_batch

# resolved once: one fold's eigensolve is a few milliseconds, and the
# surrogate's matrices are always float64
_potrf, _sygst, _syevr, _trtrs = scipy.linalg.get_lapack_funcs(
    ("potrf", "sygst", "syevr", "trtrs"), dtype=np.float64)
_ABSTOL = 2.0 * scipy.linalg.lapack.dlamch("S")


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
        return _feature_jacobians(self, self.basis._check_points(X))

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
    """Quadratic-form matrices of the convex surrogate: h = h1 - h2, PSD.

    Non-finite or asymmetric h1, h2 raise ``InvalidInputError``, and so does
    an h that is not PSD up to roundoff: one whose smallest eigenvalue lies
    below -(1e-8 * top + floor), with top the largest eigenvalue magnitude
    and floor = 1e-12 * max|h1|.  A Cholesky factorization of h + tau_lo * I,
    tau_lo = 1e-8 * max diag(h) + floor, certifies the usual case without
    the spectrum: max diag(h) <= top, so tau_lo is below the tolerance and a
    successful factorization means h passes.  Only when it fails are the
    eigenvalues computed and the rule applied to them.
    """

    h1: np.ndarray
    h2: np.ndarray
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        # the checks work in one scratch array, so a build forms only it,
        # h1, h2 and h
        scratch = np.empty(np.shape(self.h1))
        for name in ("h1", "h2"):
            M = getattr(self, name)
            if not np.all(np.isfinite(M)):
                raise InvalidInputError(f"non-finite entries in {name}")
            scale = np.max(np.abs(M, out=scratch)) or 1.0
            np.subtract(M, M.T, out=scratch)
            if np.max(np.abs(scratch, out=scratch)) > 1e-10 * scale:
                raise InvalidInputError(f"{name} is not symmetric")
            sym = np.add(M, M.T)
            sym *= 0.5
            setattr(self, name, sym)
        self.h = self.h1 - self.h2
        # the difference can be exactly zero in exact arithmetic (e.g. no
        # complement directions left), leaving only accumulation roundoff at
        # the scale of h1; allow for that floor
        floor = 1e-12 * max(np.max(np.abs(self.h1, out=scratch)), 1e-300)
        tau_lo = 1e-8 * max(np.max(np.diag(self.h)), 1e-300) + floor
        scratch[...] = self.h
        scratch[np.diag_indices_from(scratch)] += tau_lo
        # h is exactly symmetric, so the transpose, which LAPACK takes in
        # place, holds the same matrix
        if _potrf(scratch.T, lower=1, overwrite_a=1, clean=0)[1] == 0:
            return
        evals = np.linalg.eigvalsh(self.h)
        top = max(abs(evals[0]), abs(evals[-1]), 1e-300)
        if evals[0] < -(1e-8 * top + floor):
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


def poincare_loss_terms(samples, fmap, jac=None):
    """Per-sample contributions to the Poincare loss (useful for standard errors)."""
    _check_compat(samples, fmap)
    jac_g = _feature_jacobians(fmap, samples.points, jac)
    return _complement_residual_sq(samples.gradients, jac_g)


def poincare_loss(samples, fmap, jac=None):
    """Monte-Carlo Poincare loss: mean squared off-span component of the gradient.

    Always lies between 0 and the mean squared gradient norm.
    """
    return float(np.mean(poincare_loss_terms(samples, fmap, jac)))


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

def surrogate_sums(gradients, jac_phi, Q=None):
    """Unnormalized (h1, h2) sums over the given rows; the assemblers divide
    them by the row count, and the (p, k) cross-validation subtracts a fold's
    validation sums from the sums over every sample.

    The sums run through ``_block_sums``: per block, h1 adds the Jacobian
    weighted by |gradient|, written into a reused buffer, and h2 the
    Jacobian contracted with the gradient.  With ``Q``, the per-sample spans
    of ``_orthobasis_batch``, each Jacobian block is first deflated by its
    rows of Q into a second reused buffer; ``gradients`` must then already
    be deflated.
    """
    n, _, K = jac_phi.shape
    weight = np.sqrt(np.sum(gradients ** 2, axis=1))
    weighted = _sum_buffer(jac_phi)
    projected = None if Q is None else _sum_buffer(jac_phi)

    def terms(rows):
        block = jac_phi[rows]
        if Q is not None:
            block = _deflate(Q[rows], block, out=projected[:len(block)])
        W = np.multiply(block, weight[rows, None, None], out=weighted[:len(block)])
        return W.reshape(-1, K), np.einsum("nda,nd->na", block, gradients[rows])
    return tuple(_block_sums(n, terms))


def surrogate_matrices(samples, basis, jac=None):
    """K x K matrices making the single-feature surrogate a quadratic form.

    h1 accumulates the gradient-norm-weighted Jacobian cross-products, h2 the
    rank-one terms from the function gradient; h = h1 - h2 is PSD and
    satisfies G^T h G = convex surrogate of G^T Phi on the same samples.
    """
    h1, h2 = surrogate_sums(samples.gradients,
                            _jacobian_at(basis, samples.points, jac))
    return SurrogateMatrices(h1=h1 / samples.n, h2=h2 / samples.n)


def coordinate_surrogate_matrices(samples, basis, coeffs_others, jac=None):
    """Quadratic-form matrices for the next feature given prior coefficient columns.

    ``coeffs_others`` is K x (m-1); with zero columns this reduces exactly to
    ``surrogate_matrices``.  The assembled matrix annihilates every prior
    column, which is what allows the shifted eigensolve in the greedy pass.
    """
    coeffs_others = np.asarray(coeffs_others, dtype=float)
    if coeffs_others.ndim == 1:
        coeffs_others = coeffs_others[:, None]
    if coeffs_others.shape[1] == 0:
        return surrogate_matrices(samples, basis, jac)
    B = _jacobian_at(basis, samples.points, jac)
    Q = _orthobasis_batch(np.einsum("ndk,kr->ndr", B, coeffs_others))
    h1, h2 = surrogate_sums(_deflate(Q, samples.gradients), B, Q)
    return SurrogateMatrices(h1=h1 / samples.n, h2=h2 / samples.n)


# ---------------------------------------------------------------------------
# Generalized eigenproblems (one eigenpair of the Cholesky-reduced problem)
# ---------------------------------------------------------------------------

def _reduce(H, gram):
    """Lower triangle of L^-1 H L^-T (LAPACK sygst) with L = gram.chol.

    Reads the lower triangle of H.  A non-finite H or a failed call raises
    ``NumericError``.
    """
    H = np.asarray(H, dtype=float)
    if not np.all(np.isfinite(H)):
        raise NumericError("non-finite entries in the eigenproblem matrix")
    A, info = _sygst(H, gram.chol, itype=1, lower=1)
    _check_info("sygst", info)
    return A


def _subset_eig(A, index, vectors):
    """Eigenpair ``index`` (1-based, ascending) of the symmetric matrix whose
    lower triangle A holds (LAPACK syevr); A is overwritten.

    The bisection runs to LAPACK's most accurate tolerance, twice the
    underflow threshold, rather than its default eps * ||A||, so a small
    eigenvalue of a badly scaled pencil keeps its relative accuracy; the
    extra bisection steps cost little next to the reduction.
    """
    w, z, _, _, info = _syevr(A, compute_v=int(vectors), range="I", lower=1,
                              il=index, iu=index, abstol=_ABSTOL, overwrite_a=1)
    _check_info("syevr", info)
    return float(w[0]), z


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
    once with the cached Cholesky factor of R, and only the smallest pair of
    the reduced matrix is computed.  Returns (eigenvalue, vector) with vector
    normalized to unit R-norm and its first non-negligible entry positive.
    A non-finite H or a failed LAPACK call raises ``NumericError``.
    """
    lam, y = _subset_eig(_reduce(H, gram), 1, vectors=True)
    vec, info = _trtrs(gram.chol, y[:, 0], lower=1, trans=1)
    _check_info("trtrs", info)
    vec = vec / np.sqrt(vec @ (gram.matrix @ vec))
    return lam, _fix_sign(vec)


def max_generalized_eig(H, gram):
    """Largest generalized eigenvalue of (H, R), from the same reduction as
    ``min_generalized_eig`` and without eigenvectors; same contract."""
    return _subset_eig(_reduce(H, gram), gram.size, vectors=False)[0]


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

def greedy_features(samples, basis, m, gram=None, jac=None, surrogate=None):
    """Learn m features one at a time by shifted generalized eigensolves.

    The first column minimizes the convex surrogate.  Each later column
    minimizes the coordinate surrogate given the previous columns, with the
    prior-column directions pushed up by a spectral shift (the largest
    generalized eigenvalue of the weighted Jacobian Gram matrix) so the
    eigensolver cannot return them again.  The result satisfies
    G^T R G = I_m after a final re-orthonormalization.  ``jac``, the basis
    Jacobian at the sample points, is evaluated once when None, and ``gram``
    and ``surrogate`` (the ``surrogate_matrices`` of the samples) are
    assembled from it when None.
    """
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if m > basis.size:
        raise InvalidInputError(f"m={m} exceeds basis size K={basis.size}")
    jac = _jacobian_at(basis, samples.points, jac)
    if gram is None:
        gram = assemble_gram(basis, samples, jac=jac)
    mats = surrogate
    if mats is None:
        mats = surrogate_matrices(samples, basis, jac)
    _, g1 = min_generalized_eig(mats.h, gram)
    G = np.zeros((basis.size, m))
    G[:, 0] = g1
    if m > 1:
        alpha = max_generalized_eig(mats.h1, gram)
        R = gram.matrix
        for j in range(2, m + 1):
            others = G[:, :j - 1]
            mats_j = coordinate_surrogate_matrices(samples, basis, others, jac)
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

def _feature_jacobians(fmap, points, jac=None):
    """Feature Jacobians (n, d, m) at the points; ``jac`` is the basis
    Jacobian at the points, or None.

    Row nu of a point's Jacobian only involves the basis columns with
    alpha_nu > 0, so it is built from the support blocks of the basis
    Jacobian, _BLOCK_ROWS rows at a time: evaluated by
    ``FeatureBasis._support_blocks``, whose tables are computed once per
    _EVAL_CHUNK rows and whose blocks land in one reused buffer, or
    gathered from ``jac``.  Entry (nu, j) is one dot product of a
    contiguous block row with the matching contiguous coefficients of
    feature j.  A matrix product would let BLAS pick its kernel, and so its
    summation order, by the number of rows; this way an entry depends on
    its own point only, and both sources give the same bits.
    """
    basis = fmap.basis
    n, d = points.shape[0], basis.dim
    columns = basis._block_columns
    width = columns.shape[1]
    # (d, m, w): the coefficients of each block's columns; a padding entry
    # of a block is zero, so its coefficient does not count
    coeffs = np.ascontiguousarray(fmap.coeffs[columns].transpose(0, 2, 1))
    if jac is None:
        pieces = basis._support_blocks(points)
    else:
        flat = _jacobian_at(basis, points, jac).reshape(n, -1)
        entries = (columns + basis.size * np.arange(d)[:, None]).ravel()
        pieces = ((slice(start, start + _BLOCK_ROWS),
                   np.take(flat[start:start + _BLOCK_ROWS], entries, axis=1)
                   .reshape(-1, d, width))
                  for start in range(0, n, _BLOCK_ROWS))
    out = np.empty((n, d, fmap.n_features))
    for rows, blocks in pieces:
        np.vecdot(blocks[:, :, None, :], coeffs, out=out[rows])
    return out


def _check_compat(samples, fmap):
    if fmap.basis.dim != samples.dim:
        raise InvalidInputError(
            f"sample dim {samples.dim} does not match basis dim {fmap.basis.dim}")
