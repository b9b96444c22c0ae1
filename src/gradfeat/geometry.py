"""Projection off the numerical span of a few feature gradients.

The Poincare loss, the coordinate surrogates and the deflated greedy passes
all project a gradient off the column span of a small d x m matrix, one
matrix per sample.  ``_span_svd`` is the one rank-revealing kernel behind
them: a per-sample SVD whose rank keeps the singular values above
``DEFAULT_RANK_TOL`` times the leading one.  The tolerance is a constant,
not a parameter, so every estimator applies the same rank rule.  A zero
matrix therefore yields the empty span, which keeps the single-feature and
"remove the only column" cases total.  For one column the residual has a
closed form (``_single_feature_sums``), which the estimators use instead of
a one-column SVD.

The public functions take one d x m matrix and run the batched kernel on a
batch of one, so they compute exactly what the estimators compute per
sample.  Everything here is a pure function of its inputs and safe to call
from any number of threads.
"""

import numpy as np

from .errors import InvalidInputError

DEFAULT_RANK_TOL = 1e-10


# ---------------------------------------------------------------------------
# Batched kernel: arrays of shape (n, d, m), one matrix per sample
# ---------------------------------------------------------------------------

def _span_svd(M):
    """Per-sample thin SVD of M (n, d, m) and its rank mask: (U, S, Vt, mask).

    ``mask[i, r]`` keeps singular value ``S[i, r]`` when it exceeds
    ``DEFAULT_RANK_TOL`` times the sample's leading singular value.
    """
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    lead = S[:, :1]
    return U, S, Vt, S > DEFAULT_RANK_TOL * np.where(lead > 0.0, lead, 1.0)


def _orthobasis_batch(W):
    """Per-sample orthonormal span of W (n, d, r); rank-deficient columns zeroed."""
    U, _, _, mask = _span_svd(W)
    return U * mask[:, None, :]


def _deflate(Q, V):
    """V (n, d) minus its projection onto the span held in Q."""
    return V - np.einsum("ndr,nr->nd", Q, np.einsum("ndr,nd->nr", Q, V))


def _complement_factors(grad_u, jac_g):
    """What projecting grad_u off span(jac_g) needs: for m = 1 the closed
    form's ``_single_feature_sums``, otherwise the kernel's ``_span_svd``."""
    if jac_g.shape[2] == 1:
        return _single_feature_sums(grad_u, jac_g[:, :, 0])
    return _span_svd(jac_g)


def _complement_residual_sq(grad_u, jac_g, b_sq=None, factors=None):
    """Per-sample squared norm of grad_u projected off span(jac_g); shapes (n,d),(n,d,m).

    ``b_sq``, the per-sample squared norm of grad_u, and ``factors`` (what
    ``_complement_factors`` returns) may be passed when known.
    """
    if b_sq is None:
        b_sq = np.sum(grad_u ** 2, axis=1)
    if factors is None:
        factors = _complement_factors(grad_u, jac_g)
    if jac_g.shape[2] == 1:
        return _single_residual_sq(b_sq, *factors)
    U, _, _, mask = factors
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


# ---------------------------------------------------------------------------
# One-matrix API
# ---------------------------------------------------------------------------

def _check_matrix(M, name="M"):
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-d array, got ndim={M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return M


def orthonormal_span(M):
    """Orthonormal basis Q (d x r) of the numerical column span of M.

    Rank r counts the singular values above ``DEFAULT_RANK_TOL`` times the
    largest.  Returns a (d, 0) array for a zero matrix.
    """
    U, _, _, mask = _span_svd(_check_matrix(M)[None])
    return U[0][:, mask[0]]


class Projector:
    """Orthogonal projector onto a subspace of R^d, held in factored form.

    The dense d x d matrix is only materialized on demand (``.matrix``), so
    moderate dimensions stay cheap; applying the projector always goes
    through the orthonormal factor Q.
    """

    def __init__(self, Q):
        self.Q = np.asarray(Q, dtype=float)
        self.dim = self.Q.shape[0]
        self.rank = self.Q.shape[1]

    @property
    def matrix(self):
        return self.Q @ self.Q.T

    def apply(self, x):
        """Project x onto the subspace."""
        x = np.asarray(x, dtype=float)
        return self.Q @ (self.Q.T @ x)

    def apply_complement(self, x):
        """Project x onto the orthogonal complement."""
        x = np.asarray(x, dtype=float)
        return x - self.Q @ (self.Q.T @ x)


def orthogonal_projector(M):
    """Orthogonal projector onto the column span of M (d x m, m >= 1)."""
    return Projector(orthonormal_span(M))


def project_complement(M, x):
    """Component of x orthogonal to the column span of M."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x contains non-finite entries")
    Q = _orthobasis_batch(_check_matrix(M)[None])
    return _deflate(Q, x[None])[0]


def complement_split(jac_g, grad_u, j):
    """Deflate feature j's companion gradients out of (feature j, function) gradients.

    Given the d x m feature-gradient matrix and the function gradient, removes
    the span of the other m-1 feature gradients from both the j-th feature
    gradient and the function gradient.  Feature indices are 1-based.

    Returns
    -------
    (w, v) : pair of d-vectors, the deflated feature gradient and the
        deflated function gradient.
    """
    J = _check_matrix(jac_g, "jac_g")
    grad_u = np.asarray(grad_u, dtype=float)
    m = J.shape[1]
    if not 1 <= j <= m:
        raise InvalidInputError(f"feature index j={j} out of range 1..{m}")
    Q = _orthobasis_batch(np.delete(J, j - 1, axis=1)[None])
    return _deflate(Q, J[None, :, j - 1])[0], _deflate(Q, grad_u[None])[0]


def smallest_singular_value(M):
    """sigma_m(M) for a d x m matrix with d >= m."""
    M = _check_matrix(M)
    d, m = M.shape
    if d < m:
        raise InvalidInputError(f"need d >= m, got shape {M.shape}")
    return float(np.linalg.svd(M, compute_uv=False)[-1])
