"""Projection off the numerical span of a few feature gradients.

The Poincare loss, the coordinate surrogates and the deflated greedy passes
all project a gradient off the column span of a small d x m matrix, one
matrix per sample.  ``_span_svd`` is the one rank-revealing kernel behind
them: a per-sample thin SVD whose rank keeps the singular values above
``DEFAULT_RANK_TOL`` times the leading one.  The tolerance is a constant,
not a parameter, so every estimator applies the same rank rule.  A zero
matrix therefore yields the empty span, which keeps the single-feature and
"remove the only column" cases total.  For one or two columns the SVD is
computed in closed form, vectorized over the samples (Gram-Schmidt, then
one rotation of a 2 x 2 triangle), because a batched LAPACK call costs
mostly per-matrix overhead at these sizes; three or more columns go to
``np.linalg.svd``.  For one column the residual also has a closed form,
|b|^2 - <c, b>^2 / |c|^2 from the per-sample sums of
``_single_feature_sums``, which the estimators use instead of the kernel.
When some |c|^2 leaves [2^-500, 2^500] the columns are first scaled by
powers of two, as in the SVD, so the loss does not depend on the scale
of c and only an exactly zero column is rank-collapsed; within that range
nothing is scaled and no bit moves.

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

    With k = min(d, m), U is (n, d, k), S (n, k) in descending order and Vt
    (n, k, m), so M[i] = U[i] diag(S[i]) Vt[i].  ``mask[i, r]`` keeps
    singular value ``S[i, r]`` when it exceeds ``DEFAULT_RANK_TOL`` times
    the sample's leading singular value.  The columns of U that the mask
    keeps are orthonormal; a dropped column is only guaranteed to be
    finite, and every caller zeroes or skips it.  One or two columns take
    the closed form of ``_closed_form_svd`` (a 1 x 2 matrix through its
    transpose), more take ``np.linalg.svd``.
    """
    n, d, m = M.shape
    if not (1 <= m <= 2 and d >= 1):
        U, S, Vt = np.linalg.svd(M, full_matrices=False)
    elif d < m:                     # one row: the SVD of its transpose
        Ut, S, Vtt = _closed_form_svd(M.transpose(0, 2, 1))
        U, Vt = Vtt.transpose(0, 2, 1), Ut.transpose(0, 2, 1)
    else:
        U, S, Vt = _closed_form_svd(M)
    lead = S[:, :1]
    return U, S, Vt, S > DEFAULT_RANK_TOL * np.where(lead > 0.0, lead, 1.0)


def _closed_form_svd(M):
    """Thin SVD (U, S, Vt) of each d x m matrix in M (n, d, m), m = 1 or 2,
    d >= m, vectorized over the samples.

    Each matrix is first scaled by a power of two near the sum of its
    absolute entries, which is exact and keeps its squared column norms
    from overflowing or underflowing.  Classical Gram-Schmidt run twice
    ("twice is enough") factors it as Q R, with R = [[f, g], [0, h]] and
    f, h >= 0.  The right singular vectors of R are the eigenvectors of
    R^T R, one rotation by theta = atan2(2 f g, f^2 - g^2 - h^2) / 2;
    sigma_1 = |R v_1|, u_1 = R v_1 / sigma_1, u_2 is u_1 turned by a right
    angle, and sigma_2 = f h / sigma_1 from det R = sigma_1 sigma_2, so it
    keeps its relative accuracy however small it is.  U = Q [u_1 u_2].
    A zero residual of Gram-Schmidt leaves a zero column of Q, so the
    dropped columns of U may be zero; a zero single column gets U = e_1.
    The arrays are worked on with the samples along the last axis, so
    every operation runs over contiguous memory, and U is returned
    C-contiguous, like ``np.linalg.svd``'s.
    """
    n, d, m = M.shape
    A = np.abs(M.transpose(2, 1, 0), out=np.empty((m, d, n)))
    exp = np.frexp(np.minimum(A.sum(axis=(0, 1)), np.finfo(float).max))[1]
    np.ldexp(M.transpose(2, 1, 0), -exp, out=A)
    f = np.sqrt(_dot(A[0], A[0]))
    q1 = A[0] / np.where(f > 0.0, f, 1.0)
    if m == 1:
        q1[0, f == 0.0] = 1.0
        U = np.ascontiguousarray(q1.T)[:, :, None]
        return U, np.ldexp(f, exp)[:, None], np.ones((n, 1, 1))
    w = A[1]
    g = np.zeros(n)
    for _ in range(2):
        c = _dot(q1, w)
        w -= q1 * c
        g += c
    h = np.sqrt(_dot(w, w))
    q2 = np.divide(w, np.where(h > 0.0, h, 1.0), out=w)
    theta = 0.5 * np.arctan2(2.0 * f * g, f * f - g * g - h * h)
    cos, sin = np.cos(theta), np.sin(theta)
    x, y = f * cos + g * sin, h * sin
    s1 = np.hypot(x, y)
    safe = np.where(s1 > 0.0, s1, 1.0)
    ux = np.where(s1 > 0.0, x / safe, 1.0)
    uy = y / safe
    U = np.empty((2, d, n))
    np.multiply(q1, ux, out=U[0])
    U[0] += q2 * uy
    np.multiply(q2, ux, out=U[1])
    U[1] -= q1 * uy
    S = np.ldexp(np.stack((s1, f * h / safe), axis=1), exp[:, None])
    Vt = np.stack((cos, sin, -sin, cos), axis=1).reshape(n, 2, 2)
    return np.ascontiguousarray(U.transpose(2, 1, 0)), S, Vt


def _dot(a, b):
    """Per-sample dot products of a and b (d, n), summed over d in order,
    so a sample's bits do not depend on how many samples share the batch."""
    terms = a * b
    out = terms[0].copy()
    for row in terms[1:]:
        out += row
    return out


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
        b_sq = np.add.reduce(grad_u * grad_u, axis=1)
    if factors is None:
        factors = _complement_factors(grad_u, jac_g)
    if jac_g.shape[2] == 1:
        _, dot, safe, _ = factors
        return _single_residual_sq(b_sq, dot, safe)
    U, _, _, mask = factors
    coef = np.einsum("ndm,nd->nm", U, grad_u) * mask
    r = b_sq - np.add.reduce(coef * coef, axis=1)
    return np.maximum(r, 0.0, out=r)


# every |col|^2 in this range: no square the m = 1 closed form takes over- or
# underflows at a scale that matters (for |grad u|^2 in [2^-520, 2^520])
_NN_MIN, _NN_MAX = 2.0 ** -500, 2.0 ** 500


def _single_feature_sums(grad_u, col):
    """Per-sample |c|^2, <c, grad_u>, |c|^2 with zeros replaced by 1, and
    the exponents e with c = 2^-e col (None when c = col).

    c is col unless some |col|^2 leaves [2^-500, 2^500]; then each row is
    scaled by a power of two near the sum of its absolute entries, as in
    ``_closed_form_svd``, which is exact and keeps its squares in range.
    So only an exactly zero column has |c|^2 = 0: the rank rule of
    ``_span_svd`` for one column.  A square that overflows before the
    scaling still raises numpy's overflow warning.
    """
    nn = np.add.reduce(col * col, axis=1)
    exp = None
    if not (np.minimum.reduce(nn, initial=_NN_MIN) >= _NN_MIN
            and np.maximum.reduce(nn, initial=_NN_MAX) <= _NN_MAX):
        exp = np.frexp(np.minimum(np.add.reduce(np.abs(col), axis=1),
                                  np.finfo(float).max))[1]
        col = np.ldexp(col, -exp[:, None])
        nn = np.add.reduce(col * col, axis=1)
    dot = np.add.reduce(col * grad_u, axis=1)
    return nn, dot, nn if exp is None else np.where(nn > 0.0, nn, 1.0), exp


def _single_residual_sq(b_sq, dot, safe):
    """The m = 1 case of ``_complement_residual_sq`` from ``_single_feature_sums``:
    |grad_u|^2 - <c, grad_u>^2 / |c|^2, clipped at 0 (a zero c has a zero dot)."""
    q = dot * dot
    q /= safe
    r = b_sq - q
    return np.maximum(r, 0.0, out=r)


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
