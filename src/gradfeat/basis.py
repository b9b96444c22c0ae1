"""Tensorized orthonormal polynomial feature bases with Jacobians.

A basis is built from a multi-index set (all nonzero multi-indices whose
p-norm is bounded by k) and one univariate orthonormal family per input
dimension.  Three families are supported, one per input law used by the
benchmarks:

* ``Legendre(a, b)``     -- shifted normalized Legendre, orthonormal under U(a, b)
* ``Hermite(mu, sigma)`` -- probabilists' Hermite scaled by 1/sqrt(i!), orthonormal
  under N(mu, sigma^2)
* ``LogHermite(mu, sigma)`` -- Hermite composed with (ln x - mu)/sigma, orthonormal
  under the lognormal law by change of variables (and therefore not a polynomial
  in x itself)

Univariate values are computed by three-term recurrences.  Basis objects are
immutable after construction; evaluation is pure and thread-safe.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericError

_EVAL_CHUNK = 16384


# ---------------------------------------------------------------------------
# Univariate families
# ---------------------------------------------------------------------------

class Legendre:
    """Normalized Legendre polynomials on (a, b), orthonormal under U(a, b)."""

    kind = "legendre"

    def __init__(self, a, b):
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InvalidInputError(f"bad uniform support ({a}, {b})")
        self.a = float(a)
        self.b = float(b)

    def params(self):
        return (self.a, self.b)

    # slope of the degree-1 member as a function of x
    def linear_slope(self):
        return 2.0 * math.sqrt(3.0) / (self.b - self.a)

    def table(self, x, max_degree):
        """Values and x-derivatives, shapes (n, max_degree + 1)."""
        x = np.asarray(x, dtype=float)
        t = (2.0 * x - self.a - self.b) / (self.b - self.a)
        n = x.shape[0]
        vals = np.empty((n, max_degree + 1))
        ders = np.empty((n, max_degree + 1))
        vals[:, 0] = 1.0
        ders[:, 0] = 0.0
        if max_degree >= 1:
            vals[:, 1] = t
            ders[:, 1] = 1.0
        for i in range(1, max_degree):
            vals[:, i + 1] = ((2 * i + 1) * t * vals[:, i] - i * vals[:, i - 1]) / (i + 1)
            ders[:, i + 1] = ((2 * i + 1) * (vals[:, i] + t * ders[:, i])
                              - i * ders[:, i - 1]) / (i + 1)
        scale = np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)
        dt_dx = 2.0 / (self.b - self.a)
        return vals * scale, ders * scale * dt_dx

    def sample(self, rng, n):
        return rng.uniform(self.a, self.b, size=n)


class Hermite:
    """Probabilists' Hermite scaled by 1/sqrt(i!), orthonormal under N(mu, sigma^2)."""

    kind = "hermite"

    def __init__(self, mu, sigma):
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
            raise InvalidInputError(f"bad normal parameters ({mu}, {sigma})")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def params(self):
        return (self.mu, self.sigma)

    def linear_slope(self):
        return 1.0 / self.sigma

    def _hermite_table(self, t, max_degree):
        n = t.shape[0]
        vals = np.empty((n, max_degree + 1))
        ders = np.empty((n, max_degree + 1))
        vals[:, 0] = 1.0
        ders[:, 0] = 0.0
        if max_degree >= 1:
            vals[:, 1] = t
            ders[:, 1] = 1.0
        for i in range(1, max_degree):
            vals[:, i + 1] = t * vals[:, i] - i * vals[:, i - 1]
            # He_{n}' = n He_{n-1}
            ders[:, i + 1] = (i + 1) * vals[:, i]
        scale = np.array([1.0 / math.sqrt(math.factorial(i)) for i in range(max_degree + 1)])
        return vals * scale, ders * scale

    def table(self, x, max_degree):
        x = np.asarray(x, dtype=float)
        t = (x - self.mu) / self.sigma
        vals, ders = self._hermite_table(t, max_degree)
        return vals, ders / self.sigma

    def sample(self, rng, n):
        return rng.normal(self.mu, self.sigma, size=n)


class LogHermite(Hermite):
    """Hermite in (ln x - mu)/sigma, orthonormal under LogNormal(mu, sigma)."""

    kind = "log_hermite"

    def table(self, x, max_degree):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise InvalidInputError("log-domain family evaluated at x <= 0")
        t = (np.log(x) - self.mu) / self.sigma
        vals, ders = self._hermite_table(t, max_degree)
        return vals, ders / (self.sigma * x[:, None])

    def sample(self, rng, n):
        return np.exp(rng.normal(self.mu, self.sigma, size=n))


_FAMILY_KINDS = {cls.kind: cls for cls in (Legendre, Hermite, LogHermite)}


def family_from_spec(spec):
    """Build a family from {"type": ..., <params>} (the config/serialized form)."""
    spec = dict(spec)
    kind = spec.pop("type", None)
    if kind == "legendre":
        return Legendre(spec["a"], spec["b"])
    if kind == "hermite":
        return Hermite(spec["mu"], spec["sigma"])
    if kind == "log_hermite":
        return LogHermite(spec["mu"], spec["sigma"])
    raise InvalidInputError(f"unknown family type {kind!r}")


def family_to_spec(fam):
    if isinstance(fam, LogHermite):
        return {"type": "log_hermite", "mu": fam.mu, "sigma": fam.sigma}
    if isinstance(fam, Hermite):
        return {"type": "hermite", "mu": fam.mu, "sigma": fam.sigma}
    return {"type": "legendre", "a": fam.a, "b": fam.b}


# ---------------------------------------------------------------------------
# Multi-index sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndexSet:
    """Nonzero multi-indices with ||alpha||_p <= k, in graded lexicographic order."""

    dim: int
    p: float
    k: float
    indices: tuple = field(repr=False)

    @property
    def size(self):
        return len(self.indices)

    def max_total_degree(self):
        return max(sum(a) for a in self.indices)

    def max_degree_per_dim(self):
        arr = np.array(self.indices)
        return arr.max(axis=0)


def build_index_set(d, p, k):
    """All nonzero multi-indices alpha in N^d with ||alpha||_p <= k.

    p may be any positive real or inf; k >= 1 so that every unit index is
    admitted (linear maps stay representable).  Indices are sorted by total
    degree, then lexicographically with earlier dimensions dominating.
    """
    if d < 1:
        raise InvalidInputError("d must be >= 1")
    if not k >= 1:
        raise InvalidInputError(f"k={k} < 1 would exclude the unit indices")
    if not p > 0:
        raise InvalidInputError(f"p={p} must be positive (or inf)")
    max_single = int(math.floor(k + 1e-12))
    out = []
    if math.isinf(p):
        for alpha in itertools.product(range(max_single + 1), repeat=d):
            if any(alpha):
                out.append(alpha)
    else:
        budget = k ** p * (1.0 + 1e-12)
        costs = [i ** p for i in range(max_single + 1)]

        def extend(prefix, used):
            if len(prefix) == d:
                if any(prefix):
                    out.append(tuple(prefix))
                return
            for i in range(max_single + 1):
                if used + costs[i] <= budget:
                    extend(prefix + [i], used + costs[i])

        extend([], 0.0)
    out.sort(key=lambda a: (sum(a), tuple(-x for x in a)))
    return MultiIndexSet(dim=d, p=float(p), k=float(k), indices=tuple(out))


# ---------------------------------------------------------------------------
# Feature basis
# ---------------------------------------------------------------------------

class FeatureBasis:
    """Tensor-product basis Phi: R^d -> R^K over a multi-index set.

    Phi_alpha(x) = prod_nu phi_{alpha_nu}(x_nu) with one orthonormal
    univariate family per dimension.
    """

    def __init__(self, index_set, families):
        if len(families) != index_set.dim:
            raise InvalidInputError(
                f"{len(families)} families for dim {index_set.dim}")
        self.index_set = index_set
        self.families = tuple(families)
        self._alpha = np.array(index_set.indices, dtype=int)  # (K, d)
        self._max_deg = self._alpha.max(axis=0)               # per dimension

    @property
    def dim(self):
        return self.index_set.dim

    @property
    def size(self):
        return self.index_set.size

    def is_polynomial(self):
        """True when every family is polynomial in x (no log-domain family)."""
        return not any(isinstance(f, LogHermite) for f in self.families)

    def degree(self):
        """Largest total degree over the index set (defines the class degree)."""
        return self.index_set.max_total_degree()

    def spec(self):
        return {
            "families": [family_to_spec(f) for f in self.families],
            "p": self.index_set.p,
            "k": self.index_set.k,
        }

    # -- evaluation ---------------------------------------------------------

    def _tables(self, X):
        vals, ders = [], []
        for nu, fam in enumerate(self.families):
            v, g = fam.table(X[:, nu], int(self._max_deg[nu]))
            vals.append(v)
            ders.append(g)
        return vals, ders

    def eval_batch(self, X):
        """Phi at each row of X; returns (n, K)."""
        X = self._check_points(X)
        out = np.empty((X.shape[0], self.size))
        for start in range(0, X.shape[0], _EVAL_CHUNK):
            chunk = X[start:start + _EVAL_CHUNK]
            vals, _ = self._tables(chunk)
            phi = np.ones((chunk.shape[0], self.size))
            for nu in range(self.dim):
                phi *= vals[nu][:, self._alpha[:, nu]]
            out[start:start + _EVAL_CHUNK] = phi
        return out

    def jacobian_batch(self, X):
        """Jacobian of Phi at each row of X; returns (n, d, K) with column j = grad Phi_j."""
        X = self._check_points(X)
        n = X.shape[0]
        out = np.empty((n, self.dim, self.size))
        for start in range(0, n, _EVAL_CHUNK):
            chunk = X[start:start + _EVAL_CHUNK]
            vals, ders = self._tables(chunk)
            for nu in range(self.dim):
                block = ders[nu][:, self._alpha[:, nu]]
                for rho in range(self.dim):
                    if rho != nu:
                        block = block * vals[rho][:, self._alpha[:, rho]]
                out[start:start + _EVAL_CHUNK, nu, :] = block
        return out

    def eval(self, x):
        """Phi(x) for a single point."""
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def jacobian(self, x):
        """d x K Jacobian at a single point."""
        return self.jacobian_batch(np.asarray(x, dtype=float)[None, :])[0]

    def _check_points(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise InvalidInputError(
                f"points have dim {X.shape[1]}, basis has dim {self.dim}")
        if not np.all(np.isfinite(X)):
            raise InvalidInputError("points contain non-finite entries")
        return X


def basis_from_spec(spec):
    families = [family_from_spec(s) for s in spec["families"]]
    idx = build_index_set(len(families), spec["p"], spec["k"])
    return FeatureBasis(idx, families)


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

class GramMatrix:
    """Symmetric positive-definite K x K metric with a cached Cholesky factor.

    ``kind`` records which inner product it estimates: "grad_gram" for the
    expected Jacobian cross-product, "value_gram" for plain basis values.
    A tiny ridge is added when the raw estimate fails to factor; the amount
    is kept in ``ridge_added``.
    """

    def __init__(self, matrix, kind="grad_gram", ridge_added=0.0):
        M = np.asarray(matrix, dtype=float)
        M = 0.5 * (M + M.T)
        self.kind = kind
        self.ridge_added = float(ridge_added)
        try:
            chol = scipy.linalg.cholesky(M, lower=True)
        except scipy.linalg.LinAlgError:
            ridge = 1e-12 * np.trace(M) / M.shape[0]
            if ridge <= 0.0:
                ridge = 1e-12
            M = M + ridge * np.eye(M.shape[0])
            self.ridge_added += ridge
            try:
                chol = scipy.linalg.cholesky(M, lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise NumericError("Gram matrix is not positive definite") from exc
        self.matrix = M
        self.chol = chol
        # resolved once: solve() runs inside every descent iteration, where
        # the validating scipy wrapper costs more than the solves themselves
        self._trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (chol,))

    @property
    def size(self):
        return self.matrix.shape[0]

    def solve(self, B):
        """R^{-1} B via the cached factor: L y = B, then L^T x = y.

        Makes the LAPACK calls ``scipy.linalg.solve_triangular`` makes for a
        Fortran-ordered factor (which ``cholesky`` returns), so results are
        the same bit for bit, but skips its validation: a non-finite B gives a
        non-finite result instead of an error.
        """
        y, info = self._trtrs(self.chol, B, lower=1, trans=0)
        if info == 0:
            y, info = self._trtrs(self.chol, y, lower=1, trans=1, overwrite_b=1)
        if info != 0:
            raise NumericError(f"triangular solve failed (LAPACK info {info})")
        return y


def assemble_gram(basis, samples, kind="grad_gram"):
    """Monte-Carlo Gram matrix of the basis.

    ``samples`` is a SampleSet, an (n, d) array of points, or a
    ``(points, weights)`` quadrature pair.  For "grad_gram" this estimates the
    expected Jacobian cross-product (the metric used to normalize feature
    coefficients); for "value_gram" the expected outer product of values.
    """
    points, weights = _points_and_weights(samples)
    n = points.shape[0]
    if n == 0:
        raise InvalidInputError("no samples provided for the Gram matrix")
    _warn_underdetermined(n, basis.size)
    K = basis.size
    acc = np.zeros((K, K))
    for start in range(0, n, _EVAL_CHUNK):
        sl = slice(start, min(start + _EVAL_CHUNK, n))
        w = weights[sl]
        if kind == "grad_gram":
            acc += _grad_gram_term(basis.jacobian_batch(points[sl]), w)
        elif kind == "value_gram":
            V = basis.eval_batch(points[sl]) * np.sqrt(w)[:, None]
            acc += V.T @ V
        else:
            raise InvalidInputError(f"unknown Gram kind {kind!r}")
    return GramMatrix(acc, kind=kind)


def gram_from_jacobian(jac):
    """The "grad_gram" matrix of a sample set from its basis Jacobian (n, d, K).

    Equals ``assemble_gram(basis, samples)`` bit for bit when ``jac`` is
    C-contiguous with the values ``basis.jacobian_batch(samples.points)``
    returns, because it runs the same chunked accumulation.
    """
    n, _, K = jac.shape
    if n == 0:
        raise InvalidInputError("no samples provided for the Gram matrix")
    _warn_underdetermined(n, K)
    weights = np.full(n, 1.0 / n)
    acc = np.zeros((K, K))
    for start in range(0, n, _EVAL_CHUNK):
        sl = slice(start, min(start + _EVAL_CHUNK, n))
        acc += _grad_gram_term(jac[sl], weights[sl])
    return GramMatrix(acc)


def _grad_gram_term(B, w):
    M = (B * np.sqrt(w)[:, None, None]).reshape(-1, B.shape[2])
    return M.T @ M


def _warn_underdetermined(n, K):
    if n < K:
        warnings.warn(
            f"Gram estimate from {n} samples for {K} basis functions "
            "may be poorly conditioned", stacklevel=3)


def _points_and_weights(samples):
    if isinstance(samples, tuple) and len(samples) == 2:
        points = np.asarray(samples[0], dtype=float)
        weights = np.asarray(samples[1], dtype=float)
        if weights.shape[0] != points.shape[0]:
            raise InvalidInputError("quadrature weights do not match points")
        return points, weights
    points = getattr(samples, "points", None)
    if points is None:
        points = np.asarray(samples, dtype=float)
    n = points.shape[0]
    if n == 0:
        return points, np.zeros(0)
    return points, np.full(n, 1.0 / n)
