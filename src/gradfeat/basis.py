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

import functools
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
    fields = ("a", "b")      # constructor parameters, named as in the spec

    def __init__(self, a, b):
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InvalidInputError(f"bad uniform support ({a}, {b})")
        self.a = float(a)
        self.b = float(b)

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
    fields = ("mu", "sigma")

    def __init__(self, mu, sigma):
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
            raise InvalidInputError(f"bad normal parameters ({mu}, {sigma})")
        self.mu = float(mu)
        self.sigma = float(sigma)

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
    if not isinstance(spec, dict):
        raise InvalidInputError(f"family spec must be an object, got {spec!r}")
    params = dict(spec)
    kind = params.pop("type", None)
    cls = _FAMILY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidInputError(f"unknown family type {kind!r}")
    if set(params) != set(cls.fields):
        raise InvalidInputError(f"family {kind!r} takes parameters "
                                f"{list(cls.fields)}, got {sorted(params)}")
    try:
        return cls(*(params[name] for name in cls.fields))
    except TypeError:
        raise InvalidInputError(f"non-numeric parameter in {spec!r}") from None


def family_to_spec(fam):
    return {"type": fam.kind, **{name: getattr(fam, name) for name in fam.fields}}


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

    @functools.cached_property
    def _plan(self):
        """Gather plans over the stacked value table [1 | vals_0 | ... | vals_{d-1}].

        phi_0 = 1 and phi_0' = 0 in every family, so Phi_alpha only needs
        the factors of supp(alpha), and d Phi_alpha / d x_nu is zero unless
        alpha_nu > 0.  Returns ``(eval_idx, jac_plan)``: ``eval_idx``
        (s_max, K) lists each column's support factors in dimension order;
        ``jac_plan`` holds, per nu, the columns with alpha_nu > 0, their
        degrees, and the other support factors in dimension order.  Short
        lists are padded with the constant-1 column; a skipped or padded
        factor is an exact 1.0, so every product takes the same nonzero
        multiplications in the same order as the full d-fold product.

        Built on first evaluation, since most of the bases that (p, k)
        cross-validation builds are never evaluated.
        """
        alpha = self._alpha
        offsets = 1 + np.concatenate(([0], np.cumsum(self._max_deg + 1)[:-1]))
        table_idx = np.where(alpha > 0, offsets + alpha, 0)  # (K, d)

        def packed(idx):
            # support entries first, in dimension order; the rest index the 1s
            order = np.argsort(idx == 0, axis=1, kind="stable")
            width = int(np.max(np.sum(idx > 0, axis=1), initial=0))
            return np.take_along_axis(idx, order, axis=1)[:, :width].T

        jac_plan = []
        for nu in range(self.dim):
            cols = np.flatnonzero(alpha[:, nu] > 0)
            others = table_idx[cols]
            others[:, nu] = 0
            jac_plan.append((nu, cols, alpha[cols, nu], packed(others)))
        return packed(table_idx), jac_plan

    @functools.cached_property
    def _block_columns(self):
        """The basis columns of the d support blocks side by side, (d, w).

        Row nu lists the columns of ``_jacobian_blocks``'s block nu, then
        pads up to the widest block's width w with columns that have
        alpha_nu = 0, whose d Phi / d x_nu is an exact zero.  Index sets
        from ``build_index_set`` are symmetric in the dimensions, so their
        blocks all have the same width and need no padding.
        """
        alpha = self._alpha
        width = int(np.max(np.sum(alpha > 0, axis=0)))
        return np.array([np.concatenate((np.flatnonzero(alpha[:, nu] > 0),
                                         np.flatnonzero(alpha[:, nu] == 0)))[:width]
                         for nu in range(self.dim)])

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
        """The stacked value table [1 | vals_0 | ... | vals_{d-1}] at the
        rows of X, transposed (one row per univariate member, so that
        gathering members copies whole rows), and the per-dimension
        derivative tables, (n, max_degree + 1) each."""
        vals, ders = [np.ones((1, X.shape[0]))], []
        for nu, fam in enumerate(self.families):
            v, g = fam.table(X[:, nu], int(self._max_deg[nu]))
            vals.append(v.T)
            ders.append(g)
        return np.concatenate(vals, axis=0), ders

    def eval_batch(self, X):
        """Phi at each row of X; returns (n, K)."""
        X = self._check_points(X)
        eval_idx, _ = self._plan
        out = np.empty((X.shape[0], self.size))
        for start in range(0, X.shape[0], _EVAL_CHUNK):
            V, _ = self._tables(X[start:start + _EVAL_CHUNK])
            phi = V[eval_idx[0]]
            for idx in eval_idx[1:]:
                phi *= V[idx]
            out[start:start + _EVAL_CHUNK] = phi.T
        return out

    def jacobian_batch(self, X):
        """Jacobian of Phi at each row of X; returns (n, d, K) with column j = grad Phi_j.

        Only entries with alpha_nu > 0 are multiplied out
        (``_jacobian_blocks``); the others are exact zeros (+0.0).  Each
        nonzero is the same product, in the same order, as the full d-fold
        one, so it is the same bit for bit.
        """
        X = self._check_points(X)
        n = X.shape[0]
        out = np.zeros((n, self.dim, self.size))
        for start in range(0, n, _EVAL_CHUNK):
            sl = slice(start, start + _EVAL_CHUNK)
            for nu, cols, block in self._jacobian_blocks(X[sl]):
                out[sl, nu, cols] = block
        return out

    def _jacobian_blocks(self, X):
        """Yield ``(nu, cols, block)`` for each input dimension nu: the
        (n, len(cols)) block of d Phi_j / d x_nu at the rows of X for the
        columns j in ``cols``, those with alpha_nu > 0.  Every other entry
        of the Jacobian is zero.

        X must hold checked points.  A block entry is the product of the
        derivative factor and the other support factors in dimension order,
        so it depends on its own row of X only.
        """
        _, jac_plan = self._plan
        V, ders = self._tables(X)
        for nu, cols, deg, others in jac_plan:
            block = np.ascontiguousarray(ders[nu].T)[deg]
            for idx in others:
                block *= V[idx]
            yield nu, cols, block.T

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
    if not isinstance(spec, dict) or set(spec) != {"families", "p", "k"}:
        raise InvalidInputError(f"basis spec needs exactly families, p and k: {spec!r}")
    families = [family_from_spec(s) for s in spec["families"]]
    idx = build_index_set(len(families), spec["p"], spec["k"])
    return FeatureBasis(idx, families)


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

class GramMatrix:
    """Symmetric positive-definite K x K metric with a cached Cholesky factor.

    A tiny ridge is added when the raw estimate fails to factor; the amount
    is kept in ``ridge_added``.
    """

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        M = 0.5 * (M + M.T)
        self.ridge_added = 0.0
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


def assemble_gram(basis, samples, jac=None):
    """Gradient Gram matrix R = E[grad Phi^T grad Phi], the sample mean over
    the points (the metric that normalizes feature coefficients).

    ``samples`` is a SampleSet or an (n, d) array of points.  ``jac``, the
    basis Jacobian at the points, is read instead of evaluated when given;
    the result is the same bit for bit.
    """
    points = getattr(samples, "points", None)
    if points is None:
        points = np.asarray(samples, dtype=float)
    n = points.shape[0]
    if n == 0:
        raise InvalidInputError("no samples provided for the Gram matrix")
    K = basis.size
    if n < K:
        warnings.warn(f"Gram estimate from {n} samples for {K} basis functions "
                      "may be poorly conditioned", stacklevel=2)
    scale = np.sqrt(1.0 / n)
    acc = np.zeros((K, K))
    for _, B in _jacobian_chunks(basis, points, _EVAL_CHUNK, jac):
        M = (B * scale).reshape(-1, K)
        acc += M.T @ M
    return GramMatrix(acc)


def _jacobian_chunks(basis, points, size, jac=None):
    """Yield ``(rows, basis Jacobian at those rows)`` over chunks of ``size`` rows.

    ``jac``, the basis Jacobian at every point as an (n, d, K) array, is
    sliced when given; otherwise each chunk is evaluated.  The Jacobian of a
    point does not depend on the rows evaluated with it, so both ways yield
    the same values, and a sum over the chunks is the same bit for bit.
    """
    n = points.shape[0]
    if jac is not None:
        _check_jacobian(basis, n, jac)
    for start in range(0, n, size):
        sl = slice(start, min(start + size, n))
        yield sl, basis.jacobian_batch(points[sl]) if jac is None else jac[sl]


def _check_jacobian(basis, n, jac):
    if jac.shape != (n, basis.dim, basis.size):
        raise InvalidInputError(
            f"Jacobian of shape {jac.shape} does not match {n} points "
            f"in dim {basis.dim} and K={basis.size}")
    return jac

