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

Univariate values are computed by three-term recurrences, one contiguous
row per degree; a basis runs one recurrence per family kind over all of its
dimensions of that kind.  Basis objects are immutable after construction;
evaluation is pure and thread-safe.
"""

import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericError

# rows per pass over the univariate tables
_EVAL_CHUNK = 4096
# rows per support-block product; a (rows, d, w) block this small stays in
# cache, and the values do not depend on it
_BLOCK_ROWS = 512


# ---------------------------------------------------------------------------
# Univariate families
# ---------------------------------------------------------------------------

class _Family:
    """What the univariate families share.  ``rows(x, vals, ders, *params)``
    writes one family kind's values and x-derivatives up to degree
    ``vals.shape[0] - 1`` into ``vals`` and ``ders``, both of shape
    (degree + 1,) + x.shape, for any shape of x; its parameters (named in
    ``fields``) broadcast against x, so a basis evaluates all of its
    dimensions of one kind in one recurrence, straight into its rows of the
    stacked tables."""

    def table(self, x, max_degree):
        """Values and x-derivatives, shapes (n, max_degree + 1)."""
        x = np.asarray(x, dtype=float)
        vals, ders = np.empty((2, max_degree + 1) + x.shape)
        self.rows(x, vals, ders, *(getattr(self, name) for name in self.fields))
        return vals.T, ders.T


class Legendre(_Family):
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

    @staticmethod
    def rows(x, vals, ders, a, b):
        max_degree = vals.shape[0] - 1
        t = (2.0 * x - a - b) / (b - a)
        vals[0] = 1.0
        if max_degree >= 1:
            vals[1] = t
        for i in range(1, max_degree):
            vals[i + 1] = ((2 * i + 1) * t * vals[i] - i * vals[i - 1]) / (i + 1)
        ders[0] = 0.0
        if max_degree >= 1:
            ders[1] = 1.0
        for i in range(1, max_degree):
            ders[i + 1] = ((2 * i + 1) * (vals[i] + t * ders[i])
                           - i * ders[i - 1]) / (i + 1)
        scale = np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0) \
            .reshape((-1,) + (1,) * t.ndim)
        vals *= scale
        ders *= scale
        ders *= 2.0 / (b - a)     # dt/dx

    def sample(self, rng, n):
        return rng.uniform(self.a, self.b, size=n)


def _hermite_rows(t, vals, ders):
    """Scaled Hermite values and t-derivatives, written into ``vals`` and
    ``ders``, one row per degree."""
    max_degree = vals.shape[0] - 1
    vals[0] = 1.0
    if max_degree >= 1:
        vals[1] = t
    for i in range(1, max_degree):
        vals[i + 1] = t * vals[i] - i * vals[i - 1]
    ders[0] = 0.0
    for i in range(max_degree):
        # He_{n}' = n He_{n-1}
        ders[i + 1] = (i + 1) * vals[i]
    scale = np.array([1.0 / math.sqrt(math.factorial(i))
                      for i in range(max_degree + 1)]).reshape((-1,) + (1,) * t.ndim)
    vals *= scale
    ders *= scale


class Hermite(_Family):
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

    @staticmethod
    def rows(x, vals, ders, mu, sigma):
        _hermite_rows((x - mu) / sigma, vals, ders)
        ders /= sigma

    def sample(self, rng, n):
        return rng.normal(self.mu, self.sigma, size=n)


class LogHermite(Hermite):
    """Hermite in (ln x - mu)/sigma, orthonormal under LogNormal(mu, sigma)."""

    kind = "log_hermite"

    @staticmethod
    def rows(x, vals, ders, mu, sigma):
        if np.any(x <= 0.0):
            raise InvalidInputError("log-domain family evaluated at x <= 0")
        _hermite_rows((np.log(x) - mu) / sigma, vals, ders)
        ders /= sigma * x

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


def _index_p_ok(p):
    """An index-set exponent: a number > 0, inf included."""
    return isinstance(p, numbers.Real) and not isinstance(p, bool) and p > 0


def _index_k_ok(k):
    """An index-set bound: a finite number >= 1, so every unit index is in."""
    return isinstance(k, numbers.Real) and not isinstance(k, bool) and 1 <= k < math.inf


def build_index_set(d, p, k):
    """All nonzero multi-indices alpha in N^d with ||alpha||_p <= k.

    d must be an integer >= 1, and p and k must pass ``_index_p_ok`` and
    ``_index_k_ok``, else ``InvalidInputError``.  Indices are sorted by total degree, then
    lexicographically with earlier dimensions dominating.  The arguments
    are checked before the cached builder is looked up, so a value that
    fails the checks (``True``, a list, NaN) raises even when an equal
    valid one (1, ...) is cached.
    """
    if not isinstance(d, numbers.Integral) or isinstance(d, bool) or d < 1:
        raise InvalidInputError(f"d={d!r} must be an integer >= 1")
    if not _index_k_ok(k):
        raise InvalidInputError(f"k={k!r} must be a finite number >= 1")
    if not _index_p_ok(p):
        raise InvalidInputError(f"p={p!r} must be a number > 0 (or inf)")
    return _index_set(int(d), float(p), float(k))


@functools.lru_cache(maxsize=64)
def _index_set(d, p, k):
    """``build_index_set`` for checked arguments; the sets are immutable,
    so every basis of one (d, p, k) shares one."""
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
    return MultiIndexSet(dim=d, p=p, k=k, indices=tuple(out))


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
    def _table_groups(self):
        """``(kind, dims, params, span)`` per family kind, laid out as
        ``_kind_layout`` says, with each of the kind's parameters as a
        (len(dims), 1) column."""
        return [(kind, dims,
                 [np.array([getattr(self.families[nu], name) for nu in dims])[:, None]
                  for name in kind.fields], span)
                for kind, dims, span in _kind_layout(self._kinds, self._max_deg)]

    @property
    def _kinds(self):
        return tuple(type(fam) for fam in self.families)

    @functools.cached_property
    def _plan(self):
        """Gather plans over the stacked tables of ``_tables``
        (``_gather_plan``), shared by every basis with the same indices and
        per-dimension family kinds.  Built on first evaluation, since most
        of the bases that (p, k) cross-validation builds are never
        evaluated."""
        return _gather_plan(self.index_set.indices, self._kinds)

    @functools.cached_property
    def _block_columns(self):
        """The basis columns of the d support blocks side by side, (d, w).

        Row nu lists the columns with alpha_nu > 0, then pads up to the
        widest block's width w with columns that have alpha_nu = 0, whose
        d Phi / d x_nu is an exact zero.  Index sets from
        ``build_index_set`` are symmetric in the dimensions, so their
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
        """The stacked value table V = [1 | vals] and derivative table
        D = [0 | ders] at the rows of X, one row per univariate member and
        dimension (laid out as ``_table_groups`` says), so that gathering
        members copies whole rows.  Each table is allocated once; each
        family kind runs one recurrence over all of its dimensions, written
        straight into the kind's rows of both."""
        n = X.shape[0]
        V = np.empty((self._table_groups[-1][-1].stop, n))  # the last kind ends them
        D = np.empty_like(V)
        V[0], D[0] = 1.0, 0.0
        for kind, dims, params, span in self._table_groups:
            # a slice of whole rows reshapes to a view, which rows() fills
            kind.rows(X.T[dims], V[span].reshape(-1, len(dims), n),
                      D[span].reshape(-1, len(dims), n), *params)
        return V, D

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

        Evaluation API only: the fitting pipeline stores the support blocks
        (``_blocks_at``), n d w numbers in place of n d K.  The support
        blocks of ``_support_blocks`` are scattered along
        ``_block_columns``; every other entry is an exact zero (+0.0).
        Each nonzero is the same product, in the same order, as the full
        d-fold one, so it is the same bit for bit.
        """
        X = self._check_points(X)
        out = np.zeros((X.shape[0], self.dim, self.size))
        dims, columns = np.arange(self.dim)[:, None], self._block_columns
        for rows, blocks in self._support_blocks(X):
            out[rows, dims, columns] = blocks
        return out

    def _support_blocks(self, X):
        """Yield ``(rows, blocks)`` over consecutive slices of the rows of X:
        ``blocks[i, nu, c]`` is d Phi_j / d x_nu at row ``rows.start + i``
        for the column j = ``_block_columns[nu, c]``.

        X must hold checked points.  The univariate tables are computed once
        per _EVAL_CHUNK rows and the products _BLOCK_ROWS rows at a time,
        the last factor of each written straight into one (rows, d, w)
        buffer that every slice reuses: a caller reads ``blocks`` before it
        advances.  Padding entries are never written and stay +0.0.  An
        entry is the product of the derivative factor and the other support
        factors in dimension order, so it depends on its own row only.
        """
        _, jac_plan = self._plan
        n = X.shape[0]
        buffer = np.zeros((min(n, _BLOCK_ROWS), self.dim,
                           self._block_columns.shape[1]))
        for chunk in range(0, n, _EVAL_CHUNK):
            V, D = self._tables(X[chunk:chunk + _EVAL_CHUNK])
            for start in range(0, V.shape[1], _BLOCK_ROWS):
                sl = slice(start, start + _BLOCK_ROWS)
                blocks = buffer[:V.shape[1] - start]
                for nu, (first, others) in enumerate(jac_plan):
                    block = D[first, sl]
                    for idx in others[:-1]:
                        block *= V[idx, sl]
                    target = blocks[:, nu, :first.size].T
                    if len(others):
                        np.multiply(block, V[others[-1], sl], out=target)
                    else:                       # k = 1: no other factor
                        target[...] = block
                yield slice(chunk + start, chunk + start + len(blocks)), blocks

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


def _kind_layout(kinds, max_deg):
    """``(kind, dims, span)`` per family kind, in order of first appearance
    in ``kinds`` (one family class per dimension): the dimensions of that
    kind and the slice of the kind's rows in the stacked tables of
    ``FeatureBasis._tables``.  Row 0 is the constant row; each kind's rows
    follow it, degree by degree from 0 to the kind's highest degree in
    ``max_deg`` (per dimension), each degree holding one row per
    dimension."""
    dims_of = {}
    for nu, kind in enumerate(kinds):
        dims_of.setdefault(kind, []).append(nu)
    layout, start = [], 1
    for kind, dims in dims_of.items():
        size = len(dims) * (int(max_deg[dims].max()) + 1)
        layout.append((kind, dims, slice(start, start + size)))
        start += size
    return layout


@functools.lru_cache(maxsize=64)
def _gather_plan(indices, kinds):
    """Gather plans of a basis with multi-indices ``indices`` and family
    classes ``kinds`` over its stacked tables (``_kind_layout``).

    phi_0 = 1 and phi_0' = 0 in every family, so Phi_alpha only needs
    the factors of supp(alpha), and d Phi_alpha / d x_nu is zero unless
    alpha_nu > 0.  Returns ``(eval_idx, jac_plan)``: ``eval_idx``
    (s_max, K) lists each column's support factors in dimension order;
    ``jac_plan`` holds, per nu, for the columns with alpha_nu > 0 in
    the order of ``FeatureBasis._block_columns``, the derivative-table rows
    of their nu factors and the value-table rows of their other support
    factors in dimension order.  Short lists are padded with the
    constant-1 row; a skipped or padded factor is an exact 1.0, so every
    product takes the same nonzero multiplications in the same order as the
    full d-fold product.  The arrays are read-only, since bases share them.
    """
    alpha = np.array(indices, dtype=int)
    dim = alpha.shape[1]
    max_deg = alpha.max(axis=0)
    # table row of degree i in dimension nu
    row = np.zeros((dim, int(max_deg.max()) + 1), dtype=int)
    for _, dims, span in _kind_layout(kinds, max_deg):
        by_degree = np.arange(span.start, span.stop).reshape(-1, len(dims))
        row[dims, :len(by_degree)] = by_degree.T
    table_idx = np.where(alpha > 0, row[np.arange(dim), alpha], 0)

    def packed(idx):
        # support entries first, in dimension order; the rest index the 1s
        order = np.argsort(idx == 0, axis=1, kind="stable")
        width = int(np.max(np.sum(idx > 0, axis=1), initial=0))
        return np.take_along_axis(idx, order, axis=1)[:, :width].T

    eval_idx = packed(table_idx)
    jac_plan = []
    for nu in range(dim):
        cols = np.flatnonzero(alpha[:, nu] > 0)
        others = table_idx[cols]
        others[:, nu] = 0
        jac_plan.append((table_idx[cols, nu], packed(others)))
    for arr in (eval_idx, *itertools.chain.from_iterable(jac_plan)):
        arr.flags.writeable = False
    return eval_idx, tuple(jac_plan)


def basis_from_spec(spec):
    if not isinstance(spec, dict) or set(spec) != {"families", "p", "k"}:
        raise InvalidInputError(f"basis spec needs exactly families, p and k: {spec!r}")
    families = [family_from_spec(s) for s in spec["families"]]
    idx = build_index_set(len(families), spec["p"], spec["k"])
    return FeatureBasis(idx, families)


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

# LAPACK's Cholesky factorization and triangular solve, resolved once: a
# Gram is factored per fold and solved with inside every descent iteration,
# where scipy's validating wrappers (``cholesky``, ``solve_triangular``) cost
# more than the LAPACK calls themselves, which they make the same way
_POTRF, _TRTRS = scipy.linalg.get_lapack_funcs(("potrf", "trtrs"),
                                               dtype=np.float64)


class GramMatrix:
    """Symmetric positive-definite K x K metric with a cached Cholesky factor.

    A tiny ridge is added when the raw estimate fails to factor; the amount
    is kept in ``ridge_added``.  A non-finite entry (an overflowed sum)
    raises ``NumericError``, and so does a matrix that fails to factor
    even with the ridge.
    """

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        M = 0.5 * (M + M.T)
        if not np.isfinite(M).all():
            raise NumericError("Gram matrix has non-finite entries")
        self.ridge_added = 0.0
        chol, info = _POTRF(M, lower=1, clean=1)
        if info != 0:
            ridge = 1e-12 * np.trace(M) / M.shape[0]
            if ridge <= 0.0:
                ridge = 1e-12
            M = M + ridge * np.eye(M.shape[0])
            self.ridge_added += ridge
            chol, info = _POTRF(M, lower=1, clean=1)
            if info != 0:
                raise NumericError("Gram matrix is not positive definite "
                                   f"(LAPACK info {info})")
        self.matrix = M
        self.chol = chol

    @property
    def size(self):
        return self.matrix.shape[0]

    def solve(self, B):
        """R^{-1} B via the cached factor: L y = B, then L^T x = y.

        Makes the LAPACK calls ``scipy.linalg.solve_triangular`` makes for a
        Fortran-ordered factor (which ``potrf`` returns), so results are
        the same bit for bit, but skips its validation: a non-finite B gives a
        non-finite result instead of an error.
        """
        y, info = _TRTRS(self.chol, B, lower=1, trans=0)
        if info == 0:
            y, info = _TRTRS(self.chol, y, lower=1, trans=1, overwrite_b=1)
        if info != 0:
            raise NumericError(f"triangular solve failed (LAPACK info {info})")
        return y


def assemble_gram(basis, samples, blocks=None):
    """Gradient Gram matrix R = E[grad Phi^T grad Phi], the sample mean over
    the points (the metric that normalizes feature coefficients).

    ``samples`` is a SampleSet or an (n, d) array of points.  ``blocks``,
    the support blocks of the basis Jacobian at the points
    (``_blocks_at``), are read instead of evaluated when given; the result
    is the same bit for bit.  The sum is ``_gram_sum``'s, divided by n.
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
    return GramMatrix(_gram_sum(basis, _blocks_at(basis, points, blocks)) / n)


def _gram_sum(basis, blocks):
    """sum_i J_i^T J_i over the rows of the basis Jacobian, from its support
    blocks (n, d, w): one (w, w) product B_nu^T B_nu per dimension nu over
    all rows, the d of them added into the K x K sum along
    ``FeatureBasis._block_columns`` in the order of nu (``np.bincount``).
    Every other product of two Jacobian columns is an exact zero."""
    K, columns = basis.size, basis._block_columns
    products = np.matmul(blocks.transpose(1, 2, 0), blocks.transpose(1, 0, 2))
    entries = columns[:, :, None] * K + columns[:, None, :]
    return np.bincount(entries.ravel(), products.ravel(),
                       minlength=K * K).reshape(K, K)


def _blocks_at(basis, points, blocks=None):
    """The support blocks of the basis Jacobian at the points, (n, d, w)
    (``FeatureBasis._support_blocks``), in C order: ``blocks`` after a shape
    check, or evaluated when None.  Every sum over samples reads this one
    array, so a public call evaluates the Jacobian at most once; the
    contraction's bits depend on the layout, hence the order."""
    shape = (points.shape[0], basis.dim, basis._block_columns.shape[1])
    if blocks is None:
        blocks = np.empty(shape)
        for rows, block in basis._support_blocks(basis._check_points(points)):
            blocks[rows] = block
        return blocks
    if blocks.shape != shape:
        raise InvalidInputError(
            f"support blocks of shape {blocks.shape} do not match the shape "
            f"{shape} of {points.shape[0]} points in dim {basis.dim} with "
            f"blocks {shape[2]} wide")
    return np.ascontiguousarray(blocks)
