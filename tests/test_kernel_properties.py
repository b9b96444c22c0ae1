"""Property tests of the rank-revealing projection kernel in ``gradfeat.geometry``.

The one-matrix API must compute exactly what the estimators compute per
sample, the closed form for one feature must decide rank as the SVD does,
the Poincare loss built on the kernel must stay within its documented
range and depend only on the span of the coefficient columns, and the
surrogates built on its deflation must equal the quadratic forms G^T h G of
their assembled matrices.  The positive semi-definiteness check of those
matrices, which certifies by a shifted Cholesky factorization, must give the
verdict of the eigenvalue rule it stands in for.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradfeat.basis import FeatureBasis, Legendre, build_index_set
from gradfeat.errors import InvalidInputError
from gradfeat.geometry import (_deflate, _orthobasis_batch,
                               _single_feature_sums, _single_residual_sq,
                               _span_svd, complement_split,
                               orthogonal_projector, orthonormal_span,
                               project_complement)
from gradfeat.surrogate import (FeatureMap, SampleSet, SurrogateMatrices,
                                convex_surrogate, coordinate_surrogate,
                                coordinate_surrogate_matrices, poincare_loss,
                                surrogate_matrices)

# fixed example sequence, so a run is reproducible; no example database
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)

# small integers and their halves give exact zeros, repeated columns and
# other exactly rank-deficient matrices alongside generic ones
entries = st.one_of(st.integers(-3, 3).map(lambda v: v / 2.0),
                    st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def batches(draw, min_m=1):
    """A batch of matrices (n, d, m) and of vectors (n, d) to project."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    m = draw(st.integers(min_m, 4))
    M = draw(hnp.arrays(float, (n, d, m), elements=entries))
    x = draw(hnp.arrays(float, (n, d), elements=entries))
    return M, x


class TestOneRowCallsMatchTheBatchedKernel:
    @PROPERTY
    @given(batches())
    def test_orthonormal_span_and_projector(self, batch):
        M, _ = batch
        U, _, _, mask = _span_svd(M)
        for i in range(M.shape[0]):
            expected = U[i][:, mask[i]]
            np.testing.assert_array_equal(orthonormal_span(M[i]), expected)
            P = orthogonal_projector(M[i])
            np.testing.assert_array_equal(P.Q, expected)
            assert P.rank == int(mask[i].sum())

    @PROPERTY
    @given(batches())
    def test_project_complement(self, batch):
        M, x = batch
        rows = _deflate(_orthobasis_batch(M), x)
        for i in range(M.shape[0]):
            np.testing.assert_array_equal(project_complement(M[i], x[i]),
                                          rows[i])

    @PROPERTY
    @given(batches(), st.data())
    def test_complement_split(self, batch, data):
        # the deflation the coordinate surrogate runs on every sample
        M, x = batch
        j = data.draw(st.integers(1, M.shape[2]))
        Q = _orthobasis_batch(np.delete(M, j - 1, axis=2))
        w_rows = _deflate(Q, M[:, :, j - 1])
        v_rows = _deflate(Q, x)
        for i in range(M.shape[0]):
            w, v = complement_split(M[i], x[i], j)
            np.testing.assert_array_equal(w, w_rows[i])
            np.testing.assert_array_equal(v, v_rows[i])


# |v| below about 1e-154 squares to zero, which the closed form reads as a
# zero column; such entries become exact zeros here
squarable = entries.map(lambda v: v if abs(v) >= 1e-100 else 0.0)


class TestSingleFeatureRankRule:
    @PROPERTY
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        hnp.arrays(float, (6, d), elements=squarable),
        hnp.arrays(float, (6, d), elements=entries))))
    def test_closed_form_agrees_with_the_svd(self, batch):
        # the mask compares each singular value with the sample's leading
        # one, which for a single column is its norm: so only zero columns
        # are dropped, as in the closed form's nn > 0
        col, grad_u = batch
        b_sq = np.sum(grad_u ** 2, axis=1)
        nn, dot, safe = _single_feature_sums(grad_u, col)
        U, _, _, mask = _span_svd(col[:, :, None])
        zero = np.all(col == 0.0, axis=1)
        np.testing.assert_array_equal(nn > 0.0, ~zero)
        np.testing.assert_array_equal(mask[:, 0], ~zero)
        closed = _single_residual_sq(b_sq, nn, dot, safe)
        coef = np.einsum("nd,nd->n", U[:, :, 0], grad_u) * mask[:, 0]
        svd = np.maximum(b_sq - coef ** 2, 0.0)
        assert np.all(np.abs(closed - svd) <= 1e-12 * b_sq)


@st.composite
def loss_problems(draw):
    """Samples, a Legendre basis and coefficients with no all-zero column."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, d))
    basis = FeatureBasis(build_index_set(d, 1.0, 2.0),
                         [Legendre(-1.0, 1.0) for _ in range(d)])
    points = draw(hnp.arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
    grads = draw(hnp.arrays(float, (n, d), elements=entries))
    G = draw(hnp.arrays(float, (basis.size, m), elements=entries))
    assume(np.all(np.any(G != 0.0, axis=0)))
    return SampleSet(points, np.zeros(n), grads), basis, G


class TestPoincareLoss:
    @PROPERTY
    @given(loss_problems())
    def test_between_zero_and_gradient_energy(self, problem):
        samples, basis, G = problem
        loss = poincare_loss(samples, FeatureMap(basis, G))
        assert 0.0 <= loss <= samples.mean_gradient_norm_sq()

    @PROPERTY
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.booleans())
    def test_invariant_under_invertible_recombination(self, seed, m, repeat):
        # generic coefficients, or ones with an exactly repeated column, so
        # every per-sample rank is decided far from the tolerance
        rng = np.random.default_rng(seed)
        d = 3
        basis = FeatureBasis(build_index_set(d, 1.0, 2.0),
                             [Legendre(-1.0, 1.0) for _ in range(d)])
        samples = SampleSet(rng.uniform(-1.0, 1.0, size=(20, d)), np.zeros(20),
                            rng.normal(size=(20, d)))
        G = rng.normal(size=(basis.size, m))
        if repeat and m > 1:
            G[:, -1] = G[:, 0]
        # singular values in [1/2, 2]: condition number at most 4
        Q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
        Q2, _ = np.linalg.qr(rng.normal(size=(m, m)))
        A = Q1 @ np.diag(rng.uniform(0.5, 2.0, size=m)) @ Q2
        before = poincare_loss(samples, FeatureMap(basis, G))
        after = poincare_loss(samples, FeatureMap(basis, G @ A))
        scale = samples.mean_gradient_norm_sq()
        assert abs(after - before) <= 1e-9 * scale


@st.composite
def surrogate_problems(draw):
    """Samples, a Legendre basis and two coefficient columns.

    The points come from hypothesis, so zeros and repeated points occur.
    The gradients and coefficients are generic draws from a seeded
    generator, with some gradient rows and some basis rows set to exact
    zeros: a per-sample feature gradient is then zero in every summation
    order, so both sides of the identity decide its rank alike.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    basis = FeatureBasis(build_index_set(d, 1.0, 2.0),
                         [Legendre(-1.0, 1.0) for _ in range(d)])
    points = draw(hnp.arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grads = rng.normal(size=(n, d))
    grads[draw(hnp.arrays(bool, n))] = 0.0
    G = rng.normal(size=(basis.size, 2))
    G[draw(hnp.arrays(bool, basis.size))] = 0.0
    assume(np.all(np.any(G != 0.0, axis=0)))
    return SampleSet(points, np.zeros(n), grads), basis, G


def _term_scale(samples, basis, g):
    """Mean of |grad u|^2 |abs(grad Phi) abs(g)|^2: the size of the terms
    both sides sum, before the projections and h1 - h2 cancel them."""
    B = np.abs(basis.jacobian_batch(samples.points))
    return float(np.mean(np.sum(samples.gradients ** 2, axis=1)
                         * np.sum((B @ np.abs(g)) ** 2, axis=1)))


class TestSurrogateIsQuadraticForm:
    """G^T h G equals the surrogate estimated on the same samples, to 1e-10
    relative to the size of the terms that cancel in either."""

    @PROPERTY
    @given(surrogate_problems())
    def test_single_feature(self, problem):
        samples, basis, G = problem
        g = G[:, 0]
        quad = g @ surrogate_matrices(samples, basis).h @ g
        direct = convex_surrogate(samples, FeatureMap(basis, g))
        assert abs(quad - direct) <= 1e-10 * _term_scale(samples, basis, g)

    @PROPERTY
    @given(surrogate_problems())
    def test_second_feature_given_the_first(self, problem):
        samples, basis, G = problem
        g = G[:, 1]
        quad = g @ coordinate_surrogate_matrices(samples, basis, G[:, :1]).h @ g
        direct = coordinate_surrogate(samples, FeatureMap(basis, G), 2)
        assert abs(quad - direct) <= 1e-10 * _term_scale(samples, basis, g)


def _eigenvalue_rule(h1, h2):
    """The PSD rule on the full spectrum: (accepted, lambda_min + tau, tau)."""
    h1 = 0.5 * (h1 + h1.T)
    h = h1 - 0.5 * (h2 + h2.T)
    evals = np.linalg.eigvalsh(h)
    top = max(abs(evals[0]), abs(evals[-1]), 1e-300)
    tau = 1e-8 * top + 1e-12 * max(np.max(np.abs(h1)), 1e-300)
    return not evals[0] < -tau, evals[0] + tau, tau


@st.composite
def psd_problems(draw):
    """(h1, h2) with h = h1 - h2 = Q diag(lams) Q^T, lambda_min on either side
    of the rule's threshold -tau and the other eigenvalues in [0, scale]."""
    K = draw(st.integers(1, 8))
    Q, _ = np.linalg.qr(draw(hnp.arrays(float, (K, K),
                                        elements=st.floats(-1.0, 1.0))))
    scale = 10.0 ** draw(st.integers(-6, 6))
    lams = scale * draw(hnp.arrays(float, K, elements=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
    # lambda_min in units of 1e-8 * scale, from inside the tolerance to far
    # outside it.  The rule's tau is about one unit when no eigenvalue is
    # larger than scale; the certificate's shift is max diag(h) / scale
    # units, at least 1 / K, so ratios just below one need the fallback
    ratio = draw(st.one_of(st.floats(0.0, 1.5), st.floats(1.5, 8.0),
                           st.floats(8.0, 1e9)))
    lams[0] = -ratio * 1e-8 * scale
    h = (Q * lams) @ Q.T
    h = 0.5 * (h + h.T)
    # h2 = 0 or a multiple of I up to 1e3 * scale, which raises max|h1| and
    # with it the floor that both the rule and the certificate add
    P = draw(st.sampled_from([0.0, 1.0, 1e3])) * scale * np.eye(K)
    return h + P, P


class TestPsdCheck:
    # the examples are small, and the verdicts that tell the certificate's
    # shift apart from the rule's tolerance are a thin slice of them
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(psd_problems())
    def test_verdict_equals_the_eigenvalue_rule(self, problem):
        h1, h2 = problem
        accepted, margin, tau = _eigenvalue_rule(h1, h2)
        # roundoff decides the verdict only within a relative 1e-3 of -tau
        assume(abs(margin) > 1e-3 * tau)
        try:
            SurrogateMatrices(h1=h1, h2=h2)
        except InvalidInputError:
            assert not accepted
        else:
            assert accepted
