"""Property tests of the rank-revealing projection kernel in ``gradfeat.geometry``.

The one-matrix API must compute exactly what the estimators compute per
sample, the closed form for one feature must decide rank as the SVD does,
the Poincare loss built on the kernel must stay within its documented
range and depend only on the span of the coefficient columns, and the
surrogates built on its deflation must equal the quadratic forms G^T h G of
their assembled matrices, which stay within a summation bound of an
extended-precision sum.  The positive semi-definiteness check of those
matrices, which certifies by a shifted Cholesky factorization, must give the
verdict of the eigenvalue rule it stands in for.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradfeat.basis import (_SUM_ROWS, FeatureBasis, Legendre, assemble_gram,
                            build_index_set)
from gradfeat.benchmarks import make_benchmark, make_samples
from gradfeat.errors import InvalidInputError
from gradfeat.geometry import (_deflate, _orthobasis_batch,
                               _single_feature_sums, _single_residual_sq,
                               _span_svd, complement_split,
                               orthogonal_projector, orthonormal_span,
                               project_complement)
from gradfeat.surrogate import (FeatureMap, SampleSet, SurrogateMatrices,
                                convex_surrogate, coordinate_surrogate,
                                coordinate_surrogate_matrices,
                                min_generalized_eig, poincare_loss,
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
    both sides sum, before the projections cancel them."""
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


@st.composite
def summation_problems(draw):
    """Samples with n on either side of the _SUM_ROWS-row block, a Legendre
    basis (K = 19 at d = 3) and one prior coefficient column; about one
    gradient row in ten is exactly zero."""
    d = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(1, _SUM_ROWS),
                       st.integers(_SUM_ROWS + 1, 3 * _SUM_ROWS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    basis = FeatureBasis(build_index_set(d, 1.0, 3.0),
                         [Legendre(-1.0, 1.0) for _ in range(d)])
    grads = rng.normal(size=(n, d))
    grads[rng.random(n) < 0.1] = 0.0
    samples = SampleSet(rng.uniform(-1.0, 1.0, (n, d)), np.zeros(n), grads)
    return samples, basis, rng.normal(size=(basis.size, 1))


def _surrogate_reference(grads, jac, Q=None):
    """mean_i M_i^T M_i in np.longdouble, rounded to double, with
    M_i = |v_i| (I - u_i u_i^T - Q_i Q_i^T) J_i and u_i = v_i / |v_i|."""
    v = grads.astype(np.longdouble)
    norm = np.sqrt(np.sum(v ** 2, axis=1))
    unit = np.zeros_like(v)
    nonzero = norm > 0
    unit[nonzero] = v[nonzero] / norm[nonzero, None]
    P = np.eye(v.shape[1], dtype=np.longdouble) - unit[:, :, None] * unit[:, None, :]
    if Q is not None:
        Q = Q.astype(np.longdouble)
        P -= Q @ Q.transpose(0, 2, 1)
    M = (P * norm[:, None, None]) @ jac.astype(np.longdouble)
    return (np.einsum("ndk,ndl->kl", M, M) / len(v)).astype(float)


class TestSurrogateSummation:
    """h is a sum of Grams, so it stays within a summation bound of the
    extended-precision sum, on the scale S = mean |grad u|^2 ||J||_F^2.

    With r prior columns, the operators' absolute values
    |v| (I + |u| |u|^T + |Q| |Q|^T) have 2-norm at most (2 + r) |v|, and
    |v| <= |grad u|, so a term's absolute products sum to at most
    (2 + r)^2 |grad u|^2 ||J||_F^2 in every entry.  A blocked sum of N
    rounded terms errs by gamma_N = N u / (1 - N u), u = eps / 2, relative
    to that (Higham, Accuracy and Stability, section 4.2), with
    N = d _SUM_ROWS + ceil(n / _SUM_ROWS) for the sums and 5 d + 2 r + 21
    for each term's factors (2.5 d + r + 9 each), its product, the division
    by n and the reference's rounding.
    """

    @staticmethod
    def bound(samples, jac, r):
        n, d = samples.n, samples.dim
        steps = d * _SUM_ROWS + -(-n // _SUM_ROWS) + 5 * d + 2 * r + 21
        u = np.finfo(float).eps / 2
        scale = np.mean(np.sum(samples.gradients ** 2, axis=1)
                        * np.sum(jac ** 2, axis=(1, 2)))
        return steps * u / (1 - steps * u) * (2 + r) ** 2 * scale

    @PROPERTY
    @given(summation_problems())
    def test_single_feature(self, problem):
        samples, basis, _ = problem
        jac = basis.jacobian_batch(samples.points)
        ref = _surrogate_reference(samples.gradients, jac)
        h = surrogate_matrices(samples, basis, jac).h
        assert np.max(np.abs(h - ref)) <= self.bound(samples, jac, 0)

    @PROPERTY
    @given(summation_problems())
    def test_second_feature_given_the_first(self, problem):
        samples, basis, G = problem
        jac = basis.jacobian_batch(samples.points)
        Q = _orthobasis_batch(np.einsum("ndk,kr->ndr", jac, G))
        ref = _surrogate_reference(_deflate(Q, samples.gradients), jac, Q)
        h = coordinate_surrogate_matrices(samples, basis, G, jac).h
        assert np.max(np.abs(h - ref)) <= self.bound(samples, jac, 1)

    @pytest.mark.parametrize("bench_id", ["u1", "u2", "u3", "u4"])
    def test_benchmark_matrix_matches_extended_precision(self, bench_id):
        # at (1, 3), n = 250, seed 1, h formed as the difference of two sums
        # erred by 9.4e-11 relative on u4
        bench = make_benchmark(bench_id)
        samples = make_samples(bench, 250, 1)
        basis = FeatureBasis(build_index_set(8, 1.0, 3.0), bench.families)
        jac = basis.jacobian_batch(samples.points)
        ref = _surrogate_reference(samples.gradients, jac)
        h = surrogate_matrices(samples, basis, jac).h
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the same eigensolve of both; u1's lambda_min is about 0, so the
        # error is measured on the scale of lambda_max
        gram = assemble_gram(basis, samples, jac=jac)
        lam_ref = min_generalized_eig(ref, gram)[0]
        assert abs(min_generalized_eig(h, gram)[0] - lam_ref) <= \
            1e-12 * scipy.linalg.eigh(ref, gram.matrix, eigvals_only=True)[-1]


def _eigenvalue_rule(h):
    """The PSD rule on the full spectrum: (accepted, lambda_min + tau, tau)."""
    evals = np.linalg.eigvalsh(0.5 * (h + h.T))
    top = max(abs(evals[0]), abs(evals[-1]), 1e-300)
    tau = 1e-8 * top
    return not evals[0] < -tau, evals[0] + tau, tau


@st.composite
def psd_problems(draw):
    """h = Q diag(lams) Q^T with lambda_min on either side of the rule's
    threshold -tau and the other eigenvalues in [0, scale]."""
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
    return 0.5 * (h + h.T)


class TestPsdCheck:
    # the examples are small, and the verdicts that tell the certificate's
    # shift apart from the rule's tolerance are a thin slice of them
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(psd_problems())
    def test_verdict_equals_the_eigenvalue_rule(self, problem):
        accepted, margin, tau = _eigenvalue_rule(problem)
        # roundoff decides the verdict only within a relative 1e-3 of -tau
        assume(abs(margin) > 1e-3 * tau)
        try:
            SurrogateMatrices(h=problem)
        except InvalidInputError:
            assert not accepted
        else:
            assert accepted
