import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradfeat.basis import (_BLOCK_ROWS, _EVAL_CHUNK, FeatureBasis,
                            GramMatrix, Hermite, Legendre, LogHermite,
                            MultiIndexSet, assemble_gram, build_index_set)
from gradfeat.benchmarks import make_benchmark, make_samples
import gradfeat.surrogate as surrogate
from gradfeat.errors import InvalidInputError, NumericError, RankDeficiencyError
from gradfeat.geometry import complement_split
from gradfeat.surrogate import (FeatureMap, SampleSet, SurrogateMatrices,
                                _feature_jacobians,
                                convex_surrogate, convex_surrogate_terms,
                                coordinate_surrogate,
                                coordinate_surrogate_matrices,
                                greedy_features, min_generalized_eig,
                                orthonormalize, poincare_loss,
                                surrogate_matrices)

SQ3 = math.sqrt(3.0)


def unit_box_basis(d, p=1.0, k=1.0):
    return FeatureBasis(build_index_set(d, p, k),
                        [Legendre(0.0, 1.0) for _ in range(d)])


def coordinate_map(basis, columns):
    """Feature map whose features are the raw coordinates listed in columns."""
    d = basis.dim
    G = np.zeros((basis.size, len(columns)))
    for col, nu in enumerate(columns):
        unit = tuple(1 if i == nu else 0 for i in range(d))
        G[basis.index_set.indices.index(unit), col] = 1.0 / (2.0 * SQ3)
    return FeatureMap(basis, G)


def first_coordinate_samples(d, n, seed):
    """Samples of u(x) = x_1 on the unit box."""
    X = np.random.default_rng(seed).uniform(0, 1, size=(n, d))
    grads = np.zeros_like(X)
    grads[:, 0] = 1.0
    return SampleSet(X, X[:, 0], grads)


class TestSampleSet:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleSet(np.ones((3, 2)), np.ones(3), np.ones((3, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleSet(np.ones((2, 2)), np.array([1.0, np.inf]), np.ones((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleSet(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))


class TestPoincareLoss:
    def test_orthogonal_gradients(self):
        samples = first_coordinate_samples(2, 300, 0)
        fmap = coordinate_map(unit_box_basis(2), [1])
        assert poincare_loss(samples, fmap) == pytest.approx(1.0, rel=1e-12)

    def test_aligned_gradients(self):
        samples = first_coordinate_samples(2, 300, 1)
        fmap = coordinate_map(unit_box_basis(2), [0])
        assert poincare_loss(samples, fmap) == pytest.approx(0.0, abs=1e-14)

    def test_bounded_by_gradient_energy(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(200, 3))
        samples = SampleSet(X, rng.normal(size=200), rng.normal(size=(200, 3)))
        fmap = coordinate_map(unit_box_basis(3), [2])
        loss = poincare_loss(samples, fmap)
        assert 0.0 <= loss <= samples.mean_gradient_norm_sq()

    def test_reparametrization_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(150, 3))
        samples = SampleSet(X, rng.normal(size=150), rng.normal(size=(150, 3)))
        basis = unit_box_basis(3, k=2.0)
        G = rng.normal(size=(basis.size, 2))
        base = poincare_loss(samples, FeatureMap(basis, G))
        for _ in range(10):
            A = rng.normal(size=(2, 2))
            if abs(np.linalg.det(A)) < 0.1:
                continue
            mixed = poincare_loss(samples, FeatureMap(basis, G @ A))
            assert abs(mixed - base) <= 1e-10 * max(base, 1.0)

    def test_swap_expression_identity(self):
        # the loss equals the gradient-swapped expression wherever the
        # feature gradient is nonnegligible
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(200, 2))
        samples = SampleSet(X, rng.normal(size=200), rng.normal(size=(200, 2)))
        basis = unit_box_basis(2, k=2.0)
        fmap = FeatureMap(basis, rng.normal(size=(basis.size, 1)))
        jac = fmap.gradients(X)[:, :, 0]
        gnorm2 = np.sum(jac ** 2, axis=1)
        mask = np.sqrt(gnorm2) > 1e-8
        direct = poincare_loss(samples.subset(mask), fmap)
        swapped = np.mean(
            convex_surrogate_terms(samples.subset(mask), fmap) / gnorm2[mask])
        assert abs(direct - swapped) <= 1e-9 * max(direct, 1.0)

    def test_coordinate_expression_identity(self):
        # deflating any feature index leaves the loss unchanged
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(100, 3))
        samples = SampleSet(X, rng.normal(size=100), rng.normal(size=(100, 3)))
        basis = unit_box_basis(3, k=2.0)
        fmap = FeatureMap(basis, rng.normal(size=(basis.size, 2)))
        loss = poincare_loss(samples, fmap)
        jacs = fmap.gradients(X)
        for j in (1, 2):
            acc = 0.0
            for i in range(samples.n):
                w, v = complement_split(jacs[i], samples.gradients[i], j)
                wn = np.sum(w ** 2)
                if wn > 0:
                    acc += np.sum(v ** 2) - np.sum(v * w) ** 2 / wn
                else:
                    acc += np.sum(v ** 2)
            assert abs(acc / samples.n - loss) <= 1e-9 * max(loss, 1.0)


class TestConvexSurrogate:
    def test_orthogonal_unit_case(self):
        samples = first_coordinate_samples(2, 250, 6)
        fmap = coordinate_map(unit_box_basis(2), [1])
        assert convex_surrogate(samples, fmap) == pytest.approx(1.0, rel=1e-12)

    def test_aligned_is_zero(self):
        samples = first_coordinate_samples(2, 250, 7)
        fmap = coordinate_map(unit_box_basis(2), [0])
        assert convex_surrogate(samples, fmap) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(150, 2))
        samples = SampleSet(X, rng.normal(size=150), rng.normal(size=(150, 2)))
        basis = unit_box_basis(2, k=2.0)
        G = rng.normal(size=basis.size)
        base = convex_surrogate(samples, FeatureMap(basis, G))
        for c in (0.5, 2.0, 7.0):
            scaled = convex_surrogate(samples, FeatureMap(basis, c * G))
            assert abs(scaled - c ** 2 * base) <= 1e-12 * max(c ** 2 * base, 1.0)

    def test_multi_feature_rejected(self):
        samples = first_coordinate_samples(2, 50, 9)
        fmap = coordinate_map(unit_box_basis(2), [0, 1])
        with pytest.raises(InvalidInputError):
            convex_surrogate(samples, fmap)


class TestCoordinateSurrogate:
    def test_orthogonal_triple(self):
        samples = first_coordinate_samples(3, 200, 10)
        fmap = coordinate_map(unit_box_basis(3), [1, 2])
        assert coordinate_surrogate(samples, fmap, 2) == pytest.approx(1.0, rel=1e-12)

    def test_deflated_direction_parallel_to_gradient(self):
        samples = first_coordinate_samples(3, 200, 11)
        fmap = coordinate_map(unit_box_basis(3), [1, 0])
        assert coordinate_surrogate(samples, fmap, 2) == pytest.approx(0.0, abs=1e-12)

    def test_single_feature_reduces_to_convex_surrogate(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(180, 2))
        samples = SampleSet(X, rng.normal(size=180), rng.normal(size=(180, 2)))
        basis = unit_box_basis(2, k=2.0)
        fmap = FeatureMap(basis, rng.normal(size=basis.size))
        a = coordinate_surrogate(samples, fmap, 1)
        b = convex_surrogate(samples, fmap)
        assert abs(a - b) <= 1e-12 * max(b, 1.0)

    def test_bad_index(self):
        samples = first_coordinate_samples(2, 20, 13)
        fmap = coordinate_map(unit_box_basis(2), [0, 1])
        with pytest.raises(InvalidInputError):
            coordinate_surrogate(samples, fmap, 3)


class TestSurrogateMatrices:
    def test_constant_jacobian_exact(self):
        # u = x1 on the unit square with the degree-one basis: the basis
        # Jacobian is the constant diag(2*sqrt(3), 2*sqrt(3)) and the
        # projector off grad u is exactly diag(0, 1), so h = diag(0, 12)
        # regardless of the sample draw, its zeros exactly
        samples = first_coordinate_samples(2, 100, 14)
        mats = surrogate_matrices(samples, unit_box_basis(2))
        assert mats.h[0, 0] == mats.h[0, 1] == mats.h[1, 0] == 0.0
        assert mats.h[1, 1] == pytest.approx(12.0, rel=1e-12)

    def test_zero_gradients(self):
        X = np.random.default_rng(15).uniform(0, 1, size=(50, 2))
        samples = SampleSet(X, np.zeros(50), np.zeros((50, 2)))
        mats = surrogate_matrices(samples, unit_box_basis(2))
        assert np.max(np.abs(mats.h)) == 0.0

    def test_positive_semidefinite_on_random_samples(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(0, 1, size=(120, 3))
        samples = SampleSet(X, rng.normal(size=120), rng.normal(size=(120, 3)))
        mats = surrogate_matrices(samples, unit_box_basis(3, k=2.0))
        evals = np.linalg.eigvalsh(mats.h)
        assert evals[0] >= -1e-8 * max(abs(evals[-1]), 1e-300)

    def test_quadratic_form_consistency(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 1, size=(200, 3))
        samples = SampleSet(X, rng.normal(size=200), rng.normal(size=(200, 3)))
        basis = unit_box_basis(3, k=2.0)
        mats = surrogate_matrices(samples, basis)
        for _ in range(100):
            G = rng.normal(size=basis.size)
            direct = convex_surrogate(samples, FeatureMap(basis, G))
            quad = float(G @ mats.h @ G)
            assert abs(direct - quad) <= 1e-10 * (1.0 + abs(direct))

    def test_asymmetric_input_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError, match="h is not symmetric"):
            SurrogateMatrices(h=M)

    def test_indefinite_difference_rejected(self):
        # h = diag(0, 12) exactly (see test_constant_jacobian_exact), so
        # taking 1% of 12 off its zero leaves the eigenvalue -0.12 at scale 12
        mats = surrogate_matrices(first_coordinate_samples(2, 100, 14),
                                  unit_box_basis(2))
        SurrogateMatrices(h=mats.h)
        with pytest.raises(InvalidInputError, match="positive semi-definite"):
            SurrogateMatrices(h=mats.h - np.diag([0.12, 0.0]))

    @pytest.mark.parametrize("entry", [(1, 2), (0, 0)],
                             ids=["off-diagonal", "diagonal"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, entry, bad):
        h = np.eye(3)
        h[entry] = bad
        with pytest.raises(InvalidInputError, match="non-finite entries in h"):
            SurrogateMatrices(h=h)


class TestCoordinateSurrogateMatrices:
    def test_empty_prior_reduces_to_single_feature(self):
        samples = first_coordinate_samples(2, 80, 18)
        basis = unit_box_basis(2, k=2.0)
        a = surrogate_matrices(samples, basis)
        b = coordinate_surrogate_matrices(samples, basis,
                                          np.zeros((basis.size, 0)))
        np.testing.assert_allclose(a.h, b.h, atol=1e-14)

    def test_orthogonal_case_quadratic_form(self):
        samples = first_coordinate_samples(3, 150, 19)
        basis = unit_box_basis(3)
        gram = assemble_gram(basis, samples)
        for cols, expected in (([1, 2], 1.0), ([1, 0], 0.0)):
            fmap = coordinate_map(basis, cols)
            G = orthonormalize(fmap.coeffs, gram)
            mats = coordinate_surrogate_matrices(samples, basis, G[:, :1])
            quad = float(G[:, 1] @ mats.h @ G[:, 1])
            direct = coordinate_surrogate(samples, FeatureMap(basis, G), 2)
            assert abs(quad - direct) <= 1e-10 * (1.0 + direct)
            assert quad == pytest.approx(expected, abs=1e-9)

    def test_annihilates_prior_columns(self):
        rng = np.random.default_rng(20)
        X = rng.uniform(0, 1, size=(150, 4))
        samples = SampleSet(X, rng.normal(size=150), rng.normal(size=(150, 4)))
        basis = unit_box_basis(4, k=2.0)
        gram = assemble_gram(basis, samples)
        others = orthonormalize(rng.normal(size=(basis.size, 2)), gram)
        mats = coordinate_surrogate_matrices(samples, basis, others)
        scale = np.linalg.norm(mats.h, 2)
        assert np.max(np.abs(mats.h @ others)) <= 1e-8 * scale

    def test_quadratic_form_matches_estimator(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, size=(150, 3))
        samples = SampleSet(X, rng.normal(size=150), rng.normal(size=(150, 3)))
        basis = unit_box_basis(3, k=2.0)
        gram = assemble_gram(basis, samples)
        others = orthonormalize(rng.normal(size=(basis.size, 2)), gram)
        mats = coordinate_surrogate_matrices(samples, basis, others)
        for _ in range(50):
            gj = rng.normal(size=basis.size)
            coeffs = np.column_stack([others, gj])
            direct = coordinate_surrogate(samples, FeatureMap(basis, coeffs), 3)
            quad = float(gj @ mats.h @ gj)
            assert abs(direct - quad) <= 1e-10 * (1.0 + abs(direct))


class TestGeneralizedEig:
    def test_diagonal_case(self):
        gram = GramMatrix(np.eye(2))
        lam, vec = min_generalized_eig(np.diag([0.0, 1.0]), gram)
        assert lam == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(vec, [1.0, 0.0], atol=1e-14)

    def test_hand_solved_pair(self):
        gram = GramMatrix(np.diag([1.0, 4.0]))
        lam, vec = min_generalized_eig(np.diag([2.0, 1.0]), gram)
        assert lam == pytest.approx(0.25, rel=1e-12)
        np.testing.assert_allclose(vec, [0.0, 0.5], atol=1e-12)

    def test_random_pairs_match_dense_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            K = 6
            Ah = rng.normal(size=(K, K))
            H = Ah.T @ Ah
            Br = rng.normal(size=(K, K))
            R = Br.T @ Br + 0.5 * np.eye(K)
            gram = GramMatrix(R)
            lam, vec = min_generalized_eig(H, gram)
            oracle = scipy.linalg.eigh(H, R, eigvals_only=True)
            assert lam == pytest.approx(oracle[0], abs=1e-10 * max(1, abs(oracle[0])))
            res = np.linalg.norm(H @ vec - lam * (R @ vec))
            assert res <= 1e-8 * np.linalg.norm(H, 2) * np.linalg.norm(vec)
            assert vec @ R @ vec == pytest.approx(1.0, abs=1e-10)
            nz = np.nonzero(np.abs(vec) > 1e-12 * np.max(np.abs(vec)))[0]
            assert vec[nz[0]] > 0

    def test_one_by_one(self):
        gram = GramMatrix([[4.0]])
        lam, vec = min_generalized_eig([[2.0]], gram)
        assert lam == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(vec, [0.5], rtol=1e-15)

    def test_gram_that_needed_a_ridge(self):
        # [[1, 1], [1, 1]] is singular, so the Gram carries a ridge; with
        # eps the ridge as rounded into the diagonal, the pencil
        # (2 I, R + eps I) has smallest eigenvalue 2 / (2 + eps)
        gram = GramMatrix([[1.0, 1.0], [1.0, 1.0]])
        assert gram.ridge_added > 0.0
        eps = gram.matrix[0, 0] - 1.0
        H = 2.0 * np.eye(2)
        lam, vec = min_generalized_eig(H, gram)
        assert lam == pytest.approx(2.0 / (2.0 + eps), rel=1e-12)
        np.testing.assert_allclose(vec, np.full(2, 1.0 / np.sqrt(4.0 + 2.0 * eps)),
                                   rtol=1e-9)
        assert vec @ gram.matrix @ vec == pytest.approx(1.0, rel=1e-12)

    def test_repeated_smallest_eigenvalue(self):
        # H = L Q diag(lams) Q^T L^T has generalized eigenvalues lams; the
        # vector of a double eigenvalue is any in a plane, so only the value
        # and the residual are fixed
        rng = np.random.default_rng(26)
        K = 7
        B = rng.normal(size=(K, K))
        gram = GramMatrix(B @ B.T + K * np.eye(K))
        Q, _ = np.linalg.qr(rng.normal(size=(K, K)))
        LQ = gram.chol @ Q
        H = (LQ * [1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0]) @ LQ.T
        H = 0.5 * (H + H.T)
        lam, vec = min_generalized_eig(H, gram)
        assert lam == pytest.approx(1.0, rel=1e-12)
        res = np.linalg.norm(H @ vec - lam * (gram.matrix @ vec))
        assert res <= 1e-12 * np.linalg.norm(H, 2) * np.linalg.norm(vec)
        assert vec @ gram.matrix @ vec == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_raises_numeric_error(self, bad):
        H = np.eye(3)
        H[2, 0] = H[0, 2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            min_generalized_eig(H, GramMatrix(np.eye(3)))

    def test_failed_lapack_call_raises_numeric_error(self, monkeypatch):
        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 2)
        real = surrogate._syevr
        monkeypatch.setattr(surrogate, "_syevr", failing)
        with pytest.raises(NumericError, match="LAPACK syevr info 2"):
            min_generalized_eig(np.diag([2.0, 1.0]), GramMatrix(np.eye(2)))

    def test_shift_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(0, 1, size=(150, 3))
        samples = SampleSet(X, rng.normal(size=150), rng.normal(size=(150, 3)))
        basis = unit_box_basis(3, k=2.0)
        gram = assemble_gram(basis, samples)
        others = orthonormalize(rng.normal(size=(basis.size, 1)), gram)
        coord = coordinate_surrogate_matrices(samples, basis, others)
        # greedy_features' shift
        alpha = np.max(np.sum(samples.gradients ** 2, axis=1))
        for _ in range(100):
            G = rng.normal(size=basis.size)
            quot = (G @ coord.h @ G) / (G @ gram.matrix @ G)
            assert quot <= alpha * (1.0 + 1e-10)


class TestOrthonormalize:
    def test_orthonormal_fixed_point(self):
        rng = np.random.default_rng(24)
        gram = GramMatrix(np.eye(4))
        Q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        np.testing.assert_allclose(orthonormalize(Q, gram), Q, atol=1e-12)

    def test_scale_removed(self):
        rng = np.random.default_rng(25)
        gram = GramMatrix(np.eye(4))
        Q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        np.testing.assert_allclose(orthonormalize(3.0 * Q, gram), Q, atol=1e-12)

    def test_span_preserved_and_metric_orthonormal(self):
        rng = np.random.default_rng(26)
        R = rng.normal(size=(5, 5))
        gram = GramMatrix(R.T @ R + np.eye(5))
        G = rng.normal(size=(5, 3))
        out = orthonormalize(G, gram)
        np.testing.assert_allclose(out.T @ gram.matrix @ out, np.eye(3), atol=1e-9)
        Q1, _ = np.linalg.qr(G)
        Q2, _ = np.linalg.qr(out)
        assert np.linalg.norm(Q1 @ Q1.T - Q2 @ Q2.T) <= 1e-9

    def test_rank_deficient_rejected(self):
        gram = GramMatrix(np.eye(3))
        G = np.ones((3, 2))
        with pytest.raises(RankDeficiencyError):
            orthonormalize(G, gram)


class TestGreedy:
    def test_single_feature_matches_eigensolve(self):
        rng = np.random.default_rng(27)
        X = rng.uniform(0, 1, size=(150, 3))
        samples = SampleSet(X, rng.normal(size=150), rng.normal(size=(150, 3)))
        basis = unit_box_basis(3, k=2.0)
        gram = assemble_gram(basis, samples)
        fmap = greedy_features(samples, basis, 1, gram=gram)
        _, vec = min_generalized_eig(surrogate_matrices(samples, basis).h, gram)
        np.testing.assert_allclose(fmap.coeffs[:, 0], vec, atol=1e-10)

    def test_too_many_features_rejected(self):
        samples = first_coordinate_samples(2, 40, 28)
        with pytest.raises(InvalidInputError):
            greedy_features(samples, unit_box_basis(2), 3)

    def test_result_is_metric_orthonormal(self):
        rng = np.random.default_rng(29)
        X = rng.uniform(0, 1, size=(200, 3))
        samples = SampleSet(X, rng.normal(size=200), rng.normal(size=(200, 3)))
        basis = unit_box_basis(3, k=2.0)
        gram = assemble_gram(basis, samples)
        fmap = greedy_features(samples, basis, 2, gram=gram)
        G = fmap.coeffs
        assert np.linalg.norm(G.T @ gram.matrix @ G - np.eye(2)) <= 1e-8

    def test_exact_recovery_drives_both_objectives_to_zero(self):
        # u depends on x1 only: the learned single feature nulls both the
        # loss and the surrogate simultaneously
        samples = first_coordinate_samples(3, 250, 30)
        basis = unit_box_basis(3, k=2.0)
        gram = assemble_gram(basis, samples)
        fmap = greedy_features(samples, basis, 1, gram=gram)
        scale = samples.mean_gradient_norm_sq()
        assert poincare_loss(samples, fmap) <= 1e-10 * scale
        assert convex_surrogate(samples, fmap) <= 1e-10 * scale

    def test_second_feature_where_its_surrogate_vanishes(self):
        # u1 is a function of one feature, so once the first column is
        # found the coordinate surrogate matrix of the second is roundoff
        # (largest generalized eigenvalue about 1e-30); the shift
        # max |grad u|^2 still separates the prior direction
        bench = make_benchmark("u1")
        samples = make_samples(bench, 250, 1)
        basis = FeatureBasis(build_index_set(8, 1.0, 3.0), bench.families)
        gram = assemble_gram(basis, samples)
        first = greedy_features(samples, basis, 1, gram=gram).coeffs
        coord = coordinate_surrogate_matrices(samples, basis, first)
        assert scipy.linalg.eigh(coord.h, gram.matrix, eigvals_only=True)[-1] \
            <= 1e-25
        G = greedy_features(samples, basis, 2, gram=gram).coeffs
        assert G.shape == (basis.size, 2)
        assert np.linalg.norm(G.T @ gram.matrix @ G - np.eye(2)) <= 1e-10


_GRADIENT_BASES = {
    "legendre": FeatureBasis(build_index_set(3, 1.0, 3.0),
                             [Legendre(0.0, 1.0)] * 3),
    # Hermite, log-Hermite and Legendre
    "u4": FeatureBasis(build_index_set(8, 1.0, 2.0),
                       make_benchmark("u4").families),
    # blocks of 3 and 1 columns, so the second one is padded
    "uneven": FeatureBasis(
        MultiIndexSet(dim=2, p=1.0, k=3.0,
                      indices=((1, 0), (0, 1), (2, 0), (3, 0))),
        [Hermite(0.0, 1.0), LogHermite(0.0, 0.5)]),
    # k = 1: each block entry is its derivative factor alone
    "linear": FeatureBasis(build_index_set(3, 1.0, 1.0),
                           [Legendre(0.0, 1.0), Hermite(0.5, 2.0),
                            LogHermite(0.0, 0.5)]),
}


def _gradient_case(name, m, n=8192 + 7):
    # 8192 + 7 rows: the evaluation crosses row-block boundaries and ends
    # in a 7-row tail
    basis = _GRADIENT_BASES[name]
    rng = np.random.default_rng(21)
    X = np.column_stack([fam.sample(rng, n) for fam in basis.families])
    return X, FeatureMap(basis, rng.normal(size=(basis.size, m)))


def _bits(a):
    return a.view(np.int64)


def _gathered(basis, jac):
    """The support blocks (n, d, w) gathered from the dense Jacobian:
    entry (i, nu, c) is ``jac[i, nu, basis._block_columns[nu, c]]``."""
    return jac[:, np.arange(basis.dim)[:, None], basis._block_columns]


class TestFeatureMapGradients:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", _GRADIENT_BASES)
    def test_streamed_equals_whole_jacobian_bitwise(self, name, m):
        X, fmap = _gradient_case(name, m)
        jac = fmap.basis.jacobian_batch(X)
        streamed = fmap.gradients(X)
        blocks = _gathered(fmap.basis, jac)
        assert np.array_equal(
            _bits(streamed),
            _bits(_feature_jacobians(fmap.basis, fmap.coeffs, X, blocks=blocks)))
        # the whole-array contraction is a reference up to roundoff: each
        # entry is a sum of K products, so two evaluations differ by at most
        # 2 K eps times the same sum over absolute values
        ref = np.einsum("ndk,km->ndm", jac, fmap.coeffs)
        scale = np.einsum("ndk,km->ndm", np.abs(jac), np.abs(fmap.coeffs))
        tol = 2 * fmap.basis.size * np.finfo(float).eps
        assert np.all(np.abs(streamed - ref) <= tol * scale)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", _GRADIENT_BASES)
    def test_rows_evaluated_alone_give_the_same_bits(self, name, m):
        X, fmap = _gradient_case(name, m)
        blocks = _gathered(fmap.basis, fmap.basis.jacobian_batch(X))
        whole = fmap.gradients(X)
        n = X.shape[0]
        rng = np.random.default_rng(5)
        subsets = [np.arange(n - t, n) for t in range(1, 8)]        # tails
        subsets += [np.arange(8190, 8195), rng.choice(n, 300, replace=False)]
        subsets += [np.array([i]) for i in rng.choice(n, 5, replace=False)]
        for rows in subsets:
            assert np.array_equal(_bits(fmap.gradients(X[rows])),
                                  _bits(whole[rows]))
            assert np.array_equal(
                _bits(_feature_jacobians(fmap.basis, fmap.coeffs, X[rows],
                                         blocks=blocks[rows])),
                _bits(whole[rows]))

    def test_tables_once_per_chunk(self, monkeypatch):
        X, fmap = _gradient_case("u4", 1, n=20000)
        calls = []
        tables = FeatureBasis._tables

        def counted(self, X):
            calls.append(len(X))
            return tables(self, X)

        monkeypatch.setattr(FeatureBasis, "_tables", counted)
        fmap.gradients(X)
        assert calls == [_EVAL_CHUNK] * (20000 // _EVAL_CHUNK) \
            + [20000 % _EVAL_CHUNK]

    def test_streamed_equals_gathered_across_table_chunks(self):
        X, fmap = _gradient_case("u4", 2, n=_EVAL_CHUNK + 7)
        blocks = _gathered(fmap.basis, fmap.basis.jacobian_batch(X))
        assert np.array_equal(
            _bits(fmap.gradients(X)),
            _bits(_feature_jacobians(fmap.basis, fmap.coeffs, X,
                                     blocks=blocks)))

    def test_padding_entries_are_positive_zeros(self):
        # block 1 of "uneven" holds one column and two padding entries,
        # over more than one slice of rows
        X, fmap = _gradient_case("uneven", 1, n=2 * _BLOCK_ROWS + 3)
        basis = fmap.basis
        jac = basis.jacobian_batch(X)
        support = (np.array(basis.index_set.indices) > 0).T     # (d, K)
        assert basis._block_columns.shape == (2, 3)
        assert np.array_equal(_bits(jac[:, ~support]),
                              np.zeros((X.shape[0], np.sum(~support)),
                                       dtype=np.int64))
        assert np.all(jac[:, support] != 0.0)

    def test_points_of_wrong_dim_rejected(self):
        fmap = coordinate_map(unit_box_basis(3), [0])
        with pytest.raises(InvalidInputError):
            fmap.gradients(np.zeros((0, 2)))


# every finite double, subnormals and -0.0 included
any_finite = st.floats(allow_nan=False, allow_infinity=False)

families = st.one_of(
    st.builds(lambda a, w: Legendre(a, a + w),
              st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
    st.builds(Hermite, st.floats(-10.0, 10.0), st.floats(1e-3, 10.0)),
    st.builds(LogHermite, st.floats(-3.0, 3.0), st.floats(1e-3, 2.0)))


@st.composite
def feature_maps(draw):
    fams = draw(st.lists(families, min_size=1, max_size=3))
    p = draw(st.sampled_from([0.8, 0.9, 1.0, 2.0, math.inf]))
    k = draw(st.floats(1.0, 3.0))
    basis = FeatureBasis(build_index_set(len(fams), p, k), fams)
    m = draw(st.integers(1, 3))
    coeffs = draw(hnp.arrays(float, (basis.size, m), elements=any_finite))
    assume(np.all(np.any(coeffs != 0.0, axis=0)))
    return FeatureMap(basis, coeffs)


class TestFeatureMapIO:
    # the files are rewritten by every example
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(feature_maps())
    def test_round_trip(self, tmp_path, fmap):
        coeff = tmp_path / "gmap.txt"
        bspec = tmp_path / "basis.json"
        fmap.save(coeff, bspec)
        clone = FeatureMap.load(coeff, str(bspec))
        assert np.array_equal(clone.coeffs.view(np.int64),
                              fmap.coeffs.view(np.int64))
        # the spec's floats are written by repr, which tells -0.0 from 0.0
        assert json.dumps(clone.basis.spec()) == json.dumps(fmap.basis.spec())
        assert clone.basis.index_set == fmap.basis.index_set
        rng = np.random.default_rng(31)
        X = np.column_stack([f.sample(rng, 5) for f in fmap.basis.families])
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(clone.evaluate(X), fmap.evaluate(X))

    @pytest.mark.parametrize("text", [
        "3 x\n1.0\n2.0\n3.0\n",       # non-integer count
        "3\n1.0\n2.0\n3.0\n",         # one count
        "3 1 1\n1.0\n2.0\n3.0\n",     # three counts
        "",                             # empty file
        "3 1\n1.0\n2.0\n",             # fewer rows than the header says
        "3 2\n1.0 2.0\n3.0\n4.0 5.0\n",  # ragged body
        "3 1\n1.0\nabc\n3.0\n",       # non-numeric entry
    ], ids=["count-not-int", "one-count", "three-counts", "empty", "short-body",
            "ragged-body", "non-numeric"])
    def test_malformed_file_rejected(self, tmp_path, text):
        basis = unit_box_basis(3)
        path = tmp_path / "gmap.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError):
            FeatureMap.load(path, basis)

    def test_missing_or_malformed_basis_spec_rejected(self, tmp_path):
        basis = unit_box_basis(2)
        coeff = tmp_path / "gmap.txt"
        FeatureMap(basis, np.ones(basis.size)).save(coeff)
        bad = tmp_path / "basis.json"
        bad.write_text("{not json")
        for spec in (bad, tmp_path / "absent.json"):
            with pytest.raises(InvalidInputError):
                FeatureMap.load(coeff, str(spec))

    def test_zero_column_rejected(self):
        basis = unit_box_basis(2)
        with pytest.raises(InvalidInputError):
            FeatureMap(basis, np.zeros((basis.size, 1)))


class TestGreedyOnTwoFeatureTarget:
    def test_beats_random_orthonormal_pairs_paired_over_seeds(self):
        # the two-quadratic benchmark admits an exact two-feature reduction;
        # the greedy result must beat a random metric-orthonormal pair on
        # every one of 20 paired draws
        from gradfeat.benchmarks import make_benchmark, make_samples
        bench = make_benchmark("u2")
        basis_idx = None
        for seed in range(20):
            samples = make_samples(bench, 300, seed=500 + seed)
            from gradfeat.basis import FeatureBasis, assemble_gram, \
                build_index_set
            basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
            gram = assemble_gram(basis, samples)
            learned = greedy_features(samples, basis, 2, gram=gram)
            rng = np.random.default_rng(900 + seed)
            random_G = orthonormalize(rng.normal(size=(basis.size, 2)), gram)
            loss_learned = poincare_loss(samples, learned)
            loss_random = poincare_loss(samples, FeatureMap(basis, random_G))
            assert loss_learned <= loss_random
