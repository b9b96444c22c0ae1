import math

import numpy as np
import pytest
import scipy.linalg

from gradfeat.basis import (FeatureBasis, GramMatrix, Hermite, Legendre,
                            LogHermite, assemble_gram, basis_from_spec,
                            build_index_set, gram_from_jacobian)
from gradfeat.errors import InvalidInputError

SQ3 = math.sqrt(3.0)


def legendre_basis(d, p, k, lo=0.0, hi=1.0):
    return FeatureBasis(build_index_set(d, p, k),
                        [Legendre(lo, hi) for _ in range(d)])


class TestIndexSets:
    def test_total_degree_enumeration(self):
        idx = build_index_set(2, 1.0, 2.0)
        assert idx.indices == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        assert idx.size == 5

    def test_fractional_p_filters_cross_terms(self):
        # ||(1,1)||_0.8 = 2^(1/0.8) ~ 2.378 > 2, so the cross term drops out
        idx = build_index_set(2, 0.8, 2.0)
        assert idx.indices == ((1, 0), (0, 1), (2, 0), (0, 2))
        assert idx.size == 4

    def test_sup_norm_one_dim(self):
        idx = build_index_set(1, math.inf, 3.0)
        assert idx.indices == ((1,), (2,), (3,))

    def test_k_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            build_index_set(2, 1.0, 0.5)

    def test_unit_indices_always_present(self):
        for p, k in ((0.8, 2.0), (1.0, 1.0), (math.inf, 4.0)):
            idx = build_index_set(4, p, k)
            for nu in range(4):
                unit = tuple(1 if i == nu else 0 for i in range(4))
                assert unit in idx.indices

    def test_graded_order_and_no_duplicates(self):
        idx = build_index_set(3, 1.0, 3.0)
        degrees = [sum(a) for a in idx.indices]
        assert degrees == sorted(degrees)
        assert len(set(idx.indices)) == idx.size
        assert all(any(a) for a in idx.indices)

    def test_norm_bound_invariant(self):
        idx = build_index_set(3, 0.8, 2.5)
        for alpha in idx.indices:
            assert sum(a ** 0.8 for a in alpha) ** (1 / 0.8) <= 2.5 + 1e-12


class TestUnivariateFamilies:
    def test_legendre_degree_one_closed_form(self):
        # on (-pi/2, pi/2) the degree-1 member is (2*sqrt(3)/pi) x
        fam = Legendre(-math.pi / 2, math.pi / 2)
        vals, ders = fam.table(np.array([math.pi / 2, 0.0]), 1)
        assert vals[0, 1] == pytest.approx(SQ3, rel=1e-14)
        assert vals[1, 1] == pytest.approx(0.0, abs=1e-14)
        assert ders[0, 1] == pytest.approx(2 * SQ3 / math.pi, rel=1e-14)

    def test_legendre_unit_interval_derivative(self):
        fam = Legendre(0.0, 1.0)
        _, ders = fam.table(np.array([0.1, 0.5, 0.9]), 1)
        np.testing.assert_allclose(ders[:, 1], 2 * SQ3, rtol=1e-14)

    def test_hermite_degree_two_closed_form(self):
        fam = Hermite(0.0, 1.0)
        vals, _ = fam.table(np.array([0.0]), 2)
        assert vals[0, 2] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)

    def test_families_orthonormal_under_gauss_quadrature(self):
        # independent quadrature oracle for E[phi_i phi_j] = delta_ij
        t, w_leg = np.polynomial.legendre.leggauss(40)
        x_leg = 0.5 * (t + 1.0) * (2.5 - 0.5) + 0.5
        w_leg = w_leg / 2.0
        t_h, w_h = np.polynomial.hermite.hermgauss(40)
        cases = [
            (Legendre(0.5, 2.5), x_leg, w_leg),
            (Hermite(0.3, 1.7), 0.3 + 1.7 * math.sqrt(2) * t_h,
             w_h / math.sqrt(math.pi)),
            (LogHermite(0.2, 0.5), np.exp(0.2 + 0.5 * math.sqrt(2) * t_h),
             w_h / math.sqrt(math.pi)),
        ]
        for fam, nodes, weights in cases:
            vals, _ = fam.table(nodes, 6)
            gram = (vals * weights[:, None]).T @ vals
            np.testing.assert_allclose(gram, np.eye(7), atol=1e-3)

    def test_orthonormality_monte_carlo(self):
        rng = np.random.default_rng(7)
        n = 200000
        for fam in (Legendre(-1.0, 2.0), Hermite(0.0, 1.0), LogHermite(0.0, 0.4)):
            x = fam.sample(rng, n)
            vals, _ = fam.table(x, 6)
            prods = vals[:, :, None] * vals[:, None, :]
            mean = prods.mean(axis=0)
            se = prods.std(axis=0, ddof=1) / math.sqrt(n)
            err = np.abs(mean - np.eye(7))
            assert np.all(err <= 5.0 * se + 1e-12)

    def test_log_domain_error(self):
        fam = LogHermite(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            fam.table(np.array([-0.5]), 2)


class TestFeatureBasis:
    def test_tensor_product_value(self):
        basis = legendre_basis(2, 1.0, 2.0)
        x = np.array([0.3, 0.8])
        fam = Legendre(0.0, 1.0)
        v, _ = fam.table(x, 2)
        expected = v[0, 1] * v[1, 1]   # the (1, 1) cross term
        pos = basis.index_set.indices.index((1, 1))
        assert basis.eval(x)[pos] == pytest.approx(expected, rel=1e-14)

    def test_odd_symmetry_at_center(self):
        basis = FeatureBasis(build_index_set(1, 1.0, 1.0),
                             [Legendre(-2.0, 2.0)])
        assert basis.eval(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        basis = FeatureBasis(
            build_index_set(3, 1.0, 3.0),
            [Legendre(0.0, 1.0), Hermite(0.5, 1.2), LogHermite(0.1, 0.3)])
        X = np.column_stack([rng.uniform(0.2, 0.8, 100),
                             rng.normal(0.5, 1.2, 100),
                             np.exp(rng.normal(0.1, 0.3, 100))])
        jac = basis.jacobian_batch(X)
        h = 1e-6
        for nu in range(3):
            shift = np.zeros(3)
            shift[nu] = h
            fd = (basis.eval_batch(X + shift) - basis.eval_batch(X - shift)) / (2 * h)
            scale = np.maximum(np.abs(jac[:, nu, :]), 1.0)
            assert np.max(np.abs(fd - jac[:, nu, :]) / scale) <= 1e-6

    def test_no_zero_gradient_column(self):
        basis = legendre_basis(2, 1.0, 2.0)
        jac = basis.jacobian(np.array([0.37, 0.61]))
        assert np.all(np.linalg.norm(jac, axis=0) > 0.0)

    def test_spec_round_trip(self):
        basis = FeatureBasis(build_index_set(2, 0.8, 3.0),
                             [Legendre(0.0, 1.0), Hermite(0.1, 2.0)])
        clone = basis_from_spec(basis.spec())
        assert clone.index_set.indices == basis.index_set.indices
        x = np.array([0.4, 1.2])
        np.testing.assert_allclose(clone.eval(x), basis.eval(x))

    def test_linear_map_representable(self):
        basis = legendre_basis(3, 1.0, 2.0)
        rng = np.random.default_rng(3)
        c = rng.normal(size=3)
        coeffs = np.zeros(basis.size)
        for nu in range(3):
            unit = tuple(1 if i == nu else 0 for i in range(3))
            coeffs[basis.index_set.indices.index(unit)] = c[nu] / (2 * SQ3)
        X = rng.uniform(0, 1, size=(50, 3))
        vals = basis.eval_batch(X) @ coeffs
        affine = X @ c
        # equal up to a constant: variance of the difference vanishes
        assert np.std(vals - affine) <= 1e-12 * max(1.0, np.std(affine))


class TestGramMatrix:
    def test_one_dim_exact_value(self):
        basis = FeatureBasis(build_index_set(1, 1.0, 1.0), [Legendre(0.0, 1.0)])
        nodes, weights = np.polynomial.legendre.leggauss(10)
        pts = (0.5 * (nodes + 1.0))[:, None]
        R = assemble_gram(basis, (pts, weights / 2.0))
        np.testing.assert_allclose(R.matrix, [[12.0]], rtol=1e-12)

    def test_one_dim_monte_carlo(self):
        basis = FeatureBasis(build_index_set(1, 1.0, 1.0), [Legendre(0.0, 1.0)])
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(20000, 1))
        R = assemble_gram(basis, pts)
        # constant integrand: the estimate is exact regardless of sampling
        assert R.matrix[0, 0] == pytest.approx(12.0, rel=1e-12)

    def test_coordinate_functions_identity(self):
        basis = FeatureBasis(build_index_set(2, 1.0, 1.0),
                             [Hermite(0.0, 1.0), Hermite(0.0, 1.0)])
        pts = np.random.default_rng(4).normal(size=(100, 2))
        R = assemble_gram(basis, pts)
        np.testing.assert_allclose(R.matrix, np.eye(2), atol=1e-12)

    def test_orthogonal_gradients_give_diagonal(self):
        idx = build_index_set(2, 1.0, 1.0)
        basis = FeatureBasis(idx, [Legendre(-1, 1), Legendre(-1, 1)])
        pts = np.random.default_rng(5).uniform(-1, 1, size=(500, 2))
        R = assemble_gram(basis, pts)
        assert abs(R.matrix[0, 1]) <= 1e-14

    def test_empty_samples_rejected(self):
        basis = legendre_basis(1, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            assemble_gram(basis, np.zeros((0, 1)))

    def test_value_gram_kind(self):
        basis = legendre_basis(1, 1.0, 2.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1, size=(50000, 1))
        R = assemble_gram(basis, pts, kind="value_gram")
        assert R.kind == "value_gram"
        np.testing.assert_allclose(R.matrix, np.eye(2), atol=0.05)

    def test_ridge_recorded_for_singular_estimate(self):
        basis = legendre_basis(2, 1.0, 2.0)
        pts = np.full((3, 2), 0.3)   # rank-deficient by construction
        R = assemble_gram(basis, pts)
        assert R.ridge_added > 0.0
        np.linalg.cholesky(R.matrix)   # factorization must succeed

    def test_solve_matches_two_triangular_solves_bitwise(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(30, 30))
        gram = GramMatrix(A @ A.T + 0.1 * np.eye(30))
        for rhs in (rng.normal(size=30), rng.normal(size=(30, 3))):
            y = scipy.linalg.solve_triangular(gram.chol, rhs, lower=True)
            ref = scipy.linalg.solve_triangular(gram.chol, y, lower=True,
                                                trans="T")
            out = gram.solve(rhs)
            assert out.shape == rhs.shape
            assert np.array_equal(out, ref)

    def test_gram_from_jacobian_matches_assemble_gram_bitwise(self):
        basis = legendre_basis(3, 1.0, 3.0)
        pts = np.random.default_rng(8).uniform(0, 1, size=(15, 3))
        with pytest.warns(UserWarning, match="Gram estimate from 15 samples"):
            ref = assemble_gram(basis, pts)
        with pytest.warns(UserWarning, match="Gram estimate from 15 samples"):
            out = gram_from_jacobian(basis.jacobian_batch(pts))
        assert np.array_equal(out.matrix, ref.matrix)
        assert np.array_equal(out.chol, ref.chol)
        assert out.ridge_added == ref.ridge_added
