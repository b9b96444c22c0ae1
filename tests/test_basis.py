import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from gradfeat.basis import (_EVAL_CHUNK, FeatureBasis, GramMatrix, Hermite,
                            Legendre, LogHermite, MultiIndexSet, assemble_gram,
                            basis_from_spec, build_index_set, family_from_spec,
                            family_to_spec)
from gradfeat.benchmarks import make_benchmark
from gradfeat.errors import InvalidInputError
from gradfeat.grassmann import (OptimizerConfig, learn_features,
                                minimize_poincare_loss)
from gradfeat.regression import _PK_CANDIDATES
from gradfeat.surrogate import (FeatureMap, SampleSet,
                                coordinate_surrogate_matrices, greedy_features,
                                poincare_loss, surrogate_matrices)

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


def _dense_reference(basis, X):
    """Values and Jacobian by the full d x d product loop, which multiplies
    every factor of every column, phi_0 = 1 and phi_0' = 0 included."""
    alpha = np.array(basis.index_set.indices)
    top = alpha.max(axis=0)
    tables = [fam.table(X[:, nu], int(top[nu]))
              for nu, fam in enumerate(basis.families)]
    vals = [v[:, alpha[:, nu]] for nu, (v, _) in enumerate(tables)]
    phi = np.ones((X.shape[0], basis.size))
    jac = np.empty((X.shape[0], basis.dim, basis.size))
    for nu in range(basis.dim):
        block = tables[nu][1][:, alpha[:, nu]]
        for rho in range(basis.dim):
            if rho != nu:
                block = block * vals[rho]
        jac[:, nu, :] = block
        phi *= vals[nu]
    return phi, jac


_U4 = make_benchmark("u4").families   # Hermite, LogHermite and Legendre
_SUPPORT_CASES = (
    [(_U4, p, k) for p, k in _PK_CANDIDATES]
    + [((fam,), 1.0, 4.0) for fam in _U4[:3]]
    + [((_U4[1], _U4[0]), 1.0, 4.0), ((_U4[2], _U4[1]), 0.8, 3.0)])


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

    @pytest.mark.parametrize("n", [1, 50, _EVAL_CHUNK + 7])
    @pytest.mark.parametrize("families, p, k", _SUPPORT_CASES)
    def test_support_products_match_dense_loop_bitwise(self, families, p, k, n):
        """The support-only products against the full d x d loop.

        Entries are equal, the support's entries (every nonzero among them)
        are equal bit for bit, off-support entries are +0.0 where the dense
        loop writes -0.0 for a negative product, and values are equal bit
        for bit, signed zeros included.  This holds for finite univariate
        tables: where a table overflows, the dense loop gives 0 * inf = NaN
        off the support and the support-only one gives 0.
        """
        basis = FeatureBasis(build_index_set(len(families), p, k), families)
        rng = np.random.default_rng(21)
        X = np.column_stack([fam.sample(rng, n) for fam in families])
        phi_ref, jac_ref = _dense_reference(basis, X)
        jac = basis.jacobian_batch(X)
        support = (np.array(basis.index_set.indices) > 0).T   # (d, K)
        assert np.array_equal(jac, jac_ref)
        assert np.array_equal(jac[:, support].view(np.int64),
                              jac_ref[:, support].view(np.int64))
        off = jac[:, ~support]
        assert not np.any(off) and not np.any(np.signbit(off))
        assert np.array_equal(basis.eval_batch(X).view(np.int64),
                              phi_ref.view(np.int64))

    @pytest.mark.parametrize("kind", [Legendre, Hermite, LogHermite])
    def test_values_only_skip_the_derivative_recurrence(self, monkeypatch, kind):
        basis = FeatureBasis(build_index_set(3, 1.0, 3.0),
                             [kind(0.5, 1.5) for _ in range(3)])
        X = np.column_stack([fam.sample(np.random.default_rng(nu), 40)
                             for nu, fam in enumerate(basis.families)])
        vals, _ = basis._tables(X)
        asked = []
        rows = kind.rows

        def recorded(*args, derivatives=True):
            asked.append(derivatives)
            return rows(*args, derivatives=derivatives)
        monkeypatch.setattr(kind, "rows", staticmethod(recorded))
        values_only, ders = basis._tables(X, derivatives=False)
        assert ders is None
        assert np.array_equal(values_only.view(np.int64), vals.view(np.int64))
        basis.eval_batch(X)
        assert asked == [False, False]

    def test_one_recurrence_per_kind_with_uneven_degrees(self):
        # two Legendre dimensions with different supports and maximal
        # degrees 3 and 1 share one recurrence up to degree 3, and a
        # Hermite dimension sits between them
        indices = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 0, 1),
                   (3, 0, 0), (1, 1, 1))
        families = [Legendre(-1.0, 2.0), Hermite(0.3, 1.5), Legendre(10.0, 13.0)]
        basis = FeatureBasis(MultiIndexSet(dim=3, p=1.0, k=3.0, indices=indices),
                             families)
        rng = np.random.default_rng(8)
        X = np.column_stack([fam.sample(rng, 700) for fam in families])
        phi_ref, jac_ref = _dense_reference(basis, X)
        support = (np.array(indices) > 0).T
        jac = basis.jacobian_batch(X)
        assert np.array_equal(jac[:, support].view(np.int64),
                              jac_ref[:, support].view(np.int64))
        assert np.array_equal(basis.eval_batch(X).view(np.int64),
                              phi_ref.view(np.int64))

    def test_spec_round_trip(self):
        basis = FeatureBasis(build_index_set(2, 0.8, 3.0),
                             [Legendre(0.0, 1.0), Hermite(0.1, 2.0)])
        clone = basis_from_spec(basis.spec())
        assert clone.index_set.indices == basis.index_set.indices
        x = np.array([0.4, 1.2])
        np.testing.assert_allclose(clone.eval(x), basis.eval(x))

    @pytest.mark.parametrize("fam", [Legendre(-1.0, 2.0), Hermite(0.1, 2.0),
                                     LogHermite(7.7, 1.0)])
    def test_family_spec_round_trip(self, fam):
        spec = family_to_spec(fam)
        clone = family_from_spec(spec)
        assert type(clone) is type(fam)
        assert family_to_spec(clone) == spec
        x = np.array([0.5, 1.5])
        for a, b in zip(clone.table(x, 3), fam.table(x, 3)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spec", [
        {"type": "chebyshev", "a": 0.0, "b": 1.0},   # unknown type
        {"a": 0.0, "b": 1.0},                         # no type
        {"type": "legendre", "a": 0},                 # missing parameter
        {"type": "hermite", "mu": 0.0, "sigma": 1.0, "a": 2.0},  # extra one
        {"type": "log_hermite", "a": 0.0, "b": 1.0},  # another family's names
        {"type": "legendre", "a": "zero", "b": 1.0},  # non-numeric value
        "legendre",                                   # not an object
        ["legendre", 0.0, 1.0],
    ])
    def test_malformed_family_spec_rejected(self, spec):
        with pytest.raises(InvalidInputError):
            family_from_spec(spec)

    def test_malformed_basis_spec_rejected(self):
        good = legendre_basis(2, 1.0, 2.0).spec()
        for bad in ({k: v for k, v in good.items() if k != "p"},
                    dict(good, extra=1), [good]):
            with pytest.raises(InvalidInputError):
                basis_from_spec(bad)

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

    def test_jacobian_of_wrong_shape_rejected(self):
        basis = legendre_basis(2, 1.0, 2.0)
        pts = np.random.default_rng(9).uniform(0, 1, size=(20, 2))
        with pytest.raises(InvalidInputError):
            assemble_gram(basis, pts, jac=basis.jacobian_batch(pts[:-1]))


def _gram_with_warnings(samples, basis, jac):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        R = assemble_gram(basis, samples, jac=jac)
    return R.matrix, R.chol, R.ridge_added, [str(w.message) for w in caught]


# each estimator that sums over samples, as a tuple of its results
_SUMS = {
    "assemble_gram": _gram_with_warnings,
    "surrogate_matrices": lambda samples, basis, jac: (
        surrogate_matrices(samples, basis, jac).h,),
    "coordinate_surrogate_matrices": lambda samples, basis, jac: (
        coordinate_surrogate_matrices(samples, basis, _coeffs(basis, 2),
                                      jac=jac).h,),
    "poincare_loss": lambda samples, basis, jac: tuple(
        poincare_loss(samples, FeatureMap(basis, _coeffs(basis, m)), jac=jac)
        for m in (1, 2)),
}


def _coeffs(basis, m):
    return np.random.default_rng(10).normal(size=(basis.size, m))


class TestPrecomputedJacobian:
    # 2 * 16384 + 5 rows span several of the Jacobian's evaluation chunks and
    # of the feature Jacobians' row blocks; 15 rows are fewer than the K = 19
    # basis functions, so the Gram warns
    @pytest.mark.parametrize("n", [15, 2 * 16384 + 5])
    @pytest.mark.parametrize("name", sorted(_SUMS))
    def test_sums_match_evaluated_jacobian_bitwise(self, name, n):
        basis = legendre_basis(3, 1.0, 3.0)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, size=(n, 3))
        samples = SampleSet(pts, np.zeros(n), rng.normal(size=(n, 3)))
        ref = _SUMS[name](samples, basis, None)
        out = _SUMS[name](samples, basis, basis.jacobian_batch(pts))
        assert len(out) == len(ref)
        for a, b in zip(out, ref):
            assert np.array_equal(a, b)
        if name == "assemble_gram":
            assert bool(out[3]) == (n < basis.size)


_FEW_ITERS = OptimizerConfig(max_iters=3)

# each public call that reads the basis Jacobian at the sample points, given
# no ``jac`` and no ``gram``
_CALLS = {
    "assemble_gram": lambda samples, basis: assemble_gram(basis, samples),
    "surrogate_matrices": lambda samples, basis: surrogate_matrices(
        samples, basis),
    "coordinate_surrogate_matrices": lambda samples, basis:
        coordinate_surrogate_matrices(samples, basis, _coeffs(basis, 1)),
    "greedy_features-m1": lambda samples, basis: greedy_features(
        samples, basis, 1),
    "greedy_features-m2": lambda samples, basis: greedy_features(
        samples, basis, 2),
    "minimize_poincare_loss": lambda samples, basis: minimize_poincare_loss(
        samples, basis, _coeffs(basis, 2), config=_FEW_ITERS),
    **{f"learn_features-{method}": (
        lambda samples, basis, method=method: learn_features(
            samples, basis, 2, method, config=_FEW_ITERS))
       for method in ("sur", "gli", "gsi")},
}


class TestJacobianEvaluations:
    # the Gram runs at 2 * 16384 + 5 rows, so a sum that evaluated the
    # Jacobian in row chunks would show as several calls
    @pytest.mark.parametrize("name", sorted(_CALLS))
    def test_public_call_evaluates_jacobian_once(self, name, monkeypatch):
        n = 2 * 16384 + 5 if name == "assemble_gram" else 60
        basis = legendre_basis(3, 1.0, 3.0)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(n, 3))
        samples = SampleSet(pts, np.zeros(n), rng.normal(size=(n, 3)))
        rows = []
        evaluate = FeatureBasis.jacobian_batch

        def counted(self, X):
            rows.append(len(X))
            return evaluate(self, X)

        monkeypatch.setattr(FeatureBasis, "jacobian_batch", counted)
        _CALLS[name](samples, basis)
        assert rows == [n]
