import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gradfeat.benchmarks as benchmarks
import gradfeat.regression as regression
from gradfeat.basis import FeatureBasis, assemble_gram, build_index_set
from gradfeat.benchmarks import (ExperimentConfig, make_benchmark,
                                 make_samples, run_experiment)
from gradfeat.errors import InvalidInputError
from gradfeat.grassmann import OptimizerConfig, learn_features
from gradfeat.regression import (CvGrid, KrrModel, cv_select_basis,
                                 cv_select_krr, kfold_indices, krr_fit,
                                 krr_predict)
from gradfeat.surrogate import (FeatureMap, poincare_loss,
                                surrogate_matrices)


class TestKrrFit:
    def test_single_point(self):
        model = krr_fit(np.array([[0.0]]), np.array([3.0]), gamma=1.0, ridge=0.5)
        assert model.dual_coeffs[0] == pytest.approx(3.0 / 1.5, rel=1e-12)

    def test_two_point_hand_inverse(self):
        Z = np.array([[0.0], [1.0]])
        u = np.array([1.0, 0.0])
        ridge = 1e-3
        model = krr_fit(Z, u, gamma=1.0, ridge=ridge)
        e = math.exp(-1.0)
        A = np.array([[1.0 + ridge, e], [e, 1.0 + ridge]])
        expected = np.linalg.solve(A, u)
        np.testing.assert_allclose(model.dual_coeffs, expected, rtol=1e-10)

    def test_near_interpolation(self):
        rng = np.random.default_rng(0)
        Z = np.linspace(0, 1, 20)[:, None]
        u = np.sin(4 * Z[:, 0]) + 1.0
        model = krr_fit(Z, u, gamma=10.0, ridge=1e-11)
        pred = krr_predict(model, Z)
        assert np.max(np.abs(pred - u) / np.abs(u)) <= 1e-4

    def test_residual_invariant(self):
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(60, 2))
        u = rng.normal(size=60)
        model = krr_fit(Z, u, gamma=0.37, ridge=1e-6)
        K = np.exp(-0.37 * ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(-1))
        resid = np.linalg.norm((K + 1e-6 * np.eye(60)) @ model.dual_coeffs - u)
        assert resid <= 1e-8 * np.linalg.norm(u) + 1e-10

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidInputError):
            krr_fit(np.ones((2, 1)), np.ones(2), gamma=0.0, ridge=1.0)
        with pytest.raises(InvalidInputError):
            krr_fit(np.ones((2, 1)), np.ones(3), gamma=1.0, ridge=1.0)


class TestKrrPredict:
    def test_training_point_recovered(self):
        rng = np.random.default_rng(2)
        Z = rng.uniform(0, 1, size=(15, 2))
        u = rng.normal(size=15)
        model = krr_fit(Z, u, gamma=5.0, ridge=1e-10)
        np.testing.assert_allclose(krr_predict(model, Z), u, atol=1e-4)

    def test_far_query_decays_to_zero(self):
        Z = np.zeros((5, 1))
        u = np.ones(5)
        model = krr_fit(Z + np.arange(5)[:, None] * 0.1, u, gamma=1.0, ridge=1e-3)
        far = krr_predict(model, np.array([[100.0]]))
        assert abs(far[0]) <= 1e-12

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(30, 2))
        u = np.full(30, 2.5)
        model = krr_fit(Z, u, gamma=0.8, ridge=1e-4)
        queries = rng.normal(size=(7, 2))
        preds = krr_predict(model, queries)
        for q, pred in zip(queries, preds):
            oracle = sum(a * math.exp(-0.8 * float(np.sum((z - q) ** 2)))
                         for z, a in zip(model.train_features,
                                         model.dual_coeffs))
            assert pred == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        model = krr_fit(np.ones((3, 2)) * np.arange(3)[:, None], np.ones(3),
                        1.0, 1e-3)
        with pytest.raises(InvalidInputError):
            krr_predict(model, np.ones((2, 3)))


class TestCvSelectKrr:
    def test_single_candidate_returned(self):
        rng = np.random.default_rng(4)
        Z = rng.uniform(size=(40, 1))
        u = Z[:, 0] ** 2
        grid = CvGrid(log10_gamma=np.array([-3.0]), log10_ridge=np.array([-8.0]),
                      folds=5)
        gamma, ridge, _ = cv_select_krr(Z, u, grid, seed=0)
        assert gamma == pytest.approx(1e-3)
        assert ridge == pytest.approx(1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        Z = rng.uniform(size=(60, 1))
        u = np.sin(6 * Z[:, 0]) + 0.05 * rng.normal(size=60)
        grid = CvGrid(log10_gamma=np.linspace(-3, -1, 5),
                      log10_ridge=np.linspace(-9, -3, 7), folds=5)
        first = cv_select_krr(Z, u, grid, seed=11)
        second = cv_select_krr(Z, u, grid, seed=11)
        assert first == second

    def test_ridge_tracks_noise_level(self):
        rng = np.random.default_rng(6)
        Z = rng.uniform(-1, 1, size=(80, 1))
        clean = Z[:, 0]
        noise = rng.normal(size=80)
        grid = CvGrid(log10_gamma=np.linspace(-3, -1, 5),
                      log10_ridge=np.linspace(-9, -1, 17), folds=5)
        _, ridge_noisy, _ = cv_select_krr(Z, clean + 0.5 * noise, grid, seed=7)
        _, ridge_clean, _ = cv_select_krr(Z, clean + 1e-4 * noise, grid, seed=7)
        assert ridge_clean <= ridge_noisy

    def test_too_few_samples(self):
        with pytest.raises(InvalidInputError):
            cv_select_krr(np.ones((5, 1)), np.ones(5), CvGrid(), seed=0)

    def test_fold_partition(self):
        folds = kfold_indices(23, 5, seed=3)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(23))
        for train, val in folds:
            assert set(train).isdisjoint(set(val))


class TestRegressionInputContract:
    @pytest.mark.parametrize("call", [
        lambda Z, u: cv_select_krr(Z, u, CvGrid(folds=5), seed=0),
        lambda Z, u: krr_fit(Z, u, gamma=0.1, ridge=1e-6),
    ], ids=["cv_select_krr", "krr_fit"])
    @pytest.mark.parametrize("case", ["nan_feature", "inf_value",
                                      "short_values", "three_dim_features"])
    def test_bad_inputs_rejected(self, call, case):
        rng = np.random.default_rng(12)
        Z = rng.uniform(size=(30, 1))
        u = np.sin(3 * Z[:, 0])
        if case == "nan_feature":
            Z[4, 0] = np.nan
        elif case == "inf_value":
            u[7] = np.inf
        elif case == "short_values":
            u = u[:-1]
        else:
            Z = Z[:, :, None]
        with pytest.raises(InvalidInputError):
            call(Z, u)

    @pytest.mark.parametrize("call", [
        lambda Z, u: kfold_indices(30, 0, seed=0),
        lambda Z, u: kfold_indices(30, 1, seed=0),
        lambda Z, u: cv_select_krr(Z, u, CvGrid(folds=1), seed=0),
        lambda Z, u: cv_select_krr(Z, u, CvGrid(log10_gamma=np.array([]),
                                                folds=5), seed=0),
        lambda Z, u: cv_select_krr(Z, u, CvGrid(log10_ridge=[], folds=5),
                                   seed=0),
    ], ids=["kfold-0", "kfold-1", "cv-folds-1", "empty-gamma-grid",
            "empty-ridge-grid"])
    def test_unusable_folds_and_grids_rejected(self, call):
        rng = np.random.default_rng(12)
        Z = rng.uniform(size=(30, 1))
        with pytest.raises(InvalidInputError):
            call(Z, np.sin(3 * Z[:, 0]))

    def test_failed_fit_recorded_by_experiment(self, monkeypatch):
        # a non-finite feature reaches krr_fit as InvalidInputError, which
        # run_experiment records on the cell's row instead of propagating
        def nan_features(self, X):
            return np.full((X.shape[0], self.coeffs.shape[1]), np.nan)

        monkeypatch.setattr(benchmarks, "cv_select_krr",
                            lambda *a, **k: (1e-3, 1e-8, 0.0))
        monkeypatch.setattr(FeatureMap, "evaluate", nan_features)
        cfg = ExperimentConfig(benchmark="u1", m=1, methods=("sur",),
                               ntrain_list=(30,), n_test=50,
                               n_realizations=1, seed=0, select_pk=False,
                               fixed_pk=(1.0, 2.0))
        rep = run_experiment(cfg)
        (row,) = rep.realizations
        assert row["failed"] and row["error"].startswith("InvalidInputError")


def _dense_rmse_table(Z, u, folds, gammas, ridges):
    """The validation RMSE table by one dense eigendecomposition of every
    fold kernel at every gamma, and one matvec pair per ridge."""
    rmse = np.zeros((gammas.size, ridges.size))
    for train, val in folds:
        D_tr = regression._sq_dists(Z[train], Z[train])
        D_val = regression._sq_dists(Z[val], Z[train])
        u_tr, u_val = u[train], u[val]
        for gi, gamma in enumerate(gammas):
            evals, evecs = np.linalg.eigh(np.exp(-gamma * D_tr))
            evals = np.maximum(evals, 0.0)
            proj = evecs.T @ u_tr
            K_val = np.exp(-gamma * D_val)
            for ri, ridge in enumerate(ridges):
                a = evecs @ (proj / (evals + ridge))
                rmse[gi, ri] += np.sqrt(np.mean((K_val @ a - u_val) ** 2))
    return rmse / len(folds)


def _gaussian_kernel(Z, gamma):
    return np.exp(-gamma * ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(-1))


# gamma large enough that distinct lattice points (spacing 1/20) have kernel
# entries below exp(-25), so the factor runs to one column per distinct row
_FULL_RANK_GAMMA = 1e4


@st.composite
def krr_cv_cases(draw):
    """Features on a 1/20 lattice in [-2, 2]^m, m = 1, 2, 3, with exactly
    duplicated rows, and values in [-1, 1]."""
    m = draw(st.integers(1, 3))
    b = draw(st.integers(5, 20))
    base = draw(hnp.arrays(float, (b, m), elements=st.integers(-40, 40)
                           .map(lambda v: v / 20.0)))
    extra = draw(st.lists(st.integers(0, b - 1), min_size=max(0, 10 - b),
                          max_size=20 - b))
    Z = np.concatenate([base, base[extra]])
    u = draw(hnp.arrays(float, (Z.shape[0],), elements=st.floats(-1.0, 1.0)))
    return Z, u


class TestLowRankCv:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(krr_cv_cases())
    def test_rmse_table_matches_dense_reference(self, case):
        """The factor path agrees with the dense eigendecomposition to 1e-6
        relative at every ridge >= 1e-8.

        The factor drops a positive semidefinite residual of trace at most
        n * eps, and the dense eigensolver's backward error is of the same
        size.  A ridge-lambda solve carries a kernel error delta into the
        validation RMSE by at most about 2 * delta / lambda times the RMS
        of u (the 2 is sqrt(n_train / n_val) for 5 folds).  For n <= 20 at
        lambda = 1e-8 that is 9e-7.  Below 1e-8 the dense path divides its
        roundoff eigenvalues by the ridge, and the tables part at the 1e-4
        to 1e-3 level at ridge 1e-11; neither is the exact table there.
        """
        Z, u = case
        grid = CvGrid()
        gammas = 10.0 ** np.append(grid.log10_gamma, np.log10(_FULL_RANK_GAMMA))
        ridges = 10.0 ** grid.log10_ridge
        folds = kfold_indices(Z.shape[0], 5, seed=0)
        fast = regression._cv_rmse_table(Z, u, folds, gammas, ridges)
        ref = _dense_rmse_table(Z, u, folds, gammas, ridges)
        keep = grid.log10_ridge >= -8.0
        np.testing.assert_allclose(fast[:, keep], ref[:, keep], rtol=1e-6,
                                   atol=0.0)
        F, _ = regression._kernel_factor(Z, _FULL_RANK_GAMMA)
        assert F.shape[1] == np.unique(Z, axis=0).shape[0]


class TestKernelFactor:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(krr_cv_cases(), st.sampled_from([1e-6, 1e-4, 1e-2, 1.0, 30.0]))
    def test_error_within_residual_trace(self, case, gamma):
        Z, _ = case
        F, trace = regression._kernel_factor(Z, gamma)
        assert trace <= Z.shape[0] * np.finfo(float).eps
        # the entries of K and of F F^T carry their own rounding, a few eps
        err = np.max(np.abs(_gaussian_kernel(Z, gamma) - F @ F.T))
        assert err <= trace + 4 * np.finfo(float).eps

    def test_full_rank_reproduces_kernel(self):
        rng = np.random.default_rng(13)
        Z = rng.uniform(-2.0, 2.0, size=(40, 2))
        K = _gaussian_kernel(Z, 3.0)
        F, trace = regression._kernel_factor(Z, 3.0)
        assert F.shape == (40, 40)
        assert trace == 0.0
        np.testing.assert_allclose(F @ F.T, K, rtol=0.0, atol=1e-14)

    def test_rank_of_a_smooth_kernel_is_small(self):
        Z = np.linspace(-3.0, 3.0, 250)[:, None]
        F, trace = regression._kernel_factor(Z, 1e-2)
        assert F.shape[1] <= 10
        assert trace <= 250 * np.finfo(float).eps


class TestCvSelectBasis:
    def test_single_candidate_returned(self):
        bench = make_benchmark("u1")
        samples = make_samples(bench, 60, 0)
        grid = CvGrid(pk_candidates=((1.0, 2.0),), pk_folds=5)
        assert cv_select_basis(samples, 1, "sur", bench.families,
                               grid, seed=1) == (1.0, 2.0)

    def test_quadratics_beat_linear_on_ridge_target(self):
        bench = make_benchmark("u1")
        samples = make_samples(bench, 120, 1)
        grid = CvGrid(pk_candidates=((1.0, 1.0), (1.0, 2.0)), pk_folds=5)
        assert cv_select_basis(samples, 1, "sur", bench.families,
                               grid, seed=2) == (1.0, 2.0)

    def test_deterministic(self):
        bench = make_benchmark("u3")
        samples = make_samples(bench, 60, 2)
        grid = CvGrid(pk_candidates=((1.0, 1.0), (1.0, 2.0)), pk_folds=5)
        a = cv_select_basis(samples, 1, "sur", bench.families, grid, seed=5)
        b = cv_select_basis(samples, 1, "sur", bench.families, grid, seed=5)
        assert a == b


@pytest.mark.filterwarnings("ignore:Gram estimate from")
class TestCvSelectBasisSharedJacobian:
    """The shared-Jacobian (p, k) cross-validation against per-candidate
    references, on a grid whose index sets do not nest: (0.5, 3) holds the
    pure cubes but no mixed term, (1.0, 2) the mixed quadratics but no cube."""

    GRID = CvGrid(pk_candidates=((0.5, 3), (1.0, 2), (1.0, 1)), pk_folds=4)

    def setup(self):
        bench = make_benchmark("u3")
        samples = make_samples(bench, 48, 3)
        bases = [FeatureBasis(build_index_set(8, p, k), bench.families)
                 for p, k in self.GRID.pk_candidates]
        sets = [set(b.index_set.indices) for b in bases]
        assert not any(all(s >= t for t in sets) for s in sets)
        return bench, samples, bases

    def pick(self, scores, bases):
        means = [float(np.mean(s)) for s in scores]
        return min(zip(means, [b.size for b in bases],
                       self.GRID.pk_candidates))[2]

    @pytest.mark.parametrize("m, method", [(1, "sur"), (1, "gli"), (2, "gsi"),
                                           (2, "sur")])
    def test_scores_match_per_fold_reference(self, monkeypatch, m, method):
        # the fold matrices are totals minus validation sums, so they move by
        # roundoff from a per-fold assembly; 15 descent steps amplify that to
        # about 1e-10 relative on this grid, and the picks stay the same
        bench, samples, bases = self.setup()
        cfg = OptimizerConfig(max_iters=15)
        folds = kfold_indices(samples.n, self.GRID.pk_folds, 9)
        reference = []
        for basis in bases:
            row = []
            for train, val in folds:
                train_set = samples.subset(train)
                gram = assemble_gram(basis, train_set)
                fmap, _ = learn_features(train_set, basis, m, method,
                                         gram=gram, config=cfg)
                row.append(poincare_loss(samples.subset(val), fmap))
            reference.append(row)
        seen = []
        scorer = regression.poincare_loss

        def record(*args, **kwargs):
            seen.append(scorer(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(regression, "poincare_loss", record)
        best = cv_select_basis(samples, m, method, bench.families,
                               self.GRID, seed=9, optimizer=cfg)
        np.testing.assert_allclose(seen, [s for row in reference for s in row],
                                   rtol=1e-8, atol=0.0)
        assert best == self.pick(reference, bases)

    def test_single_feature_surrogate_is_one_eigensolve_per_fold(
            self, monkeypatch):
        bench, samples, bases = self.setup()
        solves = []
        solve = regression.min_generalized_eig

        def counted(H, gram):
            solves.append(gram.size)
            return solve(H, gram)

        def no_fit(*args, **kwargs):
            raise AssertionError("learn_features called for sur at m = 1")

        monkeypatch.setattr(regression, "min_generalized_eig", counted)
        monkeypatch.setattr(regression, "learn_features", no_fit)
        cv_select_basis(samples, 1, "sur", bench.families, self.GRID, seed=9)
        assert solves == [b.size for b in bases
                          for _ in range(self.GRID.pk_folds)]


class TestFoldSums:
    """Each fold's training R and (h1, h2) are the sums over every sample
    minus the validation rows' sums, divided by the training count."""

    @staticmethod
    def fold_matrices(monkeypatch, samples, basis, folds):
        """The ``GramMatrix`` and ``SurrogateMatrices`` each fold builds."""
        built = {"GramMatrix": [], "SurrogateMatrices": []}
        for name, made in built.items():
            def record(*args, real=getattr(regression, name), made=made,
                       **kwargs):
                made.append(real(*args, **kwargs))
                return made[-1]
            monkeypatch.setattr(regression, name, record)
        jac = basis.jacobian_batch(samples.points)
        regression._cv_score(samples, basis, jac, folds, 1, "sur", None)
        monkeypatch.undo()
        return built["GramMatrix"], built["SurrogateMatrices"]

    @pytest.mark.filterwarnings("ignore:Gram estimate from")
    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(12, 60), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def test_totals_minus_validation_match_training_assembly(
            self, monkeypatch, n, n_folds, seed):
        bench = make_benchmark("u3")
        samples = make_samples(bench, n, seed)
        basis = FeatureBasis(build_index_set(8, 1.0, 2), bench.families)
        folds = kfold_indices(n, n_folds, seed)
        grams, mats = self.fold_matrices(monkeypatch, samples, basis, folds)
        assert len(grams) == len(mats) == n_folds
        jac = basis.jacobian_batch(samples.points).reshape(-1, basis.size)
        w = np.repeat(np.sum(samples.gradients ** 2, axis=1), samples.dim)
        # a sum of N = n d products is within N eps / 2 of its value,
        # relative to the sum of absolute products, which Cauchy-Schwarz
        # bounds by sqrt(D_a D_b), D the diagonal of the unnormalized total
        # (of R for R, of h1 for h1 and h2, whose row terms are bounded by
        # h1's); the totals, the validation and the reference training sums
        # each err by that, and the scaling and the subtraction by a few eps
        bound = (n * samples.dim + 8) * np.finfo(float).eps
        scale_r = np.sqrt(np.einsum("ia,ia->a", jac, jac))
        scale_h = np.sqrt(np.einsum("i,ia,ia->a", w, jac, jac))
        for (train, _), gram, mat in zip(folds, grams, mats):
            train_set = samples.subset(train)
            ref_gram = assemble_gram(basis, train_set)
            ref = surrogate_matrices(train_set, basis)
            tol_r = bound * np.outer(scale_r, scale_r) / train.size
            tol_h = bound * np.outer(scale_h, scale_h) / train.size
            # at n < K either factorization may have needed a ridge
            unridged = [g.matrix - g.ridge_added * np.eye(basis.size)
                        for g in (gram, ref_gram)]
            assert np.all(np.abs(unridged[0] - unridged[1]) <= tol_r)
            assert np.all(np.abs(mat.h1 - ref.h1) <= tol_h)
            assert np.all(np.abs(mat.h2 - ref.h2) <= tol_h)


class TestCvSelectBasisDuplicates:
    """At d = 8, (0.9, k) and (0.8, k) build the same index set for k = 2, 3;
    a duplicate reuses the earlier candidate's score."""

    # (0.9, 3) comes first, so its tie with (0.8, 3) must still go to (0.8, 3)
    GRID = CvGrid(pk_candidates=((0.9, 3), (1.0, 1), (0.8, 2), (0.8, 3),
                                 (0.9, 2)), pk_folds=4)

    def setup(self):
        bench = make_benchmark("u3")
        samples = make_samples(bench, 48, 5)
        bases = [FeatureBasis(build_index_set(8, p, k), bench.families)
                 for p, k in self.GRID.pk_candidates]
        distinct = {b.index_set.indices for b in bases}
        assert len(distinct) == 3
        return bench, samples, bases, len(distinct)

    @pytest.mark.parametrize("m, method", [(1, "gli"), (2, "sur")])
    def test_selection_unchanged_and_one_fit_per_index_set(self, monkeypatch,
                                                           m, method):
        bench, samples, bases, distinct = self.setup()
        cfg = OptimizerConfig(max_iters=10)
        folds = kfold_indices(samples.n, self.GRID.pk_folds, 4)
        results = []
        for (p, k), basis in zip(self.GRID.pk_candidates, bases):
            scores = []
            for train, val in folds:
                train_set = samples.subset(train)
                fmap, _ = learn_features(train_set, basis, m, method,
                                         gram=assemble_gram(basis, train_set),
                                         config=cfg)
                scores.append(poincare_loss(samples.subset(val), fmap))
            results.append((float(np.mean(scores)), basis.size, (p, k)))
        fits = []
        fit = regression.learn_features

        def counted(*args, **kwargs):
            fits.append(args[1].index_set.indices)
            return fit(*args, **kwargs)

        monkeypatch.setattr(regression, "learn_features", counted)
        best = cv_select_basis(samples, m, method, bench.families, self.GRID,
                               seed=4, optimizer=cfg)
        assert best == min(results)[2] == (0.8, 3)
        assert len(fits) == distinct * len(folds)
        assert len(set(fits)) == distinct

    def test_single_feature_surrogate_scores_once_per_index_set(
            self, monkeypatch):
        bench, samples, bases, distinct = self.setup()
        scored = []
        score = regression._cv_score

        def record(samples, basis, *args):
            scored.append(basis.index_set.indices)
            return score(samples, basis, *args)

        monkeypatch.setattr(regression, "_cv_score", record)
        best = cv_select_basis(samples, 1, "sur", bench.families, self.GRID,
                               seed=4)
        assert len(scored) == len(set(scored)) == distinct
        folds = kfold_indices(samples.n, self.GRID.pk_folds, 4)
        results = [(score(samples, basis, basis.jacobian_batch(samples.points),
                          folds, 1, "sur", None), basis.size, pk)
                   for pk, basis in zip(self.GRID.pk_candidates, bases)]
        assert best == min(results)[2] == (0.8, 3)


class TestCvSelectBasisTies:
    """Scores within the loss roundoff of the best one are ties, and ties go
    to the smaller basis."""

    GRID = CvGrid(pk_candidates=((1.0, 3), (1.0, 2), (1.0, 1)), pk_folds=4)

    def select(self, monkeypatch, samples, by_size):
        def score(samples, basis, *args):
            return by_size[basis.size]
        monkeypatch.setattr(regression, "_cv_score", score)
        bench = make_benchmark("u1")
        return cv_select_basis(samples, 1, "sur", bench.families, self.GRID)

    @pytest.mark.parametrize("offsets, pick", [
        ((0.0, 0.0, 2.0), (1.0, 2)),      # exactly tied
        ((0.0, 0.9, 1e3), (1.0, 2)),      # tied within the roundoff
        ((0.0, 1.0, 1.0), (1.0, 1)),      # the bound itself is a tie
        ((0.0, 2.0, 1e3), (1.0, 3)),      # beyond the roundoff
        ((0.5, 0.0, 1e3), (1.0, 2)),      # the best is the smaller basis
    ])
    def test_ties_go_to_the_smaller_basis(self, monkeypatch, offsets, pick):
        samples = make_samples(make_benchmark("u1"), 40, 0)
        tol = regression._loss_roundoff(samples)
        # K = 164, 44 and 8 for (1, 3), (1, 2) and (1, 1) at d = 8
        best = 3e-16
        by_size = {164: best + offsets[0] * tol, 44: best + offsets[1] * tol,
                   8: best + offsets[2] * tol}
        assert self.select(monkeypatch, samples, by_size) == pick

    def test_roundoff_bound(self):
        # (2 d + 1) eps times the mean squared gradient norm
        samples = make_samples(make_benchmark("u1"), 40, 0)
        assert regression._loss_roundoff(samples) == \
            17 * np.finfo(float).eps * samples.mean_gradient_norm_sq()

    def test_exact_recovery_picks_the_smallest_exact_basis(self):
        # u1 is a function of |x|^2: every basis with the squares recovers
        # it, with validation losses at roundoff
        bench = make_benchmark("u1")
        samples = make_samples(bench, 100, 0)
        grid = CvGrid(pk_candidates=((0.8, 5), (1.0, 3), (1.0, 2)),
                      pk_folds=5)
        assert cv_select_basis(samples, 1, "sur", bench.families,
                               grid) == (1.0, 2)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# every finite double, subnormals and -0.0 included
any_finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def krr_models(draw):
    N = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    Z = draw(hnp.arrays(float, (N, m), elements=any_finite))
    a = draw(hnp.arrays(float, N, elements=any_finite))
    # a NumPy scalar is written as a plain float too
    scalar = st.sampled_from([float, np.float64])
    return KrrModel(Z, a, draw(scalar)(draw(positive)),
                    draw(scalar)(draw(positive)))


class TestModelIO:
    # the file is rewritten by every example
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(krr_models())
    def test_round_trip(self, tmp_path, model):
        path = tmp_path / "model.txt"
        model.save(path)
        clone = KrrModel.load(path)
        assert _bits(clone.gamma) == _bits(model.gamma)
        assert _bits(clone.ridge) == _bits(model.ridge)
        assert np.array_equal(_bits(clone.train_features),
                              _bits(model.train_features))
        assert np.array_equal(_bits(clone.dual_coeffs), _bits(model.dual_coeffs))

    @pytest.mark.parametrize("text", [
        "2 x 0.5 1e-6\n0.1\n0.2\n1.0\n2.0\n",    # non-integer count
        "2 1 0.5\n0.1\n0.2\n1.0\n2.0\n",         # short header
        "",                                          # empty file
        "0 1 0.5 1e-6\n",                           # no training points
        "2 1 0.5 1e-6\n0.1\n0.2\n1.0\n",          # missing coefficient
        "2 2 0.5 1e-6\n0.1 0.2\n0.3\n1.0\n2.0\n",  # ragged features
        "2 1 0.5 1e-6\n0.1\n0.2\n1.0\n2.0\n3.0\n",  # more than announced
    ], ids=["count-not-int", "short-header", "empty", "zero-points",
            "short-body", "ragged-features", "trailing-data"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError):
            KrrModel.load(path)

    @pytest.mark.parametrize("field, value", [
        ("gamma", np.nan), ("gamma", -1.0), ("gamma", 0.0), ("gamma", np.inf),
        ("ridge", np.nan), ("ridge", -1e-6), ("ridge", 0.0), ("ridge", np.inf),
        ("train_features", np.inf), ("train_features", np.nan),
        ("dual_coeffs", -np.inf), ("dual_coeffs", np.nan)])
    def test_model_krr_fit_cannot_make_rejected(self, tmp_path, field, value):
        # with gamma = nan, krr_predict of a loaded model returned NaN
        model = KrrModel(np.array([[0.1, 0.2], [0.3, 0.4]]),
                         np.array([1.0, 2.0]), 0.5, 1e-6)
        if field in ("gamma", "ridge"):
            setattr(model, field, value)
        else:
            getattr(model, field)[-1] = value
        path = tmp_path / "model.txt"
        model.save(path)
        with pytest.raises(InvalidInputError):
            KrrModel.load(path)


class TestGridDefaults:
    def test_grids_match_protocol(self):
        grid = CvGrid()
        assert grid.log10_gamma.size == 30
        assert grid.log10_gamma[0] == -6.0 and grid.log10_gamma[-1] == -2.0
        assert grid.log10_ridge.size == 40
        assert grid.log10_ridge[0] == -11.0 and grid.log10_ridge[-1] == -5.0
        assert grid.folds == 10 and grid.pk_folds == 5
        expected = {(0.8, 2), (0.8, 3), (0.8, 4), (0.8, 5),
                    (0.9, 2), (0.9, 3), (0.9, 4),
                    (1.0, 1), (1.0, 2), (1.0, 3)}
        assert set(grid.pk_candidates) == expected
        steps = np.diff(grid.log10_gamma)
        np.testing.assert_allclose(steps, steps[0])
