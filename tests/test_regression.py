import math

import numpy as np
import pytest

import gradfeat.regression as regression
from gradfeat.basis import FeatureBasis, assemble_gram, build_index_set
from gradfeat.benchmarks import make_benchmark, make_samples
from gradfeat.errors import InvalidInputError
from gradfeat.grassmann import OptimizerConfig, learn_features
from gradfeat.regression import (CvGrid, KrrModel, cv_select_basis,
                                 cv_select_krr, kfold_indices, krr_fit,
                                 krr_predict)
from gradfeat.surrogate import poincare_loss


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

    @pytest.mark.parametrize("m, method", [(1, "gli"), (2, "gsi"), (2, "sur")])
    def test_descent_scores_match_per_candidate_reference(self, monkeypatch,
                                                          m, method):
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
        scorer = regression._poincare_loss_on_jacobian

        def record(*args):
            seen.append(scorer(*args))
            return seen[-1]

        monkeypatch.setattr(regression, "_poincare_loss_on_jacobian", record)
        best = cv_select_basis(samples, m, method, bench.families,
                               self.GRID, seed=9, optimizer=cfg)
        assert seen == [s for row in reference for s in row]
        assert best == self.pick(reference, bases)

    def test_surrogate_fast_path_matches_per_candidate_jacobian(self,
                                                                monkeypatch):
        bench, samples, bases = self.setup()
        folds = kfold_indices(samples.n, self.GRID.pk_folds, 9)
        reference = [regression._single_feature_surrogate_cv(
            samples, basis.jacobian_batch(samples.points), folds)
            for basis in bases]
        seen = []
        fast = regression._single_feature_surrogate_cv

        def record(*args):
            seen.append(fast(*args))
            return seen[-1]

        monkeypatch.setattr(regression, "_single_feature_surrogate_cv", record)
        best = cv_select_basis(samples, 1, "sur", bench.families, self.GRID,
                               seed=9)
        assert seen == reference
        assert best == self.pick([[s] for s in reference], bases)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(12, 2))
        u = rng.normal(size=12)
        model = krr_fit(Z, u, gamma=0.3, ridge=1e-5)
        path = tmp_path / "model.txt"
        model.save(path)
        clone = KrrModel.load(path)
        assert clone.gamma == model.gamma and clone.ridge == model.ridge
        np.testing.assert_allclose(clone.train_features, model.train_features)
        np.testing.assert_allclose(clone.dual_coeffs, model.dual_coeffs)
        q = rng.normal(size=(4, 2))
        np.testing.assert_allclose(krr_predict(clone, q), krr_predict(model, q))


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
