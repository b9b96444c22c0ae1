import numpy as np
import pytest

from gradfeat.basis import FeatureBasis, MultiIndexSet, assemble_gram, \
    build_index_set
from gradfeat.benchmarks import make_benchmark, make_samples
from gradfeat.errors import IllConditionedError, InvalidInputError
from gradfeat.grassmann import (OptimizerConfig, active_subspace_init,
                                learn_features, minimize_poincare_loss,
                                poincare_loss_gradient)
from gradfeat.surrogate import FeatureMap, SampleSet, poincare_loss


def u3_setup(n=150, seed=1, k=2.0):
    bench = make_benchmark("u3")
    samples = make_samples(bench, n, seed)
    basis = FeatureBasis(build_index_set(8, 1.0, k), bench.families)
    gram = assemble_gram(basis, samples)
    return samples, basis, gram


def first_coordinate_samples(basis, n, seed):
    bench = make_benchmark("u1")
    X = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, 8))
    grads = np.zeros_like(X)
    grads[:, 0] = 1.0
    return SampleSet(X, X[:, 0], grads)


class TestActiveSubspaceInit:
    def test_single_direction_lands_on_unit_rows(self):
        bench = make_benchmark("u1")
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        samples = first_coordinate_samples(basis, 100, 0)
        G = active_subspace_init(samples, basis, 1)
        rows = [basis.index_set.indices.index(
            tuple(1 if i == nu else 0 for i in range(8))) for nu in range(8)]
        mask = np.zeros(basis.size, dtype=bool)
        mask[rows] = True
        assert np.max(np.abs(G[~mask, 0])) <= 1e-12
        # the only surviving unit row is the first coordinate's
        weights = np.abs(G[rows, 0])
        assert np.argmax(weights) == 0
        assert np.max(weights[1:]) <= 1e-10 * weights[0]

    def test_rank_one_diagonal_direction(self):
        bench = make_benchmark("u1")
        basis = FeatureBasis(build_index_set(8, 1.0, 1.0), bench.families)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(60, 8))
        grads = np.zeros_like(X)
        grads[:, 0] = 1.0
        grads[:, 1] = 1.0
        samples = SampleSet(X, X[:, 0] + X[:, 1], grads)
        G = active_subspace_init(samples, basis, 1)
        direction = G[:8, 0] if basis.size == 8 else None
        # coefficients on the two active unit rows are equal, others vanish
        rows = [basis.index_set.indices.index(
            tuple(1 if i == nu else 0 for i in range(8))) for nu in range(8)]
        vals = G[rows, 0]
        assert abs(abs(vals[0]) - abs(vals[1])) <= 1e-10 * abs(vals[0])
        assert np.max(np.abs(vals[2:])) <= 1e-10 * abs(vals[0])

    def test_full_space_nulls_loss(self):
        samples, basis, gram = u3_setup(n=120, seed=2)
        G = active_subspace_init(samples, basis, 8, gram)
        loss = poincare_loss(samples, FeatureMap(basis, G))
        assert loss <= 1e-10 * samples.mean_gradient_norm_sq()

    def test_missing_unit_index_rejected(self):
        idx = MultiIndexSet(dim=2, p=1.0, k=2.0, indices=((2, 0), (0, 2)))
        bench = make_benchmark("u1")
        basis = FeatureBasis(idx, bench.families[:2])
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(30, 2))
        samples = SampleSet(X, X[:, 0], np.ones_like(X))
        with pytest.raises(InvalidInputError):
            active_subspace_init(samples, basis, 1)


class TestLossGradient:
    def test_matches_finite_differences(self):
        samples, basis, gram = u3_setup(n=120, seed=5)
        rng = np.random.default_rng(6)
        from gradfeat.grassmann import _LossContext
        ctx = _LossContext(samples, basis)
        for m in (1, 2):
            for _ in range(3):
                G = rng.normal(size=(basis.size, m))
                grad = poincare_loss_gradient(samples, basis, G)
                h = 1e-6
                worst = 0.0
                for idx in np.ndindex(G.shape):
                    E = np.zeros_like(G)
                    E[idx] = h
                    fd = (ctx.loss(G + E) - ctx.loss(G - E)) / (2 * h)
                    worst = max(worst, abs(fd - grad[idx]))
                assert worst <= 1e-5 * max(1.0, np.max(np.abs(grad)))

    def test_zero_at_global_minimizer(self):
        bench = make_benchmark("u1")
        basis = FeatureBasis(build_index_set(8, 1.0, 1.0), bench.families)
        samples = first_coordinate_samples(basis, 80, 7)
        G = active_subspace_init(samples, basis, 1)
        grad = poincare_loss_gradient(samples, basis, G)
        assert np.linalg.norm(grad) <= 1e-8

    def test_riemannian_direction_is_horizontal(self):
        samples, basis, gram = u3_setup(n=100, seed=8)
        G = active_subspace_init(samples, basis, 2, gram)
        E = poincare_loss_gradient(samples, basis, G)
        xi = gram.solve(E) - G @ (G.T @ E)
        assert np.max(np.abs(G.T @ gram.matrix @ xi)) <= 1e-8 * max(
            1.0, np.max(np.abs(E)))


class TestMinimize:
    def test_immediate_return_at_minimizer(self):
        bench = make_benchmark("u1")
        basis = FeatureBasis(build_index_set(8, 1.0, 1.0), bench.families)
        samples = first_coordinate_samples(basis, 80, 9)
        G = active_subspace_init(samples, basis, 1)
        fmap, trace = minimize_poincare_loss(samples, basis, G)
        assert trace[-1][0] <= 1
        assert trace[-1][1] <= 1e-12

    def test_trace_monotone_and_orthonormal_result(self):
        samples, basis, gram = u3_setup(n=120, seed=10)
        G0 = active_subspace_init(samples, basis, 1, gram)
        fmap, trace = minimize_poincare_loss(samples, basis, G0, gram=gram)
        losses = [row[1] for row in trace]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        C = fmap.coeffs.T @ gram.matrix @ fmap.coeffs
        assert np.linalg.norm(C - np.eye(fmap.n_features)) <= 1e-8

    def test_loss_invariant_under_reorthonormalization(self):
        samples, basis, gram = u3_setup(n=100, seed=11)
        rng = np.random.default_rng(12)
        from gradfeat.surrogate import orthonormalize
        G = orthonormalize(rng.normal(size=(basis.size, 2)), gram)
        before = poincare_loss(samples, FeatureMap(basis, G))
        A = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        after = poincare_loss(
            samples, FeatureMap(basis, orthonormalize(G @ A, gram)))
        assert abs(before - after) <= 1e-10 * max(before, 1.0)

    def test_trace_csv_written(self, tmp_path):
        samples, basis, gram = u3_setup(n=80, seed=13)
        G0 = active_subspace_init(samples, basis, 1, gram)
        path = tmp_path / "trace.csv"
        cfg = OptimizerConfig(max_iters=10, trace_path=str(path))
        minimize_poincare_loss(samples, basis, G0, config=cfg, gram=gram)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,J,grad_norm,step"
        assert len(lines) >= 2

    def test_bad_line_search_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(shrink=1.5)
        with pytest.raises(InvalidInputError):
            OptimizerConfig(sufficient_decrease=0.0)


    def test_precomputed_jacobian_gives_identical_descent(self):
        samples, basis, gram = u3_setup(n=90, seed=16)
        jac = basis.jacobian_batch(samples.points)
        cfg = OptimizerConfig(max_iters=40)
        for m in (1, 2):
            G0 = active_subspace_init(samples, basis, m, gram)
            ref, ref_trace = minimize_poincare_loss(samples, basis, G0,
                                                    config=cfg, gram=gram)
            out, trace = minimize_poincare_loss(samples, basis, G0, config=cfg,
                                                gram=gram, jac=jac)
            assert np.array_equal(out.coeffs, ref.coeffs)
            assert trace == ref_trace
            for method in ("sur", "gli", "gsi"):
                ref, ref_info = learn_features(samples, basis, m, method,
                                               gram=gram, config=cfg)
                out, info = learn_features(samples, basis, m, method,
                                           gram=gram, config=cfg, jac=jac)
                assert np.array_equal(out.coeffs, ref.coeffs)
                del info["wall_time_s"], ref_info["wall_time_s"]
                assert info == ref_info
                assert info["loss_final"] == poincare_loss(samples, ref)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("method", ["gli", "gsi"])
    @pytest.mark.parametrize("with_gram", [False, True])
    def test_descent_fit_evaluates_one_jacobian(self, monkeypatch, m, method,
                                                with_gram):
        samples, basis, gram = u3_setup(n=60, seed=18)
        calls = []
        evaluate = FeatureBasis.jacobian_batch

        def counted(self, X):
            calls.append(len(X))
            return evaluate(self, X)

        monkeypatch.setattr(FeatureBasis, "jacobian_batch", counted)
        learn_features(samples, basis, m, method,
                       gram=gram if with_gram else None,
                       config=OptimizerConfig(max_iters=5))
        assert calls == [samples.n]

    def test_jacobian_of_wrong_shape_rejected(self):
        samples, basis, gram = u3_setup(n=60, seed=17)
        G0 = active_subspace_init(samples, basis, 1, gram)
        jac = basis.jacobian_batch(samples.points[:-1])
        with pytest.raises(InvalidInputError):
            minimize_poincare_loss(samples, basis, G0, gram=gram, jac=jac)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises(self, monkeypatch, bad):
        from gradfeat.grassmann import _LossContext
        samples, basis, gram = u3_setup(n=60, seed=18)
        G0 = active_subspace_init(samples, basis, 1, gram)
        exact = _LossContext.euclidean_grad

        def poisoned(self, G):
            E = exact(self, G)
            E[3, 0] = bad
            return E

        monkeypatch.setattr(_LossContext, "euclidean_grad", poisoned)
        with pytest.raises(IllConditionedError):
            minimize_poincare_loss(samples, basis, G0, gram=gram)


class TestLearnFeatures:
    def test_descent_from_surrogate_never_hurts(self):
        samples, basis, gram = u3_setup(n=120, seed=14)
        _, info_sur = learn_features(samples, basis, 1, "sur", gram=gram)
        _, info_gsi = learn_features(samples, basis, 1, "gsi", gram=gram)
        assert info_gsi["loss_final"] <= info_sur["loss_final"] + 1e-12
        assert info_gsi["loss_init"] == pytest.approx(
            info_sur["loss_final"], rel=1e-9)

    def test_unknown_method_rejected(self):
        samples, basis, gram = u3_setup(n=60, seed=15)
        with pytest.raises(InvalidInputError):
            learn_features(samples, basis, 1, "newton", gram=gram)


class TestDescentOnRidgeTarget:
    def test_linear_start_reaches_zero_in_median(self):
        # at 250 samples the descent from the linear start finds the exact
        # single-feature reduction of u1 in the median over seeds
        bench = make_benchmark("u1")
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        rels = []
        for seed in range(5):
            train = make_samples(bench, 250, seed=400 + seed)
            gram = assemble_gram(basis, train)
            _, info = learn_features(train, basis, 1, "gli", gram=gram)
            rels.append(info["loss_final"] / train.mean_gradient_norm_sq())
        assert float(np.median(rels)) <= 1e-8
