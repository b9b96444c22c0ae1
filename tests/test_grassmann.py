import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradfeat.grassmann as grassmann
import gradfeat.surrogate as surrogate
from gradfeat.basis import FeatureBasis, MultiIndexSet, assemble_gram, \
    build_index_set
from gradfeat.benchmarks import _realization_seeds, make_benchmark, \
    make_samples
from gradfeat.errors import IllConditionedError, InvalidInputError
from gradfeat.grassmann import (OptimizerConfig, _LossContext, _metric_solve,
                                _riemannian_grad, active_subspace_init,
                                learn_features, minimize_poincare_loss,
                                poincare_loss_gradient)
from gradfeat.regression import _loss_roundoff
from gradfeat.surrogate import (FeatureMap, SampleSet, orthonormalize,
                                poincare_loss, surrogate_matrices)


def u3_setup(n=150, seed=1, k=2.0):
    bench = make_benchmark("u3")
    samples = make_samples(bench, n, seed)
    basis = FeatureBasis(build_index_set(8, 1.0, k), bench.families)
    gram = assemble_gram(basis, samples)
    return samples, basis, gram


def sweep_setup(bench_id, n, p, k, realization=0):
    """The training set and basis of one desk-sweep cell at seed 0."""
    bench = make_benchmark(bench_id)
    train_ss, _, _ = _realization_seeds(0, n, realization)
    samples = make_samples(bench, n, train_ss)
    basis = FeatureBasis(build_index_set(bench.dim, p, k), bench.families)
    return samples, basis, assemble_gram(basis, samples)


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

    @pytest.mark.parametrize("bench_id, n, m", [
        ("u4", 600, 2), ("u3", 90, 2), ("u4", 300, 3)])
    def test_several_features_loss_is_poincare_loss_bitwise(self, bench_id,
                                                            n, m):
        # the support-block contraction is poincare_loss's own, and n = 600
        # crosses its row blocks
        bench = make_benchmark(bench_id)
        samples = make_samples(bench, n, 3)
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        jac = basis.jacobian_batch(samples.points)
        ctx = _LossContext(samples, basis, jac)
        rng = np.random.default_rng(4)
        for _ in range(3):
            G = rng.normal(size=(basis.size, m))
            assert ctx.loss(G) == poincare_loss(samples, FeatureMap(basis, G),
                                                jac=jac)

    @pytest.mark.parametrize("m", [2, 3])
    def test_block_gradient_matches_the_dense_product(self, m):
        # E = -2/n sum_i J_i^T W_i over the whole Jacobian, W_i the weights
        # the gradient scatters; each entry is a sum of n d products, so the
        # two orders agree to 2 n d eps times the sum of absolute values
        bench = make_benchmark("u4")
        samples = make_samples(bench, 300, 5)
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        jac = basis.jacobian_batch(samples.points)
        ctx = _LossContext(samples, basis, jac)
        G = np.random.default_rng(6).normal(size=(basis.size, m))
        U, S, Vt, mask = ctx._at(G)[1]
        ub = np.einsum("ndr,nd->nr", U, samples.gradients) * mask
        resid = samples.gradients - np.einsum("ndr,nr->nd", U, ub)
        y = np.einsum("nrm,nr->nm", Vt, ub / np.where(mask, S, 1.0) * mask)
        W = (resid[:, :, None] * y[:, None, :]).reshape(-1, m)
        flat = jac.reshape(-1, basis.size)
        dense = -2.0 / samples.n * (flat.T @ W)
        scale = 2.0 / samples.n * (np.abs(flat).T @ np.abs(W))
        tol = 2 * flat.shape[0] * np.finfo(float).eps
        assert np.all(np.abs(ctx.euclidean_grad(G) - dense) <= tol * scale)

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

    def test_trace_in_info(self):
        samples, basis, gram = u3_setup(n=80, seed=13)
        cfg = OptimizerConfig(max_iters=10)
        _, info = learn_features(samples, basis, 1, "gli", gram=gram,
                                 config=cfg)
        G0 = active_subspace_init(samples, basis, 1, gram)
        _, trace = minimize_poincare_loss(samples, basis, G0, config=cfg,
                                          gram=gram)
        # the descent's own rows, (iteration, loss, gradient norm, step)
        assert info["trace"] == trace and len(trace) >= 2
        assert info["trace"][-1][0] == info["iterations"]
        assert learn_features(samples, basis, 1, "sur",
                              gram=gram)[1]["trace"] is None

    @pytest.mark.parametrize("method", ["gli", "gsi"])
    def test_trace_ends_at_loss_final(self, method):
        # several features: the descent's losses are poincare_loss's bits
        bench = make_benchmark("u4")
        samples = make_samples(bench, 200, 2)
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        _, info = learn_features(samples, basis, 2, method,
                                 config=OptimizerConfig(max_iters=15))
        assert info["iterations"] > 0
        assert info["trace"][-1][1] == info["loss_final"]

    def test_two_features_need_no_lapack_svd(self, monkeypatch):
        # every per-sample projection at m = 2 (one prior column in the
        # greedy pass, two in the descent) runs in closed form
        bench = make_benchmark("u4")
        samples = make_samples(bench, 200, 2)
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        _, info = learn_features(samples, basis, 2, "gsi",
                                 config=OptimizerConfig(max_iters=5))
        assert info["iterations"] > 0 and calls == []

    @pytest.mark.parametrize("setting", [
        {"max_iters": -1}, {"max_iters": 2.5}, {"max_iters": None},
        # bool is an Integral, but True is no iteration count
        {"max_iters": True}, {"max_iters": False},
    ], ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()))
    def test_bad_settings_rejected(self, setting):
        (name, value), = setting.items()
        with pytest.raises(InvalidInputError) as err:
            OptimizerConfig(**setting)
        # the message names the setting and the value
        assert name in str(err.value) and repr(value) in str(err.value)

    def test_boundary_settings_accepted(self):
        assert OptimizerConfig(max_iters=0).max_iters == 0

    @pytest.mark.parametrize("m", [1, 2])
    def test_line_search_costs_about_one_loss_per_step(self, monkeypatch, m):
        samples, basis, gram = u3_setup(n=90, seed=16)
        G0 = active_subspace_init(samples, basis, m, gram)
        calls = []
        exact = _LossContext.loss

        def counted(self, G):
            calls.append(G)
            return exact(self, G)

        monkeypatch.setattr(_LossContext, "loss", counted)
        _, trace = minimize_poincare_loss(samples, basis, G0, gram=gram,
                                          config=OptimizerConfig(max_iters=40))
        assert trace[-1][0] == 40
        # the starting point's evaluation aside
        assert len(calls) - 1 <= 2 * 40

    def test_steps_never_exceed_one(self):
        samples, basis, gram = u3_setup(n=90, seed=16)
        G0 = active_subspace_init(samples, basis, 2, gram)
        _, trace = minimize_poincare_loss(samples, basis, G0, gram=gram,
                                          config=OptimizerConfig(max_iters=40))
        steps = [row[3] for row in trace[1:]]
        assert len(steps) == 40
        assert all(0.0 < step <= 1.0 for step in steps)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_search_is_monotone(self, m, seed):
        samples, basis, gram = u3_setup(n=60, seed=19)
        G0 = np.random.default_rng(seed).normal(size=(basis.size, m))
        fmap, trace = minimize_poincare_loss(
            samples, basis, G0, config=OptimizerConfig(max_iters=15), gram=gram)
        losses = [row[1] for row in trace]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert all(0.0 < row[3] <= 1.0 for row in trace[1:])
        C = fmap.coeffs.T @ gram.matrix @ fmap.coeffs
        assert np.linalg.norm(C - np.eye(m)) <= 1e-8


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
            mats = surrogate_matrices(samples, basis)
            for method in ("sur", "gli", "gsi"):
                ref, ref_info = learn_features(samples, basis, m, method,
                                               gram=gram, config=cfg)
                del ref_info["wall_time_s"]
                assert ref_info["loss_final"] == poincare_loss(samples, ref)
                # a precomputed Jacobian or surrogate is an input, not a knob
                for given in ({"jac": jac}, {"surrogate": mats},
                              {"jac": jac, "surrogate": mats}):
                    out, info = learn_features(samples, basis, m, method,
                                               gram=gram, config=cfg, **given)
                    assert np.array_equal(out.coeffs, ref.coeffs)
                    del info["wall_time_s"]
                    assert info == ref_info

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


class TestPreconditionedDirection:
    @pytest.mark.parametrize("n, p, k", [(60, 1.0, 2.0), (50, 0.8, 5.0)])
    def test_slope_matches_finite_differences(self, n, p, k):
        samples, basis, gram = sweep_setup("u3", n, p, k)
        G = active_subspace_init(samples, basis, 1, gram)
        ctx = _LossContext(samples, basis)
        solve = _metric_solve(gram, surrogate_matrices(samples, basis).h)
        E, xi, gnorm = _riemannian_grad(ctx, G, solve, gram.matrix)
        # the first search of the descent pairs -xi with E
        _, trace = minimize_poincare_loss(samples, basis, G, gram=gram,
                                          config=OptimizerConfig(max_iters=1))
        assert trace[0][2] == pytest.approx(gnorm, rel=1e-10)
        slope = float(np.sum(E * -xi))
        assert slope == pytest.approx(-gnorm ** 2, rel=1e-12)
        # horizontal: xi keeps the R-orthonormality of G to first order
        assert abs(float(G[:, 0] @ gram.matrix @ xi[:, 0])) <= \
            1e-10 * np.sqrt(float(xi[:, 0] @ gram.matrix @ xi[:, 0]))
        t = 1e-5 / np.sqrt(float(xi[:, 0] @ gram.matrix @ xi[:, 0]))
        fd = (ctx.loss(orthonormalize(G - t * xi, gram))
              - ctx.loss(orthonormalize(G + t * xi, gram))) / (2.0 * t)
        assert fd == pytest.approx(slope, rel=1e-6)

    def test_metric_is_the_gram_without_surrogate_curvature(self):
        samples, basis, gram = u3_setup(n=60, seed=21)
        # several features, or tr(h) = 0
        assert _metric_solve(gram, None) == gram.solve
        assert _metric_solve(gram, np.zeros_like(gram.matrix)) == gram.solve
        h = surrogate_matrices(samples, basis).h
        assert _metric_solve(gram, h) != gram.solve

    def test_u4_descent_no_longer_stalls(self):
        # with the Gram metric alone this descent stopped after 22
        # iterations at 1.22e-4, its steps near 2e-11 (cond(R) ~ 1e13)
        samples, basis, gram = sweep_setup("u4", 50, 0.8, 5.0)
        _, info = learn_features(samples, basis, 1, "gli", gram=gram)
        assert info["loss_final"] <= 1e-6

    @pytest.mark.parametrize("n", [50, 100])
    def test_u1_exact_recovery_kept(self, n):
        samples, basis, gram = sweep_setup("u1", n, 0.8, 2.0)
        _, info = learn_features(samples, basis, 1, "gli", gram=gram)
        assert info["loss_final"] <= _loss_roundoff(samples)

    def test_given_surrogate_gives_identical_descent(self):
        samples, basis, gram = u3_setup(n=90, seed=16)
        G0 = active_subspace_init(samples, basis, 1, gram)
        cfg = OptimizerConfig(max_iters=40)
        ref, ref_trace = minimize_poincare_loss(samples, basis, G0,
                                                config=cfg, gram=gram)
        out, trace = minimize_poincare_loss(
            samples, basis, G0, config=cfg, gram=gram,
            surrogate=surrogate_matrices(samples, basis))
        assert np.array_equal(out.coeffs, ref.coeffs)
        assert trace == ref_trace

    @pytest.mark.parametrize("method", ["sur", "gli", "gsi"])
    def test_surrogate_sums_formed_once_per_fit(self, monkeypatch, method):
        samples, basis, gram = u3_setup(n=60, seed=18)
        calls = []
        exact = surrogate.surrogate_sums

        def counted(*args):
            calls.append(1)
            return exact(*args)

        # every fit sums h through surrogate.surrogate_matrices
        monkeypatch.setattr(surrogate, "surrogate_sums", counted)
        learn_features(samples, basis, 1, method, gram=gram,
                       config=OptimizerConfig(max_iters=5))
        assert len(calls) == 1


class TestStopReason:
    def run(self, **settings):
        samples, basis, gram = u3_setup(n=60, seed=22)
        G0 = active_subspace_init(samples, basis, 1, gram)
        return minimize_poincare_loss(samples, basis, G0, gram=gram,
                                      config=OptimizerConfig(**settings))[1]

    @pytest.mark.parametrize("bench_id, n", [("u1", 50), ("u3", 100)])
    def test_grad_tol(self, bench_id, n):
        # these linear-start descents on the (0.8, 5) basis converge; u3's
        # reaches the loss's roundoff with its gradient norm about 2e-9
        # times the first, so the absolute floor, not the relative
        # tolerance, stops it
        bench = make_benchmark(bench_id)
        samples = make_samples(bench, n, 7)
        basis = FeatureBasis(build_index_set(8, 0.8, 5.0), bench.families)
        gram = assemble_gram(basis, samples)
        G0 = active_subspace_init(samples, basis, 1, gram)
        _, trace = minimize_poincare_loss(samples, basis, G0, gram=gram)
        assert trace.stop_reason == "grad_tol"
        assert trace[-1][2] <= max(1e-9 * trace[0][2],
                                   np.sqrt(_loss_roundoff(samples)))
        assert trace[-1][0] < 500

    @pytest.mark.parametrize("bench_id", ["u1", "u3"])
    def test_start_stationary_to_roundoff(self, bench_id):
        # on the linear basis the active-subspace start is the minimizer,
        # with a gradient norm of about 1e-16: the descent stops there at
        # grad_tol rather than stalling on noise
        bench = make_benchmark(bench_id)
        samples = make_samples(bench, 60, 7)
        basis = FeatureBasis(build_index_set(8, 1.0, 1.0), bench.families)
        gram = assemble_gram(basis, samples)
        G0 = active_subspace_init(samples, basis, 1, gram)
        _, trace = minimize_poincare_loss(samples, basis, G0, gram=gram)
        assert trace.stop_reason == "grad_tol"
        assert len(trace) == 1
        assert trace[0][2] ** 2 <= _loss_roundoff(samples)

    def test_max_iters(self):
        trace = self.run(max_iters=3)
        assert trace.stop_reason == "max_iters"
        assert trace[-1][0] == 3

    def test_line_search(self, monkeypatch):
        exact = _LossContext.loss
        calls = []

        def only_start_is_finite(self, G):
            calls.append(G)
            return exact(self, G) if len(calls) == 1 else np.nan

        monkeypatch.setattr(_LossContext, "loss", only_start_is_finite)
        trace = self.run()
        assert trace.stop_reason == "line_search"
        assert len(trace) == 1
        # every trial halved the step, from 1 to below 1e-14
        assert len(calls) == 1 + 47

    def test_stall(self, monkeypatch):
        # every decrease counts as negligible
        monkeypatch.setattr(grassmann, "_STALL_DROP", 1.0)
        trace = self.run()
        assert trace.stop_reason == "stall"
        assert trace[-1][0] == 3

    def test_learn_features_reports_it(self):
        samples, basis, gram = u3_setup(n=60, seed=22)
        _, info = learn_features(samples, basis, 1, "gli", gram=gram,
                                 config=OptimizerConfig(max_iters=3))
        assert info["stop_reason"] == "max_iters"
        assert info["iterations"] == 3
        assert 0.0 < info["grad_rel_final"] < 1.0
        _, info = learn_features(samples, basis, 1, "sur", gram=gram)
        assert (info["stop_reason"], info["grad_rel_final"]) == (None, None)


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

    @pytest.mark.parametrize("method", ["sur", "gli", "gsi"])
    def test_no_features_rejected(self, method):
        samples, basis, gram = u3_setup(n=60, seed=15)
        with pytest.raises(InvalidInputError):
            learn_features(samples, basis, 0, method, gram=gram)

    @pytest.mark.parametrize("method", ["sur", "gli", "gsi"])
    def test_more_features_than_inputs_rejected(self, method):
        # at m > d the d x m feature Jacobian has rank below m everywhere
        samples, basis, gram = u3_setup(n=60, seed=15)
        assert basis.size > 9
        with pytest.raises(InvalidInputError,
                           match="m=9 exceeds input dimension d=8"):
            learn_features(samples, basis, 9, method, gram=gram)


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
