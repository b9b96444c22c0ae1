import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gradfeat.benchmarks as bm
import gradfeat.surrogate as surrogate
from gradfeat.basis import FeatureBasis, assemble_gram, build_index_set
from gradfeat.benchmarks import (ExperimentConfig, make_benchmark,
                                 make_samples, read_samples_csv,
                                 run_experiment, sample_inputs,
                                 write_samples_csv, _hilbert_matrix)
from gradfeat.errors import InvalidInputError, NumericError, RankDeficiencyError
from gradfeat.grassmann import OptimizerConfig, learn_features
from gradfeat.regression import CvGrid
from gradfeat.surrogate import FeatureMap, SampleSet, orthonormalize, poincare_loss


class TestEvaluations:
    def test_u1_at_origin(self):
        bench = make_benchmark("u1")
        u, g = bench.evaluate(np.zeros((1, 8)))
        assert u[0] == 0.0
        np.testing.assert_allclose(g, 0.0)

    def test_u2_at_origin(self):
        bench = make_benchmark("u2")
        u, _ = bench.evaluate(np.zeros((1, 8)))
        assert u[0] == pytest.approx(1.0)

    def test_coupling_matrix_entry(self):
        # 1-based entry (2, 3) of the reciprocal-sum matrix is 1/4
        assert _hilbert_matrix(8)[1, 2] == pytest.approx(0.25)

    @pytest.mark.parametrize("bench_id", ["u1", "u2", "u3", "u4"])
    def test_gradients_match_finite_differences(self, bench_id):
        bench = make_benchmark(bench_id)
        X = sample_inputs(bench, 200, seed=42)
        _, grads = bench.evaluate(X)
        fd = np.empty_like(grads)
        for nu in range(8):
            h = 1e-6 * np.maximum(1.0, np.abs(X[:, nu]))
            Xp = X.copy()
            Xm = X.copy()
            Xp[:, nu] += h
            Xm[:, nu] -= h
            fd[:, nu] = (bench.evaluate(Xp)[0] - bench.evaluate(Xm)[0]) / (2 * h)
        rel = np.linalg.norm(fd - grads, axis=1) / np.linalg.norm(grads, axis=1)
        assert np.max(rel) <= 1e-5

    def test_unknown_id(self):
        with pytest.raises(InvalidInputError):
            make_benchmark("u9")


class TestSampling:
    def test_deterministic(self):
        bench = make_benchmark("u1")
        a = sample_inputs(bench, 1, seed=123)
        b = sample_inputs(bench, 1, seed=123)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bench_id", ["u1", "u4"])
    def test_negative_count_rejected(self, bench_id):
        with pytest.raises(InvalidInputError):
            sample_inputs(make_benchmark(bench_id), -1, seed=0)

    def test_box_support(self):
        bench = make_benchmark("u2")
        X = sample_inputs(bench, 5000, seed=7)
        assert np.all(np.abs(X) < math.pi / 2)

    def test_borehole_third_coordinate_mean(self):
        bench = make_benchmark("u4")
        X = sample_inputs(bench, 100000, seed=8)
        se = (115600 - 63070) / math.sqrt(12.0) / math.sqrt(100000)
        assert abs(X[:, 2].mean() - 89335.0) <= 3 * se

    def test_marginals_match_declared_laws(self):
        bench = make_benchmark("u4")
        X = sample_inputs(bench, 100000, seed=9)
        stat_u = scipy.stats.kstest(
            X[:, 2], scipy.stats.uniform(63070, 115600 - 63070).cdf).statistic
        stat_n = scipy.stats.kstest(
            X[:, 0], scipy.stats.norm(0.1, 0.0161812).cdf).statistic
        stat_ln = scipy.stats.kstest(
            np.log(X[:, 1]), scipy.stats.norm(7.71, 1.0056).cdf).statistic
        for stat in (stat_u, stat_n, stat_ln):
            assert stat <= 0.01

    def test_sample_set_carries_provenance(self):
        bench = make_benchmark("u1")
        samples = make_samples(bench, 10, seed=77)
        assert samples.n == 10 and samples.dim == 8


class TestTruthContainment:
    def embed_u2_features(self, basis):
        """Coefficients of (x.x, x.Mx) on the quadratic box basis.

        On the symmetric box, x_nu = (pi / (2 sqrt(3))) phi_1(x_nu) and
        x_nu^2 = pi^2/(6 sqrt(5)) phi_2(x_nu) + const, so both quadratics
        embed exactly.
        """
        lookup = {a: i for i, a in enumerate(basis.index_set.indices)}
        sq = math.pi ** 2 / (6.0 * math.sqrt(5.0))
        cross = (math.pi / (2.0 * math.sqrt(3.0))) ** 2
        M = _hilbert_matrix(8)
        G = np.zeros((basis.size, 2))
        for i in range(8):
            row = lookup[tuple(2 if nu == i else 0 for nu in range(8))]
            G[row, 0] = sq
            G[row, 1] = M[i, i] * sq
            for jdim in range(i + 1, 8):
                pair = [0] * 8
                pair[i] = 1
                pair[jdim] = 1
                G[lookup[tuple(pair)], 1] = 2.0 * M[i, jdim] * cross
        return G

    def test_true_feature_pair_nulls_the_loss(self):
        bench = make_benchmark("u2")
        samples = make_samples(bench, 1000, seed=5)
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        G = self.embed_u2_features(basis)
        gram = assemble_gram(basis, samples)
        fmap = FeatureMap(basis, orthonormalize(G, gram))
        loss = poincare_loss(samples, fmap)
        assert loss <= 1e-10 * samples.mean_gradient_norm_sq()


# every finite double, subnormals and -0.0 included
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sample_sets(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    return SampleSet(draw(hnp.arrays(float, (n, d), elements=any_finite)),
                     draw(hnp.arrays(float, n, elements=any_finite)),
                     draw(hnp.arrays(float, (n, d), elements=any_finite)))


class TestSampleCsv:
    # the file is rewritten by every example
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(sample_sets(), st.integers(0, 2 ** 32 - 1).map(
        lambda seed: make_samples(make_benchmark("u3"), 25, seed=seed))))
    def test_round_trip(self, tmp_path, samples):
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        clone = read_samples_csv(path)
        for name in ("points", "values", "gradients"):
            assert np.array_equal(getattr(clone, name).view(np.int64),
                                  getattr(samples, name).view(np.int64))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,u,du1\n0.1,0.2,0.3\n0.1,oops,0.3\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            read_samples_csv(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,u,du1\n0.1,0.2\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            read_samples_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidInputError):
            read_samples_csv(path)


def desk_config(**kw):
    base = dict(benchmark="u1", m=1, methods=("sur",), ntrain_list=(40,),
                n_test=150, n_realizations=1, seed=11, fixed_pk=(1.0, 2.0))
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_single_realization_quantiles_collapse(self):
        report = run_experiment(desk_config())
        rows = {r["quantile"]: r for r in report.cells}
        assert set(rows) == {50, 90, 100}
        for q in ("J_train", "J_test", "err_train", "err_test"):
            assert rows[50][q] == rows[90][q] == rows[100][q]

    def test_quantiles_monotone_across_levels(self):
        report = run_experiment(desk_config(n_realizations=3))
        cells = {r["quantile"]: r for r in report.cells}
        for q in ("J_train", "J_test", "err_train", "err_test"):
            assert cells[50][q] <= cells[90][q] <= cells[100][q]

    def test_exact_recovery_row(self):
        report = run_experiment(desk_config(ntrain_list=(250,)))
        row = [r for r in report.realizations if not r["failed"]][0]
        bench = make_benchmark("u1")
        scale = make_samples(bench, 250, 0).mean_gradient_norm_sq()
        assert row["J_train"] <= 1e-10 * scale

    def test_loss_bounded_by_test_gradient_energy(self):
        report = run_experiment(desk_config())
        row = report.realizations[0]
        assert row["J_test"] >= 0.0

    def test_report_files_deterministic(self, tmp_path):
        cfg = desk_config(n_realizations=2)
        paths = []
        for run in ("a", "b"):
            report = run_experiment(cfg)
            csv_path = tmp_path / f"report_{run}.csv"
            json_path = tmp_path / f"report_{run}.json"
            report.to_csv(csv_path)
            report.to_json(json_path)
            paths.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_failure_is_recorded_not_raised(self):
        # an absurd feature count fails inside the cell, not the sweep
        report = run_experiment(desk_config(m=3000))
        assert all(r["failed"] for r in report.realizations)
        assert all(math.isnan(c["J_train"]) for c in report.cells)

    @pytest.mark.parametrize("exc", [
        NumericError("solve failed"), RankDeficiencyError("collapsed"),
        InvalidInputError("bad shape"), np.linalg.LinAlgError("not PD")])
    def test_cell_failure_classes_recorded(self, monkeypatch, exc):
        def failing_cell(*args):
            raise exc
        monkeypatch.setattr(bm, "_run_cell", failing_cell)
        report = run_experiment(desk_config(n_realizations=2))
        assert [r["error"] for r in report.realizations] == \
            [f"{type(exc).__name__}: {exc}"] * 2
        assert all(r["failed"] for r in report.realizations)

    def test_non_finite_surrogate_matrix_recorded(self, monkeypatch):
        # a NaN in the assembled h fails the cell as an input error instead
        # of reaching the eigensolve and ending the sweep
        real = surrogate.surrogate_sums

        def poisoned(gradients, basis, blocks):
            h = real(gradients, basis, blocks)
            h[0, 0] = np.nan
            return h
        monkeypatch.setattr(surrogate, "surrogate_sums", poisoned)
        report = run_experiment(desk_config(n_realizations=2))
        assert [r["error"] for r in report.realizations] == \
            ["InvalidInputError: non-finite entries in h"] * 2

    def test_failed_eigensolve_recorded(self, monkeypatch):
        real = surrogate._syevr

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)
        monkeypatch.setattr(surrogate, "_syevr", failing)
        report = run_experiment(desk_config(n_realizations=2))
        assert [r["error"] for r in report.realizations] == \
            ["NumericError: generalized eigensolve failed "
             "(LAPACK syevr info 1)"] * 2

    @pytest.mark.parametrize("exc", [TypeError("bug"), KeyError("bug"),
                                     ZeroDivisionError("bug")])
    def test_other_cell_exceptions_propagate(self, monkeypatch, exc):
        def buggy_cell(*args):
            raise exc
        monkeypatch.setattr(bm, "_run_cell", buggy_cell)
        with pytest.raises(type(exc)):
            run_experiment(desk_config())

    @pytest.mark.parametrize("method, m", [("sur", 1), ("sur", 2), ("gli", 2),
                                           ("gsi", 1)])
    def test_one_training_jacobian(self, monkeypatch, method, m):
        # the Gram, the fit and J_train share one evaluation on the 40
        # training rows; J_test evaluates the 150 test rows.  Dense
        # Jacobians and streamed feature Jacobians both evaluate the basis
        # Jacobian through its support blocks, one call per evaluation.
        calls = []
        evaluate = FeatureBasis._support_blocks

        def counted(self, X):
            calls.append(len(X))
            return evaluate(self, X)

        monkeypatch.setattr(FeatureBasis, "_support_blocks", counted)
        report = run_experiment(desk_config(
            methods=(method,), m=m, optimizer=OptimizerConfig(max_iters=5)))
        assert not report.realizations[0]["failed"]
        assert calls == [40, 150]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("method", ["sur", "gli", "gsi"])
    def test_j_train_is_the_fits_own_loss(self, method, m):
        # J_train is the loss_final learn_features reports for the map it
        # returns, and that map evaluated from the points alone gives it too
        config = desk_config(benchmark="u2", methods=(method,), m=m,
                             ntrain_list=(60,), n_realizations=6,
                             optimizer=OptimizerConfig(max_iters=5))
        bench = make_benchmark("u2")
        for row in run_experiment(config).realizations:
            train_ss, _, _ = bm._realization_seeds(config.seed, 60,
                                                   row["realization"])
            train = make_samples(bench, 60, train_ss)
            basis = FeatureBasis(build_index_set(8, row["p"], row["k"]),
                                 bench.families)
            fmap, info = learn_features(train, basis, m, method,
                                        config=config.optimizer)
            bits = [np.float64(v).view(np.int64) for v in
                    (row["J_train"], info["loss_final"], poincare_loss(train, fmap))]
            assert bits[0] == bits[1] == bits[2], row["realization"]

    def test_csv_schema(self, tmp_path):
        report = run_experiment(desk_config())
        path = tmp_path / "report.csv"
        report.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("benchmark,method,m,ntrain,quantile,"
                          "J_train,J_test,err_train,err_test")


class TestMonitoredQuantities:
    def test_test_loss_bounded_by_gradient_energy(self):
        report = run_experiment(desk_config(ntrain_list=(60,)))
        row = [r for r in report.realizations if not r["failed"]][0]
        bench = make_benchmark("u1")
        from gradfeat.benchmarks import _realization_seeds
        _, test_ss, _ = _realization_seeds(11, 60, 0)
        test = make_samples(bench, 150, test_ss)
        assert 0.0 <= row["J_test"] <= test.mean_gradient_norm_sq()

    def test_error_triangle_inequality(self):
        # rms(u - f.g) <= rms(u) + rms(f.g) for the fitted pipeline
        from gradfeat.basis import FeatureBasis, assemble_gram, build_index_set
        from gradfeat.grassmann import learn_features
        from gradfeat.regression import cv_select_krr, krr_fit, krr_predict, CvGrid
        bench = make_benchmark("u3")
        train = make_samples(bench, 80, seed=60)
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        gram = assemble_gram(basis, train)
        fmap, _ = learn_features(train, basis, 1, "sur", gram=gram)
        Z = fmap.evaluate(train.points)
        grid = CvGrid(log10_gamma=np.linspace(-4, -2, 4),
                      log10_ridge=np.linspace(-9, -5, 4), folds=5)
        gamma, ridge, _ = cv_select_krr(Z, train.values, grid, seed=1)
        model = krr_fit(Z, train.values, gamma, ridge)
        pred = krr_predict(model, Z)
        rms = lambda v: float(np.sqrt(np.mean(np.square(v))))
        err = rms(train.values - pred)
        assert err >= 0.0
        assert err <= rms(train.values) + rms(pred) + 1e-12
