import dataclasses
import json
import math

import numpy as np
import pytest

from gradfeat.basis import (_EVAL_CHUNK, FeatureBasis, assemble_gram,
                            build_index_set, family_from_spec, family_to_spec)
from gradfeat.benchmarks import (ExperimentConfig, make_benchmark,
                                 make_samples, read_samples_csv,
                                 sample_inputs, write_samples_csv)
from gradfeat.cli import (DEFAULT_CONFIG, _cv_grid, _deviation_h_samples,
                          _optimizer, load_config, main)
from gradfeat.grassmann import OptimizerConfig
from gradfeat.regression import CvGrid
from gradfeat.surrogate import FeatureMap, poincare_loss

HALF_PI = math.pi / 2.0


def box_families(d=8):
    return [{"type": "legendre", "a": -HALF_PI, "b": HALF_PI}
            for _ in range(d)]


@pytest.fixture()
def u1_csv(tmp_path):
    path = tmp_path / "u1.csv"
    write_samples_csv(make_samples(make_benchmark("u1"), 120, seed=0), path)
    return path


def dense_jacobian_forbidden(self, X):
    raise AssertionError("the dense (n, d, K) Jacobian was formed")


def config_leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from config_leaves(value, path + (key,))
        else:
            yield path + (key,)


def write_config(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


class TestConfig:
    def test_print_config_is_valid_json(self, capsys):
        assert main(["--print-config"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert set(tree) == {"basis", "learn", "regression", "experiment",
                             "deviation", "io"}

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {"experiment": {"bogus": 1}})
        assert main(["--config", path, "benchmark"]) == 2

    def test_seed_override(self):
        cfg = load_config(seed=99)
        assert cfg["experiment"]["seed"] == 99
        assert cfg["deviation"]["seed"] == 99

    def test_defaults_complete(self):
        cfg = load_config()
        assert cfg == DEFAULT_CONFIG

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    @pytest.mark.parametrize("key", [
        "learn.optimizer.seed", "learn.optimizer.grad_tol",
        "learn.optimizer.step_init", "learn.optimizer.shrink",
        "learn.optimizer.sufficient_decrease", "learn.optimizer.trace_path",
        "experiment.select_pk"])
    def test_removed_key_rejected(self, tmp_path, capsys, key):
        # descent takes no seed, its search constants are not settings,
        # learn always writes its trace and a null experiment.fixed_pk
        # selects (p, k); the keys were removed and old configs fail
        tree = value = {}
        for part in key.split(".")[:-1]:
            value = value.setdefault(part, {})
        value[key.split(".")[-1]] = 0
        path = write_config(tmp_path, "old.json", tree)
        assert main(["--config", path, "--print-config"]) == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err

    def test_defaults_agree_with_the_library(self):
        # the schema declares defaults that the dataclasses declare too
        def assert_fields_equal(ours, theirs):
            for f in dataclasses.fields(theirs):
                a, b = getattr(ours, f.name), getattr(theirs, f.name)
                if dataclasses.is_dataclass(b):
                    assert_fields_equal(a, b)
                else:
                    assert type(a) is type(b), f.name
                    assert np.array_equal(a, b), f.name

        assert _optimizer(DEFAULT_CONFIG) == OptimizerConfig()
        assert_fields_equal(_cv_grid(DEFAULT_CONFIG["regression"]), CvGrid())
        assert_fields_equal(
            ExperimentConfig(**DEFAULT_CONFIG["experiment"],
                             cv=_cv_grid(DEFAULT_CONFIG["regression"]),
                             optimizer=_optimizer(DEFAULT_CONFIG)),
            ExperimentConfig(benchmark="u1"))

    @pytest.mark.parametrize("tree, command, key", [
        ([], ["--print-config"], "config file"),
        ([], ["learn", "CSV"], "config file"),
        ({"learn": ["gsi"]}, ["--print-config"], "config learn "),
        ({"regression": {"log10_gamma": 3}}, ["--print-config"],
         "config regression.log10_gamma "),
        ({"basis": {"families": box_families(), "p": "x"}}, ["learn", "CSV"],
         "config basis.p:"),
        ({"basis": {"families": box_families()},
          "learn": {"optimizer": {"max_iters": "many"}}}, ["learn", "CSV"],
         "config learn.optimizer.max_iters:"),
        ({"regression": {"folds": None}}, ["benchmark"],
         "config regression.folds:"),
        ({"experiment": {"fixed_pk": [1.0]}}, ["benchmark"],
         "config experiment.fixed_pk:"),
        ({"deviation": {"eps_grid": ["tiny"]}}, ["check-deviation"],
         "config deviation.eps_grid:"),
        # path-valued keys are checked before any work
        ({"io": {"out_dir": 5}}, ["benchmark"], "config io.out_dir:"),
        ({"deviation": {"feature_map": ["g.txt"]}}, ["check-deviation"],
         "config deviation.feature_map:"),
        ({"deviation": {"basis_spec": 1.5}}, ["check-deviation"],
         "config deviation.basis_spec:"),
        ({"deviation": {"samples": {"path": "s.csv"}}}, ["check-deviation"],
         "config deviation.samples:"),
        # integer keys take integral numbers only: no truncation, no
        # booleans, no numeric strings
        ({"basis": {"families": box_families()},
          "learn": {"optimizer": {"max_iters": 2.5}}}, ["learn", "CSV"],
         "config learn.optimizer.max_iters:"),
        ({"learn": {"optimizer": {"max_iters": True}}}, ["benchmark"],
         "config learn.optimizer.max_iters:"),
        ({"basis": {"families": box_families()}, "learn": {"m": 1.5}},
         ["learn", "CSV"], "config learn.m:"),
        ({"experiment": {"m": True}}, ["benchmark"], "config experiment.m:"),
        ({"regression": {"folds": "5"}}, ["benchmark"],
         "config regression.folds:"),
        ({"regression": {"pk_folds": 2.5}}, ["benchmark"],
         "config regression.pk_folds:"),
        ({"regression": {"log10_gamma": {"n": 4.5}}}, ["benchmark"],
         "config regression.log10_gamma.n:"),
        ({"experiment": {"n_test": 200.5}}, ["benchmark"],
         "config experiment.n_test:"),
        ({"experiment": {"ntrain_list": [50, 60.5]}}, ["benchmark"],
         "config experiment.ntrain_list:"),
        ({"experiment": {"n_realizations": "2"}}, ["benchmark"],
         "config experiment.n_realizations:"),
        ({"experiment": {"seed": 0.5}}, ["benchmark"],
         "config experiment.seed:"),
        # list-valued keys take JSON lists only: a string is not read as
        # its characters
        ({"experiment": {"methods": "sur"}}, ["benchmark"],
         "config experiment.methods:"),
        ({"experiment": {"fixed_pk": "12"}}, ["benchmark"],
         "config experiment.fixed_pk:"),
        ({"experiment": {"ntrain_list": "50"}}, ["benchmark"],
         "config experiment.ntrain_list:"),
        ({"deviation": {"eps_grid": "5"}}, ["check-deviation"],
         "config deviation.eps_grid:"),
        ({"deviation": {"t_grid": "2"}}, ["check-deviation"],
         "config deviation.t_grid:"),
        ({"basis": {"families": "legendre"}}, ["learn", "CSV"],
         "config basis.families:"),
        # method names are checked when the config is read
        ({"experiment": {"methods": ["foo"]}}, ["benchmark"],
         "config experiment.methods:"),
        ({"experiment": {"methods": ["sur", "foo"]}}, ["--print-config"],
         "config experiment.methods:"),
        ({"learn": {"method": "foo"}}, ["--print-config"],
         "config learn.method:"),
        ({"learn": {"method": ["gsi"]}}, ["learn", "CSV"],
         "config learn.method:"),
        # benchmark ids are checked when the config is read
        ({"experiment": {"benchmark": ["u1"]}}, ["benchmark"],
         "config experiment.benchmark:"),
        ({"experiment": {"benchmark": "u9"}}, ["--print-config"],
         "config experiment.benchmark:"),
        ({"deviation": {"benchmark": ["u1"]}}, ["check-deviation"],
         "config deviation.benchmark:"),
        ({"deviation": {"benchmark": "u9"}}, ["--print-config"],
         "config deviation.benchmark:"),
        # every count, fold number and seed has its range checked when the
        # config is read, not found by the numerics
        ({"regression": {"folds": 0}}, ["benchmark"],
         "config regression.folds:"),
        ({"regression": {"folds": 1}}, ["--print-config"],
         "config regression.folds:"),
        ({"regression": {"pk_folds": 0}}, ["benchmark"],
         "config regression.pk_folds:"),
        ({"regression": {"log10_gamma": {"n": 0}}}, ["benchmark"],
         "config regression.log10_gamma.n:"),
        ({"basis": {"families": box_families()},
          "learn": {"method": "gli", "m": 0}}, ["learn", "CSV"],
         "config learn.m:"),
        ({"experiment": {"m": 0, "methods": ["gli"]}}, ["benchmark"],
         "config experiment.m:"),
        ({"experiment": {"ntrain_list": [-5]}}, ["benchmark"],
         "config experiment.ntrain_list:"),
        ({"experiment": {"seed": -1}}, ["benchmark"],
         "config experiment.seed:"),
        ({}, ["--seed", "-1", "benchmark"], "config experiment.seed:"),
        ({"experiment": {"n_realizations": -1}}, ["benchmark"],
         "config experiment.n_realizations:"),
        # real-valued keys take JSON numbers only
        ({"basis": {"families": box_families(), "p": "1.0"}},
         ["learn", "CSV"], "config basis.p:"),
        ({"basis": {"families": box_families(), "p": True}},
         ["learn", "CSV"], "config basis.p:"),
        # an empty sweep list would run nothing and exit 0
        ({"experiment": {"methods": []}}, ["benchmark"],
         "config experiment.methods:"),
        ({"experiment": {"ntrain_list": []}}, ["benchmark"],
         "config experiment.ntrain_list:"),
    ], ids=["list-print-config", "list-learn", "section-not-object",
            "subsection-not-object", "basis-p", "max-iters", "folds",
            "fixed-pk", "eps-grid", "out-dir", "feature-map",
            "basis-spec", "samples", "max-iters-fraction", "max-iters-bool",
            "m-fraction", "experiment-m-bool", "folds-string",
            "pk-folds-fraction", "grid-n-fraction", "n-test-fraction",
            "ntrain-fraction", "realizations-string", "seed-fraction",
            "methods-string", "fixed-pk-string", "ntrain-string",
            "eps-grid-string", "t-grid-string", "families-string",
            "methods-unknown", "methods-unknown-print-config",
            "method-unknown", "method-list", "benchmark-list",
            "benchmark-unknown", "deviation-benchmark-list",
            "deviation-benchmark-unknown", "folds-0", "folds-1",
            "pk-folds-0", "grid-n-0", "learn-m-0", "experiment-m-0",
            "ntrain-negative", "seed-negative", "seed-flag-negative",
            "realizations-negative", "basis-p-string", "basis-p-bool",
            "methods-empty", "ntrain-empty"])
    def test_value_of_wrong_type_exits_2(self, tmp_path, u1_csv, capsys,
                                         tree, command, key):
        path = write_config(tmp_path, "typed.json", tree)
        command = [str(u1_csv) if word == "CSV" else word for word in command]
        assert main(["--config", path] + command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + key), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", [".".join(path) for path in
                                     config_leaves(DEFAULT_CONFIG)])
    def test_every_key_checked(self, tmp_path, capsys, key):
        # no key takes an object, so a key without a check fails here
        tree = value = {}
        for part in key.split(".")[:-1]:
            value = value.setdefault(part, {})
        value[key.split(".")[-1]] = {}
        path = write_config(tmp_path, "leaf.json", tree)
        assert main(["--config", path, "--print-config"]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {key}:")

    def test_real_valued_keys_read_as_floats(self, tmp_path):
        # config.json echoes the checked values: "p": 1 is written as 1.0
        path = write_config(tmp_path, "ints.json", {
            "basis": {"p": 1}, "deviation": {"A": 4, "eps_grid": [1]}})
        cfg = load_config(path)
        assert [type(v) for v in (cfg["basis"]["p"], cfg["deviation"]["A"],
                                  cfg["deviation"]["eps_grid"][0])] == [float] * 3
        assert json.dumps(cfg["basis"]["p"]) == "1.0"

    def test_integral_float_accepted_as_int(self, tmp_path):
        path = write_config(tmp_path, "whole.json", {
            "learn": {"optimizer": {"max_iters": 3.0}}})
        max_iters = _optimizer(load_config(path)).max_iters
        assert max_iters == 3 and type(max_iters) is int

    @pytest.mark.parametrize("max_iters", [-1, 2.5, "5", True])
    @pytest.mark.parametrize("command", [["learn", "CSV"], ["benchmark"]],
                             ids=["learn", "benchmark"])
    def test_unusable_optimizer_setting_exits_2_before_work(
            self, tmp_path, u1_csv, capsys, monkeypatch, command, max_iters):
        path = write_config(tmp_path, "opt.json", {
            "basis": {"families": box_families()},
            "learn": {"optimizer": {"max_iters": max_iters}},
            "io": {"out_dir": str(tmp_path / "out")}})
        monkeypatch.setattr("gradfeat.benchmarks.read_samples_csv", None)
        monkeypatch.setattr("gradfeat.benchmarks.run_experiment", None)
        command = [str(u1_csv) if word == "CSV" else word for word in command]
        assert main(["--config", path] + command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config learn.optimizer.max_iters:"), err
        assert not (tmp_path / "out").exists()

    def test_unusable_out_dir_exits_2_before_work(self, tmp_path, u1_csv,
                                                  capsys, monkeypatch):
        taken = tmp_path / "a-file"
        taken.write_text("")
        path = write_config(tmp_path, "out.json", {
            "basis": {"families": box_families()},
            "io": {"out_dir": str(taken)}})
        monkeypatch.setattr("gradfeat.benchmarks.read_samples_csv", None)
        assert main(["--config", path, "learn", str(u1_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create io.out_dir"), err

    def test_threads_flag_removed(self):
        with pytest.raises(SystemExit) as info:
            main(["--threads", "1", "--print-config"])
        assert info.value.code == 2


class TestLearnCommand:
    def test_exact_recovery_metrics(self, tmp_path, u1_csv):
        cfg = write_config(tmp_path, "learn.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "learn": {"method": "sur", "m": 1},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["loss_final"] <= 1e-10 * metrics["loss_scale"]
        assert (tmp_path / "out" / "feature_map.txt").exists()
        assert (tmp_path / "out" / "basis.json").exists()
        assert (tmp_path / "out" / "config.json").exists()

    def test_descent_never_worse_than_its_start(self, tmp_path, u1_csv):
        cfg = write_config(tmp_path, "gsi.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "learn": {"method": "gsi", "m": 1},
            "io": {"out_dir": str(tmp_path / "out-gsi")},
        })
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 0
        metrics = json.loads((tmp_path / "out-gsi" / "metrics.json").read_text())
        assert metrics["loss_final"] <= metrics["loss_init"] + 1e-12
        # the descent says why it stopped
        assert metrics["stop_reason"] in ("grad_tol", "max_iters",
                                          "line_search", "stall")
        assert 0.0 <= metrics["grad_rel_final"]
        assert 0 <= metrics["iterations"] <= 500

    @pytest.mark.parametrize("method, m", [("sur", 2), ("gsi", 2), ("gli", 1)])
    def test_one_training_jacobian(self, tmp_path, u1_csv, monkeypatch,
                                   method, m):
        calls = []
        evaluate = FeatureBasis._support_blocks

        def counted(self, X):
            calls.append(len(X))
            return evaluate(self, X)

        monkeypatch.setattr(FeatureBasis, "_support_blocks", counted)
        cfg = write_config(tmp_path, "one.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "learn": {"method": method, "m": m,
                      "optimizer": {"max_iters": 5}},
            "io": {"out_dir": str(tmp_path / "one")},
        })
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 0
        assert calls == [120]

    @pytest.mark.parametrize("method, m", [("sur", 2), ("gsi", 2), ("gli", 1)])
    def test_no_dense_jacobian(self, tmp_path, u1_csv, monkeypatch, method, m):
        monkeypatch.setattr(FeatureBasis, "jacobian_batch",
                            dense_jacobian_forbidden)
        cfg = write_config(tmp_path, "blocks.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "learn": {"method": method, "m": m,
                      "optimizer": {"max_iters": 5}},
            "io": {"out_dir": str(tmp_path / "blocks")},
        })
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 0

    @pytest.mark.parametrize("method, m", [("sur", 1), ("gsi", 2)])
    def test_reloaded_map_reproduces_loss_final(self, tmp_path, method, m):
        # loss_final reads the training Jacobian; the reloaded map evaluates
        # its feature Jacobians from the points, block by block of rows
        bench = make_benchmark("u4")
        samples = make_samples(bench, 8192 + 11, seed=3)
        csv = tmp_path / "u4.csv"
        write_samples_csv(samples, csv)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "u4.json", {
            "basis": {"families": [family_to_spec(f) for f in bench.families],
                      "p": 1.0, "k": 2.0},
            "learn": {"method": method, "m": m,
                      "optimizer": {"max_iters": 3}},
            "io": {"out_dir": str(out)},
        })
        assert main(["--config", cfg, "learn", str(csv)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        fmap = FeatureMap.load(out / "feature_map.txt", str(out / "basis.json"))
        assert fmap.n_features == m
        loss = poincare_loss(read_samples_csv(csv), fmap)
        assert np.float64(loss).view(np.int64) == \
            np.float64(metrics["loss_final"]).view(np.int64)

    @pytest.mark.parametrize("n", [3, 120])
    def test_gram_ridge_reported(self, tmp_path, n):
        # 3 samples give a Gram of rank 24 for K = 44, which factors only
        # after a ridge; 120 samples need none.  Apart from the wall time,
        # metrics.json is the same byte for byte on a re-run.
        csv = tmp_path / "s.csv"
        write_samples_csv(make_samples(make_benchmark("u1"), n, seed=0), csv)
        texts = []
        for run in ("a", "b"):
            cfg = write_config(tmp_path, f"{run}.json", {
                "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
                "learn": {"method": "sur", "m": 1},
                "io": {"out_dir": str(tmp_path / run)}})
            assert main(["--config", cfg, "learn", str(csv)]) == 0
            texts.append([line for line in
                          (tmp_path / run / "metrics.json").read_text().splitlines()
                          if not line.lstrip().startswith('"wall_time_s"')])
        assert texts[0] == texts[1]
        metrics = json.loads((tmp_path / "a" / "metrics.json").read_text())
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0),
                             [family_from_spec(f) for f in box_families()])
        ridge = assemble_gram(basis, read_samples_csv(csv)).ridge_added
        assert metrics["gram_ridge_added"] == ridge
        assert (ridge > 0.0) == (n == 3)

    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,u,du1\n0.1,0.2,0.3\nbroken\n")
        cfg = write_config(tmp_path, "learn.json", {
            "basis": {"families": box_families(1), "p": 1.0, "k": 2.0},
            "io": {"out_dir": str(tmp_path / "o")},
        })
        assert main(["--config", cfg, "learn", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_csv_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "learn.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "io": {"out_dir": str(tmp_path / "o")},
        })
        missing = tmp_path / "absent.csv"
        assert main(["--config", cfg, "learn", str(missing)]) == 2
        assert "cannot read samples" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [
        {"type": "legendre", "a": 0},
        {"type": "legendre", "a": 0.0, "b": 1.0, "c": 2.0},
        {"type": "spline", "a": 0.0, "b": 1.0},
        "legendre",
    ])
    def test_malformed_family_spec_exits_2(self, tmp_path, u1_csv, capsys,
                                           family):
        cfg = write_config(tmp_path, "learn.json", {
            "basis": {"families": [family] + box_families(7)},
            "io": {"out_dir": str(tmp_path / "o")},
        })
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_families_exits_2(self, tmp_path, u1_csv):
        cfg = write_config(tmp_path, "learn.json",
                           {"io": {"out_dir": str(tmp_path / "o")}})
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 2


class TestBenchmarkCommand:
    def bench_config(self, tmp_path, out):
        return write_config(tmp_path, f"bench-{out}.json", {
            "experiment": {"benchmark": "u1", "methods": ["sur"],
                           "ntrain_list": [40], "n_test": 100,
                           "n_realizations": 2, "seed": 3,
                           "fixed_pk": [1.0, 2.0]},
            "io": {"out_dir": str(tmp_path / out)},
        })

    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path, "out1")
        assert main(["--config", cfg, "benchmark"]) == 0
        out = capsys.readouterr().out
        assert "median J_train" in out
        report = json.loads((tmp_path / "out1" / "report.json").read_text())
        assert report["config"]["seed"] == 3
        assert len(report["realizations"]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = self.bench_config(tmp_path, "outA")
        cfg_b = self.bench_config(tmp_path, "outB")
        assert main(["--config", cfg_a, "benchmark"]) == 0
        assert main(["--config", cfg_b, "benchmark"]) == 0
        a = (tmp_path / "outA" / "report.csv").read_bytes()
        b = (tmp_path / "outB" / "report.csv").read_bytes()
        assert a == b
        ja = (tmp_path / "outA" / "report.json").read_bytes()
        jb = (tmp_path / "outB" / "report.json").read_bytes()
        assert ja == jb

    FULL_SIZES = (1000, 20, [50, 75, 100, 250, 500])

    def test_full_scale_settings_echoed(self, tmp_path, monkeypatch):
        # --full replaces the sweep sizes; config.json records the ones run
        class EmptyReport:
            cells = realizations = []

            def to_csv(self, path):
                pass

            to_json = to_csv

        ran = []
        monkeypatch.setattr("gradfeat.benchmarks.run_experiment",
                            lambda config: ran.append(config) or EmptyReport())
        cfg = write_config(tmp_path, "full.json", {
            "experiment": {"n_test": 200, "n_realizations": 2},
            "io": {"out_dir": str(tmp_path / "full")}})
        assert main(["--config", cfg, "benchmark", "--full"]) == 0
        echoed = json.loads((tmp_path / "full" / "config.json").read_text())
        experiment = echoed["experiment"]
        assert (experiment["n_test"], experiment["n_realizations"],
                experiment["ntrain_list"]) == self.FULL_SIZES
        config, = ran
        assert (config.n_test, config.n_realizations,
                list(config.ntrain_list)) == self.FULL_SIZES

    def test_full_scale_settings_printed(self, capsys):
        assert main(["--print-config", "benchmark", "--full"]) == 0
        experiment = json.loads(capsys.readouterr().out)["experiment"]
        assert (experiment["n_test"], experiment["n_realizations"],
                experiment["ntrain_list"]) == self.FULL_SIZES

    def test_rerun_on_emitted_config(self, tmp_path):
        cfg = self.bench_config(tmp_path, "outE")
        assert main(["--config", cfg, "benchmark"]) == 0
        emitted = tmp_path / "outE" / "config.json"
        first = (tmp_path / "outE" / "report.csv").read_bytes()
        resolved = json.loads(emitted.read_text())
        resolved["io"]["out_dir"] = str(tmp_path / "outF")
        cfg2 = write_config(tmp_path, "resolved.json", resolved)
        assert main(["--config", cfg2, "benchmark"]) == 0
        assert (tmp_path / "outF" / "report.csv").read_bytes() == first


class TestCheckDeviationCommand:
    def make_feature_files(self, tmp_path, u1_csv):
        cfg = write_config(tmp_path, "learn.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "learn": {"method": "sur", "m": 1},
            "io": {"out_dir": str(tmp_path / "learned")},
        })
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 0
        return (str(tmp_path / "learned" / "feature_map.txt"),
                str(tmp_path / "learned" / "basis.json"))

    def test_clean_case_exit_zero(self, tmp_path, u1_csv):
        fmap, bspec = self.make_feature_files(tmp_path, u1_csv)
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": fmap, "basis_spec": bspec,
                          "benchmark": "u1", "n_samples": 20000, "seed": 0,
                          "s": 0.125,
                          "eps_grid": [0.001, 0.01, 0.1, 1.0],
                          "t_grid": [1.5, 2.0, 3.0]},
            "io": {"out_dir": str(tmp_path / "dev-out")},
        })
        assert main(["--config", cfg, "check-deviation"]) == 0
        payload = json.loads(
            (tmp_path / "dev-out" / "deviation_report.json").read_text())
        assert payload["k"] == 2.0 and payload["A"] == 4.0
        assert payload["reports"]["small"]["n_violations"] == 0
        assert payload["reports"]["large"]["n_violations"] == 0

    def test_no_dense_jacobian(self, tmp_path, u1_csv, monkeypatch):
        monkeypatch.setattr(FeatureBasis, "jacobian_batch",
                            dense_jacobian_forbidden)
        fmap, bspec = self.make_feature_files(tmp_path, u1_csv)
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": fmap, "basis_spec": bspec,
                          "benchmark": "u1", "n_samples": 20000, "seed": 0,
                          "s": 0.125},
            "io": {"out_dir": str(tmp_path / "dev-out")},
        })
        assert main(["--config", cfg, "check-deviation"]) == 0

    def test_violation_exit_four(self, tmp_path, u1_csv):
        # a wildly understated growth exponent collapses the small-deviation
        # bound to ~0 where the empirical CDF is clearly positive
        fmap, bspec = self.make_feature_files(tmp_path, u1_csv)
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": fmap, "basis_spec": bspec,
                          "benchmark": "u1", "n_samples": 50000, "seed": 0,
                          "s": 0.125, "k": 0.05,
                          "eps_grid": [0.5], "t_grid": []},
            "io": {"out_dir": str(tmp_path / "dev-bad")},
        })
        assert main(["--config", cfg, "check-deviation"]) == 4

    def test_nonpositive_concavity_exit_two(self, tmp_path, u1_csv):
        fmap, bspec = self.make_feature_files(tmp_path, u1_csv)
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": fmap, "basis_spec": bspec,
                          "benchmark": "u1", "n_samples": 1000, "seed": 0,
                          "s": 0.0, "eps_grid": [0.5], "t_grid": []},
            "io": {"out_dir": str(tmp_path / "dev-s0")},
        })
        assert main(["--config", cfg, "check-deviation"]) == 2

    @pytest.mark.parametrize("key, value", [("n_samples", 1000.5),
                                            ("seed", True)])
    def test_non_integral_draw_setting_exits_2(self, tmp_path, u1_csv, capsys,
                                               key, value):
        fmap, bspec = self.make_feature_files(tmp_path, u1_csv)
        capsys.readouterr()
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": fmap, "basis_spec": bspec,
                          "benchmark": "u1", key: value},
            "io": {"out_dir": str(tmp_path / "dev-int")},
        })
        assert main(["--config", cfg, "check-deviation"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config deviation.{key}:")

    @pytest.mark.parametrize("key, value", [
        ("A", math.nan), ("A", math.inf), ("k", math.nan), ("k", 0.0),
        ("k", -1.0), ("s", math.nan), ("s", -math.inf), ("s", 0.0),
        ("s", -0.5), ("n_samples", -3),
        ("n_samples", 0), ("eps_grid", [0.5, math.nan]),
        ("eps_grid", [math.inf]), ("t_grid", [math.nan]),
        ("t_grid", [2.0, -1.0])])
    def test_unusable_setting_exits_2_before_work(self, tmp_path, capsys,
                                                  monkeypatch, key, value):
        # json writes and reads NaN and Infinity; nothing is loaded or drawn
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": str(tmp_path / "map.txt"),
                          "basis_spec": str(tmp_path / "basis.json"),
                          "benchmark": "u1", "s": 0.125, key: value},
            "io": {"out_dir": str(tmp_path / "dev-out")}})
        monkeypatch.setattr(FeatureMap, "load", None)
        monkeypatch.setattr("gradfeat.benchmarks.sample_inputs", None)
        assert main(["--config", cfg, "check-deviation"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config deviation.{key}:"), err
        assert not (tmp_path / "dev-out").exists()

    @pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
    def test_not_one_of_samples_and_benchmark_exits_2_before_work(
            self, tmp_path, u1_csv, capsys, monkeypatch, both):
        # with both set, the benchmark, n_samples and seed would go unused
        points = {"samples": str(u1_csv), "benchmark": "u1"} if both else {}
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": str(tmp_path / "map.txt"),
                          "basis_spec": str(tmp_path / "basis.json"), **points},
            "io": {"out_dir": str(tmp_path / "dev-out")}})
        monkeypatch.setattr(FeatureMap, "load", None)
        assert main(["--config", cfg, "check-deviation"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config deviation.samples and "
                              "deviation.benchmark: set exactly one"), err
        assert not (tmp_path / "dev-out").exists()

    @pytest.mark.parametrize("key, value", [
        ("k", math.inf), ("k", "2"), ("k", math.nan), ("k", True),
        ("p", [1]), ("p", "1"), ("p", 0.0), ("p", math.nan)])
    def test_malformed_basis_spec_exits_2(self, tmp_path, u1_csv, capsys,
                                          key, value):
        fmap, bspec = self.make_feature_files(tmp_path, u1_csv)
        spec = json.loads(open(bspec).read())
        spec[key] = value
        bad = tmp_path / "bad_basis.json"
        bad.write_text(json.dumps(spec))        # Infinity and NaN too
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": fmap, "basis_spec": str(bad),
                          "benchmark": "u1", "n_samples": 1000},
            "io": {"out_dir": str(tmp_path / "dev-badspec")},
        })
        capsys.readouterr()
        assert main(["--config", cfg, "check-deviation"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}="), err

    @pytest.mark.parametrize("text", ["3 x\n1.0\n2.0\n3.0\n", "", "45 1\n1.0\n"],
                             ids=["count-not-int", "empty", "short-body"])
    def test_malformed_feature_map_exits_2(self, tmp_path, u1_csv, capsys,
                                           text):
        _, bspec = self.make_feature_files(tmp_path, u1_csv)
        bad = tmp_path / "bad_map.txt"
        bad.write_text(text)
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": str(bad), "basis_spec": bspec,
                          "benchmark": "u1", "n_samples": 1000},
            "io": {"out_dir": str(tmp_path / "dev-badmap")},
        })
        capsys.readouterr()
        assert main(["--config", cfg, "check-deviation"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_h_samples_in_chunks_equal_one_pass_bitwise(self, tmp_path):
        # three chunks of points, the last one short
        bench = make_benchmark("u4")
        basis = FeatureBasis(build_index_set(8, 1.0, 2.0), bench.families)
        G = np.random.default_rng(4).standard_normal((basis.size, 2))
        FeatureMap(basis, G).save(tmp_path / "map.txt", tmp_path / "basis.json")
        n = 2 * _EVAL_CHUNK + 5
        dev = dict(DEFAULT_CONFIG["deviation"], feature_map=str(tmp_path / "map.txt"),
                   basis_spec=str(tmp_path / "basis.json"), benchmark="u4",
                   n_samples=n, seed=7)
        h, fmap = _deviation_h_samples(dev)
        ref = np.einsum("ndm->n", fmap.gradients(sample_inputs(bench, n, 7)) ** 2)
        assert np.array_equal(h.view(np.int64), ref.view(np.int64))

    def test_empty_grids_exit_two(self, tmp_path, u1_csv):
        fmap, bspec = self.make_feature_files(tmp_path, u1_csv)
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": fmap, "basis_spec": bspec,
                          "benchmark": "u1", "s": 0.125,
                          "eps_grid": [], "t_grid": []},
            "io": {"out_dir": str(tmp_path / "dev-empty")},
        })
        assert main(["--config", cfg, "check-deviation"]) == 2


class TestNumericFailureExitCode:
    def test_zero_median_h_exits_three(self, tmp_path):
        # a pure-quadratic feature map evaluated only at the box center has
        # an identically zero gradient, so the deviation pivot is zero
        import numpy as np
        from gradfeat.basis import FeatureBasis, build_index_set, Legendre
        from gradfeat.surrogate import FeatureMap
        basis = FeatureBasis(build_index_set(1, 1.0, 2.0),
                             [Legendre(-HALF_PI, HALF_PI)])
        coeffs = np.zeros(basis.size)
        coeffs[basis.index_set.indices.index((2,))] = 1.0
        fmap = FeatureMap(basis, coeffs)
        fmap.save(tmp_path / "g.txt", tmp_path / "b.json")
        csv = tmp_path / "center.csv"
        csv.write_text("x1,u,du1\n" + "0.0,0.0,0.0\n" * 10)
        cfg = write_config(tmp_path, "dev.json", {
            "deviation": {"feature_map": str(tmp_path / "g.txt"),
                          "basis_spec": str(tmp_path / "b.json"),
                          "samples": str(csv), "s": 0.5,
                          "eps_grid": [0.5], "t_grid": []},
            "io": {"out_dir": str(tmp_path / "o3")},
        })
        assert main(["--config", cfg, "check-deviation"]) == 3

    @pytest.mark.parametrize("method", ["sur", "gli"])
    def test_overflowing_gram_exits_three(self, tmp_path, capsys, method):
        # one point far outside the box overflows the Legendre terms, so the
        # Gram sum is infinite
        samples = make_samples(make_benchmark("u1"), 60, seed=0)
        samples.points[0, 0] = 1e200
        csv = tmp_path / "far.csv"
        write_samples_csv(samples, csv)
        cfg = write_config(tmp_path, "far.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "learn": {"method": method},
            "io": {"out_dir": str(tmp_path / "far")},
        })
        assert main(["--config", cfg, "learn", str(csv)]) == 3
        err = capsys.readouterr().err
        assert "Gram matrix" in err and "Traceback" not in err


class TestOptimizerTrace:
    def test_learn_writes_descent_trace(self, tmp_path, u1_csv):
        # gli and gsi write the descent's rows next to metrics.json; sur
        # runs no descent and writes no trace
        for method in ("gli", "sur"):
            cfg = write_config(tmp_path, f"{method}.json", {
                "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
                "learn": {"method": method, "m": 1},
                "io": {"out_dir": str(tmp_path / method)},
            })
            assert main(["--config", cfg, "learn", str(u1_csv)]) == 0
        metrics = json.loads((tmp_path / "gli" / "metrics.json").read_text())
        header, *rows = (tmp_path / "gli" / "trace.csv").read_text().splitlines()
        assert header == "iter,J,grad_norm,step"
        iters = [int(row.split(",")[0]) for row in rows]
        losses = [float(row.split(",")[1]) for row in rows]
        assert iters == list(range(len(rows)))
        assert iters[-1] == metrics["iterations"] > 0
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert not (tmp_path / "sur" / "trace.csv").exists()

    def test_sur_removes_an_earlier_trace(self, tmp_path, u1_csv):
        # a sur learn into a directory that holds a gli learn's output must
        # not leave the gli descent's trace next to its own metrics
        out = tmp_path / "out"
        for method in ("gli", "sur"):
            cfg = write_config(tmp_path, f"{method}.json", {
                "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
                "learn": {"method": method, "m": 1},
                "io": {"out_dir": str(out)},
            })
            assert main(["--config", cfg, "learn", str(u1_csv)]) == 0
            metrics = json.loads((out / "metrics.json").read_text())
            assert metrics["method"] == method
            assert (out / "trace.csv").exists() == (method == "gli")
