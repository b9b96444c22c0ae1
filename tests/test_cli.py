import json
import math

import numpy as np
import pytest

from gradfeat.benchmarks import make_benchmark, make_samples, write_samples_csv
from gradfeat.cli import DEFAULT_CONFIG, load_config, main

HALF_PI = math.pi / 2.0


def box_families(d=8):
    return [{"type": "legendre", "a": -HALF_PI, "b": HALF_PI}
            for _ in range(d)]


@pytest.fixture()
def u1_csv(tmp_path):
    path = tmp_path / "u1.csv"
    write_samples_csv(make_samples(make_benchmark("u1"), 120, seed=0), path)
    return path


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
                           "select_pk": False},
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


class TestOptimizerTrace:
    def test_trace_path_wires_through(self, tmp_path, u1_csv):
        trace = tmp_path / "descent.csv"
        cfg = write_config(tmp_path, "trace.json", {
            "basis": {"families": box_families(), "p": 1.0, "k": 2.0},
            "learn": {"method": "gli", "m": 1,
                      "optimizer": {"max_iters": 5,
                                    "trace_path": str(trace)}},
            "io": {"out_dir": str(tmp_path / "out-trace")},
        })
        assert main(["--config", cfg, "learn", str(u1_csv)]) == 0
        assert trace.read_text().splitlines()[0] == "iter,J,grad_norm,step"
