"""The benchmark's workloads: inputs derived from a seed, one timed pass, and
the checks that a pass's outputs are correct.

Every workload is a single closed-loop client: each call into gradfeat
starts only after the previous one has returned.  A pass is the workload's
unit of work; the runner repeats passes for the requested run length.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from gradfeat import benchmarks as bm
from gradfeat import cli
from gradfeat.basis import family_to_spec
from gradfeat.grassmann import OptimizerConfig
from gradfeat.regression import CvGrid
from gradfeat.surrogate import FeatureMap, poincare_loss

# Descent iteration caps.  With the default cap of 500 the work of a pass
# follows how hard the seed's data happen to be: one u3 gli pass took 13.5 s
# on one seed and 22 s on another (up to a third of the 51 descents per
# cell ran to 500), and learn-cli seeds stopped anywhere from 7 to 57
# iterations, moving learn_s by 4x.  Caps that most descents reach keep the
# work of a pass nearly fixed, so a timing difference is the code's, while
# every accepted step still runs the full Armijo line search.  On u3 the
# test loss J_test of the capped cells was within 2% of the uncapped ones.
GLI_MAX_ITERS = 100
LEARN_MAX_ITERS = 6

_TINY_GRID = dict(log10_gamma=np.linspace(-6.0, -2.0, 4),
                  log10_ridge=np.linspace(-11.0, -5.0, 5),
                  pk_candidates=((1.0, 1), (1.0, 2), (0.8, 3)))

SCALES = {
    "full": {
        "sweep-sur": dict(method="sur", ntrain=(50, 100, 250), realizations=2,
                          n_test=1000, grid={}, max_iters=500),
        "sweep-gli": dict(method="gli", ntrain=(50, 100), realizations=1,
                          n_test=1000, grid={}, max_iters=GLI_MAX_ITERS),
        "learn-cli": dict(n_train=2000, n_test=1000, pk=(1.0, 3.0),
                          max_iters=LEARN_MAX_ITERS, deviation_draws=100000),
    },
    # sizes for the benchmark's self-test: every code path, in seconds
    "tiny": {
        "sweep-sur": dict(method="sur", ntrain=(20,), realizations=2,
                          n_test=100, grid=_TINY_GRID, max_iters=500),
        "sweep-gli": dict(method="gli", ntrain=(20,), realizations=1,
                          n_test=100, grid=_TINY_GRID, max_iters=5),
        "learn-cli": dict(n_train=300, n_test=100, pk=(1.0, 2.0),
                          max_iters=3, deviation_draws=2000),
    },
}


def derive_seed(*words):
    """A 32-bit seed that depends on every word; the same words give the same seed."""
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0])


@dataclass
class Pass:
    """What one timed pass did and what it returned."""

    wall_s: float
    ops: list                  # (kind, seconds, succeeded)
    rows: list                 # per-cell result rows; the determinism digest
    quality: dict              # "J_test" / "err_test" -> list of values
    problems: list = field(default_factory=list)

    def digest(self):
        text = json.dumps(self.rows, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def make(name, seed, scale, workdir):
    params = SCALES[scale][name]
    if name == "learn-cli":
        return LearnCli(seed, workdir, **params)
    return Sweep(seed, **params)


class Sweep:
    """Cells of the u3 desk sweep, one ``run_experiment`` call per cell.

    Pass ``i`` runs every (n_train, realization) cell with a cell seed
    derived from (benchmark seed, i, cell index), so later passes add fresh
    realizations rather than repeating earlier ones.
    """

    def __init__(self, seed, method, ntrain, realizations, n_test, grid,
                 max_iters):
        self.seed = seed
        self.method = method
        self.cells = [(n, r) for n in ntrain for r in range(realizations)]
        self.n_test = n_test
        self.cv = CvGrid(**grid)
        self.optimizer = OptimizerConfig(max_iters=max_iters)
        self.bench = None

    def setup(self):
        self.bench = bm.make_benchmark("u3")

    def inputs_of(self, index):
        return f"pass{index}"

    def run_pass(self, index, tracer=None):
        rows, ops = [], []
        start = time.perf_counter()
        for c, (ntrain, _) in enumerate(self.cells):
            cell_seed = derive_seed(self.seed, index, c)
            config = bm.ExperimentConfig(
                benchmark="u3", m=1, methods=(self.method,),
                ntrain_list=(ntrain,), n_test=self.n_test, n_realizations=1,
                seed=cell_seed, cv=self.cv, optimizer=self.optimizer)
            if tracer is not None:
                tracer.cell = f"pass{index}.cell{c}"
            t0 = time.perf_counter()
            row = dict(bm.run_experiment(config).realizations[0])
            ops.append(("cell", time.perf_counter() - t0, not row["failed"]))
            row["cell_seed"] = cell_seed
            rows.append(row)
        wall = time.perf_counter() - start
        ok = [r for r in rows if not r["failed"]]
        return Pass(wall, ops, rows,
                    {"J_test": [r["J_test"] for r in ok],
                     "err_test": [r["err_test"] for r in ok]})

    def check(self, result):
        for row in result.rows:
            where = f"cell n={row['ntrain']} seed={row['cell_seed']}"
            if row["failed"]:
                result.problems.append(f"{where} failed: {row['error']}")
                continue
            # the cell's test set, rebuilt with run_experiment's own seed derivation
            _, test_seed, _ = bm._realization_seeds(row["cell_seed"], row["ntrain"], 0)
            scale = bm.make_samples(self.bench, self.n_test, test_seed) \
                .mean_gradient_norm_sq()
            if not 0.0 <= row["J_test"] <= scale:
                result.problems.append(
                    f"{where}: J_test {row['J_test']!r} outside [0, {scale!r}]")

    def cleanup(self):
        pass


class LearnCli:
    """``gradfeat learn`` then ``gradfeat check-deviation`` on a u4 sample CSV.

    Set-up writes the sample CSV and the config; every pass runs both
    commands in-process on those same inputs and scores the saved feature
    map on held-out points, so every pass must return identical rows.
    """

    def __init__(self, seed, workdir, n_train, n_test, pk, max_iters,
                 deviation_draws):
        self.seed = seed
        self.workdir = workdir
        self.n_train = n_train
        self.n_test = n_test
        self.pk = pk
        self.max_iters = max_iters
        self.deviation_draws = deviation_draws
        self.csv = os.path.join(workdir, "samples.csv")
        self.config = os.path.join(workdir, "config.json")
        self.out = os.path.join(workdir, "out")
        self.test = None

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        bench = bm.make_benchmark("u4")
        train = bm.make_samples(bench, self.n_train, derive_seed(self.seed, 0))
        bm.write_samples_csv(train, self.csv)
        self.test = bm.make_samples(bench, self.n_test, derive_seed(self.seed, 1))
        config = {
            "basis": {"families": [family_to_spec(f) for f in bench.families],
                      "p": self.pk[0], "k": self.pk[1]},
            "learn": {"method": "gsi", "m": 2,
                      "optimizer": {"max_iters": self.max_iters}},
            # u4 has a log-domain family, so the Remez exponent is explicit
            "deviation": {"feature_map": os.path.join(self.out, "feature_map.txt"),
                          "basis_spec": os.path.join(self.out, "basis.json"),
                          "benchmark": "u4", "n_samples": self.deviation_draws,
                          "seed": derive_seed(self.seed, 2), "k": 4.0},
            "io": {"out_dir": self.out},
        }
        with open(self.config, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)

    def inputs_of(self, index):
        return "fixed"

    def _cli(self, argv):
        """Run one CLI command in-process; returns (exit code or None, seconds, log)."""
        log = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(argv)
        except Exception:        # a traceback is a failed operation, not a crash
            code = None
            log.write(traceback.format_exc())
        return code, time.perf_counter() - t0, log.getvalue()

    def run_pass(self, index, tracer=None):
        base = ["--config", self.config]
        start = time.perf_counter()
        if tracer is not None:
            tracer.cell = f"pass{index}.learn"
        learn = self._cli(base + ["learn", self.csv])
        if tracer is not None:
            tracer.cell = f"pass{index}.check-deviation"
        deviation = self._cli(base + ["check-deviation"])
        ops = [("learn", learn[1], learn[0] == 0),
               ("check_deviation", deviation[1], deviation[0] == 0)]
        failed = [f"{name} exited with {code}: {log.strip()}"
                  for name, (code, _, log) in (("learn", learn),
                                               ("check-deviation", deviation))
                  if code != 0]
        if failed:
            return Pass(time.perf_counter() - start, ops, [], {}, failed)
        if tracer is not None:
            tracer.cell = f"pass{index}.score"
        fmap = FeatureMap.load(os.path.join(self.out, "feature_map.txt"),
                               os.path.join(self.out, "basis.json"))
        j_test = poincare_loss(self.test, fmap)
        wall = time.perf_counter() - start

        with open(os.path.join(self.out, "metrics.json")) as fh:
            metrics = json.load(fh)
        with open(os.path.join(self.out, "deviation_report.json")) as fh:
            report = json.load(fh)
        metrics.pop("wall_time_s")
        rows = [{"metrics": metrics, "deviation": report, "J_test": j_test,
                 "coeffs": fmap.coeffs.tolist()}]
        return Pass(wall, ops, rows, {"J_test": [j_test]})

    def check(self, result):
        if not result.rows:         # a command failed; run_pass said which
            return
        row = result.rows[0]
        violations = sum(r["n_violations"] for r in row["deviation"]["reports"].values())
        if violations:
            result.problems.append(f"check-deviation reported {violations} violation(s)")
        scale = self.test.mean_gradient_norm_sq()
        if not 0.0 <= row["J_test"] <= scale:
            result.problems.append(f"J_test {row['J_test']!r} outside [0, {scale!r}]")
        # the saved map, reloaded, must reproduce the loss the command logged
        fmap = FeatureMap.load(os.path.join(self.out, "feature_map.txt"),
                               os.path.join(self.out, "basis.json"))
        train = bm.read_samples_csv(self.csv)
        reloaded = poincare_loss(train, fmap)
        if reloaded != row["metrics"]["loss_final"]:
            result.problems.append(
                f"reloaded map gives loss {reloaded!r}, learn logged "
                f"{row['metrics']['loss_final']!r}")

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
