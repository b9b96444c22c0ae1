"""Benchmark functions with analytic gradients, their input laws, sample-set
CSV I/O, and the experiment driver that produces quantile reports.

Four functions on R^8 are provided: a ridge function of the squared norm
(u1), a two-feature combination of quadratics (u2), a separable exponential
(u3), and the Borehole function with its conventional mixed input
distribution (u4).  The driver runs the full pipeline per realization --
sample, select (p, k) by cross-validation, learn the features, select the
regressor by cross-validation, fit, monitor four quantities -- and aggregates
50/90/100% quantiles over realizations.  Identical configs and seeds
reproduce reports byte for byte.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import FeatureBasis, Hermite, Legendre, LogHermite, build_index_set
from .deviation import empirical_quantile
from .errors import InvalidInputError, NumericError
from .grassmann import OptimizerConfig, learn_features
from .regression import CvGrid, cv_select_basis, cv_select_krr, krr_fit, krr_predict
from .surrogate import SampleSet, poincare_loss

BENCHMARK_DIM = 8


@dataclass(frozen=True)
class Benchmark:
    id: str
    families: tuple

    @property
    def dim(self):
        return len(self.families)

    def evaluate(self, X):
        """(values, gradients) at each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise InvalidInputError(f"points have dim {X.shape[1]}, expected {self.dim}")
        return _EVALUATORS[self.id](X)


def _hilbert_matrix(d):
    i = np.arange(1, d + 1)
    return 1.0 / (i[:, None] + i[None, :] - 1.0)


def _eval_u1(X):
    c = 4.0 / math.pi ** 2
    q = np.sum(X ** 2, axis=1)
    return np.sin(c * q), np.cos(c * q)[:, None] * (2.0 * c) * X


_HILBERT8 = _hilbert_matrix(BENCHMARK_DIM)


def _eval_u2(X):
    q1 = 0.5 * np.sum(X ** 2, axis=1)
    MX = X @ _HILBERT8
    q2 = 0.5 * np.sum(X * MX, axis=1)
    u = np.cos(q1) + np.sin(q2)
    grads = -np.sin(q1)[:, None] * X + np.cos(q2)[:, None] * MX
    return u, grads


def _eval_u3(X):
    d = X.shape[1]
    ecos = np.exp(np.cos(X))
    u = np.exp(np.mean(np.sin(X) * ecos, axis=1))
    grads = u[:, None] / d * ecos * (np.cos(X) - np.sin(X) ** 2)
    return u, grads


def _eval_u4(X):
    x1, x2, x3, x4, x5, x6, x7, x8 = (X[:, i] for i in range(8))
    L = np.log(x2 / x1)
    B = 2.0 * x7 * x3 / (L * x1 ** 2 * x8)
    T = 1.0 + B + x3 / x5
    u = 2.0 * math.pi * x3 * (x4 - x6) / (L * T)
    grads = np.empty_like(X)
    grads[:, 0] = u * (1.0 / (x1 * L) - B * (1.0 / (x1 * L) - 2.0 / x1) / T)
    grads[:, 1] = u * (-1.0 / (x2 * L) + B / (x2 * L * T))
    grads[:, 2] = u * (1.0 / x3 - (B / x3 + 1.0 / x5) / T)
    grads[:, 3] = u / (x4 - x6)
    grads[:, 4] = u * (x3 / x5 ** 2) / T
    grads[:, 5] = -u / (x4 - x6)
    grads[:, 6] = -u * B / (x7 * T)
    grads[:, 7] = u * B / (x8 * T)
    return u, grads


_EVALUATORS = {"u1": _eval_u1, "u2": _eval_u2, "u3": _eval_u3, "u4": _eval_u4}

_HALF_PI = math.pi / 2.0
_BOX_FAMILIES = tuple(Legendre(-_HALF_PI, _HALF_PI) for _ in range(BENCHMARK_DIM))
# Borehole convention: N(0.1, 0.0161812) with the second parameter a standard
# deviation, and lognormal parameters for the underlying normal law.
_BOREHOLE_FAMILIES = (
    Hermite(0.1, 0.0161812),
    LogHermite(7.71, 1.0056),
    Legendre(63070.0, 115600.0),
    Legendre(990.0, 1110.0),
    Legendre(63.1, 116.0),
    Legendre(700.0, 820.0),
    Legendre(1120.0, 1680.0),
    Legendre(9855.0, 12045.0),
)


def make_benchmark(bench_id):
    if bench_id not in _EVALUATORS:
        raise InvalidInputError(f"unknown benchmark {bench_id!r}")
    families = _BOREHOLE_FAMILIES if bench_id == "u4" else _BOX_FAMILIES
    return Benchmark(id=bench_id, families=families)


def sample_inputs(benchmark, n, seed):
    """Input points drawn from the benchmark's law; deterministic given seed."""
    if n < 0:
        raise InvalidInputError(f"n={n} must be >= 0")
    rng = np.random.default_rng(seed)
    cols = [fam.sample(rng, n) for fam in benchmark.families]
    return np.column_stack(cols)


def make_samples(benchmark, n, seed):
    """SampleSet of inputs, values, and gradients for a benchmark."""
    X = sample_inputs(benchmark, n, seed)
    u, grads = benchmark.evaluate(X)
    return SampleSet(X, u, grads)


# ---------------------------------------------------------------------------
# Sample-set CSV schema: x1,...,xd,u,du1,...,dud
# ---------------------------------------------------------------------------

def write_samples_csv(samples, path):
    d = samples.dim
    header = ",".join([f"x{i}" for i in range(1, d + 1)] + ["u"]
                      + [f"du{i}" for i in range(1, d + 1)])
    rows = np.column_stack([samples.points, samples.values[:, None],
                            samples.gradients])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_samples_csv(path):
    try:
        fh = open(path)
    except OSError as exc:
        raise InvalidInputError(f"cannot read samples {path}: {exc}") from None
    with fh:
        header = fh.readline().strip()
        names = header.split(",")
        if "u" not in names:
            raise InvalidInputError(f"{path}: header lacks a 'u' column")
        d = names.index("u")
        expected = [f"x{i}" for i in range(1, d + 1)] + ["u"] \
            + [f"du{i}" for i in range(1, d + 1)]
        if names != expected:
            raise InvalidInputError(f"{path}: header {header!r} does not match "
                                    "the x1..xd,u,du1..dud schema")
        pts, vals, grads = [], [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 2 * d + 1:
                raise InvalidInputError(
                    f"{path}: line {lineno}: expected {2 * d + 1} fields, "
                    f"got {len(parts)}")
            try:
                row = [float(v) for v in parts]
            except ValueError as exc:
                raise InvalidInputError(f"{path}: line {lineno}: {exc}") from None
            pts.append(row[:d])
            vals.append(row[d])
            grads.append(row[d + 1:])
    if not pts:
        raise InvalidInputError(f"{path}: no data rows")
    return SampleSet(np.array(pts), np.array(vals), np.array(grads))


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    benchmark: str
    m: int = 1
    methods: tuple = ("sur",)
    ntrain_list: tuple = (50, 100, 250)
    n_test: int = 1000
    n_realizations: int = 5
    seed: int = 0
    select_pk: bool = True
    fixed_pk: tuple = (1.0, 2.0)     # used when select_pk is False
    cv: CvGrid = field(default_factory=CvGrid)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


_QUANTS = ((50, 0.5), (90, 0.9), (100, None))   # None -> maximum
_MONITORED = ("J_train", "J_test", "err_train", "err_test")


@dataclass
class QuantileReport:
    config: dict
    cells: list          # aggregated quantile rows
    realizations: list   # raw per-realization rows

    def to_csv(self, path):
        cols = ["benchmark", "method", "m", "ntrain", "quantile",
                "J_train", "J_test", "err_train", "err_test"]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.cells:
                fh.write(",".join(_csv_field(row[c]) for c in cols) + "\n")

    def to_json(self, path):
        payload = {"config": self.config, "cells": self.cells,
                   "realizations": self.realizations}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _csv_field(v):
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _realization_seeds(base_seed, ntrain, realization):
    def derive(tag):
        return np.random.SeedSequence([int(base_seed), int(ntrain),
                                       int(realization), tag])
    cv_seed = int(derive(2).generate_state(1)[0])
    return derive(0), derive(1), cv_seed


def _run_cell(bench, config, method, train, test, cv_seed):
    if config.select_pk:
        p, k = cv_select_basis(train, config.m, method, bench.families,
                               grid=config.cv, seed=cv_seed,
                               optimizer=config.optimizer)
    else:
        p, k = config.fixed_pk
    basis = FeatureBasis(build_index_set(bench.dim, p, k), bench.families)
    fmap, info = learn_features(train, basis, config.m, method,
                                config=config.optimizer)
    j_test = poincare_loss(test, fmap)
    Z_train = fmap.evaluate(train.points)
    gamma, ridge, _ = cv_select_krr(Z_train, train.values, grid=config.cv,
                                    seed=cv_seed)
    model = krr_fit(Z_train, train.values, gamma, ridge)
    err_train = float(np.sqrt(np.mean(
        (train.values - krr_predict(model, Z_train)) ** 2)))
    err_test = float(np.sqrt(np.mean(
        (test.values - krr_predict(model, fmap.evaluate(test.points))) ** 2)))
    return {"p": float(p), "k": float(k), "gamma": gamma, "ridge": ridge,
            "J_train": info["loss_final"], "J_test": j_test,
            "err_train": err_train, "err_test": err_test}


def run_experiment(config):
    """Run the full pipeline over (method, ntrain, realization) and aggregate.

    A cell that fails on its input or numerically (``InvalidInputError``,
    ``NumericError``, a LAPACK ``LinAlgError``) is recorded on its
    realization row and skipped in the aggregation; any other exception is a
    bug and propagates.
    """
    bench = make_benchmark(config.benchmark)
    raw = []
    for ntrain in config.ntrain_list:
        for r in range(config.n_realizations):
            train_ss, test_ss, cv_seed = _realization_seeds(config.seed, ntrain, r)
            train = make_samples(bench, int(ntrain), train_ss)
            test = make_samples(bench, config.n_test, test_ss)
            for method in config.methods:
                row = {"benchmark": bench.id, "method": method, "m": config.m,
                       "ntrain": int(ntrain), "realization": r,
                       "failed": False, "error": ""}
                try:
                    row.update(_run_cell(bench, config, method, train, test,
                                         cv_seed))
                except (InvalidInputError, NumericError,
                        np.linalg.LinAlgError) as exc:
                    row["failed"] = True
                    row["error"] = f"{type(exc).__name__}: {exc}"
                raw.append(row)

    cells = []
    for method in config.methods:
        for ntrain in config.ntrain_list:
            ok = [r for r in raw
                  if r["method"] == method and r["ntrain"] == int(ntrain)
                  and not r["failed"]]
            for label, omega in _QUANTS:
                cell = {"benchmark": bench.id, "method": method,
                        "m": config.m, "ntrain": int(ntrain),
                        "quantile": label}
                for q in _MONITORED:
                    vals = [r[q] for r in ok]
                    if not vals:
                        cell[q] = float("nan")
                    elif omega is None:
                        cell[q] = float(max(vals))
                    else:
                        cell[q] = empirical_quantile(vals, omega)
                cells.append(cell)
    return QuantileReport(config=_config_echo(config), cells=cells,
                          realizations=raw)


def _config_echo(config):
    return {
        "benchmark": config.benchmark, "m": config.m,
        "methods": list(config.methods),
        "ntrain_list": [int(n) for n in config.ntrain_list],
        "n_test": config.n_test, "n_realizations": config.n_realizations,
        "seed": config.seed, "select_pk": config.select_pk,
        "fixed_pk": list(config.fixed_pk),
        "cv": {"log10_gamma": list(map(float, config.cv.log10_gamma)),
               "log10_ridge": list(map(float, config.cv.log10_ridge)),
               "folds": config.cv.folds,
               "pk_candidates": [list(c) for c in config.cv.pk_candidates],
               "pk_folds": config.cv.pk_folds},
        "optimizer": {"max_iters": config.optimizer.max_iters},
    }
