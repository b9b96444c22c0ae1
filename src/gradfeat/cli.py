"""Command-line entry point: learn features, run benchmark sweeps, and check
deviation bounds.

Configuration is a JSON tree with sections basis / learn / regression /
experiment / deviation / io; unknown keys are rejected and every default is
visible through --print-config.  Each run writes the fully resolved config
next to its outputs, and re-running on that file reproduces the outputs byte
for byte.

Exit codes: 0 success, 2 usage or input problem, 3 numeric failure,
4 deviation-bound violation.
"""

import argparse
import copy
import json
import os
import sys
import time

import numpy as np

from . import benchmarks as bm
from .basis import FeatureBasis, assemble_gram, build_index_set, \
    family_from_spec
from .deviation import check_large_deviation, check_small_deviation
from .errors import InvalidInputError, NumericError
from .grassmann import METHODS, OptimizerConfig, learn_features
from .regression import CvGrid
from .surrogate import FeatureMap, poincare_loss

DEFAULT_CONFIG = {
    "basis": {
        "families": [],
        "p": 1.0,
        "k": 2.0,
    },
    "learn": {
        "method": "sur",
        "m": 1,
        "optimizer": {
            "max_iters": 500,
            "grad_tol": 1e-9,
            "step_init": 1.0,
            "shrink": 0.5,
            "sufficient_decrease": 1e-4,
            "trace_path": None,
        },
    },
    "regression": {
        "folds": 10,
        "log10_gamma": {"lo": -6.0, "hi": -2.0, "n": 30},
        "log10_ridge": {"lo": -11.0, "hi": -5.0, "n": 40},
        "pk_folds": 5,
    },
    "experiment": {
        "benchmark": "u1",
        "m": 1,
        "methods": ["sur"],
        "ntrain_list": [50, 100, 250],
        "n_test": 1000,
        "n_realizations": 5,
        "seed": 0,
        "select_pk": True,
        "fixed_pk": [1.0, 2.0],
    },
    "deviation": {
        "feature_map": None,
        "basis_spec": None,
        "samples": None,
        "benchmark": None,
        "n_samples": 100000,
        "seed": 0,
        "s": 1.0,
        "A": 4.0,
        "k": None,
        "eps_grid": [0.001, 0.01, 0.1, 0.5, 1.0],
        "t_grid": [1.5, 2.0, 3.0, 5.0],
    },
    "io": {
        "out_dir": "gradfeat-out",
    },
}


def _merge_config(defaults, override, path=""):
    if not isinstance(override, dict):
        raise InvalidInputError(
            f"config {path or 'file'} must be a JSON object, got {override!r}")
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise InvalidInputError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            out[key] = _merge_config(defaults[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _setting(cfg, path, convert):
    """``convert`` of the config value at a dotted path; a value it cannot
    convert raises ``InvalidInputError`` naming the key."""
    value = cfg
    for key in path.split("."):
        value = value[key]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"config {path}: cannot use {value!r} ({exc})") from None


def _of_type(kind, expected):
    """A converter that passes values of ``kind`` through and raises on any
    other: a string is never read as its characters, nor a number as a
    boolean."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {expected}, got {type(value).__name__}")
        return value
    return check


_path = _of_type(str, "a path string")
_optional_path = _of_type((str, type(None)), "a path string or null")
_boolean = _of_type(bool, "true or false")
_list = _of_type(list, "a list")


def _method(value):
    if value not in METHODS:
        raise ValueError(f"expected one of {METHODS}")
    return value


def _methods(values):
    return tuple(map(_method, _list(values)))


def _check_keys(cfg):
    """Reject path-valued keys of the wrong type and unknown method names
    before any work is done."""
    _setting(cfg, "io.out_dir", _path)
    for key in ("learn.optimizer.trace_path", "deviation.feature_map",
                "deviation.basis_spec", "deviation.samples"):
        _setting(cfg, key, _optional_path)
    _setting(cfg, "learn.method", _method)
    _setting(cfg, "experiment.methods", _methods)


def _integer(value):
    """An integral number as an int; booleans, strings and fractions raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _floats(values):
    return [float(v) for v in _list(values)]


def _pk_pair(values):
    p, k = _list(values)
    return float(p), float(k)


def load_config(path=None, seed=None, out_dir=None):
    override = {}
    if path is not None:
        try:
            with open(path) as fh:
                override = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot read config {path}: {exc}") from None
    cfg = _merge_config(DEFAULT_CONFIG, override)
    if seed is not None:
        cfg["experiment"]["seed"] = seed
        cfg["deviation"]["seed"] = seed
    if out_dir is not None:
        cfg["io"]["out_dir"] = out_dir
    _check_keys(cfg)
    return cfg


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _make_out_dir(cfg):
    """Create the output directory, once the config is read and before any
    work, so that an unusable one fails fast."""
    out = cfg["io"]["out_dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot create io.out_dir {out!r}: {exc}") from None


def _write_config(cfg):
    """Write the resolved config into the output directory and return the directory."""
    out = cfg["io"]["out_dir"]
    _dump_json(cfg, os.path.join(out, "config.json"))
    return out


def _cv_grid(cfg):
    def grid(name):
        return np.linspace(_setting(cfg, f"regression.{name}.lo", float),
                           _setting(cfg, f"regression.{name}.hi", float),
                           _setting(cfg, f"regression.{name}.n", _integer))

    return CvGrid(log10_gamma=grid("log10_gamma"), log10_ridge=grid("log10_ridge"),
                  folds=_setting(cfg, "regression.folds", _integer),
                  pk_folds=_setting(cfg, "regression.pk_folds", _integer))


def _optimizer(cfg):
    def opt(key, convert):
        return _setting(cfg, f"learn.optimizer.{key}", convert)

    return OptimizerConfig(max_iters=opt("max_iters", _integer),
                           grad_tol=opt("grad_tol", float),
                           step_init=opt("step_init", float),
                           shrink=opt("shrink", float),
                           sufficient_decrease=opt("sufficient_decrease", float),
                           trace_path=cfg["learn"]["optimizer"]["trace_path"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_learn(cfg, samples_path):
    families = _setting(cfg, "basis.families", _list)
    if not families:
        raise InvalidInputError(
            "config basis.families is empty; list one family per input dimension")
    families = [family_from_spec(s) for s in families]
    p = _setting(cfg, "basis.p", float)
    k = _setting(cfg, "basis.k", float)
    m = _setting(cfg, "learn.m", _integer)
    optimizer = _optimizer(cfg)
    _make_out_dir(cfg)
    samples = bm.read_samples_csv(samples_path)
    if samples.dim != len(families):
        raise InvalidInputError(
            f"samples have dim {samples.dim}, basis lists {len(families)} families")
    basis = FeatureBasis(build_index_set(samples.dim, p, k), families)
    # one training Jacobian serves the Gram, the fit and the final loss
    jac = basis.jacobian_batch(samples.points)
    gram = assemble_gram(basis, samples, jac=jac)
    t0 = time.perf_counter()
    fmap, info = learn_features(samples, basis, m, cfg["learn"]["method"],
                                gram=gram, config=optimizer, jac=jac)
    fmap = fmap.orthonormalized(gram)
    wall = time.perf_counter() - t0
    out = _write_config(cfg)
    fmap.save(os.path.join(out, "feature_map.txt"),
              os.path.join(out, "basis.json"))
    metrics = {
        "method": cfg["learn"]["method"],
        "m": m,
        "K": basis.size,
        "loss_init": info["loss_init"],
        "loss_final": poincare_loss(samples, fmap, jac=jac),
        "loss_scale": samples.mean_gradient_norm_sq(),
        "wall_time_s": wall,
    }
    _dump_json(metrics, os.path.join(out, "metrics.json"))
    print(f"learned {metrics['m']} feature(s) with {metrics['method']} "
          f"(K={metrics['K']}): loss {metrics['loss_final']:.6e} "
          f"at scale {metrics['loss_scale']:.6e}")
    return 0


def cmd_benchmark(cfg, full=False):
    def exp(key, convert):
        return _setting(cfg, f"experiment.{key}", convert)

    if cfg["learn"]["optimizer"]["trace_path"] is not None:
        # every descent of the sweep would rewrite the one file
        raise InvalidInputError(
            "config learn.optimizer.trace_path: applies to learn only; "
            "set it to null for benchmark")
    config = bm.ExperimentConfig(
        benchmark=exp("benchmark", str), m=exp("m", _integer),
        methods=exp("methods", _methods),
        ntrain_list=exp("ntrain_list", lambda v: tuple(map(_integer, _list(v)))),
        n_test=exp("n_test", _integer),
        n_realizations=exp("n_realizations", _integer),
        seed=exp("seed", _integer), select_pk=exp("select_pk", _boolean),
        fixed_pk=exp("fixed_pk", _pk_pair),
        cv=_cv_grid(cfg), optimizer=_optimizer(cfg))
    if full:
        config = config.full_scale()
        cfg = copy.deepcopy(cfg)
        cfg["experiment"]["n_realizations"] = config.n_realizations
        cfg["experiment"]["ntrain_list"] = list(config.ntrain_list)
    _make_out_dir(cfg)
    report = bm.run_experiment(config)
    out = _write_config(cfg)
    report.to_csv(os.path.join(out, "report.csv"))
    report.to_json(os.path.join(out, "report.json"))
    _print_summary(report)
    return 0


def _print_summary(report):
    print(f"{'method':>8} {'ntrain':>7} {'median J_train':>15} "
          f"{'median J_test':>14} {'median err_test':>16}")
    for row in report.cells:
        if row["quantile"] != 50:
            continue
        print(f"{row['method']:>8} {row['ntrain']:>7d} {row['J_train']:>15.6e} "
              f"{row['J_test']:>14.6e} {row['err_test']:>16.6e}")
    failed = [r for r in report.realizations if r["failed"]]
    if failed:
        print(f"{len(failed)} cell(s) failed; see report.json")


def _deviation_h_samples(cfg):
    dev = cfg["deviation"]
    if not dev["feature_map"] or not dev["basis_spec"]:
        raise InvalidInputError(
            "config deviation.feature_map and deviation.basis_spec are required")
    fmap = FeatureMap.load(dev["feature_map"], dev["basis_spec"])
    if dev["samples"]:
        points = bm.read_samples_csv(dev["samples"]).points
    elif dev["benchmark"]:
        bench = bm.make_benchmark(dev["benchmark"])
        points = bm.sample_inputs(
            bench, _setting(cfg, "deviation.n_samples", _integer),
            _setting(cfg, "deviation.seed", _integer))
    else:
        raise InvalidInputError(
            "config deviation needs either a samples path or a benchmark id")
    jac = fmap.gradients(points)
    h = np.einsum("ndm->n", jac ** 2)
    return h, fmap


def _resolve_remez(cfg, fmap):
    A = _setting(cfg, "deviation.A", float)
    if cfg["deviation"]["k"] is not None:
        return _setting(cfg, "deviation.k", float), A
    if not fmap.basis.is_polynomial():
        raise InvalidInputError(
            "deviation.k must be given explicitly for a basis with a "
            "log-domain family (the polynomial Remez constants do not apply)")
    ell = fmap.basis.degree() - 1
    if ell < 1:
        raise InvalidInputError("basis degree must be at least 2 to derive k")
    return 2.0 * ell, A


def cmd_check_deviation(cfg):
    eps_grid = _setting(cfg, "deviation.eps_grid", _floats)
    t_grid = _setting(cfg, "deviation.t_grid", _floats)
    if not eps_grid and not t_grid:
        raise InvalidInputError("deviation.eps_grid and t_grid are both empty")
    s = _setting(cfg, "deviation.s", float)
    _make_out_dir(cfg)
    h, fmap = _deviation_h_samples(cfg)
    k, A = _resolve_remez(cfg, fmap)
    reports = {}
    if eps_grid:
        reports["small"] = check_small_deviation(h, k, A, s, eps_grid).to_dict()
    if t_grid:
        reports["large"] = check_large_deviation(h, k, A, s, t_grid).to_dict()
    out = _write_config(cfg)
    payload = {"k": k, "A": A, "s": s, "reports": reports}
    _dump_json(payload, os.path.join(out, "deviation_report.json"))
    violations = sum(rep["n_violations"] for rep in reports.values())
    for kind, rep in sorted(reports.items()):
        print(f"{kind}-deviation check: {rep['n_violations']} violation(s) "
              f"over {len(rep['rows'])} grid point(s)")
    return 4 if violations else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gradfeat",
        description="Learn gradient-aligned nonlinear features, benchmark the "
                    "learning procedures, and verify deviation bounds.")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override all seeds")
    parser.add_argument("--out", metavar="DIR", help="override io.out_dir")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully resolved config and exit")
    sub = parser.add_subparsers(dest="command")
    p_learn = sub.add_parser("learn", help="learn a feature map from a sample CSV")
    p_learn.add_argument("samples", help="sample CSV (x1..xd,u,du1..dud)")
    p_bench = sub.add_parser("benchmark", help="run the experiment sweep")
    p_bench.add_argument("--full", action="store_true",
                         help="full-scale sweep (20 realizations, wide grid)")
    sub.add_parser("check-deviation", help="verify small/large deviation bounds")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        if args.command is None:
            parser.print_usage()
            return 2
        if args.command == "learn":
            return cmd_learn(cfg, args.samples)
        if args.command == "benchmark":
            return cmd_benchmark(cfg, full=args.full)
        return cmd_check_deviation(cfg)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
