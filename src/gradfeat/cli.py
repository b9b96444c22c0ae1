"""Command-line entry point: learn features, run benchmark sweeps, and check
deviation bounds.

Configuration is a JSON tree with sections basis / learn / regression /
experiment / deviation / io.  One table, ``_SCHEMA``, gives every key its
default and its check.  ``load_config`` resolves a file against it in one
walk, with ``--seed``, ``--out`` and ``benchmark --full`` applied first as
overrides of their keys, so an unknown key, a section that is not an object
or a value outside its key's domain exits 2 naming the key, whatever the
subcommand (--print-config included).  The commands read the checked, typed
values; only the rules that tie keys together stay with the command that
needs them.  Every default is visible through --print-config.  Each run
writes the resolved config next to its outputs, and re-running on that file
reproduces the outputs byte for byte.

Exit codes: 0 success, 2 usage or input problem, 3 numeric failure,
4 deviation-bound violation.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import benchmarks as bm
from .basis import (_EVAL_CHUNK, FeatureBasis, _index_k_ok, _index_p_ok,
                    build_index_set, family_from_spec)
from .deviation import check_large_deviation, check_small_deviation
from .errors import InvalidInputError, NumericError
from .grassmann import METHODS, OptimizerConfig, learn_features
from .regression import CvGrid
from .surrogate import FeatureMap


# ---------------------------------------------------------------------------
# Config checks: each returns the value it accepts, typed, or raises
# ---------------------------------------------------------------------------

def _of_type(kind, expected):
    """A check that passes values of ``kind`` through and raises on any
    other: a string is never read as its characters, nor a number as a
    boolean."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {expected}, got {type(value).__name__}")
        return value
    return check


_path = _of_type(str, "a path string")
_list = _of_type(list, "a list")


def _optional(check):
    return lambda value: None if value is None else check(value)


def _list_of(check, least=0):
    """A JSON list of at least ``least`` entries with ``check`` applied to
    every entry, as a tuple."""
    def checked(values):
        values = tuple(map(check, _list(values)))
        if len(values) < least:
            raise ValueError(f"expected {least} or more entries")
        return values
    return checked


def _integer(least):
    """A check for integral numbers >= ``least``, returned as ints; booleans,
    strings and fractions raise."""
    def check(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected an integer, got {type(value).__name__}")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("expected an integer")
        if value < least:
            raise ValueError(f"expected at least {least}")
        return int(value)
    return check


_count = _integer(1)
_seed = _integer(0)


def _real(accept, expected):
    """A check for JSON numbers that ``accept`` takes, returned as floats;
    booleans and strings raise."""
    def check(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected a number, got {type(value).__name__}")
        value = float(value)
        if not accept(value):
            raise ValueError(f"expected {expected}")
        return value
    return check


_finite = _real(math.isfinite, "a finite number")
_positive = _real(lambda v: 0 < v < math.inf, "a finite number > 0")
_basis_p = _real(_index_p_ok, "a number > 0 or Infinity")
_basis_k = _real(_index_k_ok, "a finite number >= 1")


def _pk_pair(values):
    p, k = _list(values)
    return _basis_p(p), _basis_k(k)


def _family_spec(spec):
    """A family spec, checked by building its family, as given."""
    family_from_spec(spec)
    return spec


def _method(value):
    if value not in METHODS:
        raise ValueError(f"expected one of {METHODS}")
    return value


def _benchmark_id(value):
    """A benchmark id that ``make_benchmark`` knows; anything else raises."""
    return bm.make_benchmark(_of_type(str, "a benchmark id")(value)).id


# ---------------------------------------------------------------------------
# The config: one default and one check per key
# ---------------------------------------------------------------------------

_Key = namedtuple("_Key", "default check")


def _grid(lo, hi, n):
    return {"lo": _Key(lo, _finite), "hi": _Key(hi, _finite), "n": _Key(n, _count)}


_SCHEMA = {
    "basis": {
        "families": _Key([], _list_of(_family_spec)),
        "p": _Key(1.0, _basis_p),
        "k": _Key(2.0, _basis_k),
    },
    "learn": {
        "method": _Key("sur", _method),
        "m": _Key(1, _count),
        "optimizer": {
            "max_iters": _Key(500, _integer(0)),
        },
    },
    "regression": {
        "folds": _Key(10, _integer(2)),
        "log10_gamma": _grid(-6.0, -2.0, 30),
        "log10_ridge": _grid(-11.0, -5.0, 40),
        "pk_folds": _Key(5, _integer(2)),
    },
    "experiment": {
        "benchmark": _Key("u1", _benchmark_id),
        "m": _Key(1, _count),
        "methods": _Key(["sur"], _list_of(_method, least=1)),
        "ntrain_list": _Key([50, 100, 250], _list_of(_count, least=1)),
        "n_test": _Key(1000, _count),
        "n_realizations": _Key(5, _count),
        "seed": _Key(0, _seed),
        "fixed_pk": _Key(None, _optional(_pk_pair)),
    },
    "deviation": {
        "feature_map": _Key(None, _optional(_path)),
        "basis_spec": _Key(None, _optional(_path)),
        "samples": _Key(None, _optional(_path)),
        "benchmark": _Key(None, _optional(_benchmark_id)),
        "n_samples": _Key(100000, _count),
        "seed": _Key(0, _seed),
        "s": _Key(1.0, _finite),
        "A": _Key(4.0, _finite),
        "k": _Key(None, _optional(_positive)),
        "eps_grid": _Key([0.001, 0.01, 0.1, 0.5, 1.0], _list_of(_positive)),
        "t_grid": _Key([1.5, 2.0, 3.0, 5.0], _list_of(_positive)),
    },
    "io": {
        "out_dir": _Key("gradfeat-out", _path),
    },
}


def _resolve(schema, tree, overrides, path=""):
    """The checked values of a config tree: keys it leaves out take their
    default, and ``overrides`` (dotted key -> value) replace its values."""
    if not isinstance(tree, dict):
        raise InvalidInputError(
            f"config {path or 'file'} must be a JSON object, got {tree!r}")
    prefix = f"{path}." if path else ""
    for key in tree:
        if key not in schema:
            raise InvalidInputError(f"unknown config key: {prefix}{key}")
    out = {}
    for key, entry in schema.items():
        where = prefix + key
        if isinstance(entry, dict):
            out[key] = _resolve(entry, tree.get(key, {}), overrides, where)
            continue
        value = overrides.get(where, tree.get(key, entry.default))
        try:
            out[key] = entry.check(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(
                f"config {where}: cannot use {value!r} ({exc})") from None
    return out


DEFAULT_CONFIG = _resolve(_SCHEMA, {}, {})


def _optimizer(cfg):
    return OptimizerConfig(**cfg["learn"]["optimizer"])


_FULL_SCALE = {"experiment.n_realizations": 20,
               "experiment.ntrain_list": [50, 75, 100, 250, 500],
               "experiment.n_test": 1000}


def load_config(path=None, seed=None, out_dir=None, full=False):
    """The config file at ``path`` (every default when None), checked.
    ``seed`` replaces both seeds, ``out_dir`` io.out_dir and ``full`` the
    sweep sizes (``_FULL_SCALE``), before the checks."""
    tree = {}
    if path is not None:
        try:
            with open(path) as fh:
                tree = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot read config {path}: {exc}") from None
    overrides = dict(_FULL_SCALE) if full else {}
    if out_dir is not None:
        overrides["io.out_dir"] = out_dir
    if seed is not None:
        overrides.update({"experiment.seed": seed, "deviation.seed": seed})
    return _resolve(_SCHEMA, tree, overrides)


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


def _cv_grid(regression):
    def grid(g):
        return np.linspace(g["lo"], g["hi"], g["n"])

    return CvGrid(log10_gamma=grid(regression["log10_gamma"]),
                  log10_ridge=grid(regression["log10_ridge"]),
                  folds=regression["folds"], pk_folds=regression["pk_folds"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_learn(cfg, samples_path):
    spec = cfg["basis"]
    if not spec["families"]:
        raise InvalidInputError(
            "config basis.families is empty; list one family per input dimension")
    families = [family_from_spec(s) for s in spec["families"]]
    method, m = cfg["learn"]["method"], cfg["learn"]["m"]
    _make_out_dir(cfg)
    samples = bm.read_samples_csv(samples_path)
    if samples.dim != len(families):
        raise InvalidInputError(
            f"samples have dim {samples.dim}, basis lists {len(families)} families")
    basis = FeatureBasis(build_index_set(samples.dim, spec["p"], spec["k"]),
                         families)
    fmap, info = learn_features(samples, basis, m, method,
                                config=_optimizer(cfg))
    out = _write_config(cfg)
    fmap.save(os.path.join(out, "feature_map.txt"),
              os.path.join(out, "basis.json"))
    trace = info.pop("trace")
    metrics = {"m": m, "K": basis.size,
               "loss_scale": samples.mean_gradient_norm_sq(), **info}
    _dump_json(metrics, os.path.join(out, "metrics.json"))
    trace_path = os.path.join(out, "trace.csv")
    if trace is None:
        # sur runs no descent: an earlier run's trace would pass for this fit's
        with contextlib.suppress(FileNotFoundError):
            os.remove(trace_path)
    else:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "J", "grad_norm", "step"])
            writer.writerows(trace)
    print(f"learned {metrics['m']} feature(s) with {metrics['method']} "
          f"(K={metrics['K']}): loss {metrics['loss_final']:.6e} "
          f"at scale {metrics['loss_scale']:.6e}")
    return 0


def cmd_benchmark(cfg):
    config = bm.ExperimentConfig(**cfg["experiment"],
                                 cv=_cv_grid(cfg["regression"]),
                                 optimizer=_optimizer(cfg))
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


def _deviation_h_samples(dev):
    fmap = FeatureMap.load(dev["feature_map"], dev["basis_spec"])
    if dev["samples"]:
        points = bm.read_samples_csv(dev["samples"]).points
    else:
        points = bm.sample_inputs(bm.make_benchmark(dev["benchmark"]),
                                  dev["n_samples"], dev["seed"])
    # |grad g|^2 per point, _EVAL_CHUNK points at a time: an entry depends
    # on its own point only, so the chunks do not change its bits
    h = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _EVAL_CHUNK):
        rows = slice(start, start + _EVAL_CHUNK)
        h[rows] = np.einsum("ndm->n", fmap.gradients(points[rows]) ** 2)
    return h, fmap


def _polynomial_remez_exponent(fmap):
    """k = 2 ell for polynomial features of total degree ell + 1."""
    if not fmap.basis.is_polynomial():
        raise InvalidInputError(
            "deviation.k must be given explicitly for a basis with a "
            "log-domain family (the polynomial Remez constants do not apply)")
    ell = fmap.basis.degree() - 1
    if ell < 1:
        raise InvalidInputError("basis degree must be at least 2 to derive k")
    return 2.0 * ell


def cmd_check_deviation(cfg):
    dev = cfg["deviation"]
    eps_grid, t_grid, s, A = dev["eps_grid"], dev["t_grid"], dev["s"], dev["A"]
    if not eps_grid and not t_grid:
        raise InvalidInputError("deviation.eps_grid and t_grid are both empty")
    if eps_grid and not s > 0:
        raise InvalidInputError(
            "config deviation.s: small-deviation checking needs s > 0; "
            "set deviation.eps_grid to [] to check large deviations only")
    if not dev["feature_map"] or not dev["basis_spec"]:
        raise InvalidInputError(
            "config deviation.feature_map and deviation.basis_spec are required")
    if bool(dev["samples"]) == bool(dev["benchmark"]):
        # with both set, the benchmark, n_samples and seed would go unused
        raise InvalidInputError(
            "config deviation.samples and deviation.benchmark: set exactly one, "
            "a samples path or a benchmark id")
    _make_out_dir(cfg)
    h, fmap = _deviation_h_samples(dev)
    k = dev["k"] if dev["k"] is not None else _polynomial_remez_exponent(fmap)
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
                         help="full-scale sweep: 20 realizations of training "
                              "sizes 50/75/100/250/500 (overrides the config)")
    sub.add_parser("check-deviation", help="verify small/large deviation bounds")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out,
                          full=getattr(args, "full", False))
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return 0
        if args.command is None:
            parser.print_usage()
            return 2
        if args.command == "learn":
            return cmd_learn(cfg, args.samples)
        if args.command == "benchmark":
            return cmd_benchmark(cfg)
        return cmd_check_deviation(cfg)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
