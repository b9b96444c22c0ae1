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
from .grassmann import OptimizerConfig, learn_features
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
            "seed": 0,
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
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise InvalidInputError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge_config(defaults[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


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
        cfg["learn"]["optimizer"]["seed"] = seed
    if out_dir is not None:
        cfg["io"]["out_dir"] = out_dir
    return cfg


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out(cfg):
    out = cfg["io"]["out_dir"]
    os.makedirs(out, exist_ok=True)
    _dump_json(cfg, os.path.join(out, "config.json"))
    return out


def _cv_grid(cfg):
    reg = cfg["regression"]
    return CvGrid(
        log10_gamma=np.linspace(reg["log10_gamma"]["lo"], reg["log10_gamma"]["hi"],
                                int(reg["log10_gamma"]["n"])),
        log10_ridge=np.linspace(reg["log10_ridge"]["lo"], reg["log10_ridge"]["hi"],
                                int(reg["log10_ridge"]["n"])),
        folds=int(reg["folds"]),
        pk_folds=int(reg["pk_folds"]),
    )


def _optimizer(cfg):
    opt = cfg["learn"]["optimizer"]
    return OptimizerConfig(max_iters=int(opt["max_iters"]),
                           grad_tol=float(opt["grad_tol"]),
                           step_init=float(opt["step_init"]),
                           shrink=float(opt["shrink"]),
                           sufficient_decrease=float(opt["sufficient_decrease"]),
                           seed=int(opt["seed"]),
                           trace_path=opt["trace_path"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_learn(cfg, samples_path):
    section = cfg["basis"]
    if not section["families"]:
        raise InvalidInputError(
            "config basis.families is empty; list one family per input dimension")
    families = [family_from_spec(s) for s in section["families"]]
    samples = bm.read_samples_csv(samples_path)
    if samples.dim != len(families):
        raise InvalidInputError(
            f"samples have dim {samples.dim}, basis lists {len(families)} families")
    basis = FeatureBasis(build_index_set(samples.dim, section["p"], section["k"]),
                         families)
    gram = assemble_gram(basis, samples)
    t0 = time.perf_counter()
    fmap, info = learn_features(samples, basis, int(cfg["learn"]["m"]),
                                cfg["learn"]["method"], gram=gram,
                                config=_optimizer(cfg))
    fmap = fmap.orthonormalized(gram)
    wall = time.perf_counter() - t0
    out = _ensure_out(cfg)
    fmap.save(os.path.join(out, "feature_map.txt"),
              os.path.join(out, "basis.json"))
    metrics = {
        "method": cfg["learn"]["method"],
        "m": int(cfg["learn"]["m"]),
        "K": basis.size,
        "loss_init": info["loss_init"],
        "loss_final": poincare_loss(samples, fmap),
        "loss_scale": samples.mean_gradient_norm_sq(),
        "wall_time_s": wall,
    }
    _dump_json(metrics, os.path.join(out, "metrics.json"))
    print(f"learned {metrics['m']} feature(s) with {metrics['method']} "
          f"(K={metrics['K']}): loss {metrics['loss_final']:.6e} "
          f"at scale {metrics['loss_scale']:.6e}")
    return 0


def cmd_benchmark(cfg, full=False):
    exp = cfg["experiment"]
    config = bm.ExperimentConfig(
        benchmark=exp["benchmark"], m=int(exp["m"]),
        methods=tuple(exp["methods"]),
        ntrain_list=tuple(int(n) for n in exp["ntrain_list"]),
        n_test=int(exp["n_test"]),
        n_realizations=int(exp["n_realizations"]),
        seed=int(exp["seed"]), select_pk=bool(exp["select_pk"]),
        fixed_pk=tuple(exp["fixed_pk"]), cv=_cv_grid(cfg),
        optimizer=_optimizer(cfg))
    if full:
        config = config.full_scale()
        cfg = copy.deepcopy(cfg)
        cfg["experiment"]["n_realizations"] = config.n_realizations
        cfg["experiment"]["ntrain_list"] = list(config.ntrain_list)
    report = bm.run_experiment(config)
    out = _ensure_out(cfg)
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
        points = bm.sample_inputs(bench, int(dev["n_samples"]), int(dev["seed"]))
    else:
        raise InvalidInputError(
            "config deviation needs either a samples path or a benchmark id")
    jac = fmap.gradients(points)
    h = np.einsum("ndm->n", jac ** 2)
    return h, fmap


def _resolve_remez(cfg, fmap):
    dev = cfg["deviation"]
    if dev["k"] is not None:
        return float(dev["k"]), float(dev["A"])
    if not fmap.basis.is_polynomial():
        raise InvalidInputError(
            "deviation.k must be given explicitly for a basis with a "
            "log-domain family (the polynomial Remez constants do not apply)")
    ell = fmap.basis.degree() - 1
    if ell < 1:
        raise InvalidInputError("basis degree must be at least 2 to derive k")
    return 2.0 * ell, float(dev["A"])


def cmd_check_deviation(cfg):
    dev = cfg["deviation"]
    if not dev["eps_grid"] and not dev["t_grid"]:
        raise InvalidInputError("deviation.eps_grid and t_grid are both empty")
    h, fmap = _deviation_h_samples(cfg)
    k, A = _resolve_remez(cfg, fmap)
    s = float(dev["s"])
    reports = {}
    if dev["eps_grid"]:
        reports["small"] = check_small_deviation(h, k, A, s, dev["eps_grid"]).to_dict()
    if dev["t_grid"]:
        reports["large"] = check_large_deviation(h, k, A, s, dev["t_grid"]).to_dict()
    out = _ensure_out(cfg)
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
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS thread pools (needs threadpoolctl, "
                             "otherwise ignored); results are bit-reproducible "
                             "for a fixed BLAS thread count, and a different "
                             "count can change them")
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


def _limit_threads(n):
    if n is None:
        return
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass


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
        _limit_threads(args.threads)
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
