"""gradfeat benchmark: closed-loop workloads, end-to-end metrics, and a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-sur --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and described in perfbench/README.md.
The run sets up the workload's inputs from ``--seed``, repeats passes of it
for about ``--seconds`` seconds, checks every pass's outputs, and prints one
``metric <name> = <value> <unit>`` line per metric, an ``environment`` line,
and, last, one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced runs of the first pass and
reports the per-layer metrics.  A failed output check makes the exit code 1.
"""

import time

_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings

# One BLAS thread: on these problem sizes two threads ran slower on a 2-core
# machine, and the last digits of the results depend on the thread count, so
# it is fixed here, before numpy is imported, rather than left to the host.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_SETUPS = 4          # set-ups in fresh processes, besides this process's own


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-sur", "sweep-gli", "learn-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem sizes; 'tiny' is for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    if not os.path.isfile(os.path.join(SRC, "gradfeat", "__init__.py")):
        print(f"error: no gradfeat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gradfeat
    if not os.path.abspath(gradfeat.__file__).startswith(SRC + os.sep):
        print(f"error: imported gradfeat from {gradfeat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    # n < K Gram warnings are expected on the small sweep folds; the traced
    # run counts them
    warnings.filterwarnings("ignore", message="Gram estimate from")

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, args.scale, workdir)
    try:
        if args.setup_only:
            wl.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _START}))
            return 0
        if args.trace:
            return traced_run(args, wl)
        return timed_run(args, wl)
    finally:
        wl.cleanup()


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def repeat_for(seconds, step):
    """Call step(0), step(1), ... while the next call is expected to end in time."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(results) > seconds:
            return results


def child_setup_time(args):
    cmd = [sys.executable, "-B", os.path.join(HERE, "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def code_id():
    """Digest of the library and benchmark sources: 'the same code'."""
    h = hashlib.sha256(f"blas_threads={BLAS_THREADS}".encode())
    for top in (os.path.join(SRC, "gradfeat"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_digests(args, results, problems):
    """Compare each pass's result digest with every earlier run of the same code.

    The store lives in the checkout, so runs of the same code on the same
    seed, in this process or an earlier one, must agree exactly.
    """
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    prefix = f"{code_id()}/{args.workload}/{args.scale}/seed{args.seed}"
    for inputs, digest in results:
        key = f"{prefix}/{inputs}"
        if store.setdefault(key, digest) != digest:
            problems.append(f"result digest of {key} is {digest}, "
                            f"an earlier run gave {store[key]}")
    os.makedirs(WORK, exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def timing_note(values, what):
    """Median note with the highest percentile that has ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"median of {n} {what}; too few for a tail percentile"
    q = int(100 * (1 - 10 / n))
    tail = sorted(values)[min(n - 1, -(-q * n // 100) - 1)]
    return f"median of {n} {what}; p{q} = {tail:.4f}"


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": vendor,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def report(args, table, kind, attempted, failed, problems):
    """Print the metric lines, the environment and the final JSON; return the exit code."""
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}")
    for name, (value, unit, note) in table.items():
        print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    print("environment " + json.dumps(environment(), sort_keys=True))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)
    metrics = {}
    for name, unit in declared_metrics(kind):
        value, measured_unit, _ = table[name]
        if measured_unit != unit:
            raise ValueError(f"{name} is measured in {measured_unit}, "
                             f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def op_counts(passes):
    ops = [ok for p in passes for _, _, ok in p.ops]
    return len(ops), sum(not ok for ok in ops)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_run(args, wl):
    wl.setup()
    setups = [time.perf_counter() - _START]
    setups += [child_setup_time(args) for _ in range(CHILD_SETUPS)]

    def step(index):
        result = wl.run_pass(index)
        wl.check(result)
        return result

    passes = repeat_for(args.seconds, step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for result in passes for p in result.problems]
    check_digests(args, [(wl.inputs_of(i), r.digest()) for i, r in enumerate(passes)],
                  problems)
    attempted, failed = op_counts(passes)
    walls = [p.wall_s for p in passes]
    table = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups, {CHILD_SETUPS} in fresh processes"),
        "wall_s": (statistics.median(walls), "s", timing_note(walls, "passes")
                   + "; passes " + " ".join(f"{w:.3f}" for w in walls)),
    }
    for kind, name in (("cell", "cell_p50_s"), ("learn", "learn_s"),
                       ("check_deviation", "check_deviation_s")):
        times = [t for p in passes for k, t, _ in p.ops if k == kind]
        if times:
            table[name] = (statistics.median(times), "s",
                           timing_note(times, kind.replace("_", "-") + " calls"))
    table["peak_rss_mb"] = (peak_rss_mb, "MB", "peak resident set of this process")
    table["failed_frac"] = (failed / attempted, "ratio",
                            f"{failed} of {attempted} operations failed")
    # quality of the first pass only: the same inputs on every run of a seed
    for key, name, unit in (("J_test", "J_test_p50", "loss"),
                            ("err_test", "err_test_p50", "rmse")):
        values = passes[0].quality.get(key)
        if values:
            table[name] = (statistics.median(values), unit,
                           f"median over the {len(values)} results of pass 0")
    return report(args, table, "end_to_end", attempted, failed, problems)


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(args, wl):
    import tracing
    import workloads
    namespaces = [module for name, module in sorted(sys.modules.items())
                  if name == "gradfeat" or name.startswith("gradfeat.")]
    namespaces.append(workloads)
    tracer = tracing.Tracer()
    tracer.cell = "setup"
    with tracer.installed(namespaces):
        wl.setup()
    setup_spans, setup_counts = tracer.take()
    setup_stats = tracing.layer_stats(setup_spans, setup_counts)

    def step(_):
        plain = wl.run_pass(0)
        wl.check(plain)
        with tracer.installed(namespaces):
            traced = wl.run_pass(0, tracer)
        wl.check(traced)
        spans, counts = tracer.take()
        return plain, traced, spans, tracing.layer_stats(spans, counts)

    pairs = repeat_for(args.seconds, step)
    passes = [p for plain, traced, _, _ in pairs for p in (plain, traced)]
    problems = [p for result in passes for p in result.problems]
    check_digests(args, [(wl.inputs_of(0), r.digest()) for r in passes], problems)

    first_counts = pairs[0][3][0]
    for i, (_, _, _, (counts, _)) in enumerate(pairs[1:], start=1):
        changed = sorted(k for k in counts if counts[k] != first_counts[k])
        if changed:
            problems.append(f"counters changed on repeated traced pass {i}: {changed}")
    counts = {k: v + setup_stats[0][k] for k, v in first_counts.items()}
    times = {k: v + statistics.median(stats[1][k] for _, _, _, stats in pairs)
             for k, v in setup_stats[1].items()}

    table = {}
    for name, value in counts.items():
        unit = "bytes" if name.endswith("bytes_computed") else "count"
        table[name] = (value, unit, "")
    descent = "grassmann.minimize_poincare_loss"
    steps = counts[descent + ".iterations"]
    table[descent + ".loss_evals_per_step"] = (
        counts[descent + ".loss_evals"] / steps if steps else 0.0, "evals/step",
        "loss_evals / iterations")
    for name, value in times.items():
        table[name] = (value, "s", f"median of {len(pairs)} traced passes")
    overheads = [traced.wall_s - plain.wall_s for plain, traced, _, _ in pairs]
    table["trace.untraced_wall_s"] = (
        statistics.median(plain.wall_s for plain, _, _, _ in pairs), "s",
        f"median of {len(pairs)} untraced runs of pass 0")
    table["trace.overhead_s"] = (statistics.median(overheads), "s",
                                 "traced wall_s minus untraced wall_s of pass 0")

    os.makedirs(WORK, exist_ok=True)
    spans = setup_spans + [[n, s, e, p + len(setup_spans) if p >= 0 else -1, c]
                           for n, s, e, p, c in pairs[0][2]]
    tracing.write_spans(os.path.join(
        WORK, f"spans-{args.workload}-{args.scale}-seed{args.seed}.csv"), spans)
    attempted, failed = op_counts(passes)
    return report(args, table, "per_layer", attempted, failed, problems)


if __name__ == "__main__":
    sys.exit(main())
