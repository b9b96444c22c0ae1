"""Self-test of the benchmark at tiny problem sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload it runs the benchmark once untraced and twice traced with
``--scale tiny`` and checks that

* each run exits 0 and ends with a correct result JSON that carries every
  metric BENCHMARK.json declares for its mode, with the declared unit;
* every metric the benchmark defines is printed as a ``metric`` line with a
  unit (the end-to-end ones by workload kind, the per-layer ones always);
* every count-type per-layer metric repeats exactly across the two traced
  runs.

Exit code 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-sur", "sweep-gli", "learn-cli")

END_TO_END = {
    "all": ("setup_s", "wall_s", "peak_rss_mb", "failed_frac", "J_test_p50"),
    "sweep": ("cell_p50_s", "err_test_p50"),
    "learn-cli": ("learn_s", "check_deviation_s"),
}
_DESCENT = "grassmann.minimize_poincare_loss"
PER_LAYER = (
    "basis.jacobian_batch.calls", "basis.jacobian_batch.rows",
    "basis.jacobian_batch.bytes_computed", "basis.jacobian_batch.self_s",
    "basis.assemble_gram.calls", "basis.assemble_gram.self_s",
    "basis.assemble_gram.underdetermined",
    "surrogate.SurrogateMatrices.builds", "surrogate.SurrogateMatrices.init_s",
    *(f"surrogate.{f}.{s}" for f in ("surrogate_matrices",
                                     "coordinate_surrogate_matrices",
                                     "min_generalized_eig", "greedy_features",
                                     "poincare_loss")
      for s in ("calls", "self_s")),
    "surrogate.FeatureMap.gradients.self_s",
    *(f"{_DESCENT}.{s}" for s in ("calls", "self_s", "iterations", "grad_evals",
                                  "loss_evals", "loss_evals_per_step",
                                  "hit_max_iters")),
    *(f"grassmann.{f}.{s}" for f in ("learn_features", "active_subspace_init")
      for s in ("calls", "self_s")),
    "regression.cv_select_krr.calls", "regression.cv_select_krr.self_s",
    "regression.cv_select_krr.eigh_solves",
    *(f"regression.{f}.{s}" for f in ("cv_select_basis", "krr_fit", "krr_predict")
      for s in ("calls", "self_s")),
    *(f"deviation.{f}.{s}" for f in ("check_small_deviation",
                                     "check_large_deviation")
      for s in ("self_s", "samples")),
    *(f"benchmarks.{f}.{s}" for f in ("make_samples", "read_samples_csv")
      for s in ("calls", "rows", "self_s")),
    *(f"cli.main.{c}.{s}" for c in ("learn", "check-deviation")
      for s in ("calls", "self_s")),
    *(f"{m}.self_s" for m in ("basis", "surrogate", "grassmann", "regression",
                              "deviation", "benchmarks", "cli")),
    "trace.overhead_s",
)
COUNT_UNITS = ("count", "bytes")
_METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def run(workload, trace):
    cmd = [sys.executable, "-B", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        match = _METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (match.group(2), match.group(3))
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, done.stderr, printed, result


def check_run(label, declared, expected, outcome, problems):
    code, stderr, printed, result = outcome
    if code != 0 or not result or not result.get("correct"):
        problems.append(f"{label}: exit {code}, result {result}, stderr {stderr[-500:]}")
        return
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"{label}: attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    if set(result["metrics"]) != set(declared):
        problems.append(f"{label}: JSON metrics {sorted(result['metrics'])} "
                        f"differ from BENCHMARK.json {sorted(declared)}")
    for name, unit in declared.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: JSON metric {name} is {got}, unit {unit}")
    for name in expected:
        if name not in printed:
            problems.append(f"{label}: metric {name} not printed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    problems = []
    for workload in WORKLOADS:
        kind = "learn-cli" if workload == "learn-cli" else "sweep"
        check_run(f"{workload} untraced", declared["end_to_end"],
                  END_TO_END["all"] + END_TO_END[kind], run(workload, 0), problems)
        traced = [run(workload, 1) for _ in range(2)]
        for i, outcome in enumerate(traced):
            check_run(f"{workload} traced #{i + 1}", declared["per_layer"], PER_LAYER,
                      outcome, problems)
        first, second = traced[0][2], traced[1][2]
        for name, (value, unit) in first.items():
            if unit in COUNT_UNITS and second.get(name, (None,))[0] != value:
                problems.append(f"{workload}: counter {name} is {value} then "
                                f"{second.get(name)}")
        print(f"{workload}: {len(first)} per-layer metrics, "
              f"{sum(u in COUNT_UNITS for _, u in first.values())} counters compared")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
