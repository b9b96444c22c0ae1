"""Spans and work counters around the public functions of each gradfeat module.

The tracer wraps functions from outside the library: it replaces every
binding of a wrapped function object in the given module namespaces (so
``from .regression import cv_select_basis`` in ``gradfeat.benchmarks`` is
traced as well as ``gradfeat.regression.cv_select_basis``) and restores the
originals when the ``installed`` block ends.  Wrappers only observe
arguments and results, so a traced pass computes exactly what an untraced
pass computes.

Each span records (name, start, end, parent span, cell id).  A span's self
time is its duration minus the durations of its direct children; calls are
nested on one thread, so the children never overlap.

``geometry`` has no spans: the pipeline imports only its rank tolerance
constant ``DEFAULT_RANK_TOL`` from it, so no geometry function runs.
"""

import collections
import contextlib
import inspect
import time
import warnings

import gradfeat.basis
import gradfeat.benchmarks
import gradfeat.cli
import gradfeat.deviation
import gradfeat.grassmann
import gradfeat.regression
import gradfeat.surrogate
from gradfeat.grassmann import OptimizerConfig
from gradfeat.regression import CvGrid

MODULES = ("basis", "surrogate", "grassmann", "regression", "deviation",
           "benchmarks", "cli")

_DESCENT = "grassmann.minimize_poincare_loss"
_GRAM_WARNING = "Gram estimate from"


class Tracer:
    """In-memory span and counter store for one traced section."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, cell id]
        self.counts = collections.Counter()
        self.cell = ""
        self._stack = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.cell]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], collections.Counter()
        return spans, counts

    @contextlib.contextmanager
    def installed(self, namespaces):
        """Wrap every target in ``namespaces`` (modules) for the block's duration."""
        undo = []
        try:
            for owner, attr, name, counter in _targets():
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counter)
                if isinstance(owner, type) or name is None:
                    # class attributes have one binding; counter-only
                    # targets measure one call site
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            undo.append((ns, key, original))
                            setattr(ns, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        if name is None:            # counter only, no span
            def wrapper(*args, **kwargs):
                counter(self, args, kwargs, None)
                return fn(*args, **kwargs)
            return wrapper
        if name == "basis.assemble_gram":
            def wrapper(*args, **kwargs):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = self.call(name, fn, args, kwargs)
                self.counts[name + ".underdetermined"] += sum(
                    str(w.message).startswith(_GRAM_WARNING) for w in caught)
                for w in caught:
                    if not str(w.message).startswith(_GRAM_WARNING):
                        warnings.warn_explicit(w.message, w.category,
                                               w.filename, w.lineno)
                return out
            return wrapper
        if name == "cli.main":
            def wrapper(argv=None):
                command = _subcommand(argv)
                return self.call(f"cli.main.{command}", fn, (argv,), {})
            return wrapper

        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out
        return wrapper


def _subcommand(argv):
    for word in argv or ():
        if word in ("learn", "benchmark", "check-deviation"):
            return word
    return "none"


# ---------------------------------------------------------------------------
# Counters (read arguments and results only)
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_jacobian(tracer, args, kwargs, out):
    tracer.counts["basis.jacobian_batch.rows"] += out.shape[0]
    tracer.counts["basis.jacobian_batch.bytes_computed"] += out.size * 8


def _count_descent(tracer, args, kwargs, out):
    _, trace = out
    config = _bound(_ORIGINALS[_DESCENT], args, kwargs).get("config") \
        or OptimizerConfig()
    iterations = trace[-1][0]
    tracer.counts[_DESCENT + ".iterations"] += iterations
    tracer.counts[_DESCENT + ".grad_evals"] += len(trace)
    tracer.counts[_DESCENT + ".hit_max_iters"] += iterations >= config.max_iters


def _count_loss_eval(tracer, args, kwargs, out):
    # every Armijo trial (and the starting point) re-orthonormalizes once
    # inside the descent; active_subspace_init's call is not a loss evaluation
    if tracer.innermost() == _DESCENT:
        tracer.counts[_DESCENT + ".loss_evals"] += 1


def _count_eigh(tracer, args, kwargs, out):
    grid = _bound(_ORIGINALS["regression.cv_select_krr"], args, kwargs) \
        .get("grid") or CvGrid()
    tracer.counts["regression.cv_select_krr.eigh_solves"] += \
        grid.folds * len(grid.log10_gamma)


def _rows(name):
    def count(tracer, args, kwargs, out):
        tracer.counts[name + ".rows"] += out.n
    return count


def _samples(name):
    def count(tracer, args, kwargs, out):
        tracer.counts[name + ".samples"] += out.n_samples
    return count


def _target_table():
    """(owner, attribute, span name or None, counter) for every wrapped function."""
    b, s, g, r = (gradfeat.basis, gradfeat.surrogate, gradfeat.grassmann,
                  gradfeat.regression)
    d, bm, c = gradfeat.deviation, gradfeat.benchmarks, gradfeat.cli
    return [
        (b.FeatureBasis, "jacobian_batch", "basis.jacobian_batch", _count_jacobian),
        (b, "assemble_gram", "basis.assemble_gram", None),
        (s.SurrogateMatrices, "__post_init__", "surrogate.SurrogateMatrices", None),
        (s, "surrogate_matrices", "surrogate.surrogate_matrices", None),
        (s, "coordinate_surrogate_matrices",
         "surrogate.coordinate_surrogate_matrices", None),
        (s, "min_generalized_eig", "surrogate.min_generalized_eig", None),
        (s, "greedy_features", "surrogate.greedy_features", None),
        (s, "poincare_loss", "surrogate.poincare_loss", None),
        (s.FeatureMap, "gradients", "surrogate.FeatureMap.gradients", None),
        (g, "minimize_poincare_loss", _DESCENT, _count_descent),
        (g, "learn_features", "grassmann.learn_features", None),
        (g, "active_subspace_init", "grassmann.active_subspace_init", None),
        (r, "cv_select_krr", "regression.cv_select_krr", _count_eigh),
        (r, "cv_select_basis", "regression.cv_select_basis", None),
        (r, "krr_fit", "regression.krr_fit", None),
        (r, "krr_predict", "regression.krr_predict", None),
        (d, "check_small_deviation", "deviation.check_small_deviation",
         _samples("deviation.check_small_deviation")),
        (d, "check_large_deviation", "deviation.check_large_deviation",
         _samples("deviation.check_large_deviation")),
        (bm, "make_samples", "benchmarks.make_samples",
         _rows("benchmarks.make_samples")),
        (bm, "read_samples_csv", "benchmarks.read_samples_csv",
         _rows("benchmarks.read_samples_csv")),
        (bm, "run_experiment", "benchmarks.run_experiment", None),
        (c, "main", "cli.main", None),
    ]


_TARGETS = _target_table()
_ORIGINALS = {name: getattr(owner, attr) for owner, attr, name, _ in _TARGETS}


def _targets():
    yield from _TARGETS
    # the loss-evaluation counter sits on grassmann's own binding only
    yield gradfeat.grassmann, "orthonormalize", None, _count_loss_eval


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SPAN_NAMES = [name for _, _, name, _ in _TARGETS if name != "cli.main"] + \
    ["cli.main.learn", "cli.main.check-deviation"]


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_stats(spans, counts):
    """Counts and self times by span name and by module for one traced section.

    Returns ``(counts, times)``: exact integer counters and self times in
    seconds, each keyed by metric name.
    """
    calls = collections.Counter(name for name, *_ in spans)
    own = self_times(spans)
    by_span = collections.defaultdict(float)
    by_module = collections.defaultdict(float)
    for span, t in zip(spans, own):
        by_span[span[0]] += t
        by_module[span[0].split(".", 1)[0]] += t
    out_counts = {f"{name}.calls": calls[name] for name in SPAN_NAMES}
    out_counts["surrogate.SurrogateMatrices.builds"] = \
        out_counts.pop("surrogate.SurrogateMatrices.calls")
    for key in ("basis.jacobian_batch.rows", "basis.jacobian_batch.bytes_computed",
                "basis.assemble_gram.underdetermined",
                _DESCENT + ".iterations", _DESCENT + ".grad_evals",
                _DESCENT + ".loss_evals", _DESCENT + ".hit_max_iters",
                "regression.cv_select_krr.eigh_solves",
                "deviation.check_small_deviation.samples",
                "deviation.check_large_deviation.samples",
                "benchmarks.make_samples.rows", "benchmarks.read_samples_csv.rows"):
        out_counts[key] = int(counts[key])
    times = {f"{name}.self_s": by_span[name] for name in SPAN_NAMES}
    times["surrogate.SurrogateMatrices.init_s"] = \
        times.pop("surrogate.SurrogateMatrices.self_s")
    times.update({f"{module}.self_s": by_module[module] for module in MODULES})
    return out_counts, times


def write_spans(path, spans):
    """Spans as CSV: id, name, start, end, parent, cell (times in seconds)."""
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent,cell\n")
        for i, (name, start, end, parent, cell) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{cell}\n")
