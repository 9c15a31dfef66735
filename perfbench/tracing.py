"""Span tracer for the traced benchmark run.

The tracer wraps loewnerkit's public functions from outside the package.
Modules bind names with ``from .flows import radial_transition``, so each
wrapper is rebound in every loaded ``loewnerkit`` module that holds the
original; the catalog kernels get a counting ``__call__``.

Every wrapped call is a span with a name, start, end, parent and iteration
id; its self time is its duration minus the time of its child spans.
Functions called millions of times per iteration (transition maps and
Herglotz/Pick evaluation) are leaf spans: their calls are merged into one
record per (iteration, parent span, name) holding the call count and the
summed self time, so the trace fits in memory.  Domain checks, Cayley maps
and kernel evaluations are counted without spans.

Counts are computed from call arguments (``np.size`` of point arguments),
so they repeat exactly across runs and stay correct once functions take
arrays.
"""

import functools
import json
import statistics
import time
import types
from collections import Counter, defaultdict

import numpy as np

from loewnerkit import errors

SETUP = -2
WARMUP = -1

perf_counter = time.perf_counter

# module -> {function: span name}; these spans are recorded one by one.
SPANS = {
    "cli": {"validate_config": "cli.validate", "run": "cli.run", "dumps_report": "cli.dumps"},
    "expansions": {
        name: "expansions." + name
        for name in (
            "cayley_isometry_check",
            "chordal_derivative_identity_check",
            "chordal_exp_element_check",
            "chordal_exp_kernel_check",
            "composite_simpson",
            "dbr_element",
            "flow_rule",
            "gauss_legendre",
            "herglotz_mixture_check",
            "integrated_kernel",
            "jb_kernel",
            "koebe_log_element_check",
            "nevanlinna_split_check",
            "paley_wiener_reconstruction_check",
            "pick_constant_element",
            "radial_derivative_identity_check",
            "resolution_check",
        )
    },
    "flows": {"flow_trace": "flows.trace"},
    "kernels": {
        "gram": "kernels.gram",
        "psd_check": "kernels.linalg.psd",
        "rkhs_norm_estimate": "kernels.linalg.solve",
        "membership_test": "kernels.membership",
        "diag_bound_scan": "kernels.diag_bound_scan",
    },
    "sampling": {
        name: "sampling." + name
        for name in (
            "disk_points",
            "rect_points",
            "halfplane_points",
            "point_pairs",
            "disk_pairs",
            "halfplane_pairs",
            "nested_prefix_sets",
            "membership_disk_sets",
            "membership_halfplane_sets",
        )
    },
}
# module -> functions traced as merged leaf spans.
LEAVES = {
    "flows": ("radial_transition", "chordal_transition"),
    "representations": ("herglotz_eval", "pick_eval", "herglotz_atom", "pick_atom"),
}
# module -> {function: counter key}; counted without spans.
COUNTED = {
    "moebius": {
        "require_disk": "moebius.domain_checks",
        "require_halfplane": "moebius.domain_checks",
        "cayley_to_disk": "moebius.cayley.calls",
        "cayley_to_halfplane": "moebius.cayley.calls",
    },
}
CATALOG_KERNELS = ("DbrDiskKernel", "HerglotzSpaceKernel", "PickSpaceKernel", "PaleyWienerKernel", "LoewnerTimeKernel")

# Self-time metric -> predicate on the span names it sums.
TIME_METRICS = {
    "kernels.gram.self_ms": lambda n: n == "kernels.gram",
    "kernels.linalg.ms": lambda n: n.startswith("kernels.linalg."),
    "kernels.membership.self_ms": lambda n: n == "kernels.membership",
    "flows.closed_form.ms": lambda n: n.endswith("[closed-form]"),
    "flows.rk4.ms": lambda n: n.endswith("[rk4]"),
    "expansions.self_ms": lambda n: n.startswith("expansions."),
    "representations.eval.ms": lambda n: n.startswith("representations."),
    "sampling.ms": lambda n: n.startswith("sampling."),
    "cli.validate.ms": lambda n: n == "cli.validate",
    "cli.run.self_ms": lambda n: n == "cli.run",
    "cli.dumps.ms": lambda n: n == "cli.dumps",
}
COUNT_METRICS = (
    "kernels.gram.calls",
    "kernels.gram.entries",
    "kernels.kernel_evals",
    "kernels.linalg.calls",
    "kernels.linalg.max_n",
    "kernels.linalg.flops_computed",
    "kernels.membership.levels",
    "flows.closed_form.points",
    "flows.calls",
    "flows.rk4.points",
    "flows.rk4.steps_computed",
    "flows.escapes",
    "expansions.checks.calls",
    "expansions.quad_samples",
    "representations.eval.calls",
    "moebius.domain_checks",
    "moebius.cayley.calls",
    "sampling.points",
)
RATIO_METRICS = ("kernels.gram.maps_per_point", "flows.rk4.steps_per_sample")


def npoints(value) -> int:
    """np.size of a point argument, with a fast path for Python scalars."""
    if type(value) in (complex, float, int):
        return 1
    return int(np.size(value))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counts for the wrapped loewnerkit functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, iteration, self seconds]
        self.leaves = {}  # (iteration, parent index, name) -> [calls, self seconds]
        self.counts = defaultdict(Counter)  # iteration -> counter
        self._stack = [[0.0, -1]]  # frames: [child seconds, enclosing recorded span]
        self._gram_depth = 0
        self.set_iteration(SETUP)

    def set_iteration(self, iteration):
        """Attribute the following spans and counts to ``iteration``."""
        self.iteration = iteration
        self.current = self.counts[iteration]

    # --- installation -------------------------------------------------

    def install(self, modules):
        """Wrap the traced functions; ``modules`` maps short names such as
        "flows" to every loaded loewnerkit module object.  Functions that a
        later version no longer has are skipped."""
        replacements = {}

        def add(mod, fn_name, wrap):
            original = getattr(modules[mod], fn_name, None)
            if original is not None:
                replacements[original] = wrap(original)

        for mod, table in SPANS.items():
            for fn_name, span_name in table.items():
                add(mod, fn_name, lambda fn: self._span(span_name, fn))
        for mod, names in LEAVES.items():
            for fn_name in names:
                add(mod, fn_name, lambda fn: self._span(f"{mod}.{fn_name}", fn, leaf=True))
        for mod, table in COUNTED.items():
            for fn_name, key in table.items():
                add(mod, fn_name, lambda fn: self._counter(key, fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    setattr(module, attr, replacements[value])
        for cls_name in CATALOG_KERNELS:
            cls = getattr(modules["kernels"], cls_name, None)
            if cls is not None:
                cls.__call__ = self._counter("kernels.kernel_evals", cls.__call__)

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.current[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn, leaf=False):
        tracer = self
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        observe = _OBSERVERS.get(name)
        is_gram = name == "kernels.gram"
        is_transition = leaf and name.startswith("flows.")

        # A parent's child time is each child's whole wrapper, bookkeeping
        # included, so tracing overhead lands in no layer's self time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w0 = perf_counter()
            iteration = tracer.iteration
            counts = tracer.current
            label = name
            if observe is not None:
                label = observe(tracer, counts, args, kwargs) or name
            parent = stack[-1]
            if leaf:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                record = [label, 0.0, 0.0, parent[1], iteration, 0.0]
                spans.append(record)
            stack.append(frame)
            if is_gram:
                tracer._gram_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except errors.FlowEscapeError:
                if is_transition:
                    counts["flows.escapes"] += 1
                raise
            finally:
                t1 = perf_counter()
                if is_gram:
                    tracer._gram_depth -= 1
                stack.pop()
                own = t1 - t0 - frame[0]
                if leaf:
                    key = (iteration, parent[1], label)
                    merged = leaves.get(key)
                    if merged is None:
                        leaves[key] = [1, own]
                    else:
                        merged[0] += 1
                        merged[1] += own
                else:
                    record[1] = t0
                    record[2] = t1
                    record[5] = own
                parent[0] += perf_counter() - w0

        return traced

    # --- results --------------------------------------------------------

    def iteration_values(self, iteration) -> dict:
        """Self times (ms) and counts of one iteration, by metric name."""
        self_s = Counter()
        for name, _start, _end, _parent, it, own in self.spans:
            if it == iteration:
                self_s[name] += own
        for (it, _parent, name), (_calls, own) in self.leaves.items():
            if it == iteration:
                self_s[name] += own
        values = {metric: 1000.0 * sum(s for n, s in self_s.items() if match(n)) for metric, match in TIME_METRICS.items()}
        counts = self.counts.get(iteration, Counter())
        values.update({metric: counts[metric] for metric in COUNT_METRICS})
        values["kernels.gram.maps_per_point"] = _ratio(counts["kernels.gram.mapped_points"], counts["kernels.gram.points"])
        values["flows.rk4.steps_per_sample"] = _ratio(counts["flows.rk4.steps_computed"], counts["flows.rk4.points"])
        return values

    def write(self, path):
        """Write every span and merged leaf record as JSON lines."""
        with open(path, "w") as handle:
            for name, start, end, parent, iteration, own in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "iteration": iteration, "self_s": own}) + "\n")
            for (iteration, parent, name), (calls, own) in self.leaves.items():
                handle.write(json.dumps({"name": name, "parent": parent, "iteration": iteration, "calls": calls, "self_s": own}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, iterations):
    """Per-layer metrics: median self times over ``iterations`` and the
    counts of one iteration, which must repeat exactly in every iteration.
    Sampling adds the set-up phase, where the workloads other than
    suite-all build their point sets.

    Returns (metrics, counts identical across iterations).
    """
    per_iteration = [tracer.iteration_values(i) for i in iterations]
    exact = set(COUNT_METRICS) | set(RATIO_METRICS)
    steady = all({k: v[k] for k in exact} == {k: per_iteration[0][k] for k in exact} for v in per_iteration)
    metrics = {}
    for metric in TIME_METRICS:
        metrics[metric] = statistics.median(v[metric] for v in per_iteration)
    for metric in exact:
        metrics[metric] = per_iteration[0][metric]
    setup = tracer.iteration_values(SETUP)
    metrics["sampling.ms"] += setup["sampling.ms"]
    metrics["sampling.points"] += setup["sampling.points"]
    return metrics, steady


# --- argument observers: count work and pick the span label --------------


def _observe_transition(family, start_attr, end_attr):
    rk4_label = f"flows.{family}_transition[rk4]"
    closed_label = f"flows.{family}_transition[closed-form]"

    def observe(tracer, counts, args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        t = _arg(args, kwargs, 1, "t" if family == "radial" else "s")
        n = npoints(_arg(args, kwargs, 2, "z"))
        counts["flows.calls"] += 1
        if tracer._gram_depth:
            counts["kernels.gram.mapped_points"] += n
        if spec.backend == "rk4":
            lo, hi = getattr(spec, start_attr), getattr(spec, end_attr)
            steps = np.ceil((np.clip(t, lo, hi) - lo) / spec.ode.step - 1e-12)
            counts["flows.rk4.points"] += n
            counts["flows.rk4.steps_computed"] += n * int(np.sum(np.maximum(steps, 0)))
            return rk4_label
        counts["flows.closed_form.points"] += n
        return closed_label

    return observe


def _observe_gram(tracer, counts, args, kwargs):
    n = len(_arg(args, kwargs, 1, "points"))
    counts["kernels.gram.calls"] += 1
    counts["kernels.gram.points"] += n
    counts["kernels.gram.entries"] += n * n


def _linalg(counts, n, flops):
    counts["kernels.linalg.calls"] += 1
    counts["kernels.linalg.max_n"] = max(counts["kernels.linalg.max_n"], n)
    counts["kernels.linalg.flops_computed"] += flops


def _observe_psd(tracer, counts, args, kwargs):
    k = _arg(args, kwargs, 0, "k")
    n = int(np.shape(getattr(k, "matrix", k))[0])
    # Hermitian eigenvalues only: tridiagonal reduction, (4/3) n^3 complex
    # multiply-adds of 4 real flops each.
    _linalg(counts, n, 16 * n**3 // 3)


def _observe_solve(tracer, counts, args, kwargs):
    n = len(_arg(args, kwargs, 1, "points"))
    # Complex LU, (2/3) n^3 multiply-adds, plus two triangular solves.
    _linalg(counts, n, 8 * n**3 // 3 + 8 * n * n)


def _observe_membership(tracer, counts, args, kwargs):
    counts["kernels.membership.levels"] += len(_arg(args, kwargs, 2, "nested_sets"))


def _observe_check(tracer, counts, args, kwargs):
    counts["expansions.checks.calls"] += 1
    rule = args[1] if len(args) > 1 else kwargs.get("rule")
    if hasattr(rule, "nodes"):
        points = args[2] if len(args) > 2 else kwargs.get("points", kwargs.get("point_pairs"))
        counts["expansions.quad_samples"] += npoints(rule.nodes) * len(points)


def _observe_points(tracer, counts, args, kwargs):
    counts["sampling.points"] += int(_arg(args, kwargs, 0, "n"))


def _observe_eval(tracer, counts, args, kwargs):
    counts["representations.eval.calls"] += 1


_OBSERVERS = {
    "flows.radial_transition": _observe_transition("radial", "a", "b"),
    "flows.chordal_transition": _observe_transition("chordal", "r", "s"),
    "kernels.gram": _observe_gram,
    "kernels.linalg.psd": _observe_psd,
    "kernels.linalg.solve": _observe_solve,
    "kernels.membership": _observe_membership,
    "sampling.disk_points": _observe_points,
    "sampling.rect_points": _observe_points,
}
_OBSERVERS.update({name: _observe_check for name in SPANS["expansions"].values() if name.endswith("_check")})
_OBSERVERS.update({f"representations.{name}": _observe_eval for name in LEAVES["representations"]})
