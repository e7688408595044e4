"""Spans and counters installed from outside the ``handeye`` package.

The traced run wraps named functions of each layer (a module under
``src/handeye/``) where they are looked up: in every ``handeye`` module
namespace that binds the function, and in every module-level table that
holds it, such as ``solvers.SOLVERS``.  Nothing in the program changes;
``Tracer.restore`` puts every original back.  A wrapped name that a
refactor removed is reported as absent, not as an error.

Spans are ``(name, start, end, parent, op, note)`` records, kept in memory
and written out when the run ends.  ``parent`` is the index of the
enclosing span (-1 for none), ``op`` the index of the CLI call that caused
the span, and ``note`` the exception class name of a failed call, or the
``iterations`` attribute of the returned value when it has one (the
nonlinear solver's LM iteration count).  While tracing they are stored in
columns of flat arrays: a list per span would be one more object for the
garbage collector to traverse on every collection, which slows the traced
program more the longer it runs.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name).  Span names are the per-layer metric
# prefixes; the text before the first dot is the layer.
SPANS = (
    ("cli", "main", "cli.main"),
    ("datafiles", "load_dataset", "datafiles.load_dataset"),
    ("datafiles", "save_solution", "datafiles.save_solution"),
    ("geometry", "classical_constraints", "geometry.classical_constraints"),
    ("geometry", "perspective_constraints", "geometry.perspective_constraints"),
    ("geometry", "motion_constraint", "geometry.motion_constraint"),
    ("simulate", "noise_sweep", "simulate.noise_sweep"),
    ("simulate", "motion_count_sweep", "simulate.motion_count_sweep"),
    ("solvers", "solve_tsai_lenz", "solvers.tsai_lenz"),
    ("solvers", "solve_closed_form", "solvers.closed_form"),
    ("solvers", "solve_nonlinear", "solvers.nonlinear"),
    ("solvers", "eigen_sym4", "solvers.eigen_sym4"),
    ("solvers", "solve_translation_ls", "solvers.solve_translation_ls"),
    ("solvers", "axis_alignment_matrix", "solvers.axis_alignment_matrix"),
)

# Modules whose functions are counted, not timed: thousands of tiny calls
# per run would otherwise inflate their callers' self time.
COUNTED = ("quaternion",)

LAYERS = ("cli", "datafiles", "geometry", "simulate", "solvers")

SOLVER_SPANS = {
    "solvers.tsai_lenz": "tsai_lenz",
    "solvers.closed_form": "closed_form",
    "solvers.nonlinear": "nonlinear",
}


class Tracer:
    """Collects spans and call counts while its wrappers are installed."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._names: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._op = array("l")
        self._notes: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self._names, self._start, self._end, self._parent, self._op, self._notes))

    def _span(self, name: str, fn):
        names, starts, ends, notes = self._names, self._start, self._end, self._notes
        parents, ops, stack, clock = self._parent, self._op, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            if stack:
                parents.append(stack[-1])
                ops.append(ops[stack[-1]])
            else:
                parents.append(-1)
                ops.append(ops[-1] + 1 if ops else 0)
            names.append(name)
            ends.append(0.0)
            notes.append(None)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                notes[index] = type(err).__name__
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            notes[index] = getattr(result, "iterations", None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict) and not key.startswith("__"):
                    for table_key, entry in list(value.items()):
                        if entry is original:
                            self._patches.append((value, table_key, original))
                            value[table_key] = wrapper

    def install(self, package: str = "handeye") -> "Tracer":
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        for module_name, attr, span_name in SPANS:
            original = getattr(by_name.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._replace(modules, original, self._span(span_name, original))
        for module_name in COUNTED:
            module = by_name.get(module_name)
            if module is None:
                self.absent.append(module_name)
                continue
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._replace(modules, fn, self._counter(f"{module_name}.{attr}", fn))
        return self

    def restore(self) -> None:
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, unit in (("_pct", "%"), ("ms_per_call", "ms"), ("ms_per_trial", "ms"),
                         ("us_per_call", "us"), ("us_per_iteration", "us"), ("self_us", "us")):
        if metric.endswith(suffix):
            return unit
    return "count"


def self_times(spans) -> tuple[list[float], list[float]]:
    """Duration and self time of every span.

    Calls are sequential, so a span's direct children never overlap and
    its self time is its duration minus the sum of theirs.
    """
    durations = [end - start for _, start, end, *_ in spans]
    own = list(durations)
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            own[parent] -= durations[index]
    return durations, own


def layer_metrics(spans, counts, trials: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``trials`` is the number of Monte-Carlo trials the phase ran; a
    ``calibrate`` call counts as one trial.  ``*_per_call`` figures are
    inclusive of child spans, ``self_*`` figures exclude them.  A function
    that was never called reports 0 for its per-call time.  Counts,
    failed solves included, are per trial, so that they do not grow with
    the number of cycles a faster machine fits into the phase.
    """
    durations, own = self_times(spans)
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_total: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    root_time = 0.0
    iterations: list[int] = []
    failed: Counter = Counter()
    for index, (name, _, _, parent, _, note) in enumerate(spans):
        calls[name] += 1
        total[name] += durations[index]
        self_total[name] += own[index]
        layer_self[name.partition(".")[0]] += own[index]
        if parent < 0:
            root_time += durations[index]
        if name == "solvers.nonlinear" and isinstance(note, int):
            iterations.append(note)
        if (
            name in SOLVER_SPANS
            and isinstance(note, str)
            and (parent < 0 or spans[parent][0] not in SOLVER_SPANS)
        ):
            failed[SOLVER_SPANS[name]] += 1

    def per_call(name: str, scale: float) -> float:
        return scale * total[name] / calls[name] if calls[name] else 0.0

    def self_per_call(name: str, scale: float) -> float:
        return scale * self_total[name] / calls[name] if calls[name] else 0.0

    def per_trial(value: float) -> float:
        return value / trials if trials else 0.0

    metrics = {
        "datafiles.load_dataset.ms_per_call": per_call("datafiles.load_dataset", 1e3),
        "datafiles.save_solution.ms_per_call": per_call("datafiles.save_solution", 1e3),
        "datafiles.calls_per_trial": per_trial(
            sum(n for name, n in calls.items() if name.startswith("datafiles."))
        ),
        "geometry.classical_constraints.ms_per_call": per_call(
            "geometry.classical_constraints", 1e3
        ),
        "geometry.perspective_constraints.ms_per_call": per_call(
            "geometry.perspective_constraints", 1e3
        ),
        "geometry.motion_constraint.us_per_call": per_call("geometry.motion_constraint", 1e6),
        "geometry.motion_constraint.calls_per_trial": per_trial(
            calls["geometry.motion_constraint"]
        ),
        "simulate.self_ms_per_trial": per_trial(1e3 * layer_self["simulate"]),
        "solvers.tsai_lenz.self_us": self_per_call("solvers.tsai_lenz", 1e6),
        "solvers.closed_form.self_us": self_per_call("solvers.closed_form", 1e6),
        "solvers.nonlinear.self_us": self_per_call("solvers.nonlinear", 1e6),
        "solvers.eigen_sym4.us_per_call": per_call("solvers.eigen_sym4", 1e6),
        "solvers.eigen_sym4.calls_per_trial": per_trial(calls["solvers.eigen_sym4"]),
        "solvers.solve_translation_ls.us_per_call": per_call(
            "solvers.solve_translation_ls", 1e6
        ),
        "solvers.solve_translation_ls.calls_per_trial": per_trial(
            calls["solvers.solve_translation_ls"]
        ),
        "solvers.axis_alignment_matrix.calls_per_trial": per_trial(
            calls["solvers.axis_alignment_matrix"]
        ),
        "solvers.lm_iterations_mean": (
            sum(iterations) / len(iterations) if iterations else 0.0
        ),
        "solvers.lm_iterations_max": float(max(iterations, default=0)),
        "solvers.nonlinear.us_per_iteration": (
            1e6 * self_total["solvers.nonlinear"] / sum(iterations) if sum(iterations) else 0.0
        ),
        "quaternion.calls_per_trial": per_trial(
            sum(n for name, n in counts.items() if name.startswith("quaternion."))
        ),
    }
    for method in SOLVER_SPANS.values():
        metrics[f"solvers.failed.{method}"] = per_trial(failed[method])
    for layer in LAYERS:
        metrics[f"share.{layer}_pct"] = (
            100.0 * layer_self[layer] / root_time if root_time else 0.0
        )
    return metrics
