"""Span recording around the library's layer boundaries, and the per-layer
metrics derived from the spans.

The wrappers are installed from here, on the module-level names each layer
is called through, and removed again afterwards; no library file changes.
Each span keeps its name, start, end, parent span and run id (the index of
the CLI invocation it belongs to). Spans live in flat arrays while the
benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from sumsetlab import cli, experiments, lattice, theory, types


def _fold_counts(counters, args, kwargs, result):
    # Computed from (h, k, diam), not measured: fold step s ORs k-1 shifted
    # copies of the (s-1)A mask, each at most s*diam+1 bits wide.
    elements, h = args[0], args[1]
    k, diam = len(elements), elements[-1] - elements[0]
    counters["sumset.fold.shift_or_ops"] += (h - 1) * (k - 1)
    counters["sumset.fold.bits_computed"] += (k - 1) * (diam * (h * (h + 1) // 2 - 1) + h - 1)


def _random_draws(counters, args, kwargs, result):
    config = args[0]
    counters["experiments.draws"] += config.samples * config.k


def _minima_draws(counters, args, kwargs, result):
    k, samples = args[1], args[2]
    counters["experiments.draws"] += samples * k


def _truncated(counters, args, kwargs, result):
    counters["lattice.truncated_reports"] += result.truncated


def _cap(counters, args, kwargs, result):
    counters["lattice.caps_swept"] += args[2]


def _vectors(counters, args, kwargs, result):
    counters["lattice.shells.vectors"] += sum(len(v) for v in result.values())


def _compositions(counters, args, kwargs, result):
    counters["types.compositions"] += len(result.class_ids)


def _shells_name(args, kwargs):
    return f"lattice.shells.k{args[0].k}"


# (owner, attribute, span name or a function of the call's arguments,
# optional counter hook). Each owner attribute is the name the caller looks
# up at call time, so wrapping it sees every call made through it.
WRAP_POINTS = (
    (cli, "main", "cli", None),
    (experiments, "random_subset_experiment", "experiments", _random_draws),
    (experiments, "exhaustive_scan", "experiments", None),
    (experiments, "minima_statistics", "experiments", _minima_draws),
    (experiments, "type_census", "experiments", None),
    (experiments, "fold_size", "sumset.fold", _fold_counts),
    (experiments, "find_minima", "lattice.find_minima", _truncated),
    (experiments, "h_type", "types.h_type", _compositions),
    (theory, "verify_main_theorem", "theory.verify", None),
    (theory, "find_minima", "lattice.find_minima", _truncated),
    (theory, "fold_sizes", "sumset.fold_sizes", None),
    (lattice, "successive_minima", "lattice.sweep", _cap),
    (lattice, "lattice_shells", _shells_name, _vectors),
    (types, "h_type", "types.h_type", _compositions),
    (types, "enumerate_compositions", "core.compositions", None),
    (types, "product_type", "types.product_type", None),
    (types, "product_to_sum", "types.product_to_sum", None),
    (types.LogLinear, "floor", "types.loglinear.floor", None),
    (types.LogLinear, "sign_lower_bound", "types.loglinear.sign_lb", None),
)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.counters: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, original, span, observe):
        stack = self._stack
        fixed_id = self._name_id(span) if isinstance(span, str) else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(fixed_id if fixed_id is not None else self._name_id(span(args, kwargs)))
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every wrap point for the duration of the block, then put
        each original object back."""
        saved = []
        try:
            for owner, attr, span, observe in WRAP_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children, in the
    units of start/end. Children of one span never overlap, because the
    spans come from nested synchronous calls."""
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def tail_value(values) -> float:
    """The value at the highest percentile that still has at least ten
    samples beyond it; 0 with fewer than eleven samples."""
    ordered = sorted(values)
    return float(ordered[-11]) if len(ordered) >= 11 else 0.0


def layer_metrics(tracer: Tracer, passes: int, pass_wall_s: float) -> dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` traced passes that
    took `pass_wall_s` seconds in all."""
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    n_names = len(tracer.names)
    self_ns = np.bincount(a["name"], weights=own, minlength=n_names)
    calls = np.bincount(a["name"], minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def count(name):
        return float(calls[ids[name]]) / passes if name in ids else 0.0

    def self_s(name):
        return float(self_ns[ids[name]]) / 1e9 / passes if name in ids else 0.0

    def counter(name):
        return tracer.counters[name] / passes

    def durations_ms(name):
        return dur[a["name"] == ids[name]] / 1e6 if name in ids else np.zeros(0)

    fold_calls = count("sumset.fold")
    draws = counter("experiments.draws")
    sweeps = count("lattice.sweep")
    minima_ms = durations_ms("lattice.find_minima")
    return {
        "sumset.fold.calls": fold_calls,
        "sumset.fold.self_s": self_s("sumset.fold"),
        "sumset.fold.us_per_call": self_s("sumset.fold") / fold_calls * 1e6 if fold_calls else 0.0,
        "sumset.fold.shift_or_ops": counter("sumset.fold.shift_or_ops"),
        "sumset.fold.bits_computed": counter("sumset.fold.bits_computed"),
        "sumset.fold_sizes.self_s": self_s("sumset.fold_sizes"),
        "experiments.self_s": self_s("experiments"),
        "experiments.draws": draws,
        "experiments.ns_per_draw": self_s("experiments") / draws * 1e9 if draws else 0.0,
        "lattice.find_minima.calls": count("lattice.find_minima"),
        "lattice.find_minima.ms.p50": float(np.median(minima_ms)) if len(minima_ms) else 0.0,
        "lattice.find_minima.ms.tail": tail_value(minima_ms),
        "lattice.sweeps": sweeps,
        "lattice.sweep_useful_ratio": count("lattice.find_minima") / sweeps if sweeps else 0.0,
        "lattice.caps_swept": counter("lattice.caps_swept"),
        "lattice.shells.self_s.k4": self_s("lattice.shells.k4"),
        "lattice.shells.self_s.k5": self_s("lattice.shells.k5"),
        "lattice.shells.vectors": counter("lattice.shells.vectors"),
        "lattice.echelon.self_s": self_s("lattice.sweep"),
        "lattice.truncated_reports": counter("lattice.truncated_reports"),
        "theory.verify.calls": count("theory.verify"),
        "theory.verify.self_s": self_s("theory.verify"),
        "types.h_type.calls": count("types.h_type"),
        "types.h_type.self_s": self_s("types.h_type"),
        "types.compositions": counter("types.compositions"),
        "core.compositions.self_s": self_s("core.compositions"),
        "types.loglinear.floor.calls": count("types.loglinear.floor"),
        "types.loglinear.floor.self_s": self_s("types.loglinear.floor"),
        "types.loglinear.sign_lb.self_s": self_s("types.loglinear.sign_lb"),
        "types.product_type.self_s": self_s("types.product_type"),
        "types.product_to_sum.self_s": self_s("types.product_to_sum"),
        "cli.calls": count("cli"),
        "cli.self_s": self_s("cli"),
        "trace.self_coverage": float(own.sum()) / 1e9 / pass_wall_s if pass_wall_s else 0.0,
    }
