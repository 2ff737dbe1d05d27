"""Spans and counters around flipforge's public functions, recorded from outside.

``Tracer.install`` replaces every module attribute bound to a traced function
with one wrapper, so a call is caught whichever name the caller imported
(``from .flips import flippable_circuits`` gives ``search``, ``training`` and
``frst`` their own references).  The program's code is never edited.

A span is ``(name, start, end, parent)``, kept in memory and written once at
exit.  Counters are taken at the same call boundaries, so every ratio is
measured where the work happens.  ``summarize`` turns the written file into
``<module>.<function>.<stat>`` figures; self time is a span's duration minus
the durations of its direct children.  The program runs one process with no
worker pool and nothing in it queues or waits, so no wait time is reported.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# Traced entry points per module.  ``io`` is traced as a whole (every public
# function) and summarized as one layer.
TARGETS = {
    "flips": ("enumerate_circuits", "flippable_circuits", "apply_flip", "enumerate_component"),
    "triangulation": ("validate", "is_regular", "regularity_constraints", "regular_from_heights"),
    "lp": ("feasible_point",),
    "geometry": ("convex_hull", "dependence_kernel", "simplex_volume"),
    "objectives": ("evaluate",),
    "search": ("run_budgeted",),
    "policy": ("encode", "actor_logits", "value_estimate"),
    "autodiff": ("backward", "adam_step"),
    "training": ("collect_rollouts", "ppo_update"),
    "frst": ("nearby_frst_episode", "star_closure", "is_frst"),
    "datagen": ("generate", "seed_triangulations"),
}

COMMANDS = ("gen", "search", "train", "sample-frst")


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cache_hit(args, kwargs):
    objective, tri = args[0], args[1]
    cache = args[3] if len(args) > 3 else kwargs.get("cache")
    return cache is not None and (objective, tri.canonical_key) in cache.values


# Counters taken before a call, from its arguments: span name -> {stat: fn(args, kwargs)}.
BEFORE = {"objectives.evaluate": {"hits": _cache_hit}}

# Counters taken after a call: span name -> {stat: fn(args, kwargs, result)}.
AFTER = {
    "flips.enumerate_circuits": {"circuits": lambda a, k, r: len(r)},
    "flips.flippable_circuits": {
        "actions": lambda a, k, r: len(r),
        "scanned": lambda a, k, r: len(_arg(a, k, 1, "table")),
    },
    "flips.enumerate_component": {"expansions": lambda a, k, r: r.expansions},
    "lp.feasible_point": {
        "rows": lambda a, k, r: len(_arg(a, k, 0, "rows")),
        "none": lambda a, k, r: r is None,
    },
    "search.run_budgeted": {"steps": lambda a, k, r: r.budget_used},
    "training.collect_rollouts": {"transitions": lambda a, k, r: len(r.transitions)},
    "frst.nearby_frst_episode": {"successes": lambda a, k, r: r.success},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent]
        self.counters = defaultdict(float)
        self._stack = []
        self._restore = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        before = tuple(BEFORE.get(name, {}).items())
        after = tuple(AFTER.get(name, {}).items())
        writes = name.startswith("io.write_")
        appends = name.startswith("io.append_")
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            for stat, count in before:
                counters[f"{name}.{stat}"] += count(args, kwargs)
            if appends:
                size_before = _size(_arg(args, kwargs, 0, "path"))
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            record[2] = clock()
            stack.pop()
            for stat, count in after:
                counters[f"{name}.{stat}"] += count(args, kwargs, result)
            if writes:
                counters["io.bytes_written"] += _size(_arg(args, kwargs, 0, "path"))
            elif appends:
                counters["io.bytes_written"] += _size(_arg(args, kwargs, 0, "path")) - size_before
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every binding of every traced function in all flipforge modules."""
        import flipforge
        import flipforge.cli  # noqa: F401  (imports every layer)
        from flipforge import io

        targets = {}
        for module, functions in TARGETS.items():
            mod = sys.modules[f"flipforge.{module}"]
            for fn_name in functions:
                targets[id(getattr(mod, fn_name))] = f"{module}.{fn_name}"
        for fn_name, value in vars(io).items():
            if (
                callable(value)
                and not fn_name.startswith("_")
                and getattr(value, "__module__", None) == "flipforge.io"
                and not isinstance(value, type)
            ):
                targets[id(value)] = f"io.{fn_name}"

        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "flipforge" or mod_name.startswith("flipforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                name = targets.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._restore.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def dump(self, path):
        payload = {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans):
    """Self time per span: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(spans)]


def check_spans(names, spans, selfs, eps=1e-6):
    """Problems with one trace's span tree; an empty list when it is sound.

    Every span must be closed, lie inside its parent and have a self time of
    at least ``-eps`` seconds, and the only roots must be ``cli`` spans.  When
    that holds, the self times in each root's tree sum to the root's duration.
    """
    problems = []
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        if not start <= end or end == 0.0:
            problems.append(f"{name}: span {i} was never closed")
        elif parent < 0 and not name.startswith("cli."):
            problems.append(f"{name}: span {i} has no cli root")
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems.append(f"{name}: span {i} lies outside its parent")
        elif selfs[i] < -eps:
            problems.append(f"{name}: span {i} has self time {selfs[i]}")
    return problems


def per_layer_names():
    """Every per-layer metric name ``summarize`` emits, in a fixed order."""
    return list(summarize([]))


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(traces):
    """Per-layer figures over the dumped traces of one or more processes."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    totals = defaultdict(float)  # root span durations
    counters = defaultdict(float)
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        for key, value in trace["counters"].items():
            counters[key] += value
        for (name_id, start, end, _parent), own in zip(spans, self_times(spans)):
            name = names[name_id]
            layer = "io" if name.startswith("io.") else name
            calls[layer] += 1
            self_s[layer] += own
            if name.startswith("cli."):
                totals[name] += end - start
    out = {}
    for module, functions in TARGETS.items():
        for fn in functions:
            key = f"{module}.{fn}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
    out["flips.enumerate_circuits.circuits"] = counters["flips.enumerate_circuits.circuits"]
    out["flips.flippable_circuits.actions"] = counters["flips.flippable_circuits.actions"]
    out["flips.flippable_circuits.yield"] = _ratio(
        counters["flips.flippable_circuits.actions"], counters["flips.flippable_circuits.scanned"]
    )
    out["flips.enumerate_component.expansions"] = counters["flips.enumerate_component.expansions"]
    out["triangulation.regular_from_heights.degenerate"] = _ratio(
        counters["triangulation.regular_from_heights.raised.DegenerateHeights"],
        calls["triangulation.regular_from_heights"],
    )
    out["lp.feasible_point.rows"] = counters["lp.feasible_point.rows"]
    out["lp.feasible_point.infeasible"] = _ratio(
        counters["lp.feasible_point.none"], calls["lp.feasible_point"]
    )
    out["objectives.evaluate.hit_ratio"] = _ratio(
        counters["objectives.evaluate.hits"], calls["objectives.evaluate"]
    )
    out["search.run_budgeted.steps"] = counters["search.run_budgeted.steps"]
    out["training.collect_rollouts.transitions"] = counters["training.collect_rollouts.transitions"]
    out["frst.nearby_frst_episode.success_ratio"] = _ratio(
        counters["frst.nearby_frst_episode.successes"], calls["frst.nearby_frst_episode"]
    )
    out["io.calls"] = calls["io"]
    out["io.self_s"] = self_s["io"]
    out["io.bytes_written"] = counters["io.bytes_written"]
    for command in COMMANDS:
        out[f"cli.{command}.total_s"] = totals[f"cli.{command}"]
    return out
