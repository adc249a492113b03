"""In-process span tracing of pskexp's module boundaries.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
names each pskexp module binds at its boundaries (for example the
``chernoff_values`` and ``linprog`` that ``pskexp.exponent`` calls) with
wrappers that record one span per call: name, start, end, parent and the
trace id of the operation.  Spans stay in memory until the run writes them.
Nothing in pskexp changes; the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import time
from collections import defaultdict


def _size(args, kwargs):
    return {"elements": int(getattr(args[0], "size", 1))}


def _nit(args, kwargs, result):
    return {"nit": int(result.nit)}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.diagnostics.get("iterations", 0))}


def _repairs(args, kwargs, result):
    return {"repair_moves": int(getattr(result, "_repair_moves", 0))}


def _trials(args, kwargs):
    policy = args[0]
    trials = args[1] if len(args) > 1 else kwargs["trials_per_hypothesis"]
    return {
        "trials": int(trials) * policy.constellation.num_states,
        "groups": len(set(policy.displacements)),
    }


def _box(args, kwargs, result):
    return {
        "box_cells": math.prod(y + 1 for y in result.y_max),
        "tail_bound": float(result.tail_bound),
    }


#: (module, bound name, span name, counter from the arguments, counter from
#: the result).  Span names are ``<layer>.<function>``, the layer being the
#: pskexp module that owns the work; scipy's solvers count as the exponent
#: layer that calls them.
TARGETS = (
    ("pskexp.cli", "optimize_binary", "exponent.optimize_binary", None, None),
    ("pskexp.cli", "optimize_general", "exponent.optimize_general", None, _iterations),
    ("pskexp.cli", "verify_claims", "exponent.verify_claims", None, None),
    ("pskexp.cli", "exponent_of", "exponent.exponent_of", None, None),
    ("pskexp.cli", "realize_policy", "receiver.realize_policy", None, _repairs),
    ("pskexp.cli", "monte_carlo", "receiver.monte_carlo", _trials, None),
    ("pskexp.cli", "theorem_bound", "baselines.theorem_bound", None, None),
    ("pskexp.cli", "helstrom_binary", "baselines.helstrom_binary", None, None),
    ("pskexp.cli", "homodyne_binary", "baselines.homodyne_binary", None, None),
    ("pskexp.exponent", "optimize_binary", "exponent.optimize_binary", None, None),
    ("pskexp.exponent", "pair_exponent", "exponent.pair_exponent", None, None),
    ("pskexp.exponent", "chernoff_values", "divergence.chernoff_values", _size, None),
    ("pskexp.exponent", "golden_section_max", "divergence.golden_section_max", None, None),
    ("pskexp.exponent", "normalized_rates", "constellation.normalized_rates", None, None),
    ("pskexp.exponent", "linprog", "exponent.linprog", None, _nit),
    ("pskexp.exponent", "minimize", "exponent.minimize", None, _nfev),
    ("pskexp.divergence", "golden_section_max", "divergence.golden_section_max", None, None),
    ("pskexp.divergence", "max_chernoff", "divergence.max_chernoff", None, None),
    ("pskexp.receiver", "normalized_rates", "constellation.normalized_rates", None, None),
    ("pskexp.receiver", "realize_policy", "receiver.realize_policy", None, _repairs),
    ("pskexp.receiver", "monte_carlo", "receiver.monte_carlo", _trials, None),
    ("pskexp.receiver", "exact_error_small", "receiver.exact_error_small", None, _box),
)

#: Counters reported as their largest value per call rather than a sum.
_PER_CALL_MAXIMA = ("groups", "tail_bound")

LAYERS = ("cli", "divergence", "constellation", "exponent", "receiver", "baselines")


class Tracer:
    """Collects spans as lists [name, start, end, parent, trace_id, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trace_id = 0

    def _open(self, name: str, counts: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._trace_id, counts])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one operation; every span inside shares its trace id."""
        self._trace_id += 1
        index = self._open(name, {})
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = before(args, kwargs) if before else {}
            # The objective is an argument, so its evaluations are counted by
            # wrapping it rather than from the result.
            if name == "divergence.golden_section_max":
                counts["evals"] = 0
                f = args[0]

                def counted(x):
                    counts["evals"] += 1
                    return f(x)

                args = (counted,) + args[1:]
            index = tracer._open(name, counts)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after:
                counts.update(after(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, before, after in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, trace_id, counts in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "trace": trace_id, **counts}
                    )
                    + "\n"
                )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics aggregated over every recorded span."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        counts = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, parent, _, extra) in enumerate(self.spans):
            duration = end - start
            self_time = duration - child_time[index]
            calls[name] += 1
            total[name] += duration
            own[name] += self_time
            for key, value in extra.items():
                full = f"{name}.{key}"
                if key in _PER_CALL_MAXIMA:
                    counts[full] = max(counts[full], value)
                else:
                    counts[full] += value
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_time
        hull_feeds = sum(
            1
            for name, _, _, parent, _, _ in self.spans
            if name == "divergence.chernoff_values"
            and parent >= 0
            and self.spans[parent][0] == "exponent.optimize_binary"
        )

        def c(name):
            return float(calls[name])

        mc_time = total["receiver.monte_carlo"]
        out = {
            "divergence.chernoff_values.calls": c("divergence.chernoff_values"),
            "divergence.chernoff_values.elements": counts["divergence.chernoff_values.elements"],
            "divergence.chernoff_values.time_s": total["divergence.chernoff_values"],
            "divergence.golden_section_max.calls": c("divergence.golden_section_max"),
            "divergence.golden_section_max.evals": counts["divergence.golden_section_max.evals"],
            "divergence.golden_section_max.time_s": total["divergence.golden_section_max"],
            "divergence.max_chernoff.calls": c("divergence.max_chernoff"),
            "divergence.max_chernoff.time_s": total["divergence.max_chernoff"],
            "constellation.normalized_rates.calls": c("constellation.normalized_rates"),
            "constellation.normalized_rates.time_s": total["constellation.normalized_rates"],
            "exponent.optimize_binary.calls": c("exponent.optimize_binary"),
            "exponent.optimize_binary.time_s": total["exponent.optimize_binary"],
            "exponent.optimize_binary.self_s": own["exponent.optimize_binary"],
            "exponent.optimize_binary.chernoff_calls": (
                hull_feeds / calls["exponent.optimize_binary"]
                if calls["exponent.optimize_binary"]
                else 0.0
            ),
            "exponent.minimize.calls": c("exponent.minimize"),
            "exponent.minimize.nfev": counts["exponent.minimize.nfev"],
            "exponent.minimize.time_s": total["exponent.minimize"],
            "exponent.pair_exponent.calls": c("exponent.pair_exponent"),
            "exponent.pair_exponent.time_s": total["exponent.pair_exponent"],
            "exponent.optimize_general.calls": c("exponent.optimize_general"),
            "exponent.optimize_general.time_s": total["exponent.optimize_general"],
            "exponent.optimize_general.iterations": counts["exponent.optimize_general.iterations"],
            "exponent.optimize_general.self_s": own["exponent.optimize_general"],
            "exponent.linprog.calls": c("exponent.linprog"),
            "exponent.linprog.nit": counts["exponent.linprog.nit"],
            "exponent.linprog.time_s": total["exponent.linprog"],
            "exponent.verify_claims.time_s": total["exponent.verify_claims"],
            "exponent.verify_claims.self_s": own["exponent.verify_claims"],
            "receiver.realize_policy.time_s": total["receiver.realize_policy"],
            "receiver.realize_policy.repair_moves": counts["receiver.realize_policy.repair_moves"],
            "receiver.monte_carlo.time_s": mc_time,
            "receiver.monte_carlo.trials": counts["receiver.monte_carlo.trials"],
            "receiver.monte_carlo.groups": counts["receiver.monte_carlo.groups"],
            "receiver.monte_carlo.trials_per_s": (
                counts["receiver.monte_carlo.trials"] / mc_time if mc_time else 0.0
            ),
            "receiver.exact_error_small.calls": c("receiver.exact_error_small"),
            "receiver.exact_error_small.time_s": total["receiver.exact_error_small"],
            "receiver.exact_error_small.box_cells": counts["receiver.exact_error_small.box_cells"],
            "receiver.exact_error_small.tail_bound_max": counts[
                "receiver.exact_error_small.tail_bound"
            ],
            "baselines.time_s": sum(
                t for name, t in total.items() if name.startswith("baselines.")
            ),
            "trace.spans": float(len(self.spans)),
        }
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        return out
