"""In-memory span tracing around cqglab's public functions.

Each layer is one module of the package.  ``Tracer.install`` replaces every
public function of those modules with a wrapper, in every ``cqglab``
namespace that holds the function (``cqglab.cli.solve_haar`` as well as
``cqglab.haar.solve_haar`` and ``cqglab.solve_haar``), so calls between
modules and calls inside one module are both seen.  A span records the
function, the job it ran in, its parent span, start and end times, the
process's peak RSS at both ends, whether an exception left it, and for the
two big linear systems the number of matrix cells its arguments imply.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

LAYERS = ("algebra", "haar", "corep", "regular", "cg", "tensor_ops",
          "wigner_eckart", "homspace", "io", "cli")


def _morphism_space_cells(pi_v, pi_w, *args, **kwargs) -> int:
    # rows (j, k, m) over d_W x d_V x n, columns Phi[a, b] over d_W x d_V
    dv, dw, n = pi_v.dim, pi_w.dim, pi_v.algebra.dim
    return (dw * dv * n) * (dw * dv)


def _family_space_cells(pi, *args, **kwargs) -> int:
    # rows (j, m, alpha, t) over d x n^3, columns (k, i, a) over d x n^2
    d, n = pi.dim, pi.algebra.dim
    return (d * n ** 3) * (d * n ** 2)


CELLS = {"corep.morphism_space": _morphism_space_cells,
         "tensor_ops.solve_family_space": _family_space_cells}

# Hot spots reported by name, each with the statistics the metrics use.
HOT_SPOTS = {
    "algebra.verify_hopf_axioms": ("self_s",),
    "corep.irrep_table": ("total_s",),
    "corep.morphism_space": ("calls", "cells"),
    "tensor_ops.solve_family_space": ("total_s", "cells"),
    "tensor_ops.operator_coaction_components": ("calls",),
    "cg.solve_cg": ("calls", "total_s"),
    "wigner_eckart.verify_wigner_eckart": ("self_s",),
    "homspace.solve_restricted_basis_functions": ("total_s",),
    "regular.verify_projection_identities": ("self_s",),
}

# span fields
NAME, JOB, PARENT, CELLS_, START, END, RSS0, RSS1, ERROR = range(9)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans while installed; aggregates them per layer and per job."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self._swaps: list[tuple[object, str, object, object]] = []
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cqglab.{layer}")
            for name, fn in _public_functions(module):
                originals[id(fn)] = (f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "cqglab" and not modname.startswith("cqglab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    key, fn = hit
                    self._swaps.append((module, attr, fn, self._wrap(key, fn)))

    def _wrap(self, key: str, fn):
        spans, stack, cells = self.spans, self.stack, CELLS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, self.job, stack[-1] if stack else -1,
                    cells(*args, **kwargs) if cells else 0,
                    0.0, 0.0, _peak_rss_kb(), 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                span[RSS1] = _peak_rss_kb()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def summarize(self, per: float = 1.0) -> dict[str, float]:
        """Per-layer and hot-spot metrics over all spans, divided by ``per``."""
        totals = _aggregate(self.spans, _self_stats(self.spans))
        return {k: v / per for k, v in totals.items()}

    def by_job(self) -> dict[int, dict[str, float]]:
        """The same metrics for each job id, plus ``spanned_s``, its root spans' time."""
        groups: dict[int, list] = {}
        for stat in _self_stats(self.spans):
            groups.setdefault(stat[0][JOB], []).append(stat)
        out = {}
        for job, stats in groups.items():
            row = _aggregate(self.spans, stats)
            row["spanned_s"] = sum(span[END] - span[START] for span, _, _ in stats
                                   if span[PARENT] < 0)
            out[job] = row
        return out


def _self_stats(spans: list[list]) -> list[tuple[list, float, int]]:
    """``(span, self seconds, self peak-RSS rise in KiB)`` for every span.

    Self time is a span's duration minus its child spans' durations; the
    peak-RSS rise is attributed the same way.
    """
    child_s = [0.0] * len(spans)
    child_rss = [0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_s[parent] += span[END] - span[START]
            child_rss[parent] += span[RSS1] - span[RSS0]
    return [(span, span[END] - span[START] - child_s[i],
             span[RSS1] - span[RSS0] - child_rss[i])
            for i, span in enumerate(spans)]


def _aggregate(spans: list[list], stats) -> dict[str, float]:
    """Sum self stats per layer and per hot spot.

    An error counts for a layer when an exception leaves one of its spans for
    a caller outside the layer (or for the benchmark itself).
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        for field in ("self_s", "calls", "errors", "rss_rise_mb"):
            out[f"{layer}.{field}"] = 0.0
    for key, fields in HOT_SPOTS.items():
        for field in fields:
            out[f"{key}.{field}"] = 0.0
    for span, self_s, rss_rise_kb in stats:
        key = span[NAME]
        layer = key.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        out[f"{layer}.rss_rise_mb"] += rss_rise_kb / 1024.0
        parent = span[PARENT]
        if span[ERROR] and (parent < 0 or not spans[parent][NAME].startswith(layer + ".")):
            out[f"{layer}.errors"] += 1
        for field in HOT_SPOTS.get(key, ()):
            out[f"{key}.{field}"] += {
                "self_s": self_s, "total_s": span[END] - span[START],
                "calls": 1, "cells": span[CELLS_]}[field]
    return out
