"""Span tracer that wraps poletrace's layer functions from the outside.

A :class:`Tracer` replaces each public layer function with a wrapper in every
``poletrace`` module namespace that holds it (for example both
``quadrature.adaptive_quadrature`` and ``eisenstein.adaptive_quadrature``), so
calls between modules are seen as well as calls from the client.  Each
wrapped call records one span (name, start, end, parent); spans stay in
memory until :meth:`Tracer.spans` writes them out.  Layer boundaries whose
calls are too cheap for a span (``models.eigenvalue``) only count calls.  The
integrand handed to ``adaptive_quadrature`` is wrapped too: its calls and
nodes are counted, and it gets a span named after the module that defined it
(``eisenstein.integrand`` for the K-Bessel integrand), so that the driver's
own time and the integrand's time land in their own layers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter

#: (module, function) pairs that get a span; the span is named "module.function"
SPANNED = (
    ("eisenstein", "bessel_k"),
    ("eisenstein", "zeta"),
    ("eisenstein", "eisenstein_gl2_completed"),
    ("eisenstein", "eisenstein_gl2"),
    ("quadrature", "adaptive_quadrature"),
    ("quadrature", "check_line_symmetry"),
    ("quadrature", "direct_line_integral"),
    ("quadrature", "singular_line_quadrature"),
    ("paths", "sample_path"),
    ("paths", "track_sqrt"),
    ("continuation", "continue_pole"),
    ("continuation", "continue_integral"),
    ("continuation", "branching_difference"),
    ("planar", "planar_singular_integral"),
    ("planar", "circle_average"),
    ("planar", "planar_direct_integral"),
    ("planar", "planar_regularized_integral"),
    ("planar", "radial_singular_quadrature"),
    ("cli", "main"),
)
#: (module, function) pairs whose calls are only counted
COUNTED = (
    ("models", "eigenvalue"),
    ("models", "radicand"),
)
NUMERATOR_SPAN = "numerators.Numerator"


def _samples(result) -> int:
    """Sample count of a CurveSamples (sample_path) or BranchTrace (track_sqrt)."""
    samples = getattr(result, "radicand_samples", result)
    return len(samples.samples)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def _spanned(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _driver(self, fn):
        """adaptive_quadrature with its integrand counted and spanned."""
        spanned = self._spanned("quadrature.adaptive_quadrature", fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            owner = getattr(f, "__module__", None) or "unknown"
            name = owner.rpartition(".")[2] + ".integrand"

            def integrand(x):
                self.counts["quadrature.integrand.calls"] += 1
                self.counts["quadrature.integrand.nodes"] += int(np.size(x))
                idx = self._open(name)
                try:
                    return f(x)
                finally:
                    self._close(idx)

            return spanned(integrand, *args, **kwargs)

        return wrapper

    def _line_driver(self, fn):
        """adaptive_line_quadrature with its line integrand counted."""

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def integrand(s):
                self.counts["quadrature.line_integrand.calls"] += 1
                self.counts["quadrature.line_integrand.nodes"] += int(np.size(s))
                return f(s)

            return fn(integrand, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "poletrace" or mod_name.startswith("poletrace.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        import importlib

        for mod_name, fn_name in SPANNED:
            mod = importlib.import_module(f"poletrace.{mod_name}")
            original = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == "quadrature.adaptive_quadrature":
                replacement = self._driver(original)
            elif mod_name == "paths":
                key = name + ".samples"

                def count(args, result, key=key):
                    self.counts[key] += _samples(result)

                replacement = self._spanned(name, original, count)
            else:
                replacement = self._spanned(name, original)
            self._patch_everywhere(original, replacement)
        for mod_name, fn_name in COUNTED:
            mod = importlib.import_module(f"poletrace.{mod_name}")
            original = getattr(mod, fn_name)
            self._patch_everywhere(original, self._counted(f"{mod_name}.{fn_name}", original))
        quadrature = importlib.import_module("poletrace.quadrature")
        original = quadrature.adaptive_line_quadrature
        self._patch_everywhere(original, self._line_driver(original))

        numerator_cls = importlib.import_module("poletrace.numerators").Numerator
        original_call = numerator_cls.__call__

        def count_nodes(args, result):
            self.counts["numerators.nodes"] += int(np.size(args[1]))

        self._patches.append((numerator_cls, "__call__", original_call))
        numerator_cls.__call__ = self._spanned(NUMERATOR_SPAN, original_call, count_nodes)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """All spans in a compact column layout (times relative to the first)."""
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": names,
            "name": [ids[n] for n in self.names],
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
            "parent": list(self.parent),
        }

    def summary(self) -> dict:
        """Per-name calls, self time and total time, plus the counts.

        Self time is a span's duration minus the durations of its child
        spans; total time is the sum of the durations (which counts a span
        nested in one of the same name twice).
        """
        n = len(self.names)
        dur = np.array(self.end[:n]) - np.array(self.start[:n])
        child = np.zeros(n)
        parent = np.array(self.parent[:n], dtype=int)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        calls: dict = defaultdict(int)
        own: dict = defaultdict(float)
        total: dict = defaultdict(float)
        for name, s, d in zip(self.names, self_s, dur):
            calls[name] += 1
            own[name] += float(s)
            total[name] += float(d)
        return {"calls": dict(calls), "self_s": dict(own), "total_s": dict(total),
                "counts": dict(self.counts)}


def merge_summaries(summaries) -> dict:
    """Sum several :meth:`Tracer.summary` results (one per traced process)."""
    out: dict = {"calls": defaultdict(int), "self_s": defaultdict(float),
                 "total_s": defaultdict(float), "counts": defaultdict(int)}
    for s in summaries:
        for key in out:
            for name, v in s[key].items():
                out[key][name] += v
    return {key: dict(v) for key, v in out.items()}
