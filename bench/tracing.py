"""Spans around the public functions of darbouxkdv, and self times from them.

``Tracer.install`` wraps each traced function in every darbouxkdv module that
holds a reference to it, because ``verification``, ``cli`` and ``kdv`` import
their callees by name.  Spans are kept in memory as ``(name, start, end,
parent)`` and written out once, when the worker ends.  A layer's self time is
its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.enabled = True
        self.reset()

    def reset(self):
        """Drop the recorded spans.  They live in flat lists of numbers and
        names, so that a round's 10^5 spans add no work for the garbage
        collector."""
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []

    @property
    def spans(self) -> list:
        """(name, start, end, parent index) per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for program calls made only to check outputs."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, namer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(namer(args, kwargs), fn, args, kwargs)

        return traced

    def install(self):
        """Wrap the traced functions of the already imported darbouxkdv."""
        from darbouxkdv import (
            cli, darboux, kdv, scattering, specfun, spectral_oracle, verification,
        )

        def fixed(name):
            return lambda args, kwargs: name

        def by_ndim(prefix, pos):
            def namer(args, kwargs):
                x = args[pos] if len(args) > pos else kwargs.get("x")
                return prefix + (".scalar" if np.ndim(x) == 0 else ".vector")

            return namer

        def oracle_path(args, kwargs):
            pot = args[0] if args else kwargs.get("potential")
            singular = bool(getattr(pot, "is_singular", False))
            return "scattering.numerical_amplitudes." + ("detour" if singular else "real")

        def suite(args, kwargs):
            return "verification.suite." + (args[0] if args else kwargs.get("name"))

        functions = (
            (specfun, "log_gamma", fixed("specfun.gamma")),
            (specfun, "reciprocal_gamma", fixed("specfun.gamma")),
            (specfun, "jacobi_coefficients", fixed("specfun.jacobi_coefficients")),
            (darboux, "deformed_potential", fixed("darboux.deformed_potential")),
            (darboux, "bound_states", fixed("darboux.bound_states")),
            (spectral_oracle, "eigen_spectrum", fixed("spectral_oracle.eigen_spectrum")),
            (scattering, "deformed_amplitudes", fixed("scattering.deformed_amplitudes")),
            (scattering, "numerical_amplitudes", oracle_path),
            (kdv, "scattering_data_from_spec", fixed("kdv.scattering_data_from_spec")),
            (kdv, "field_u", by_ndim("kdv.field_u", 1)),
            (kdv, "conserved_quantities", fixed("kdv.conserved_quantities")),
            (kdv, "kdv_residual", fixed("kdv.kdv_residual")),
            (verification, "run_suite", suite),
            (cli, "main", fixed("cli.main")),
        )
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "darbouxkdv"]
        for home, attr, namer in functions:
            original = getattr(home, attr)
            traced = self.wrap(original, namer)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

        cls = darboux.PotentialEvaluator
        cls.__call__ = self.wrap(
            cls.__call__,
            lambda args, kwargs: "darboux.potential_"
            + ("scalar" if type(args[1]) in (float, complex) or np.ndim(args[1]) == 0
               else "vector"),
        )
        cls.evaluate_scalar = self.wrap(cls.evaluate_scalar, fixed("darboux.potential_scalar"))

    def dump(self, path: str, rounds: list):
        """Write the spans of each round, as kept in memory, to one file."""
        names = sorted({s[0] for spans in rounds for s in spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "rounds": [[[index[s[0]], s[1], s[2], s[3]] for s in spans] for spans in rounds],
            }, fh)


def load_spans(path: str) -> list:
    """Per round, the list of (name, start, end, parent) spans."""
    with open(path) as fh:
        raw = json.load(fh)
    names = raw["names"]
    return [[(names[n], a, b, p) for n, a, b, p in spans] for spans in raw["rounds"]]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_totals(spans) -> dict:
    """name -> {"self_s", "total_s", "calls"} from a list of (name, start, end, parent).

    ``calls`` counts the spans whose parent is not a span of the same name, so
    a traced function calling another traced function of the same layer (as
    reciprocal_gamma calls log_gamma) counts once.  ``total_s`` sums those
    outermost spans' durations.
    """
    children = {}
    for i, (_, a, b, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((a, b))
    out = {}
    for i, (name, a, b, parent) in enumerate(spans):
        rec = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        kids = [(max(ka, a), min(kb, b)) for ka, kb in children.get(i, ())]
        rec["self_s"] += (b - a) - covered([k for k in kids if k[1] > k[0]])
        if parent < 0 or spans[parent][0] != name:
            rec["calls"] += 1
            rec["total_s"] += b - a
    return out
