"""Spans around the calls into each layer of the package, recorded from
outside it.

``Tracer.install`` replaces each traced public function by a wrapper in
every ``instab`` module that holds it by name: ``instability`` imports
``act`` and ``exp_sym`` by name, so wrapping only ``reps.act`` would miss
those calls.  ``uninstall`` puts the original functions back, so untraced
passes run the package unchanged.  Spans carry a name, a start, an end and
a parent; they are kept in memory and saved with ``save``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# module -> public functions whose calls are spans
TRACED = {
    "instability": ("is_unstable", "dominance_certificate",
                    "fastest_shrinking_geodesic", "flat_shrink_data",
                    "min_norm_point", "verify_dominance", "cartan_box_sample",
                    "dumps_cert", "loads_cert"),
    "reps": ("act", "log_rep_norm", "active_weights", "highest_weight_vector",
             "build_rep"),
    "symspace": ("exp_sym", "block_orthogonal", "haar_so"),
    "exactlin": ("solve",),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._patches: list = []

    def span_name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name_id: int, fn, *args, **kwargs):
        """Call ``fn`` inside a span."""
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.span_name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name_id, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "instab" or name.startswith("instab.")]
        for owner, funcs in TRACED.items():
            for fname in funcs:
                fn = getattr(importlib.import_module(f"instab.{owner}"), fname)
                wrapper = self._wrap(f"{owner}.{fname}", fn)
                for mod in modules:
                    if getattr(mod, fname, None) is fn:
                        self._patches.append((mod, fname, fn))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._patches):
            setattr(mod, fname, fn)
        self._patches.clear()

    def totals(self, first: int, scale: float = 1.0) -> dict:
        """{name: [calls, inclusive s, self s]} over spans ``first`` onward,
        times multiplied by ``scale``."""
        out: dict = {}
        child = {}
        for i in range(len(self.start) - 1, first - 1, -1):
            dur = self.end[i] - self.start[i]
            acc = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur * scale
            acc[2] += (dur - child.pop(i, 0.0)) * scale
            p = self.parent[i]
            if p >= first:
                child[p] = child.get(p, 0.0) + dur
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.asarray(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
