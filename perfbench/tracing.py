"""Spans for the traced run, recorded from outside the package.

`Tracer.install` rebinds every public function of the package, in every
module that binds it, to a wrapper that records one span per call: name,
start, end and the index of the enclosing span. Public classes with a
`__post_init__` get their constructor wrapped the same way. `numpy.linalg.eigh`
and `scipy.optimize.linprog` are wrapped at the library boundary; each call is
named after the module of the innermost open span, so `outlier_sdp.eigh`
counts the eigendecompositions made while an outlier_sdp function was the
innermost one running. Spans are kept in memory and written out at the end.
Untraced runs never call `install`, so they run the package unwrapped.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.optimize


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.active = False

    def _call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_library(self, short, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            owner = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "bench"
            return self._call(f"{owner}.{short}", fn, args, kwargs)
        return traced

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith(prefix):
                    continue
                if inspect.isfunction(obj):
                    if obj not in wrapped:
                        short = obj.__module__.rsplit(".", 1)[-1]
                        wrapped[obj] = self._wrap(f"{short}.{obj.__name__}", obj)
                    setattr(mod, attr, wrapped[obj])
                elif (inspect.isclass(obj) and "__post_init__" in vars(obj)
                      and obj not in wrapped):
                    short = obj.__module__.rsplit(".", 1)[-1]
                    wrapped[obj] = True
                    obj.__init__ = self._wrap(f"{short}.{obj.__name__}", obj.__init__)
        eigh, linprog = np.linalg.eigh, scipy.optimize.linprog
        np.linalg.eigh = self._wrap_library("eigh", eigh)
        scipy.optimize.linprog = self._wrap_library("linprog", linprog)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is linprog:
                    setattr(mod, attr, scipy.optimize.linprog)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per round: calls, total seconds and self seconds of every span name.

        Self time is a span's duration minus the durations of its direct
        children. No public function of the package calls itself, so summing
        durations never counts an interval twice.
        """
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child.get(idx, 0.0)
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.s"] = total[name] / rounds
            out[f"{name}.self_s"] = own[name] / rounds
        return out

    def write(self, path: str) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
