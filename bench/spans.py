"""Span tracing installed from outside the program.

`Tracer.install` wraps every public function and public method defined in
the given modules and rebinds the wrapper at every module attribute that
held the original, so a name imported with `from .protocol import
sift_branch` into another module is traced too.  Each call records a span
(name, start, end, parent, request); a request is one top-level call.
Spans stay in memory; `summary` derives call counts and self time (span
duration minus the part covered by its direct children), and `write`
saves everything to its own gzip-compressed JSON file.
"""

import functools
import gzip
import inspect
import json
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._restore = []
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.requests = array("i")
        self._stack = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.requests.append(stack[0] if stack else idx)
            self.ends.append(0)
            stack.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of `modules` ({short name: module})."""
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """{name: (calls, self seconds)} over the recorded spans."""
        n = len(self.starts)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = (np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)) * 1e-9
        parents = np.frombuffer(self.parents, dtype=np.int32)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=dur - covered, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, path, meta: dict) -> None:
        t0 = min(self.starts) if self.starts else 0
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name_ids.tolist(),
            "start_ns": [t - t0 for t in self.starts],
            "end_ns": [t - t0 for t in self.ends],
            "parent": self.parents.tolist(),
            "request": self.requests.tolist(),
        }
        doc["per_function"] = {
            name: {"calls": calls, "self_s": self_s}
            for name, (calls, self_s) in self.summary().items()
            if calls
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
