"""In-memory span tracer that wraps functions from outside the traced package.

A span is (id, name, start, end, parent).  Spans are appended to flat arrays
while tracing runs and written out only when the benchmark ends, so the
traced program never waits on I/O.  A span's self time is its duration minus
the time its child spans cover; the calls are single-threaded, so children
never overlap.

A probe is bookkeeping that runs after a wrapped call returns (counting
nonzero entries, file sizes, ...).  Its duration is stored with the span and
is charged neither to the span nor to its parent.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.active = False
        self.counters = Counter()
        self._names = []
        self._name_ids = {}
        self._ids = array("q")
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._probe = array("d")
        self._stack = [-1]
        self._next_id = 0
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, probe=None):
        """A function that calls fn and records a span named name.

        probe(counters, args, kwargs, result) runs after a successful call.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._ids.append(sid)
                self._name.append(nid)
                self._parent.append(parent)
                self._start.append(t0)
                self._end.append(t1)
                self._probe.append(0.0)
            if probe is not None:
                probe(self.counters, args, kwargs, result)
                self._probe[-1] = clock() - t1
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, owner, attr: str, name: str, probe=None, package=None):
        """Replace owner.attr by a traced wrapper.

        For a module-level function, every module in sys.modules whose name
        is package or starts with package + "." and that bound the same
        function object under any name is rebound too, so callers that did
        `from module import fn` are traced as well.
        """
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, probe)
        targets = [(owner, attr)]
        if package is not None:
            for modname, mod in list(sys.modules.items()):
                if modname != package and not modname.startswith(package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        targets.append((mod, key))
        for obj, key in targets:
            setattr(obj, key, wrapper)
            self._patches.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def totals(self):
        """name -> (calls, self seconds), over every recorded span."""
        child = array("d", bytes(8 * self._next_id))
        for parent, t0, t1, probe in zip(self._parent, self._start, self._end,
                                         self._probe):
            if parent >= 0:
                child[parent] += (t1 - t0) + probe
        calls = Counter()
        self_s = Counter()
        for sid, nid, t0, t1 in zip(self._ids, self._name, self._start,
                                    self._end):
            name = self._names[nid]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path, header: str = ""):
        """Write every span as a tab-separated line: id name start end parent."""
        names = self._names
        with open(path, "w") as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("id\tname\tstart\tend\tparent\n")
            for sid, nid, t0, t1, parent in zip(self._ids, self._name,
                                                self._start, self._end,
                                                self._parent):
                fh.write(f"{sid}\t{names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
