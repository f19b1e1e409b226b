"""Span tracer that times calls into besovk's public functions from outside.

`Tracer.install` replaces each public function of the traced modules by a
timing wrapper, in every besovk module namespace that holds a reference to
it (so `from .kfunc import k_dispatch` in interp.py is wrapped too), plus a
few named methods.  `Tracer.uninstall` puts every original back.  Spans are
kept in memory as tuples and written out only on request.

A span is (name, start, end, parent index, op id, count).  `count` is an
optional work count a wrapper derives from the call, such as the number of
split masks a vertex table enumerates.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


class Tracer:
    """Records one span per wrapped call; not thread-safe (one client)."""

    def __init__(self, counters=None):
        # counters: span name -> fn(args, kwargs, result) -> number
        self.counters = dict(counters or {})
        self.spans = []      # (name, start, end, parent, op, count)
        self._stack = []     # indices of open spans
        self._patched = []   # (owner, attribute, original)
        self.op = None

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, self.counters.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = counter(args, kwargs, result) if counter and result is not None else 0
                spans[idx] = (name, start, end, parent, self.op, count)

        return traced

    def install(self, package, module_names, methods=()):
        """Wrap the public functions of package.<m> for m in module_names.

        methods: (class, attribute, span name) triples wrapped in place.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}
        for short in module_names:
            mod = sys.modules[f"{package}.{short}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "count": count}) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children (the union of their intervals, clipped)."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per span name: calls (every span), entries (spans not nested in a
    span of the same name), the entries' total seconds and summed counts,
    and the self seconds of every span.

    Recursion, or a rescale that re-enters, adds calls but not entries, so
    seconds per entry is the time of a call from outside the function.
    """
    selfs = self_times(spans)
    stats = {}
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "entries": 0, "seconds": 0.0,
                                     "count": 0, "self_seconds": 0.0})
        st["calls"] += 1
        st["self_seconds"] += selfs[i]
        anc, nested = parent, False
        while anc >= 0:
            if spans[anc][0] == name:
                nested = True
                break
            anc = spans[anc][3]
        if not nested:
            st["entries"] += 1
            st["seconds"] += end - start
            st["count"] += count
    return stats


def descendants_named(spans, root_prefix, name):
    """Number of spans called `name` under any span whose name starts with
    root_prefix (counted once each, however deep)."""
    inside = [False] * len(spans)
    total = 0
    for i, (n, _, _, parent, _, _) in enumerate(spans):
        inside[i] = n.startswith(root_prefix) or (parent >= 0 and inside[parent])
        if n == name and parent >= 0 and inside[parent]:
            total += 1
    return total
