"""Span tracer that wraps cyclat functions from outside the package.

Installing the tracer replaces each function named in ``layers.LAYERS`` by
a wrapper: class methods on their class, and module-level functions on
every ``cyclat.*`` module attribute (and module-level dict value) that is
the function, since callers import them by name.  ``uninstall`` puts the
originals back.  No file of the package changes.

A span is (name, start, end, parent).  Each wrapper also keeps the instants
it was entered and left, so the time it spends on its own statistics is
charged to the tracer (``bookkeeping``) and not to the caller's self time.
Spans are recorded only inside ``job()``, so oracle checks run between jobs
are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

from layers import LAYERS

JOB = "job"


class Acc:
    """Per-function statistics beyond the call count."""

    __slots__ = ("values",)

    def __init__(self):
        self.values = {}

    def top(self, key, v):
        if v > self.values.get(key, v - 1):
            self.values[key] = v

    def add(self, key, v):
        self.values[key] = self.values.get(key, 0) + v


class Tracer:
    def __init__(self):
        self.names = [JOB]
        self.accs = [Acc()]
        # parallel arrays, one slot per span
        self.name = array("l")
        self.parent = array("l")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        self.stack = []
        self.active = False
        self._undo = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "cyclat" or n.startswith("cyclat.")
        ]
        for module, qualname, collect, _stats, _moves in LAYERS:
            owner = sys.modules[f"cyclat.{module}"]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                orig = owner.__dict__[attr]
                wrapper = self._wrap(orig, f"{module}.{qualname}", collect)
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, f"{module}.{qualname}", collect)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                val[dkey] = wrapper
                                self._undo.append((val, dkey, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, fn, label, collect):
        nid = len(self.names)
        self.names.append(label)
        acc = Acc()
        self.accs.append(acc)
        clock = time.perf_counter
        stack = self.stack
        name_a, parent_a = self.name, self.parent
        enter_a, start_a, end_a, leave_a = self.enter, self.start, self.end, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            enter = clock()
            idx = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            enter_a.append(enter)
            start_a.append(0.0)
            end_a.append(0.0)
            leave_a.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                if collect is not None:
                    collect(acc, args, None, exc)
                start_a[idx], end_a[idx], leave_a[idx] = start, end, clock()
                raise
            end = clock()
            stack.pop()
            if collect is not None:
                collect(acc, args, result, None)
            start_a[idx], end_a[idx], leave_a[idx] = start, end, clock()
            return result

        return wrapper

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def job(self):
        """Root span around one job; wrapped calls inside it become its children."""
        idx = len(self.name)
        for arr, v in ((self.name, 0), (self.parent, -1), (self.enter, 0.0),
                       (self.start, 0.0), (self.end, 0.0), (self.leave, 0.0)):
            arr.append(v)
        self.stack.append(idx)
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.active = False
            self.stack.pop()
            self.enter[idx] = self.start[idx] = start
            self.end[idx] = self.leave[idx] = end

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Per span: (self time, bookkeeping), self = duration - child footprints."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.leave[i] - self.enter[i]
        out = []
        for i in range(n):
            dur = self.end[i] - self.start[i]
            out.append((dur - child[i], (self.leave[i] - self.enter[i]) - dur))
        return out

    def misnested(self) -> int:
        """Spans outside their parent's [start, end], or with negative self time."""
        bad = 0
        for i, (own, _book) in enumerate(self.self_times()):
            p = self.parent[i]
            outside = p >= 0 and not (self.start[p] <= self.enter[i] and self.leave[i] <= self.end[p])
            bad += outside or own < 0
        return bad

    def metrics(self, untraced_wall: float) -> dict:
        """Per-layer metrics by name (see layers.metric_names), plus trace.*."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        bookkeeping = 0.0
        wall = 0.0
        for i, (own, book) in enumerate(self.self_times()):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += own
            bookkeeping += book
            if nid == 0:
                wall += self.end[i] - self.start[i]
        values = {}
        for nid, (module, qualname, _collect, stats, _moves) in enumerate(LAYERS, start=1):
            acc = self.accs[nid].values
            for stat in stats:
                if stat == "calls":
                    v = calls[nid]
                elif stat == "self_s":
                    v = self_s[nid]
                elif stat == "nonzero_frac":
                    v = acc["nonzero_products"] / acc["products"] if acc.get("products") else 0.0
                else:
                    v = acc.get(stat, 0)
                values[f"{module}.{qualname}.{stat}"] = v
        values["trace.jobs"] = calls[0]
        values["trace.wall_s"] = wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = wall - untraced_wall
        values["trace.wrapped_self_s"] = sum(self_s[1:])
        values["trace.unwrapped_s"] = self_s[0]
        values["trace.bookkeeping_s"] = bookkeeping
        return values

    def write(self, path) -> None:
        """Spans as tab-separated name, start, end, parent (seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )
