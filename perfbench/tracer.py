"""In-memory span tracer that wraps a program's functions from the outside.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one began, or -1.  Spans are kept in a list and written
out once, at the end of a run.  The tracer assumes one Python thread (the
pipeline's default `--workers 1`); native threads such as BLAS do not matter.

`install` replaces a function at every binding site it has: each module
attribute that *is* the original object (so `from .x import f` copies are
caught too) and each class attribute that is the original method (so an
alias such as `__rmul__ = __mul__` is caught too).  A generator function is
timed per `next()`, not at creation, because creating a generator does no
work.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent]
        self.counters = {}
        self.peaks = {}
        self._open = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        top = self._open.pop()
        if top != idx:
            raise RuntimeError("span %d closed while %d is open" % (idx, top))

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name, value):
        if value > self.peaks.get(name, value - 1):
            self.peaks[name] = value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, label=None, pre=None, post=None):
        """A function that runs `fn` inside a span.  `label(args)` names the
        span from the call's arguments; `pre(tracer, args, kwargs)` and
        `post(tracer, result, args)` record counts."""
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            idx = tracer.begin(label(args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if post is not None:
                post(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_generator(self, fn, name, per_item=None):
        """A generator function whose every `next()` is one span; each item
        yielded adds one to the counter `per_item`."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    if per_item:
                        tracer.count(per_item)
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write the trace as one JSON document: span names are interned in
        `names`, each span is [name index, start, end, parent index]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[index[s[0]], s[1], s[2], s[3]]
                         for s in self.spans],
               "counters": self.counters,
               "peaks": self.peaks}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def load(path):
    """Inverse of `Tracer.dump`: (spans, counters, peaks), spans as
    [name, start, end, parent]."""
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    spans = [[names[n], s, e, p] for n, s, e, p in doc["spans"]]
    return spans, doc["counters"], doc["peaks"]


def self_times(spans):
    """Per-span self time: duration minus the part of [start, end] covered
    by the span's direct children (overlapping children counted once)."""
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


@dataclass(frozen=True)
class Target:
    """One function to trace: `path` is "module:attr" or
    "module:Class.method"; `kind` is "func" or "gen"."""
    name: str
    path: str
    kind: str = "func"
    label: Optional[Callable] = None
    pre: Optional[Callable] = None
    post: Optional[Callable] = None
    per_item: Optional[str] = None


def install(tracer, targets, modules):
    """Wrap every target at each of its binding sites among `modules` (a
    name -> module mapping).  Returns (restore, missing): calling `restore()`
    puts the originals back; `missing` lists targets that do not exist."""
    undo = []
    missing = []
    for t in targets:
        mod_name, _, attr = t.path.partition(":")
        owner = modules.get(mod_name)
        cls_name, _, meth = attr.rpartition(".")
        holder = getattr(owner, cls_name, None) if cls_name else owner
        original = vars(holder).get(meth) if holder is not None else None
        if original is None:
            missing.append(t.path)
            continue
        if t.kind == "gen":
            wrapper = tracer.wrap_generator(original, t.name, t.per_item)
        else:
            wrapper = tracer.wrap(original, t.name, t.label, t.pre, t.post)
        sites = [holder] if cls_name else list(modules.values())
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapper)
                    undo.append((site, key, original))

    def restore():
        for site, key, original in reversed(undo):
            setattr(site, key, original)

    return restore, missing
