"""Outside-in span recorder for the traced benchmark run.

Spans are recorded only around calls the benchmark can see from outside
the library: the `forward`/`backward` methods of layer instances and
module-level functions of `betamix.*`. Wrappers are installed by
assigning instance attributes and module globals, and removed again by
`uninstall`, so an untraced op runs the library exactly as shipped.

Spans stay in memory as flat lists and are aggregated (and optionally
written out) once the run ends. Calls are synchronous and single-threaded,
so spans nest strictly and a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter_ns

_MISSING = object()


class Recorder:
    """Spans as parallel lists: name id, start ns, end ns, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name):
        """A callable that records a span around fn. `name` is a string or
        a function of (args, kwargs) returning one."""
        rec = self
        if isinstance(name, str):
            def wrapper(*args, **kwargs):
                idx = rec.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = rec.open(name(args, kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list[int]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def roots(self) -> list[int]:
        """Index of the outermost enclosing span of every span."""
        root = list(range(len(self.parent)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]
        return root

    def write(self, path) -> None:
        """Dump every span (gzip'd JSON, times in ns from the first span)."""
        t0 = self.start[0] if self.start else 0
        doc = {
            "names": self.names,
            "fields": ["name", "start_ns", "dur_ns", "parent"],
            "spans": [[n, s - t0, e - s, p] for n, s, e, p in
                      zip(self.name_of, self.start, self.end, self.parent)],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.idx = self.rec.open(self.name)
        return self

    def __exit__(self, *exc):
        self.rec.close(self.idx)
        return False


class Tracer:
    """Owns the patches that route layer calls through a Recorder."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._patches: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.installed = False

    def add_function(self, fn, name: str) -> None:
        """Wrap fn wherever a `betamix` module binds it as a global, so
        calls from inside the library are seen too."""
        wrapper = self.rec.wrap(fn, name)
        for modname, module in list(sys.modules.items()):
            if modname != "betamix" and not modname.startswith("betamix."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._add(module, attr, wrapper)

    def add_method(self, obj, attr: str, name) -> None:
        self._add(obj, attr, self.rec.wrap(getattr(obj, attr), name))

    def _add(self, target, attr, wrapper) -> None:
        self._patches.append((target, attr, wrapper))
        if self.installed:
            self._apply(target, attr, wrapper)

    def _apply(self, target, attr, wrapper) -> None:
        self._saved.append((target, attr, vars(target).get(attr, _MISSING)))
        setattr(target, attr, wrapper)

    def install(self) -> None:
        if self.installed:
            return
        self.installed = True
        for target, attr, wrapper in self._patches:
            self._apply(target, attr, wrapper)

    def uninstall(self) -> None:
        self.installed = False
        while self._saved:
            target, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
