"""Spans and call counts around the public functions of each orthoplex module.

A wrapper replaces a target wherever it is bound: in its home module, in
every other orthoplex module that imported it by name (``cli`` takes
``check_gramian`` and ``check_dgm`` that way, ``packing`` takes
``sphere_from_coords`` and ``epsilon_of``), and in the benchmark's own
modules.  Methods are replaced on their class.

Timed targets record a span (name, start, end, parent) per call; spans stay
in memory until ``write_spans``.  A layer's self time is the duration of its
spans minus the part covered by their child spans.  Scalar ``QSqrt2`` and
``Coord5`` operations run millions of times per job, so they are counted,
not timed.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

# metric prefix -> targets, each "module:attribute" or "module:Class.method"
TIMED: Dict[str, Tuple[str, ...]] = {
    "cli.run": ("cli:run",),
    "config.from_json_dict": ("config:FMatrix.from_json_dict",),
    "config.check_gramian": ("config:check_gramian",),
    "config.check_dgm": ("config:check_dgm",),
    "ring.mat_mul": ("ring:Mat.__mul__",),
    "ring.mat_eliminate": ("ring:Mat._eliminate",),
    "inversive.serialize": ("inversive:Coord5.serialize",),
    "inversive.sphere_from_coords": ("inversive:sphere_from_coords",),
    "groups.element": ("groups:element",),
    "groups.apply": ("groups:apply",),
    "groups.verify_relations": ("groups:verify_platonic_relations",
                                "groups:verify_apollonian_relations"),
    "packing.generate": ("packing:generate",),
    "packing.export_scene": ("packing:export_scene",),
    "packing.missing_admissible": ("packing:missing_admissible",),
    "packing.orbit_bend_vectors": ("packing:orbit_bend_vectors",),
    "arithmetic.is_isotropic_at": ("arithmetic:is_isotropic_at",),
    "arithmetic.local_classes": ("arithmetic:local_classes",),
    "arithmetic.enumerate_mod8": ("arithmetic:enumerate_mod8",),
}

COUNTED: Dict[str, Tuple[str, ...]] = {
    "ring.qsqrt2_add": tuple(f"ring:QSqrt2.{m}" for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    "ring.qsqrt2_cmp": tuple(f"ring:QSqrt2.{m}" for m in (
        "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "sign")),
    "ring.qsqrt2_mul": tuple(f"ring:QSqrt2.{m}" for m in (
        "__mul__", "__rmul__", "inverse", "__truediv__", "__rtruediv__")),
    "ring.parse_qsqrt2": ("ring:parse_qsqrt2",),
    "inversive.coord5_arith": tuple(f"inversive:Coord5.{m}" for m in (
        "__add__", "__sub__", "scale")),
    "arithmetic.qform_from_bend_vector": ("arithmetic:qform_from_bend_vector",),
    "arithmetic.epsilon_of": ("arithmetic:epsilon_of",),
}

# exact work counts read off return values: prefix -> (suffix, function)
RESULT_COUNTS: Dict[str, Tuple[Tuple[str, Callable], ...]] = {
    "packing.generate": (("states", lambda r: r.states),
                         ("bends", lambda r: len(r.bends))),
    "packing.export_scene": (("bytes", len),),
    "packing.orbit_bend_vectors": (("vectors", len),),
}


class _Patcher:
    """Replaces targets in every loaded orthoplex module and in
    ``extra_modules``, and puts the originals back on ``restore``."""

    def __init__(self, extra_modules: Sequence[object]):
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and n.split(".")[0] == "orthoplex"]
        self.modules += list(extra_modules)
        self.undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, target: str, wrap: Callable[[Callable], Callable]):
        modname, path = target.split(":")
        home = sys.modules[f"orthoplex.{modname}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(wrap(raw.__func__)))
            else:
                self._set(cls, attr, wrap(raw))
            return
        fn = getattr(home, path)
        wrapped = wrap(fn)
        bound = 0
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{target}: no binding found to patch")

    def restore(self):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


class Tracer:
    """Spans for ``TIMED`` targets, counters for ``COUNTED`` ones."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx, name, t0):
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, t0, t1, self.stack[-1] if self.stack else -1)

    def _timed(self, name: str):
        extras = RESULT_COUNTS.get(name, ())
        counts = self.counts

        def wrap(fn):
            def wrapper(*args, **kwargs):
                idx = self._open()
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx, name, t0)
                for suffix, get in extras:
                    counts[f"{name}.{suffix}"] += get(result)
                return result
            return wrapper
        return wrap

    def _counted(self, name: str):
        counts = self.counts

        def wrap(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    @contextlib.contextmanager
    def installed(self, extra_modules: Sequence[object] = ()):
        patcher = _Patcher(extra_modules)
        try:
            for name, targets in TIMED.items():
                for t in targets:
                    patcher.patch(t, self._timed(name))
            for name, targets in COUNTED.items():
                for t in targets:
                    patcher.patch(t, self._counted(name))
            yield self
        finally:
            patcher.restore()

    def layer_totals(self) -> Dict[str, float]:
        """``<prefix>.calls`` and ``<prefix>.self_s`` for every timed target
        (plus any other span names), and every counter."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + (t1 - t0) - covered[i])
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        for name, extras in RESULT_COUNTS.items():
            for suffix, _ in extras:
                out[f"{name}.{suffix}"] = self.counts[f"{name}.{suffix}"]
        return out

    def write_spans(self, path: Path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        doc = {"fields": ["name", "start_s", "end_s", "parent"],
               "names": names,
               "spans": [[index[n], t0 - base, t1 - base, p]
                         for n, t0, t1, p in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


@contextlib.contextmanager
def generate_peak_alloc(extra_modules: Sequence[object] = ()):
    """Tracemalloc peak, in MB, of each ``packing.generate`` call.  Runs on
    its own job, because tracemalloc slows allocation and would distort the
    self times of the traced job."""
    peaks: List[float] = []

    def wrap(fn):
        def generate(spec):
            tracemalloc.start()
            try:
                return fn(spec)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
                tracemalloc.stop()
        return generate

    patcher = _Patcher(extra_modules)
    try:
        patcher.patch("packing:generate", wrap)
        yield peaks
    finally:
        patcher.restore()
