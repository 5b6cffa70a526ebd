"""Outside-in tracer for the jcnc layers.

Wraps the public functions of the ``jcnc`` modules, and numpy's Hermitian
eigensolvers, from outside the program. Several jcnc modules import
functions by name (``cli`` imports ``negativity`` and ``cascade``;
``engine`` and ``nonclassicality`` import ``partial_trace``), so every
module-level alias of a wrapped function is rebound, matched by identity.
Spans stay in memory as flat arrays with parent links and are written out
once, at the end. A function that no longer exists is reported as absent
and reads as zero calls.

Only the traced benchmark run imports this module.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array

JCNC_MODULES = ("hilbert", "engine", "nonclassicality", "oracle", "cli")
EIGEN_SOLVERS = ("eigvalsh", "eigh")


def public_functions(module: types.ModuleType) -> list[str]:
    """Names of the public callables defined in (not imported into) a module."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.eig_matrices = 0
        self.eig_cubed = 0
        self.wrapped: list[str] = []
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count_eig(self, a) -> None:
        shape = getattr(a, "shape", None)
        if not shape or len(shape) < 2:
            return
        batch = 1
        for s in shape[:-2]:
            batch *= int(s)
        self.eig_matrices += batch
        self.eig_cubed += batch * int(shape[-1]) ** 3

    def wrap(self, span_name: str, fn, count_eig: bool = False):
        nid = self._intern(span_name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        count = self._count_eig if count_eig else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None and args:
                count(args[0])
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, original))

    def install(self, targets, modules) -> None:
        """Wrap each (module, attribute, span name, counts eigensolves) target.

        Every alias of the original function found in ``modules`` is
        rebound to the wrapper; a missing attribute is skipped.
        """
        for module, attr, span_name, count_eig in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._rebind(original, self.wrap(span_name, original, count_eig), modules)
            self.wrapped.append(span_name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def dump(self, path: str) -> None:
        """Write every span as gzip'd TSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{names[self.name_id[i]]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans only) and self_s."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            nid = self.name_id[i]
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                agg["total_s"] += dur[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        hits = 0
        for i in range(len(self.start)):
            if self.name_id[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits


def trace_jcnc() -> Tracer:
    """A tracer installed on every public jcnc function and numpy's eigensolvers."""
    import numpy.linalg as linalg

    targets = []
    for short in JCNC_MODULES:
        module = sys.modules.get(f"jcnc.{short}")
        if module is not None:
            targets += [(module, f, f"{short}.{f}", False) for f in public_functions(module)]
    targets += [(linalg, f, f"linalg.{f}", True) for f in EIGEN_SOLVERS]
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "jcnc"]
    tracer = Tracer()
    tracer.install(targets, modules + [linalg])
    return tracer
