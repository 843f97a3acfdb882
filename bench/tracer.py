"""Per-layer tracing of the ``rowtuples`` package from outside.

:class:`Tracer` wraps every public module-level function of the traced
modules and rebinds the wrapper wherever the original is bound in a module
namespace of the package, including the defining module and module-level
dicts such as ``sweeps.SUITES``.  Calls that one module makes into another
through ``from .x import f`` are therefore traced as well.

Each call becomes a span: function, parent span, start and end.  Spans are
kept in memory in flat arrays; :meth:`Tracer.summary` derives per-function
call counts, inclusive time and self time (a span's length minus the
length of its traced children).  Methods of classes and generator
functions are not wrapped: their time counts as self time of the traced
function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array


class Tracer:
    """Span recorder for the public functions of a set of modules.

    ``modules`` are full module names, ``package`` is the prefix whose
    modules get their bindings replaced, ``probes`` maps a qualified name
    ``"<module>.<function>"`` to a callable that receives the call's
    arguments and returns a dict of numbers; the summary keeps the maximum
    of each.  ``clock`` is the time source, in seconds.
    """

    def __init__(self, modules, package, probes=None, clock=time.perf_counter):
        self.modules = list(modules)
        self.package = package
        self.probes = dict(probes or {})
        self.clock = clock
        self.names: list[str] = []
        self.fn_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.probed: dict[int, dict] = {}
        self._stack: list[int] = []
        self._originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._wrapper_ids: set[int] = set()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for modname in self.modules:
            mod = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != modname
                    or inspect.isgeneratorfunction(obj)
                    or id(obj) in self._originals
                    or id(obj) in self._wrapper_ids
                ):
                    continue
                qual = f"{short}.{name}"
                self.names.append(qual)
                wrapper = self._wrap(obj, len(self.names) - 1, self.probes.get(qual))
                self._originals[id(obj)] = (obj, wrapper)
                self._wrapper_ids.add(id(wrapper))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (
                modname == self.package or modname.startswith(self.package + ".")
            ):
                continue
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if name.startswith("__"):
                    continue
                self._rebind(namespace, name, obj)
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        self._rebind(obj, key, value)

    def _rebind(self, mapping, key, obj) -> None:
        entry = self._originals.get(id(obj))
        if entry is not None and entry[0] is obj:
            mapping[key] = entry[1]
            self._patched.append((mapping, key, obj))

    def uninstall(self) -> None:
        for mapping, key, obj in reversed(self._patched):
            mapping[key] = obj
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, fid, probe):
        stack, clock = self._stack, self.clock
        fn_ids, parents, starts, ends = self.fn_id, self.parent, self.start, self.end
        probed = self.probed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fn_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if probe is not None:
                probed[idx] = probe(*args, **kwargs)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    # ------------------------------------------------------------ results

    @property
    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict]:
        """Per-function ``calls``, ``incl_s``, ``self_s`` and probe maxima.

        Inclusive time counts only the outermost span of a function, so a
        recursive call is not counted twice; self time subtracts the time
        covered by direct traced children.
        """
        n = self.span_count
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            fid = self.fn_id[i]
            rec = out.setdefault(
                self.names[fid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not self._inside_same(i, fid):
                rec["incl_s"] += dur[i]
            for key, value in self.probed.get(i, {}).items():
                rec[key] = max(rec.get(key, value), value)
        return out

    def _inside_same(self, i: int, fid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.fn_id[p] == fid:
                return True
            p = self.parent[p]
        return False
