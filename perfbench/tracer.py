"""Span tracer installed from outside the program.

`Tracer.install` replaces every public function and every public method of
every class defined in the listed teesim modules with a wrapper that records
one span: name id, start and end (``perf_counter_ns``), parent span and
whether the call raised. Module-level functions are also replaced wherever
another teesim module imported them by name, so internal calls are seen.

Spans stay in flat arrays in memory while the traced work runs; `aggregate`
turns them into per-name calls, inclusive time and self time (duration
minus the time covered by direct children), and `write` dumps them at the
end of the run.
"""

import importlib
import inspect
import json
import sys
import time
from array import array
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# Modules whose public functions are layer boundaries. `units` and `errors`
# hold only tiny helpers and exception classes; wrapping `units` would put a
# span on every trace record's timestamp formatting and swamp the rest.
LAYERS = ("adversary", "world", "hw_model", "stage2", "engine", "sos",
          "monitor", "ros", "secure_world", "scenario", "bench")

# Return-value reducers: some layer counts are carried by what a call returns.
RETURN_REDUCERS: Dict[str, Callable] = {
    "engine.Engine.run_until": lambda r: r,
    "sos.SandboxRuntime.monitor_cpu": lambda r: r is not None,
    "sos.SandboxRuntime.monitor_memory": lambda r: r is not None,
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.raised = array("b")
        self.returned: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return `fn` wrapped in a span called `name`."""
        nid = self.name_id(name)
        reducer = RETURN_REDUCERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_of, start, end = self.name_of, self.start, self.end
        parent, raised = self.parent, self.raised
        returned = self.returned
        if reducer is not None:
            returned[name] = 0

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            raised.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                raised[idx] = 1
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if reducer is not None:
                returned[name] += reducer(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"teesim.{m}") for m in LAYERS}
        everywhere = [mod for name, mod in sys.modules.items()
                      if name.startswith("teesim.") and mod is not None]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._install_class(short, obj)
                elif _plain_function(obj):
                    wrapped = self.wrap(f"{short}.{attr}", obj)
                    for other in everywhere:
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, alias, wrapped)

    def _install_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not _plain_function(obj):
                continue
            self._patch(cls, attr, self.wrap(f"{short}.{cls.__name__}.{attr}", obj))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, raised, inclusive seconds (outermost
        occurrence only, so recursion is not counted twice) and self
        seconds."""
        n = len(self.start)
        child_ns = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        stats = {name: {"calls": 0, "raised": 0, "incl_ns": 0, "self_ns": 0}
                 for name in self.names}
        name_of, raised = self.name_of, self.raised
        for i in range(n):
            nid = name_of[i]
            s = stats[self.names[nid]]
            dur = end[i] - start[i]
            s["calls"] += 1
            s["raised"] += raised[i]
            s["self_ns"] += dur - child_ns[i]
            if not _inside_same(i, nid, parent, name_of):
                s["incl_ns"] += dur
        return stats

    def write(self, path: Path, header: dict) -> None:
        """Write the spans as a JSON index plus one binary column file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name_id", self.name_of), ("start_ns", self.start),
                   ("end_ns", self.end), ("parent", self.parent),
                   ("raised", self.raised)]
        index = dict(header)
        index.update({
            "spans": len(self.start),
            "names": self.names,
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
            "byteorder": sys.byteorder,
            "data": path.with_suffix(".bin").name,
        })
        with open(path.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        path.write_text(json.dumps(index, indent=1) + "\n")


def _plain_function(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _inside_same(i: int, nid: int, parent, name_of) -> bool:
    p = parent[i]
    while p >= 0:
        if name_of[p] == nid:
            return True
        p = parent[p]
    return False
