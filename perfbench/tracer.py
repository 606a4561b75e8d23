"""Outside-in tracing of the epshift package.

Every public function of every epshift module is wrapped at each module
binding that holds it (modules import each other's functions by name, so
calls made inside the library are seen too).  A span is (name, start, end,
parent, request, outermost); spans stay in flat arrays in memory and are
written out once, when the traced process ends.  The cache census reads
``cache_info()`` from the unwrapped functions, because a wrapper hides it.
"""

from __future__ import annotations

import array
import importlib
import json
import pkgutil
import time
import types
from collections import defaultdict

# Counts taken at a span boundary from the value it returns.
RESULT_COUNTS = {
    "classify.flow_witness": ("classify.flow_moves", lambda w: len(w.chain_x) + len(w.chain_y)),
}


def epshift_modules() -> list[types.ModuleType]:
    import epshift

    names = sorted(m.name for m in pkgutil.iter_modules(epshift.__path__) if m.name != "__main__")
    return [epshift] + [importlib.import_module(f"epshift.{n}") for n in names]


def _is_traceable(obj) -> bool:
    kind = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
    return kind and getattr(obj, "__module__", "").startswith("epshift")


class Tracer:
    """Span recorder; `install` wraps the package in place."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array.array = array.array("i")
        self.start: array.array = array.array("d")
        self.end: array.array = array.array("d")
        self.parent: array.array = array.array("i")
        self.req: array.array = array.array("i")
        self.outer: array.array = array.array("b")
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.originals: dict[int, object] = {}
        self._stack: list[int] = []
        self._active: list[int] = []

    def install(self) -> None:
        """Wrap every public epshift function at every binding."""
        mods = epshift_modules()
        wrappers: dict[int, object] = {}
        for mod in mods:
            for name, obj in vars(mod).items():
                if not name.startswith("_") and _is_traceable(obj) and id(obj) not in wrappers:
                    span = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(span, obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not name.startswith("_"):
                    setattr(mod, name, wrappers[id(obj)])

    def _wrap(self, span: str, fn):
        tid = len(self.names)
        self.names.append(span)
        self._active.append(0)
        clock = time.perf_counter
        name_of, start, end = self.name_of, self.start, self.end
        parent, req, outer = self.parent, self.req, self.outer
        stack, active = self._stack, self._active
        counter = RESULT_COUNTS.get(span)

        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(tid)
            parent.append(stack[-1] if stack else -1)
            req.append(self.request)
            outer.append(active[tid] == 0)
            end.append(0.0)
            stack.append(idx)
            active[tid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[tid] -= 1
                stack.pop()
            if counter is not None and self.request >= 0:
                self.counts[counter[0]] += counter[1](result)
            return result

        self.originals[id(wrapper)] = fn
        return wrapper

    def summary(self) -> dict:
        """Per function, over the spans of timed requests: calls and self
        seconds, and per request the seconds of its outermost spans."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        per_request: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            if self.req[i] < 0:  # outside a timed request: the oracle's own calls
                continue
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if self.outer[i]:
                per_request[name][self.req[i]] += dur[i]
        return {
            "spans": sum(1 for r in self.req if r >= 0),
            "calls": dict(calls),
            "self_s": dict(self_s),
            "per_request_s": {k: {str(r): s for r, s in v.items()} for k, v in per_request.items()},
            "counts": dict(self.counts),
        }

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name_of),
            "arrays": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"],
                       ["request", "i"], ["outermost", "b"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent, self.req, self.outer):
                arr.tofile(fh)

    def census(self) -> dict:
        return cache_census(self.originals)


def cache_census(originals: dict[int, object] | None = None) -> dict:
    """Size and hit counts of every lru cache found on an epshift module
    function; wrapped functions are looked through to their originals."""
    originals = originals or {}
    found: dict[int, tuple[str, object]] = {}
    for mod in epshift_modules():
        for obj in vars(mod).values():
            base = originals.get(id(obj), obj)
            if callable(getattr(base, "cache_info", None)) and id(base) not in found:
                found[id(base)] = (base.__name__, base)
    out = {}
    for name, fn in sorted(found.values(), key=lambda t: t[0]):
        info = fn.cache_info()
        out[name] = {"entries": info.currsize, "hits": info.hits, "misses": info.misses}
    return out


def merge_summaries(parts: list[dict]) -> dict:
    """Combine summaries of several traced processes."""
    total = {"spans": 0, "calls": defaultdict(int), "self_s": defaultdict(float),
             "per_request_s": defaultdict(lambda: defaultdict(float)), "counts": defaultdict(int)}
    for part in parts:
        total["spans"] += part["spans"]
        for key in ("calls", "self_s", "counts"):
            for name, value in part[key].items():
                total[key][name] += value
        for name, reqs in part["per_request_s"].items():
            for r, s in reqs.items():
                total["per_request_s"][name][r] += s
    return json.loads(json.dumps(total))


def merge_census(parts: list[dict]) -> dict:
    total: dict[str, dict[str, int]] = {}
    for part in parts:
        for name, info in part.items():
            slot = total.setdefault(name, {"entries": 0, "hits": 0, "misses": 0})
            for key in slot:
                slot[key] += info[key]
    return total

