"""Span recording around the library's public functions, from outside.

`Tracer.install()` replaces every module attribute under `nanowords`
that is bound to one of the traced functions with a wrapper, so calls
made inside the library (for example `NeighborCache.raw` calling
`nanowords.moves.find_move_sites`, or `cli.classify` calling
`inv.lk_phrase`) are recorded as well as the benchmark's own calls.
Each span is (name id, parent span, start, end, count) in flat arrays;
self time is derived from the spans after the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (span name, module that defines the function, attribute, count rule)
TRACED_FUNCTIONS = (
    ("core.canonical_form", "nanowords.core", "canonical_form", None),
    ("core.enumerate_nanophrases", "nanowords.core", "enumerate_nanophrases", "gen"),
    ("moves.find_move_sites", "nanowords.moves", "find_move_sites", "len"),
    ("moves.apply_move", "nanowords.moves", "apply_move", None),
    ("moves.equivalent", "nanowords.moves", "equivalent", "explored"),
    ("moves.replay_path", "nanowords.moves", "replay_path", "path_len"),
    ("lift.phi", "nanowords.lift", "phi", None),
    ("lift.psi", "nanowords.lift", "psi", None),
    ("lift.check_conditions", "nanowords.lift", "check_conditions", None),
    ("invariants.lk_phrase", "nanowords.invariants", "lk_phrase", None),
    ("invariants.clv_phrase", "nanowords.invariants", "clv_phrase", None),
    ("invariants.so_phrase", "nanowords.invariants", "so_phrase", None),
    ("invariants.t_invariant", "nanowords.invariants", "t_invariant", None),
    ("invariants.lk_lifted", "nanowords.invariants", "lk_lifted", None),
    ("invariants.clv_lifted", "nanowords.invariants", "clv_lifted", None),
    ("invariants.so_lifted", "nanowords.invariants", "so_lifted", None),
    ("cli.classify", "nanowords.cli", "classify", "classify_states"),
)
# NeighborCache methods, wrapped on the class.
TRACED_METHODS = (
    ("moves.NeighborCache.raw", "raw", "len"),
    ("moves.NeighborCache.within", "within", "len"),
)


def _count(rule, result):
    if rule == "len":
        return len(result)
    if rule == "explored":
        return result.explored
    return result[3]  # classify: (seeds, classes, unknown, states, truncated)


class Tracer:
    """Flat in-memory span store; one instance per traced process."""

    def __init__(self):
        self.names = []
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = []
        self._restore = []

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid):
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx, count):
        self.end[idx] = time.perf_counter()
        self.count[idx] = count
        self._stack.pop()

    def _wrap(self, func, name, rule):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        if rule == "gen":
            def wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)

                def spans():
                    while True:
                        idx = open_(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            close(idx, 0)
                            return
                        except BaseException:
                            close(idx, 0)
                            raise
                        close(idx, 1)
                        yield item
                return spans()
        elif rule == "path_len":
            def wrapper(start, path, *args, **kwargs):
                idx = open_(nid)
                try:
                    return func(start, path, *args, **kwargs)
                finally:
                    close(idx, len(path))
        elif rule is None:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return func(*args, **kwargs)
                finally:
                    close(idx, 1)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    close(idx, 0 if result is None else _count(rule, result))
        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in loaded nanowords modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nanowords" or n.startswith("nanowords."))]
        for name, module_name, attr, rule in TRACED_FUNCTIONS:
            func = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(func, name, rule)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, func))
        cache_cls = sys.modules["nanowords.moves"].NeighborCache
        for name, attr, rule in TRACED_METHODS:
            func = getattr(cache_cls, attr)
            setattr(cache_cls, attr, self._wrap(func, name, rule))
            self._restore.append((cache_cls, attr, func))

    def uninstall(self):
        for owner, key, func in reversed(self._restore):
            setattr(owner, key, func)
        self._restore.clear()

    def write(self, path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.nid),
                  "arrays": ["nid:i", "parent:i", "start:d", "end:d", "count:q"]}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.nid, self.parent, self.start, self.end, self.count):
                arr.tofile(handle)

    def summarize(self):
        """Per span name: calls, inclusive and self seconds, summed counts.

        Also returns the NeighborCache.raw figures split into misses (the
        span has a find_move_sites child, i.e. the neighbours were built)
        and the raw children seen under NeighborCache.within.
        """
        n = len(self.nid)
        nid, parent, start, end, count = self.nid, self.parent, self.start, self.end, self.count
        dur = [end[i] - start[i] for i in range(n)]
        child_time = [0.0] * n
        raw_id = self.names.index("moves.NeighborCache.raw")
        within_id = self.names.index("moves.NeighborCache.within")
        fms_id = self.names.index("moves.find_move_sites")
        miss = set()
        generated_under_within = 0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += dur[i]
                if nid[i] == fms_id and nid[p] == raw_id:
                    miss.add(p)
                elif nid[i] == raw_id and nid[p] == within_id:
                    generated_under_within += count[i]
        stats = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "count": 0}
                 for name in self.names}
        expand = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "count": 0}
        for i in range(n):
            name = self.names[nid[i]]
            row = stats[name]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child_time[i]
            row["count"] += count[i]
            if i in miss:
                expand["calls"] += 1
                expand["incl_s"] += dur[i]
                expand["self_s"] += dur[i] - child_time[i]
                expand["count"] += count[i]
        return stats, expand, generated_under_within
