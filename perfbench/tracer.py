"""Spans and counters recorded around the calls into each layer.

The package under test is not edited: ``instrument`` replaces selected
functions and methods by timing wrappers after import, rebinding every
name in the package that refers to the original object (so a function
imported by name into another module, or a method aliased as ``__rmul__``,
is wrapped too).

A span is ``(span_id, name, start, end, parent_id, thread_id)`` and stays
in memory until ``Tracer.dump`` writes the whole run out.  Spans opened in
a worker thread with no open span of its own take as parent the span that
is open in the thread that created the tracer, so work submitted to a
thread pool is attributed to the call that submitted it.

The analysis half (``load``, ``self_times``, ``exclusive_time``...) works
on the dumped form and does not import the package.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter

# layer of a span or counter = the text before the first dot of its name
LAYERS = ("checks", "recursion", "series", "numfield", "tau", "partitions",
          "oracle", "pluecker", "frobenius", "report")


class Tracer:
    def __init__(self):
        self.spans = []
        self.values = Counter()
        self.keys = {}
        self._hot = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, on_return=None):
        """Wrap fn so every call records a span; on_return(args, result)
        may add values with ``add`` or ``see``."""
        ids, spans, clock = self._ids, self.spans, time.perf_counter
        home = self._home

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = home[-1] if home and stack is not home else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              threading.get_ident()))
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        """Wrap fn so its calls are counted, with no span."""
        # next() on itertools.count runs as one C call under the
        # interpreter lock, so increments from several threads are not lost
        counter = self._hot.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, name, amount=1):
        with self._lock:
            self.values[name] += amount

    def see(self, name, key):
        """Record one use of key under name; the first use of each key is
        a miss, every later one a hit."""
        with self._lock:
            seen = self.keys.setdefault(name, set())
            if key in seen:
                self.values[name + ".hits"] += 1
            else:
                seen.add(key)
                self.values[name + ".misses"] += 1

    def snapshot(self):
        values = dict(self.values)
        for name, counter in self._hot.items():
            # the next value handed out equals the number of calls so far
            values[name] = next(counter)
        return {"spans": list(self.spans), "values": values}

    def dump(self, path, extra=None):
        data = self.snapshot()
        data["values"].update(extra or {})
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def rebind(package_modules, original, replacement):
    """Point every module or class attribute that is ``original`` at
    ``replacement``; returns how many names were rebound."""
    n = 0
    for module in package_modules:
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type)
                             and v.__module__ == module.__name__]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, replacement)
                    n += 1
    return n


def instrument(tracer):
    """Wrap the public entry points of every layer of the hypermaps
    package.  Returns the lru caches whose statistics the report reads."""
    import hypermaps  # noqa: F401 - loads every module of the package
    from hypermaps import (checks, frobenius, numfield, oracle, partitions,
                           pluecker, recursion, report, series, tau)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "hypermaps" or name.startswith("hypermaps.")]
    caches = {"partitions.character": partitions.character,
              "tau.coefficient_A": tau.coefficient_A,
              "tau.schur_special": tau.schur_special}

    def wrap(owner, attr, name, on_return=None):
        original = vars(owner)[attr]
        replacement = tracer.span(name, original, on_return)
        if not rebind(modules, original, replacement):
            raise RuntimeError(f"nothing bound to {name}")

    def count(owner, attr, name):
        original = vars(owner)[attr]
        if not rebind(modules, original, tracer.count(name, original)):
            raise RuntimeError(f"nothing bound to {name}")

    def omega_seen(args, result):
        rec, g, n = args[:3]
        tracer.see("recursion.omega", (id(rec), g, n))

    def table_seen(args, result):
        N, degrees = args[0], tuple(args[1])
        tracer.see("oracle.genus_table", (N, degrees))
        d = sum(degrees)
        if d % N == 0:
            tracer.add("oracle.perms_enumerated", _n_cycle_perms(d, N))

    def pluecker_seen(args, result):
        tracer.add("pluecker.relations_checked", result.relations_checked)
        tracer.add("pluecker.relations_skipped", result.relations_skipped)

    def emitted(args, result):
        tracer.add("report.bytes", len(result))

    NF, Uni, Multi = numfield.NFElem, series.UniSeries, series.MultiSeries
    count(NF, "__mul__", "numfield.mul_calls")
    count(NF, "__add__", "numfield.add_calls")
    count(NF, "inv", "numfield.inv_calls")
    count(series.EpsLaurent, "__mul__", "series.eps_mul_calls")
    wrap(Uni, "__mul__", "series.uni_mul")
    wrap(Uni, "inv", "series.uni_inv")
    wrap(Uni, "pow", "series.uni_pow")
    wrap(Uni, "compose", "series.uni_compose")
    wrap(series, "lagrange_invert", "series.lagrange_invert")
    wrap(Multi, "__mul__", "series.multi_mul")
    wrap(Multi, "log", "series.multi_log")
    wrap(recursion.Recursion, "omega", "recursion.omega", omega_seen)
    wrap(recursion, "deck_series", "recursion.deck_series")
    wrap(recursion.Recursion, "rhm_from_tr", "recursion.rhm_from_tr")
    wrap(tau, "tau_Z", "tau.tau_Z")
    wrap(tau.TauTruncation, "log", "tau.log")
    wrap(tau, "rhm_from_tau", "tau.rhm_from_tau")
    wrap(partitions, "character", "partitions.character")
    wrap(oracle, "genus_table", "oracle.genus_table", table_seen)
    wrap(oracle, "enumerate_rhm", "oracle.enumerate_rhm")
    wrap(pluecker, "pluecker_check", "pluecker.check", pluecker_seen)
    for gate in FROBENIUS_GATES:
        wrap(frobenius, gate, "frobenius." + gate)
    wrap(checks, "run_crosscheck", "checks.run_crosscheck")
    wrap(checks, "_three_way_for_N", "checks.three_way")
    wrap(report, "emit", "report.emit", emitted)
    return caches


FROBENIUS_GATES = ("s_matrix", "canonical_frame", "s_column_residue_check",
                   "unstable01", "unstable02")


def _n_cycle_perms(d, N):
    """Permutations of d points whose cycles all have length N:
    d! / (N^(d/N) (d/N)!)."""
    from math import factorial
    m = d // N
    return factorial(d) // (N ** m * factorial(m))


# -- analysis of a dumped trace ---------------------------------------------


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["values"]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span_id -> duration minus the part of the span's interval that its
    children, in any thread, cover."""
    children = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end))
                for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - union_length(kids)
    return out


def layer_self_times(spans):
    selfs = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, name, *_ in spans:
        out[name.split(".", 1)[0]] += selfs[sid]
    return out


def exclusive_time(spans, names):
    """Time spent inside spans named in ``names``, a span nested in
    another of the group counted once (so recursion is not counted
    twice)."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    memo = {}

    def in_group(sid):
        """True when sid or one of its ancestors is a group span."""
        path = []
        while sid is not None and sid not in memo:
            span = by_id.get(sid)
            if span is None:
                break
            if span[1] in names:
                memo[sid] = True
                break
            path.append(sid)
            sid = span[4]
        result = memo.get(sid, False)
        for p in path:
            memo[p] = result
        return result

    return sum(end - start for _, name, start, end, parent, _ in spans
               if name in names and not in_group(parent))


def subtree(spans, root_name):
    """The first span named root_name and all of its descendants."""
    root = next((s for s in spans if s[1] == root_name), None)
    if root is None:
        return []
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s[0], ()))
    return out


def durations(spans, name):
    return [end - start for _, n, start, end, _, _ in spans if n == name]
