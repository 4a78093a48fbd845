"""Spans around calls into the package's public functions, from outside it.

``install`` replaces each traced function by a wrapper in every
``jacquet`` module that binds the name, so calls that go through a
``from .x import f`` binding (``spclassifier.jacquet_by_shape``,
``cli.mu_star``, ...) are seen as well as module-internal calls.  Spans are
kept in memory as (name, start ns, end ns, parent index, query id) and
written out when the run ends.  Work the tracer does for its own counters
is wrapped in ``trace.bookkeeping`` spans, so it is never charged to a
layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from jacquet.grothendieck import FormalSum, GLMonomial, GUClass, TensorTerm
from jacquet.segments import Segment

QUERY = "query"
BOOKKEEPING = "trace.bookkeeping"
# Callers whose direct FormalSum results are user-visible outputs.
_OUTPUT_PARENTS = (QUERY, "cli.run_command")
_RETAIN_TERMS = 50_000


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.query_ids: list = []
        self._stack: list = []
        self.query_id = -1
        self.counters = defaultdict(int)
        self.seen_segments: set = set()
        self.last_mu_star = None
        self.outputs: list = []
        self._retained_terms = 0

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.query_ids.append(self.query_id)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def caller(self) -> str:
        return self.names[self._stack[-1]] if self._stack else ""

    def retain(self, result) -> None:
        """Keep user-visible outputs, up to a term budget, for the rebuild
        and sort probes."""
        if (isinstance(result, FormalSum) and self.caller() in _OUTPUT_PARENTS
                and self._retained_terms < _RETAIN_TERMS):
            self.outputs.append(result)
            self._retained_terms += len(result)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "query"],
                "spans": list(zip(self.names, self.starts, self.ends,
                                  self.parents, self.query_ids)),
            }, handle, separators=(",", ":"))


# -- counters kept at the layer boundaries ---------------------------------

def _after_twisted_rtimes(tr, args, kwargs, result):
    tr.counters["structure.twisted_rtimes.raw_products"] += len(args[0]) * len(args[1])
    tr.counters["structure.twisted_rtimes.terms_out"] += len(result)


def _after_mu_star_of_segments(tr, args, kwargs, result):
    for seg in args[0]:
        tr.counters["structure.fold_segments"] += 1
        if seg in tr.seen_segments:
            tr.counters["structure.fold_segments_reused"] += 1
        else:
            tr.seen_segments.add(seg)
    tr.retain(result)


def _after_mu_star(tr, args, kwargs, result):
    tr.last_mu_star = result
    tr.retain(result)


def _after_jacquet_by_shape(tr, args, kwargs, result):
    total = sum(args[1])
    mu, tr.last_mu_star = tr.last_mu_star, None
    tr.counters["structure.jacquet_by_shape.mu_terms"] += len(mu)
    tr.counters["structure.jacquet_by_shape.rank_matched"] += sum(
        1 for term in mu.terms() if term.factors[0].rank == total)
    tr.retain(result)


def _after_mstar_big(tr, args, kwargs, result):
    tr.retain(result)


TRACED = {
    "grothendieck.tensor_multiply": None,
    "grothendieck.sum_to_obj": None,
    "structure.twisted_rtimes": _after_twisted_rtimes,
    "structure.mu_star_of_segments": _after_mu_star_of_segments,
    "structure.mu_star": _after_mu_star,
    "structure.jacquet_by_shape": _after_jacquet_by_shape,
    "structure.mstar_gl": None,
    "structure.mstar_big": _after_mstar_big,
    "spclassifier.enumerate_sp": None,
    "spclassifier.build_inducing_rep": None,
    "spclassifier.validate_lj": None,
    "spclassifier.leading_term_multiplicity": None,
    "weyl.brute_force_coset_reps": None,
    "weyl.length": None,
    "weyl.q_rep": None,
    "expressions.parse_expression": None,
    "expressions.parse_tensor_target": None,
    "cli.run_command": None,
}


def _wrap(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            keep = tracer.open(BOOKKEEPING)
            after(tracer, args, kwargs, result)
            tracer.close(keep)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Rebind every traced function in every loaded ``jacquet`` module."""
    for qualified, after in TRACED.items():
        module_name, func_name = qualified.split(".")
        original = getattr(importlib.import_module("jacquet." + module_name), func_name)
        wrapper = _wrap(tracer, qualified, original, after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "jacquet" and not mod_name.startswith("jacquet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# -- probes on retained outputs ---------------------------------------------

def _per_unit_us(fn, units: int, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    times.sort()
    return times[len(times) // 2] / 1e3 / max(units, 1)


def _rebuild_factor(f):
    if isinstance(f, GUClass):
        return GUClass(f.segments, f.sigma, f.twist)
    return GLMonomial(f.segments)


def rebuild_probes(outputs: list) -> tuple:
    """Rebuild every output segment, and every output term into a fresh
    FormalSum, from public fields; time ``sorted_items``.  Returns the
    per-unit times in microseconds and whether every rebuilt sum equals
    the original."""
    segments = [s for out in outputs for t in out.terms()
                for f in t.factors for s in f.segments]
    n_terms = sum(len(out) for out in outputs)

    def rebuild_segments():
        for s in segments:
            Segment(s.rho, s.a, s.b)

    rebuilt = []

    def rebuild_terms():
        rebuilt.clear()
        for out in outputs:
            rebuilt.append(FormalSum({
                TensorTerm(tuple(_rebuild_factor(f) for f in term.factors)): mult
                for term, mult in out.items()
            }))

    def sort_terms():
        for out in outputs:
            out.sorted_items()

    seg_us = _per_unit_us(rebuild_segments, len(segments))
    term_us = _per_unit_us(rebuild_terms, n_terms)
    sort_us = _per_unit_us(sort_terms, n_terms)
    same = all(a == b for a, b in zip(rebuilt, outputs))
    return seg_us, term_us, sort_us, same


# -- per-layer metrics --------------------------------------------------------

def _durations(tracer: Tracer) -> tuple:
    """Each span's duration and the time its child spans cover, in ns."""
    dur = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    child = [0] * len(dur)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += dur[i]
    return dur, child


def layer_metrics(tracer: Tracer) -> dict:
    """Calls, busy time and self time per traced function, over every span.
    Self time is a span's duration minus the time its child spans cover."""
    dur, child = _durations(tracer)
    calls, busy, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        busy[name] += dur[i]
        self_ns[name] += dur[i] - child[i]
    return {"calls": calls, "busy_s": {k: v / 1e9 for k, v in busy.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()}}


def loop_accounting(tracer: Tracer, loop_count: int) -> tuple:
    """(sum of query-span durations, sum of layer self times) over the
    timed loop's queries, the first ``loop_count``, in seconds."""
    dur, child = _durations(tracer)
    loop_ns = layer_self_ns = 0
    for i, name in enumerate(tracer.names):
        if not 0 <= tracer.query_ids[i] < loop_count:
            continue
        if name == QUERY:
            loop_ns += dur[i]
        elif name != BOOKKEEPING:
            layer_self_ns += dur[i] - child[i]
    return loop_ns / 1e9, layer_self_ns / 1e9
