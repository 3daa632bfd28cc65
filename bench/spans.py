"""Spans around the program's public functions, for the traced run.

A wrapper replaces a function at every name its callers look it up by: the
defining module's attribute and each binding made by ``from .x import f`` in
another module. Each call opens a span with its name and start time and
closes it at its end time; the enclosing open span is its parent. Spans are
folded into per-name totals as they close, because the evaluate workload
closes millions of them per round: a span's self time is its length minus
the time its child spans cover, which on one thread is the sum of their
lengths.
"""

from __future__ import annotations

from collections import defaultdict
from functools import wraps
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled  # spans are recorded only while ``active``
        self.active = False
        self._open: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.sequence_args: list[tuple] = []

    def wrap(self, name, fn, on_return=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [0.0]  # time covered by child spans
            self._open.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                length = perf_counter() - start
                self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += length - span[0]
                if self._open:
                    self._open[-1][0] += length
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self, bindings) -> None:
        """Replace each (name, [(owner, attribute), ...], on_return) binding."""
        for name, sites, on_return in bindings:
            original = getattr(*sites[0])
            wrapper = self.wrap(name, original, on_return)
            for owner, attribute in sites:
                if getattr(owner, attribute) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attribute} is not {name}")
                setattr(owner, attribute, wrapper)


def _on_sequence(tracer, args, result):
    tracer.sequence_args.append((args[0], args[1]))


def _on_search(tracer, args, result):
    if result is not None:
        tracer.counters["scheme.classes"] += len(result.classes())


def _on_analysis(tracer, args, result):
    c = tracer.counters
    c["reasoning.ranks_certified"] += result.certified
    c["reasoning.events"] += len(result.outcomes)
    c["reasoning.events_vacuous"] += sum(o.verdict == "vacuous" for o in result.outcomes)
    c["reasoning.events_bailed_out"] += sum(o.verdict == "bailed-out" for o in result.outcomes)


def program_bindings():
    """Every traced function with the names it is looked up by."""
    from permscheme import counting, oracle, perms, reasoning, recurrence, scheme

    return [
        ("counting.sequence", [(counting, "sequence")], _on_sequence),
        ("counting.count_class", [(counting, "count_class")], None),
        ("perms.delete_rank", [(perms, "delete_rank"), (counting, "delete_rank"),
                               (scheme, "delete_rank"), (oracle, "delete_rank")], None),
        ("perms.avoids_all", [(perms, "avoids_all"), (scheme, "avoids_all")], None),
        ("reasoning.GapSet.violated", [(reasoning.GapSet, "violated")], None),
        ("reasoning.compute_gap_set", [(reasoning, "compute_gap_set"),
                                       (scheme, "compute_gap_set")], None),
        ("reasoning.analyze_deletable", [(reasoning, "analyze_deletable")], _on_analysis),
        ("reasoning.find_bailout", [(reasoning, "find_bailout")], None),
        ("recurrence.guess_recurrence", [(recurrence, "guess_recurrence")], None),
        ("recurrence.nullspace", [(recurrence, "nullspace")], None),
        ("scheme.search", [(scheme, "search")], _on_search),
        ("scheme.serialize", [(scheme, "serialize")], None),
        ("scheme.deserialize", [(scheme, "deserialize")], None),
        ("oracle.count_avoiders", [(oracle, "count_avoiders")], None),
        ("oracle.empirical_gap_set", [(oracle, "empirical_gap_set")], None),
        ("oracle.empirical_deletable", [(oracle, "empirical_deletable")], None),
        ("oracle.prefix_class_members", [(oracle, "prefix_class_members")], None),
    ]
