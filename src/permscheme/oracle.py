"""Brute-force ground truth for pattern avoidance on small sizes.

Everything here enumerates along one depth-first search, ``_iter_avoiders``.
It extends a prefix one value at a time, in increasing order, and keeps a
value only if no forbidden pattern ends at it; containment is hereditary,
so a pruned prefix could never recover. The test is
``perms.ends_with_bounds`` on slot bounds that ``perms.slot_bounds``
compiles once per pattern; each search fetches them before its loop.
Positions can be pinned to given values, which restricts the search to one
prefix class. Counting, listing and class membership read the leaves of
that search. The empirical deletion probes read class sizes from per-size
prefix tallies (``_PrefixTally``): one search per size, whose avoiders are
counted by their first k entries. A tally lives for one
``empirical_scheme_search`` or ``empirical_deletable`` call; nothing is
kept across calls. A deletion probe of a length-k prefix stops at size
k+m-1, m the longest pattern length, since a miss at any size cuts down to
a miss at most that large (see ``_deletable``). Empirical gaps need no
tally: sizes up to any n past k show exactly the open gaps that size k+1
shows, which ``reasoning.compute_gap_set`` decides on one permutation per
gap. So the empirical search finds the same scheme at every horizon from
depth + m - 1 on; a horizon at or below its depth is rejected. The routines
are exact but exponential; they exist to cross-check the certified
machinery up to n around 10, and to drive the empirical (uncertified)
variant of the scheme search.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator

from .perms import (
    PatternSet,
    Perm,
    avoids_all,
    check_prefix_values,
    delete_rank,
    ends_with_bounds,
    normalize_patterns,
    slot_bounds,
)
from .reasoning import GapSet, compute_gap_set
from .scheme import MODE_EMPIRICAL, Scheme, _search_core

DEFAULT_HORIZON = 8


def _iter_avoiders(n: int, patterns: PatternSet, forced: "tuple[int, ...]" = ()) -> Iterator[Perm]:
    # Lexicographic DFS with an explicit stack; position j < len(forced)
    # takes the value forced[j].
    plans = [slot_bounds(q) for q in patterns]
    pinned = len(forced)
    prefix: list[int] = []
    used = [False] * (n + 1)
    start = 1
    depth = 0
    while True:
        if depth == n:
            yield tuple(prefix)
        else:
            if depth < pinned:
                top = forced[depth]
                start = max(start, top)
            else:
                top = n
            for v in range(start, top + 1):
                if not used[v]:
                    for bounds in plans:
                        if ends_with_bounds(prefix, v, bounds):
                            break
                    else:
                        break
            else:
                v = 0  # no value extends the prefix
            if v:
                used[v] = True
                prefix.append(v)
                depth += 1
                start = 1
                continue
        if not depth:
            return
        v = prefix.pop()
        used[v] = False
        depth -= 1
        start = v + 1


def enumerate_avoiders(n: int, patterns: Iterable[Perm]) -> list[Perm]:
    """All permutations of 1..n avoiding every pattern, lexicographically.

    >>> enumerate_avoiders(4, [(1, 2)])
    [(4, 3, 2, 1)]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return list(_iter_avoiders(n, normalize_patterns(patterns)))


def count_avoiders(n: int, patterns: Iterable[Perm]) -> int:
    """Number of avoiders of size n: the leaves of the pruned search tree."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(1 for _ in _iter_avoiders(n, normalize_patterns(patterns)))


def prefix_class_members(
    n: int, patterns: Iterable[Perm], sigma: Perm, values: Iterable[int]
) -> set[Perm]:
    """All avoiders of size n whose first entries realize the prefix class.

    ``values`` are the prefix values in increasing order; ``sigma`` says how
    they are arranged over the first positions.
    """
    vals = check_prefix_values(sigma, values, n)
    pats = normalize_patterns(patterns)
    # Position j of a class member holds the sigma_j-th smallest prefix value.
    return set(_iter_avoiders(n, pats, tuple(vals[s - 1] for s in sigma)))


class _PrefixTally:
    """Prefix-class sizes of one pattern set, counted from one DFS per size.

    The class (sigma, values) at size n holds the avoiders p of size n with
    p[:k] == (values[sigma_1 - 1], ..., values[sigma_k - 1]). So one pass
    over the avoiders of size n, counted by p[:k] for every k <= depth,
    sizes every class of length at most depth at that size. A size is
    tallied on its first probe, and the tallies live as long as the object.
    """

    def __init__(self, patterns: PatternSet, depth: int) -> None:
        self.patterns = patterns
        self.depth = depth
        self._by_size: dict[int, Counter[Perm]] = {}

    def size(self, n: int, sigma: Perm, values: tuple[int, ...]) -> int:
        tally = self._by_size.get(n)
        if tally is None:
            ks = range(min(self.depth, n) + 1)
            tally = Counter(p[:k] for p in _iter_avoiders(n, self.patterns) for k in ks)
            self._by_size[n] = tally
        return tally[tuple(values[s - 1] for s in sigma)]


def _longest(patterns: PatternSet) -> int:
    # 1 for no patterns, so that a deletion probe still tests size k.
    return max((len(q) for q in patterns), default=1)


def _deletable(sigma: Perm, tally: _PrefixTally, gaps: GapSet, rank: int, max_n: int) -> bool:
    """Probe sizes k..min(max_n, k+m-1), m the longest pattern length.

    Deleting the rank always injects a class into the reduced class one
    size down, so a miss is a reduced member whose re-insertion contains
    some pattern q, in an occurrence that uses the re-inserted entry. Keep
    the prefix and the occurrence's entries after it, at most m-1 of them:
    the re-insertion of what is left still contains q, and what is left
    still avoids, so that is a miss at size at most k+m-1. Removing entries
    after the prefix only narrows its gaps, so its values still obey the
    forced ones. Conversely a miss at a smaller size is a miss. So larger
    sizes cannot change the answer; with no patterns only size k is probed.
    """
    k = len(sigma)
    if not 1 <= rank <= k:
        raise ValueError(f"rank {rank} out of range for length {k}")
    if gaps.k != k:
        raise ValueError(f"gap set sized for length {gaps.k}, prefix has length {k}")
    if max_n < k:
        raise ValueError(f"max_n {max_n} smaller than prefix length {k}")
    smaller = delete_rank(sigma, rank)
    for n in range(k, min(max_n, k + _longest(tally.patterns) - 1) + 1):
        for values in combinations(range(1, n + 1), k):
            if gaps.violated(values, n):
                continue
            reduced = values[: rank - 1] + tuple(v - 1 for v in values[rank:])
            if tally.size(n, sigma, values) != tally.size(n - 1, smaller, reduced):
                return False
    return True


def empirical_gap_set(sigma: Perm, patterns: Iterable[Perm], max_n: int = DEFAULT_HORIZON) -> GapSet:
    """Gaps observed to be forced on every tested size up to ``max_n``.

    Gap j survives if no nonempty class was found whose value tuple leaves
    i_j and i_{j+1} non-adjacent (sentinels i_0 = 0, i_{k+1} = n+1). A
    member with a gap open keeps it open when cut down to its prefix and
    one value inside the gap, so every ``max_n`` above k gives the answer
    of size k+1: all gaps if sigma contains a pattern, else the exact gap
    set of ``compute_gap_set``.
    """
    pats = normalize_patterns(patterns)
    k = len(sigma)
    if max_n < k:
        raise ValueError(f"max_n {max_n} smaller than prefix length {k}")
    if max_n == k or not avoids_all(sigma, pats):
        # No tested size holds a member with a gap open.
        return GapSet(k, frozenset(range(k + 1)))
    return compute_gap_set(sigma, pats)


def empirical_deletable(
    sigma: Perm,
    patterns: Iterable[Perm],
    gaps: GapSet,
    rank: int,
    max_n: int = DEFAULT_HORIZON,
) -> bool:
    """Check size-for-size that deleting the rank-th value loses nothing.

    For every tested size and every value tuple obeying the forced gaps, the
    class must have exactly as many members as the reduced class one size
    down. Deletion always injects into the reduced class, so equal
    cardinality is equivalent to the deletion being onto. ``max_n`` must be
    at least the length of sigma, as for ``empirical_gap_set``; sizes past
    k+m-1, m the longest pattern length, are not probed, as they cannot
    change the answer.
    """
    return _deletable(sigma, _PrefixTally(normalize_patterns(patterns), len(sigma)), gaps, rank, max_n)


def empirical_scheme_search(
    patterns: Iterable[Perm], max_depth: int, max_n: int = DEFAULT_HORIZON
) -> Scheme | None:
    """Scheme discovery with small-n observation in place of certification.

    Same depth-first skeleton and exact forced gaps as the rigorous
    search (``empirical_gap_set`` observes the same gaps at every horizon
    allowed here), but deletable ranks are accepted on the evidence of
    every size up to ``max_n``. The resulting scheme is marked empirical
    and may be wrong. ``max_n`` must exceed ``max_depth``: at size k a
    class holds at most sigma itself, so a horizon of k tests a length-k
    class on nothing. Every horizon from ``max_depth`` + m - 1 on gives
    the same answer.
    """
    pats = normalize_patterns(patterns)
    if max_n <= max_depth:
        stable = max_depth + max(_longest(pats) - 1, 1)
        raise ValueError(
            f"horizon {max_n} must exceed the depth {max_depth}; "
            f"results stop changing from horizon {stable} on"
        )
    tally = _PrefixTally(pats, max_depth)

    def rank_fn(sigma: Perm, patterns: PatternSet, gaps: GapSet) -> int | None:
        for rank in range(1, len(sigma) + 1):
            if _deletable(sigma, tally, gaps, rank, max_n):
                return rank
        return None

    return _search_core(pats, max_depth, rank_fn, MODE_EMPIRICAL)
