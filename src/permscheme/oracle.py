"""Brute-force ground truth for pattern avoidance on small sizes.

Everything here enumerates along one depth-first search, ``_iter_avoiders``.
It extends a prefix one value at a time, in increasing order, and keeps a
value only if ``perms.ends_occurrence`` finds no forbidden pattern ending
at it; containment is hereditary, so a pruned prefix could never recover.
Positions can be pinned to given values, which restricts the search to one
prefix class. Counting, listing, class membership and the empirical probes
all read the leaves of that search. The routines are exact but
exponential; they exist to cross-check the certified machinery up to n
around 10, and to drive the empirical (uncertified) variant of the scheme
search.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .perms import PatternSet, Perm, delete_rank, ends_occurrence, normalize_patterns
from .reasoning import GapSet
from .scheme import MODE_EMPIRICAL, Scheme, _search_core

DEFAULT_HORIZON = 8


def _iter_avoiders(n: int, patterns: PatternSet, forced: "tuple[int, ...]" = ()) -> Iterator[Perm]:
    # Lexicographic DFS with an explicit stack; position j < len(forced)
    # takes the value forced[j].
    prefix: list[int] = []
    used = [False] * (n + 1)
    start = 1
    while True:
        depth = len(prefix)
        if depth == n:
            yield tuple(prefix)
        else:
            if depth < len(forced):
                top = forced[depth]
                start = max(start, top)
            else:
                top = n
            for v in range(start, top + 1):
                if used[v]:
                    continue
                for q in patterns:
                    if ends_occurrence(prefix, v, q):
                        break
                else:
                    used[v] = True
                    prefix.append(v)
                    start = 1
                    break
            if len(prefix) > depth:  # extended by v
                continue
        if not prefix:
            return
        v = prefix.pop()
        used[v] = False
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


def _class_members(n: int, patterns: PatternSet, sigma: Perm, values: tuple[int, ...]) -> Iterator[Perm]:
    # Position j of a class member holds the sigma_j-th smallest prefix value.
    return _iter_avoiders(n, patterns, tuple(values[s - 1] for s in sigma))


def prefix_class_members(
    n: int, patterns: Iterable[Perm], sigma: Perm, values: Iterable[int]
) -> set[Perm]:
    """All avoiders of size n whose first entries realize the prefix class.

    ``values`` are the prefix values in increasing order; ``sigma`` says how
    they are arranged over the first positions.
    """
    vals = tuple(values)
    if len(vals) != len(sigma):
        raise ValueError(f"{len(vals)} values for a length-{len(sigma)} prefix")
    if list(vals) != sorted(set(vals)) or any(not 1 <= v <= n for v in vals):
        raise ValueError(f"values must be strictly increasing within 1..{n}: {vals}")
    pats = normalize_patterns(patterns)
    return set(_class_members(n, pats, sigma, vals))


def empirical_gap_set(sigma: Perm, patterns: Iterable[Perm], max_n: int = DEFAULT_HORIZON) -> GapSet:
    """Gaps observed to be forced on every tested size up to ``max_n``.

    Gap j survives if no nonempty class was found whose value tuple leaves
    i_j and i_{j+1} non-adjacent (sentinels i_0 = 0, i_{k+1} = n+1). Unlike
    the certified gap set this is evidence, not proof.
    """
    k = len(sigma)
    if max_n < k:
        raise ValueError(f"max_n {max_n} smaller than prefix length {k}")
    pats = normalize_patterns(patterns)
    candidates = set(range(k + 1))
    for n in range(k, max_n + 1):
        for values in combinations(range(1, n + 1), k):
            ext = (0,) + values + (n + 1,)
            open_gaps = {j for j in candidates if ext[j + 1] > ext[j] + 1}
            if open_gaps and next(_class_members(n, pats, sigma, values), None) is not None:
                candidates -= open_gaps
                if not candidates:
                    return GapSet(k, frozenset())
    return GapSet(k, frozenset(candidates))


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
    cardinality is equivalent to the deletion being onto.
    """
    k = len(sigma)
    if not 1 <= rank <= k:
        raise ValueError(f"rank {rank} out of range for length {k}")
    pats = normalize_patterns(patterns)
    smaller = delete_rank(sigma, rank)
    for n in range(k, max_n + 1):
        for values in combinations(range(1, n + 1), k):
            if gaps.violated(values, n):
                continue
            left = sum(1 for _ in _class_members(n, pats, sigma, values))
            reduced = values[: rank - 1] + tuple(v - 1 for v in values[rank:])
            right = sum(1 for _ in _class_members(n - 1, pats, smaller, reduced))
            if left != right:
                return False
    return True


def empirical_scheme_search(
    patterns: Iterable[Perm], max_depth: int, max_n: int = DEFAULT_HORIZON
) -> Scheme | None:
    """Scheme discovery with small-n observation in place of certification.

    Same breadth-first skeleton as the rigorous search, but forced gaps and
    deletable ranks are accepted on the evidence of every size up to
    ``max_n``. The resulting scheme is marked empirical and may be wrong.
    """
    pats = normalize_patterns(patterns)

    def gap_fn(sigma: Perm) -> GapSet:
        return empirical_gap_set(sigma, pats, max_n)

    def rank_fn(sigma: Perm, gaps: GapSet) -> int | None:
        for rank in range(1, len(sigma) + 1):
            if empirical_deletable(sigma, pats, gaps, rank, max_n):
                return rank
        return None

    return _search_core(pats, max_depth, gap_fn, rank_fn, MODE_EMPIRICAL)
