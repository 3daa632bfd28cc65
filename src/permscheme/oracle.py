"""Brute-force ground truth for pattern avoidance on small sizes.

The module's one depth-first search, ``_iter_avoiders``, enumerates
avoiders. It extends a prefix one value at a time, in increasing order, and
keeps a value only if no forbidden pattern ends at it; containment is
hereditary, so a pruned prefix could never recover. One
``perms.ends_with_bounds`` call tests the whole set, on the patterns'
``perms.slot_bounds``.
Positions can be pinned to given values, which restricts the search to one
prefix class. Counting, listing and class membership read the leaves of
that search. The routines are exact but exponential; they exist to
cross-check the certified machinery up to n around 10.

The empirical (uncertified) variant of the scheme search lives here too,
though it enumerates no avoiders. Its gaps are exact: sizes up to any n
past k show exactly the open gaps that size k+1 shows, which
``reasoning.compute_gap_set`` decides on one permutation per gap. A rank
is accepted when ``reasoning._deletion_counterexample`` finds no member
up to the horizon that its deletion loses; a miss at any size cuts down to
one of size at most k+m-1, m the longest pattern length. So the empirical
search finds the same scheme at every horizon from depth + m - 1 on; a
horizon at or below its depth is rejected.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .perms import (
    PatternSet,
    Perm,
    avoids_all,
    check_permutation,
    check_prefix_values,
    delete_rank,
    ends_with_bounds,
    normalize_patterns,
    slot_bounds,
)
from .reasoning import GapSet, _deletion_counterexample, compute_gap_set
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
                if not used[v] and not ends_with_bounds(prefix, v, plans):
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


def iter_avoiders(n: int, patterns: Iterable[Perm]) -> Iterator[Perm]:
    """The avoiders of size n, lexicographically, each as the search reaches it."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _iter_avoiders(n, normalize_patterns(patterns))


def enumerate_avoiders(n: int, patterns: Iterable[Perm]) -> list[Perm]:
    """All permutations of 1..n avoiding every pattern, lexicographically.

    >>> enumerate_avoiders(4, [(1, 2)])
    [(4, 3, 2, 1)]
    """
    return list(iter_avoiders(n, patterns))


def count_avoiders(n: int, patterns: Iterable[Perm]) -> int:
    """Number of avoiders of size n: the leaves of the pruned search tree."""
    return sum(1 for _ in iter_avoiders(n, patterns))


def prefix_class_members(
    n: int, patterns: Iterable[Perm], sigma: Perm, values: Iterable[int]
) -> set[Perm]:
    """All avoiders of size n whose first entries realize the prefix class.

    ``values`` are the prefix values in increasing order; ``sigma`` says how
    they are arranged over the first positions.
    """
    vals = check_prefix_values(check_permutation(sigma), values, n)
    pats = normalize_patterns(patterns)
    # Position j of a class member holds the sigma_j-th smallest prefix value.
    return set(_iter_avoiders(n, pats, tuple(vals[s - 1] for s in sigma)))


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
    """Check on every size up to ``max_n`` that deleting the rank-th value loses nothing.

    ``max_n`` must be at least the length of sigma, as for
    ``empirical_gap_set``. Sizes past k+m-1, m the longest pattern length,
    cannot change the answer (see ``reasoning._deletion_counterexample``).
    """
    pats = normalize_patterns(patterns)
    k = len(sigma)
    delete_rank(sigma, rank)  # raises on a rank outside 1..k
    if gaps.k != k:
        raise ValueError(f"gap set sized for length {gaps.k}, prefix has length {k}")
    if max_n < k:
        raise ValueError(f"max_n {max_n} smaller than prefix length {k}")
    return _deletion_counterexample(sigma, [slot_bounds(q) for q in pats], gaps, rank, max_n) is None


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
        stable = max_depth + max([len(q) - 1 for q in pats] + [1])
        raise ValueError(
            f"horizon {max_n} must exceed the depth {max_depth}; "
            f"results stop changing from horizon {stable} on"
        )
    plans = [slot_bounds(q) for q in pats]

    def rank_fn(sigma: Perm, patterns: PatternSet, gaps: GapSet) -> int | None:
        for rank in range(1, len(sigma) + 1):
            if _deletion_counterexample(sigma, plans, gaps, rank, max_n) is None:
                return rank
        return None

    return _search_core(pats, max_depth, rank_fn, MODE_EMPIRICAL)
