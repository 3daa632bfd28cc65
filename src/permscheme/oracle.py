"""Brute-force ground truth for pattern avoidance on small sizes.

Two depth-first walks, each on an explicit stack, grow a permutation one
entry at a time and keep an entry only if no forbidden pattern ends at it;
containment is hereditary, so a pruned branch could never recover. One
``perms.ends_with_bounds`` call tests the whole set, on the patterns'
``perms.slot_bounds``.

* ``_iter_avoiders`` walks actual values: it extends a prefix by each
  unused value of 1..n in increasing order. Listing needs it, since it
  yields the avoiders lexicographically, and so do prefix classes, which
  pin positions to given values. It reaches each avoider of size k once
  for every k-subset of 1..n.
* ``count_avoiders`` walks the refinement tree of standardized prefixes
  (``perms.refinements``), where each avoider of size k+1 has exactly one
  parent, its first k entries reduced. It visits each avoider of size k
  once, so counting costs far fewer tests than listing.

The two walks share only the containment test, so each checks the other.
The routines are exact but exponential; they exist to cross-check the
certified machinery up to n around 10.

The empirical (uncertified) variant of the scheme search lives here too,
though it enumerates no avoiders. It runs the certified search's loop,
``scheme._search_core``, with another rank test. Its gaps are that loop's
``reasoning.compute_gap_set``, and exact: sizes up to any n past k show
exactly the open gaps that size k+1 shows. The smallest rank is taken
for which ``reasoning._deletion_counterexample`` finds no member up to the
horizon that its deletion loses; a miss at any size cuts down to one of
size at most k+m-1, m the longest pattern length. So the empirical
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
    """The avoiders of size n, lexicographically, each as the search reaches it.

    >>> list(iter_avoiders(4, [(1, 2)]))
    [(4, 3, 2, 1)]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _iter_avoiders(n, normalize_patterns(patterns))


def count_avoiders(n: int, patterns: Iterable[Perm]) -> int:
    """Number of avoiders of size n, counted on the refinement tree.

    Each avoider of size k < n is tested once for each of its k+1
    refinements, so the count takes sum over k < n of (k+1) * |Av_k|
    ``ends_with_bounds`` calls: 13,640 for {1234, 1243, 1324} at n = 8,
    where the value search of ``iter_avoiders`` makes 50,200. The leaves at
    size n are counted, never built, and the walk keeps one avoider per
    size, so its memory is O(n^2).

    >>> [count_avoiders(n, [(1, 2, 3)]) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    plans = [slot_bounds(q) for q in normalize_patterns(patterns)]
    if n == 0:
        return 1
    # Values are stored doubled, so the refinement ending between ranks
    # j-1 and j is tested on its parent with last entry 2j-1. path[d] is
    # the avoider of size d on the current branch, and ranks[d] the next
    # rank to try below it.
    path: "list[tuple[int, ...]]" = [()]
    ranks = [1]
    total = 0
    while path:
        p = path[-1]
        k = len(p)
        if k == n - 1:
            total += sum(not ends_with_bounds(p, 2 * j - 1, plans) for j in range(1, k + 2))
            path.pop()
            ranks.pop()
            continue
        j = ranks[-1]
        while j <= k + 1 and ends_with_bounds(p, 2 * j - 1, plans):
            j += 1
        if j > k + 1:
            path.pop()
            ranks.pop()
            continue
        ranks[-1] = j + 1
        top = 2 * j
        path.append(tuple([v + 2 if v >= top else v for v in p]) + (top,))
        ranks.append(1)
    return total


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

    Same depth-first loop as the rigorous search, with the same exact
    forced gaps from its ``compute_gap_set`` (``empirical_gap_set`` would
    observe those same gaps at every horizon allowed here). A class is
    reduced by the smallest rank whose deletion loses no member of any
    size up to ``max_n``. The resulting scheme is marked empirical and may
    be wrong. ``max_n`` must exceed ``max_depth``: at size k a
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

    def deletable(sigma: Perm, gaps: GapSet, rank: int) -> bool:
        return _deletion_counterexample(sigma, plans, gaps, rank, max_n) is None

    return _search_core(pats, max_depth, deletable, MODE_EMPIRICAL)
