"""Brute-force ground truth for pattern avoidance on small sizes.

Two depth-first walks, each on an explicit stack, grow a permutation one
entry at a time and keep an entry only if no forbidden pattern ends at it;
containment is hereditary, so a pruned branch could never recover.

* ``_iter_avoiders`` walks actual values: it extends a prefix by each
  unused value of 1..n in increasing order, and one
  ``perms.ends_with_bounds`` call tests the whole set on the patterns'
  ``perms.slot_bounds``. Listing needs it, since it yields the avoiders
  lexicographically, and so do prefix classes, which pin positions to
  given values. Every unused value has to come later, so a prefix that
  one of them cannot follow is dropped: no completion of it avoids the
  set.
* ``count_avoiders`` walks the refinement tree of standardized prefixes
  (``perms.refinements``), where each avoider of size k+1 has exactly one
  parent, its first k entries reduced. It reads one ``perms.closed_gaps``
  mask per avoider of size k, on the patterns' ``perms.gap_plan``, which
  decides all k+1 refinements in one pass, so counting costs far fewer
  tests than listing.

The two walks share no containment code, so each checks the other.
The routines are exact but exponential; they exist to cross-check the
certified machinery up to n around 10.

The empirical variant of the scheme search lives here too, though it
enumerates no avoiders. It runs the certified search's loop,
``scheme._search_core``, with another rank test. Its gaps are that loop's
``reasoning.compute_gap_set``, which is exact. A rank is taken when
``reasoning._deletion_walk`` finds no member that its deletion
loses. That walk checks every extension of sigma up to size k+m-1, m the
longest pattern length, and a miss at any size cuts down to one of that
size. So the check is exhaustive up to a proven bound, and the empirical
schemes count exactly at every n; they are still marked empirical, since
no reduction is certified symbolically. The walk reads ``closed_gaps``
masks, two per extension, like the count walk, from one table per search:
``empirical_scheme_search`` hands the same table to all its walks, so a
permutation that several walks reach is masked once, and the table goes
when the search returns. The listing walk's ``prefix_class_members``
shares none of this code: the tests that compare the two check the mask
kernel against ``ends_with_bounds``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .perms import (
    PatternSet,
    Perm,
    avoids_all,
    check_permutation,
    check_prefix_values,
    check_size,
    closed_gaps,
    delete_rank,
    ends_with_bounds,
    gap_plan,
    is_int,
    normalize_patterns,
    slot_bounds,
)
from .reasoning import GapSet, _deletion_counterexample, _deletion_walk, compute_gap_set
from .scheme import MODE_EMPIRICAL, Scheme, _search_core, check_depth


def _iter_avoiders(n: int, patterns: PatternSet, forced: "tuple[int, ...]" = ()) -> Iterator[Perm]:
    # Lexicographic DFS with an explicit stack: stack[j] holds the values
    # still to try at position j, largest first. Every unused value has to
    # come later, so a prefix that one of them cannot follow has no
    # completion and gets no values. Position j < len(forced) takes only
    # forced[j].
    plans = [slot_bounds(q) for q in patterns]
    prefix: list[int] = []
    stack: "list[list[int]]" = []
    while True:
        taken = set(prefix)
        free = [v for v in range(n, 0, -1) if v not in taken]
        if not free:
            yield tuple(prefix)
        elif any(ends_with_bounds(prefix, v, plans) for v in free):
            free = []
        elif len(prefix) < len(forced):
            free = [forced[len(prefix)]]
        stack.append(free)
        while not stack[-1]:
            stack.pop()
            if not stack:
                return
            prefix.pop()
        prefix.append(stack[-1].pop())


def iter_avoiders(n: int, patterns: Iterable[Perm]) -> Iterator[Perm]:
    """The avoiders of size n, lexicographically, each as the search reaches it.

    Each prefix tests its unused values once, largest first, and is
    dropped at the first that cannot follow it: 30,004 ``ends_with_bounds``
    calls for {1234, 1243, 1324} at n = 8, and 59,214 for {1234}.

    >>> list(iter_avoiders(4, [(1, 2)]))
    [(4, 3, 2, 1)]
    """
    check_size(n)
    return _iter_avoiders(n, normalize_patterns(patterns))


def count_avoiders(n: int, patterns: Iterable[Perm]) -> int:
    """Number of avoiders of size n, counted on the refinement tree.

    Each avoider p of size k < n gets one ``closed_gaps`` mask, whose
    unset bits are its avoiding refinements: below n - 1 the walk steps
    into each, at n - 1 it counts them. So counting size n makes sum over
    k < n of |Av_k| ``closed_gaps`` calls: 1,779 for {1234, 1243, 1324} at
    n = 8, where the value search of ``iter_avoiders`` makes 30,004
    ``ends_with_bounds`` calls. The leaves at size n are counted, never
    built, and the walk keeps one avoider per size, so its memory is
    O(n^2).

    >>> [count_avoiders(n, [(1, 2, 3)]) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    check_size(n)
    plans = [gap_plan(q) for q in normalize_patterns(patterns)]
    if n == 0:
        return 1
    # path[d] is the avoider of size d on the current branch, and todo[d]
    # the bits of its open gaps not yet stepped into. The refinement of p
    # through gap j ends in j+1.
    path: "list[tuple[int, ...]]" = []
    todo: "list[int]" = []
    total = 0
    p: "tuple[int, ...]" = ()
    while True:
        k = len(p)
        gaps = ((1 << (k + 1)) - 1) ^ closed_gaps(p, plans)
        if k == n - 1:
            total += gaps.bit_count()
        else:
            path.append(p)
            todo.append(gaps)
        while todo and not todo[-1]:
            path.pop()
            todo.pop()
        if not todo:
            return total
        gaps = todo[-1]
        low = gaps & -gaps
        todo[-1] = gaps ^ low
        j = low.bit_length() - 1
        p = tuple([v + 1 if v > j else v for v in path[-1]]) + (j + 1,)


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


def empirical_gap_set(sigma: Perm, patterns: Iterable[Perm]) -> GapSet:
    """The gaps of sigma that no class member of any size leaves open.

    Gap j is forced if no member leaves i_j and i_{j+1} non-adjacent
    (sentinels i_0 = 0, i_{k+1} = n+1). A member with a gap open keeps it
    open when cut down to its prefix and one value inside the gap, so size
    k+1 decides: all gaps if sigma contains a pattern, else the exact gap
    set of ``compute_gap_set``.
    """
    sigma = check_permutation(sigma)
    pats = normalize_patterns(patterns)
    if not avoids_all(sigma, pats):
        # The class is empty, so no member leaves a gap open.
        return GapSet(len(sigma), (1 << (len(sigma) + 1)) - 1)
    return compute_gap_set(sigma, pats)


def empirical_deletable(sigma: Perm, patterns: Iterable[Perm], gaps: GapSet, rank: int) -> bool:
    """Whether deleting the rank-th value loses no class member of any size.

    Exact: a lost member cuts down to one of size at most k+m-1, m the
    longest pattern length, and every size up to that is checked (see
    ``reasoning._deletion_walk``), on a mask table of its own.
    """
    sigma = check_permutation(sigma)
    pats = normalize_patterns(patterns)
    k = len(sigma)
    delete_rank(sigma, rank)  # raises unless the rank is an int in 1..k
    if gaps.k != k:
        raise ValueError(f"gap set sized for length {gaps.k}, prefix has length {k}")
    return _deletion_counterexample(sigma, pats, gaps, rank) is None


def empirical_scheme_search(
    patterns: Iterable[Perm], max_depth: int, max_n: "int | None" = None
) -> Scheme | None:
    """Scheme discovery with an exhaustive concrete check in place of certification.

    Same depth-first loop as the rigorous search, with the same exact
    forced gaps from its ``compute_gap_set``. A class is reduced by the
    smallest rank whose deletion loses no member of any size: every
    extension of sigma up to size k+m-1 is checked, m the longest pattern
    length, and a lost member at any size cuts down to one of that size
    (``reasoning._deletion_walk``). So the scheme counts exactly
    at every n; it is still marked empirical, since no reduction is
    certified symbolically. A horizon ``max_n`` that is not an int, or is
    below ``max_depth`` + max(m - 1, 1), is rejected, and any other changes
    nothing.
    """
    pats = normalize_patterns(patterns)
    stable = check_depth(max_depth) + max([len(q) - 1 for q in pats] + [1])
    if max_n is not None:
        if not is_int(max_n):
            raise ValueError(f"horizon must be an int, got {max_n!r}")
        if max_n < stable:
            raise ValueError(f"horizon {max_n} is below the exact bound; results are exact from horizon {stable} on")

    # One closed-gap mask table for every walk of this search, dropped with it.
    masks: dict[Perm, int] = {}

    def deletable(sigma: Perm, gaps: GapSet, rank: int) -> bool:
        return _deletion_walk(sigma, pats, gaps, rank, masks) is None

    return _search_core(pats, max_depth, deletable, MODE_EMPIRICAL)
