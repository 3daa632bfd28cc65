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
  (``perms.refine``), where each avoider of size k+1 has exactly one
  parent, its first k entries reduced. Each avoider keeps its closed-gap
  mask, whose unset bits are its avoiding refinements, and a child gets
  its mask from its parent's in one call of the set's compiled kernel,
  ``perms.tail_kernel``: one nested loop per free slot of each pattern's
  ``perms.tail_plan``, its bounds inlined, that lists only the
  occurrences through the child's new last entry, so counting costs far
  fewer tests than listing.

The two walks share no containment code with each other, nor with the
``perms.closed_gaps`` of discovery, so each checks the others: the
compiled kernel is generated code, and the listing walk and discovery
keep their hand-written interpreters.
The routines are exact but exponential; they exist to cross-check the
certified machinery up to n around 10.

The empirical scheme search lives in ``scheme.search`` (mode
``empirical``), on ``reasoning._deletion_walk``; ``empirical_scheme_search``
stays here as the benchmark's entry point, a horizon check in front of that
call. The exact tests of one rank, ``empirical_gap_set`` and
``empirical_deletable``, live here too, though they enumerate no avoiders.
The listing walk's ``prefix_class_members`` shares no code with the
deletion walk: the tests that compare the two check the mask kernel against
``ends_with_bounds``.
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
    delete_rank,
    ends_with_bounds,
    is_int,
    normalize_patterns,
    refine,
    slot_bounds,
    tail_kernel,
)
from .reasoning import GapSet, _deletion_counterexample, compute_gap_set
from .scheme import MODE_EMPIRICAL, Scheme, check_depth, search


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

    Each avoider p of size k < n has a mask whose bit g is set when
    ``refine(p, g)`` contains a pattern (``perms.closed_gaps``): below
    n - 1 the walk steps into each unset bit, at n - 1 it counts them.
    The root's mask is 1 exactly when the set holds (1,). A child
    c = ``refine(p, g)`` gets D_g(mask(p)) | T(c), where D_g doubles bit
    g and T(c) holds the gaps closed by the occurrences of a pattern's
    head (its first m-1 entries) whose last slot is c's last entry. This
    is c's mask: an occurrence of a head in c either misses c's last
    entry, and is then an occurrence in p with its values above g raised
    by one, so that the gaps it closes are D_g of those it closes in p;
    or it uses that entry, which can then only fill the head's last slot.

    Both come from one call of ``perms.tail_kernel(patterns)``, fetched
    once per call of this function and compiled once per set. For
    {1234} it reads, in outline:

        def tail(c, parent):
            last = c[-1]
            k = len(c)
            full = (2 << k) - 1
            mask = parent & ((1 << last) - 1) | parent >> (last - 1) << last
            gaps = (1 << (k + 1)) - (1 << last)
            if gaps & ~mask:
                for i0 in range(k - 2):
                    v0 = c[i0]
                    if v0 < last:
                        for i1 in range(i0 + 1, k - 1):
                            if v0 < c[i1] < last:
                                mask |= gaps
                                ...
            return mask

    So counting size n makes sum over 1 <= k < n of |Av_k| kernel calls:
    1,778 for {1234, 1243, 1324} at n = 8, where the value search of
    ``iter_avoiders`` makes 30,004 ``ends_with_bounds`` calls. The leaves
    at size n are counted, never built, and the walk keeps one avoider
    and one mask per size, so its memory is O(n^2).

    >>> [count_avoiders(n, [(1, 2, 3)]) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    check_size(n)
    pats = normalize_patterns(patterns)
    tail = tail_kernel(pats)
    if n == 0:
        return 1
    # path[d] is the avoider of size d on the current branch, masks[d] its
    # closed-gap mask, and todo[d] the bits of its open gaps not yet
    # stepped into.
    path: "list[tuple[int, ...]]" = []
    masks: "list[int]" = []
    todo: "list[int]" = []
    total = 0
    p: "tuple[int, ...]" = ()
    mask = int((1,) in pats)
    while True:
        k = len(p)
        gaps = ((1 << (k + 1)) - 1) ^ mask
        if k == n - 1:
            total += gaps.bit_count()
        else:
            path.append(p)
            masks.append(mask)
            todo.append(gaps)
        while todo and not todo[-1]:
            path.pop()
            masks.pop()
            todo.pop()
        if not todo:
            return total
        gaps = todo[-1]
        low = gaps & -gaps
        todo[-1] = gaps ^ low
        p = refine(path[-1], low.bit_length() - 1)
        mask = tail(p, masks[-1])


def prefix_class_members(
    n: int, patterns: Iterable[Perm], sigma: Perm, values: Iterable[int]
) -> set[Perm]:
    """All avoiders of size n whose first entries realize the prefix class.

    ``values`` are the prefix values in increasing order; ``sigma`` says how
    they are arranged over the first positions.
    """
    vals = check_prefix_values(check_permutation(sigma), values, check_size(n))
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
    """``scheme.search`` in mode ``empirical``, behind a horizon check.

    Kept only because the benchmark calls it, with a horizon; it and
    ``max_n`` go once the benchmark calls ``search`` itself. The search is
    exact at every n (see ``scheme.search``) and derives its own horizon,
    so a horizon ``max_n`` that is not an int, or is below ``max_depth`` +
    max(m - 1, 1), m the longest pattern length, is rejected, and any other
    changes nothing.
    """
    pats = normalize_patterns(patterns)
    stable = check_depth(max_depth) + max([len(q) - 1 for q in pats] + [1])
    if max_n is not None:
        if not is_int(max_n):
            raise ValueError(f"horizon must be an int, got {max_n!r}")
        if max_n < stable:
            raise ValueError(f"horizon {max_n} is below the exact bound; results are exact from horizon {stable} on")
    return search(pats, max_depth, mode=MODE_EMPIRICAL)
