"""Permutation and pattern primitives in one-line notation.

A permutation of length k is a tuple containing each of 1..k exactly once;
the empty tuple is the empty permutation. A *pattern* is a permutation used
as a forbidden order type: a host permutation contains a pattern when some
subsequence of the host is order-isomorphic to it.

Text forms: a digit string such as "2413" for lengths up to 9, or a
bracketed list "[2,4,1,3]" for any length. Pattern sets are comma-separated
digit strings ("123,132") or a JSON list of lists ("[[1,2,3],[1,3,2]]").
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache
from math import inf
from typing import Iterable, Sequence

Perm = tuple[int, ...]
PatternSet = tuple[Perm, ...]


def is_int(value: object) -> bool:
    """True for an int that is not a bool (JSON ``true`` loads as one).

    >>> is_int(1), is_int(True)
    (True, False)
    """
    return isinstance(value, int) and not isinstance(value, bool)


def check_permutation(entries: Iterable[int]) -> Perm:
    """Validate one-line notation: entries must be exactly 1..k in some order.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    """
    perm = tuple(entries)
    if not all(is_int(v) for v in perm) or sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm!r}")
    return perm


def check_size(n: object) -> int:
    """Validate a size: an int (not a bool) that is at least 0.

    >>> check_size(3)
    3
    """
    if not is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n


def check_prefix_values(sigma: Perm, values: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate the values of a prefix class at size n: one int per entry
    of sigma, strictly increasing within 1..n.

    >>> check_prefix_values((2, 1), [1, 3], 4)
    (1, 3)
    """
    vals = tuple(values)
    if len(vals) != len(sigma):
        raise ValueError(f"{len(vals)} values for a length-{len(sigma)} prefix")
    if not all(is_int(v) and 1 <= v <= n for v in vals) or list(vals) != sorted(set(vals)):
        raise ValueError(f"values must be strictly increasing ints within 1..{n}: {vals}")
    return vals


def reduce_word(word: Sequence[int]) -> Perm:
    """Replace each entry of a distinct-integer word by its rank.

    The smallest entry becomes 1, the next smallest 2, and so on; the result
    is the unique permutation order-isomorphic to the input.

    >>> reduce_word((2, 6, 4))
    (1, 3, 2)
    >>> reduce_word((9, 1, 5))
    (3, 1, 2)
    """
    seq = tuple(word)
    if len(set(seq)) != len(seq):
        raise ValueError(f"entries must be distinct: {seq!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(seq))}
    return tuple(rank[v] for v in seq)


# Positions in the row of matched values that ``ends_with_bounds`` reads a
# bound from, besides the slots 0, 1, ... themselves.
_NO_LOWER, _NO_UPPER, _LAST = -3, -2, -1


@lru_cache(maxsize=1024)
def slot_bounds(q: Perm) -> tuple[tuple[int, int], ...]:
    """For each slot of q but the last, where its lower and upper bound come from.

    A match of q ending at ``last`` fills slots 0, 1, ... of q in order. The
    values matched so far are order-isomorphic to their part of q, so a
    candidate for slot s only has to lie between two of them: the one
    holding the largest q-value below q[s], and the one holding the smallest
    q-value above it. Entry s names those two as a slot index t < s, as -1
    for ``last``, or as -3 (below) and -2 (above) when there is none.

    >>> slot_bounds((1, 3, 2, 4))
    ((-3, -1), (0, -1), (0, 1))
    >>> slot_bounds((1,))
    ()
    """
    need = len(q) - 1
    plan = []
    for s in range(need):
        matched = [(q[t], t) for t in range(s)] + [(q[need], _LAST)]
        below = [m for m in matched if m[0] < q[s]]
        above = [m for m in matched if m[0] > q[s]]
        plan.append((max(below)[1] if below else _NO_LOWER, min(above)[1] if above else _NO_UPPER))
    return tuple(plan)


def ends_with_bounds(prefix: Sequence[int], last: int, plans: Iterable[tuple[tuple[int, int], ...]]) -> bool:
    """True if some pattern whose ``slot_bounds`` are in ``plans`` ends at ``last``."""
    ends = (-inf, inf, last)
    for bounds in plans:
        need = len(bounds)
        if need == 0:
            return True
        # Slot s may take prefix indices below stop + s, which leaves room
        # for the slots after it.
        stop = len(prefix) - need + 1
        if stop <= 0:
            continue
        # Slot 0 is bounded by ``last`` alone; the deeper slots are matched
        # by backtracking over an explicit stack, where row[s] is the value
        # matched to slot s, chosen[s] its prefix index, and row[-3:] the
        # sentinels and ``last``. The stack is built on the first candidate
        # for slot 0.
        lo_at, hi_at = bounds[0]
        lo0 = ends[lo_at]
        hi0 = ends[hi_at]
        row = None
        for first in range(stop):
            v = prefix[first]
            if not lo0 < v < hi0:
                continue
            if need == 1:
                return True
            if row is None:
                row = [0] * need + [*ends]
                chosen = [0] * need
            row[0] = v
            depth = 1
            idx = first + 1
            while True:
                lo_at, hi_at = bounds[depth]
                lo = row[lo_at]
                hi = row[hi_at]
                for idx in range(idx, stop + depth):
                    v = prefix[idx]
                    if lo < v < hi:
                        break
                else:
                    depth -= 1
                    if not depth:
                        break
                    idx = chosen[depth] + 1
                    continue
                row[depth] = v
                chosen[depth] = idx
                depth += 1
                if depth == need:
                    return True
                idx += 1
    return False


@lru_cache(maxsize=1024)
def gap_plan(q: Perm) -> tuple[tuple[tuple[int, int], ...], int, int, int]:
    """Where ``closed_gaps`` reads bounds from, for a pattern q of length m.

    The head of q is its first m-1 entries. Each head slot s is bounded
    by the earlier head slots holding the largest q-value below q[s] and
    the smallest above it, named as a slot index, or as -2 (below) and -1
    (above) when there is none. Then come the two head slots that bound
    q's last entry in the same way, and ``fix``, the number of head slots
    an occurrence fills before both are known.

    >>> gap_plan((1, 3, 2, 4))
    (((-2, -1), (0, -1), (0, 1)), 1, -1, 2)
    >>> gap_plan((1,))
    ((), -2, -1, 0)
    """
    head = q[:-1]

    def bounds(value: int, slots: int) -> tuple[int, int]:
        below = [(head[t], t) for t in range(slots) if head[t] < value]
        above = [(head[t], t) for t in range(slots) if head[t] > value]
        return (max(below)[1] if below else -2, min(above)[1] if above else -1)

    lo_at, hi_at = bounds(q[-1], len(head))
    return tuple(bounds(head[s], s) for s in range(len(head))), lo_at, hi_at, max(lo_at, hi_at) + 1


def closed_gaps(p: Sequence[int], plans: Iterable[tuple]) -> int:
    """Bit j (0 <= j <= k) is set when a new last entry between values j and
    j+1 of the permutation p of 1..k completes an occurrence of a pattern
    whose ``gap_plan`` is in ``plans``.

    Setting bit j is ``ends_with_bounds`` on ``refine(p, j)``, but all k+1
    answers come from one pass over the occurrences of each pattern's head
    in p: an occurrence whose values bounding the last entry are a < b (0
    and k+1 where there is none) closes gaps a..b-1.

    >>> bin(closed_gaps((1, 2), [gap_plan((1, 2, 3))]))
    '0b100'
    """
    k = len(p)
    full = (1 << (k + 1)) - 1
    mask = 0
    for bounds, lo_at, hi_at, fix in plans:
        need = len(bounds)
        if need == 0:
            return full
        # Slot s may take indices below stop + s, which leaves room for the
        # slots after it.
        stop = k - need + 1
        if stop <= 0:
            continue
        # Slot 0 is unbounded; the deeper slots are matched by backtracking
        # over an explicit stack, where row[s] is the value matched to slot
        # s, chosen[s] its index in p, and row[-2:] the sentinels. Once the
        # first ``fix`` slots are matched, the gaps an occurrence would close
        # are known: a branch that closes none still open is left, and past
        # a completed occurrence, slot fix-1 moves on.
        row = [0] * need + [0, k + 1]
        chosen = [0] * need
        for first in range(stop):
            row[0] = p[first]
            if fix == 1:
                gaps = (1 << row[hi_at]) - (1 << row[lo_at])
                if not gaps & ~mask:
                    continue
            depth = 1
            idx = first + 1
            while depth:
                if depth == need:
                    mask |= gaps
                    if mask == full:
                        return mask
                    depth = fix - 1
                    idx = chosen[depth] + 1
                    continue
                lo, hi = bounds[depth]
                lo = row[lo]
                hi = row[hi]
                for idx in range(idx, stop + depth):
                    v = p[idx]
                    if lo < v < hi:
                        break
                else:
                    depth -= 1
                    idx = chosen[depth] + 1
                    continue
                row[depth] = v
                chosen[depth] = idx
                depth += 1
                idx += 1
                if depth == fix:
                    gaps = (1 << row[hi_at]) - (1 << row[lo_at])
                    if not gaps & ~mask:
                        depth -= 1
    return mask


@lru_cache(maxsize=1024)
def tail_plan(q: Perm) -> tuple[tuple[tuple[int, int], ...], int, int, int]:
    """Where ``tail_gaps`` reads bounds from, for a pattern q of length m.

    The last slot of q's head (its first m-1 entries) is pinned to the
    permutation's last entry, so the free slots are the head's others, on
    ``slot_bounds`` of the head. Then come the two places that bound q's
    last entry, in ``slot_bounds``' terms (a free slot, -1 for the pinned
    one, -3 and -2 for none), and ``fix``, the number of free slots an
    occurrence fills before both are known. A length-1 pattern has an
    empty head, so no occurrence of it uses the last entry: both of its
    bounds name -3 and it closes no gap.

    >>> tail_plan((1, 3, 2, 4))
    (((-3, -1), (-1, -2)), 1, -2, 2)
    >>> tail_plan((1, 2))
    ((), -1, -2, 0)
    """
    head = q[:-1]
    if not head:
        return (), _NO_LOWER, _NO_LOWER, 0
    free = len(head) - 1
    below = [(v, t) for t, v in enumerate(head) if v < q[-1]]
    above = [(v, t) for t, v in enumerate(head) if v > q[-1]]
    lo_at = max(below)[1] if below else _NO_LOWER
    hi_at = min(above)[1] if above else _NO_UPPER
    lo_at, hi_at = (_LAST if t == free else t for t in (lo_at, hi_at))
    return slot_bounds(head), lo_at, hi_at, max(lo_at, hi_at, -1) + 1


def tail_gaps(c: Sequence[int], plans: Iterable[tuple], parent: int) -> int:
    """``closed_gaps(c)`` for c = ``refine(p, g)``, from parent =
    ``closed_gaps(p)``, where the ``tail_plan`` of each pattern is in plans.

    An occurrence of a pattern's head in c either misses c's last entry
    or fills the head's last slot with it. One that misses it is an
    occurrence in p with its values above g raised by one, so its bounding
    values a < b become a + [a > g] and b + [b > g] (the sentinels 0 and
    len(p) + 1 become 0 and len(c) + 1), and the gaps it closes are a..b-1
    with bit g doubled: all of them together are the parent's mask with
    bit g doubled. The others are listed here, on the patterns' free slots
    alone, starting from that mask: a branch that closes no gap still
    open is left.

    >>> bin(tail_gaps((1, 3, 2), [tail_plan((1, 2, 3))], 0b100))
    '0b1100'
    """
    g = c[-1] - 1
    mask = (parent & ((2 << g) - 1)) | (parent >> g << (g + 1))
    k = len(c)
    full = (1 << (k + 1)) - 1
    for bounds, lo_at, hi_at, fix in plans:
        need = len(bounds)
        # Free slot s may take indices below stop + s of c[:-1], which
        # leaves room for the slots after it. row[s] is the value matched
        # to free slot s, chosen[s] its index in c, and row[-3:] the
        # sentinels and the last entry; past a completed occurrence, slot
        # fix-1 moves on, so with fix = 0 one occurrence ends the pattern.
        stop = k - need
        row = [0] * need + [0, k + 1, c[-1]]
        chosen = [0] * need
        if not fix:
            gaps = (1 << row[hi_at]) - (1 << row[lo_at])
            if not gaps & ~mask:
                continue
        depth = 0
        idx = 0
        while depth >= 0:
            if depth == need:
                mask |= gaps
                if mask == full:
                    return mask
                depth = fix - 1
                if depth >= 0:
                    idx = chosen[depth] + 1
                continue
            lo, hi = bounds[depth]
            lo = row[lo]
            hi = row[hi]
            for idx in range(idx, stop + depth):
                v = c[idx]
                if lo < v < hi:
                    break
            else:
                depth -= 1
                if depth >= 0:
                    idx = chosen[depth] + 1
                continue
            row[depth] = v
            chosen[depth] = idx
            depth += 1
            idx += 1
            if depth == fix:
                gaps = (1 << row[hi_at]) - (1 << row[lo_at])
                if not gaps & ~mask:
                    depth -= 1
    return mask


def contains(host: Sequence[int], pattern: Sequence[int]) -> bool:
    """True if some subsequence of host is order-isomorphic to pattern.

    >>> contains((5, 1, 8, 7, 2, 4, 6, 3), (3, 4, 2, 1))
    True
    >>> contains((3, 2, 1), (1, 2))
    False
    >>> contains((2, 1), (1, 2, 3))
    False
    """
    return not avoids_all(host, [pattern])


def avoids_all(host: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True if host contains none of the given patterns.

    Each end position of host is tested once against the whole set. The
    empty pattern occurs in every host, the empty one included.
    """
    pats = [tuple(q) for q in patterns]
    if () in pats:
        return False
    plans = [slot_bounds(q) for q in pats]
    host_t = tuple(host)
    return not any(ends_with_bounds(host_t[:e], host_t[e], plans) for e in range(len(host_t)))


def refine(p: Sequence[int], g: int) -> Perm:
    """The refinement of p whose new last entry lies in gap g (0 <= g <= k):
    p's values above g raised by one, then g + 1. Like ``closed_gaps``,
    it does not check g, since callers read their gaps off a mask.

    >>> refine((2, 1), 1)
    (3, 1, 2)
    """
    return tuple([v + 1 if v > g else v for v in p]) + (g + 1,)


def refinements(sigma: Perm) -> list[Perm]:
    """The k+1 one-longer permutations whose last-entry deletion reduces to
    sigma, indexed by gap: element g is ``refine(sigma, g)``.

    >>> refinements(())
    [(1,)]
    >>> refinements((1,))
    [(2, 1), (1, 2)]
    >>> sorted(refinements((3, 1, 2)))
    [(3, 1, 2, 4), (4, 1, 2, 3), (4, 1, 3, 2), (4, 2, 3, 1)]
    """
    return [refine(sigma, g) for g in range(len(sigma) + 1)]


def check_rank(sigma: Perm, r: object) -> int:
    """Validate a rank of sigma: an int (not a bool) within 1..len(sigma).

    >>> check_rank((2, 1), 2)
    2
    """
    if not is_int(r):
        raise ValueError(f"rank must be an int, got {r!r}")
    if not 1 <= r <= len(sigma):
        raise ValueError(f"rank {r} out of range for length {len(sigma)}")
    return r


def delete_rank(sigma: Perm, r: int) -> Perm:
    """Remove the entry with value r from sigma and reduce.

    >>> delete_rank((2, 4, 1, 3), 2)
    (3, 1, 2)
    >>> delete_rank((2, 1), 2)
    (1,)
    >>> delete_rank((1,), 1)
    ()
    """
    check_rank(sigma, r)
    return tuple([v - 1 if v > r else v for v in sigma if v != r])


def reverse(p: Perm) -> Perm:
    """Flip positions: (p_1..p_k) -> (p_k..p_1).

    >>> reverse((1, 2, 3))
    (3, 2, 1)
    """
    return tuple(reversed(p))


def complement(p: Perm) -> Perm:
    """Flip values: v -> k+1-v.

    >>> complement((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    k = len(p)
    return tuple(k + 1 - v for v in p)


def inverse(p: Perm) -> Perm:
    """Swap the roles of position and value.

    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    >>> inverse(())
    ()
    """
    inv = [0] * len(p)
    for pos, v in enumerate(p):
        inv[v - 1] = pos + 1
    return tuple(inv)


def normalize_patterns(patterns: Iterable[Sequence[int]]) -> PatternSet:
    """Canonical form of a pattern set: validated, deduplicated, sorted.

    Patterns must be nonempty permutations.
    """
    seen = set()
    for q in patterns:
        perm = check_permutation(q)
        if len(perm) == 0:
            raise ValueError("patterns must have length >= 1")
        seen.add(perm)
    return tuple(sorted(seen))


_SYMMETRY_GENERATORS = (("reverse", reverse), ("inverse", inverse))


def symmetry_images(patterns: Iterable[Sequence[int]]) -> list[tuple[str, PatternSet]]:
    """All images of a pattern set under the group generated by reverse and inverse.

    Returns (label, image) pairs in breadth-first discovery order, so each
    image's label is a shortest generator word, written in application order
    ("reverse+inverse" applies reverse first). The first entry is always
    ("identity", the canonicalized input).
    """
    start = normalize_patterns(patterns)
    labels: dict[PatternSet, str] = {start: "identity"}
    order = [start]
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for name, fn in _SYMMETRY_GENERATORS:
            img = normalize_patterns(fn(q) for q in cur) if cur else cur
            if img not in labels:
                prev = labels[cur]
                labels[img] = name if prev == "identity" else f"{prev}+{name}"
                order.append(img)
                queue.append(img)
    return [(labels[img], img) for img in order]


def symmetry_closure(patterns: Iterable[Sequence[int]]) -> list[PatternSet]:
    """The distinct images of a pattern set under reverse/inverse, sorted.

    At most 8 images exist; the input set is always among them.

    >>> symmetry_closure([(1, 2, 3)])
    [((1, 2, 3),), ((3, 2, 1),)]
    """
    return sorted(img for _, img in symmetry_images(patterns))


def format_permutation(p: Perm) -> str:
    """Digit-string form for lengths up to 9, bracketed form beyond.

    >>> format_permutation((2, 4, 1, 3))
    '2413'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return "[" + ",".join(str(v) for v in p) + "]"


def parse_permutation(text: str) -> Perm:
    """Parse "2413" or "[2,4,1,3]"; the empty string is the empty permutation.

    >>> parse_permutation("2413")
    (2, 4, 1, 3)
    >>> parse_permutation("[2,4,1,3]")
    (2, 4, 1, 3)
    """
    text = text.strip()
    if not text:
        return ()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad permutation syntax: {text!r}") from exc
        return check_permutation(data)
    if not text.isdigit() or "0" in text:
        raise ValueError(f"bad permutation syntax: {text!r}")
    return check_permutation(int(ch) for ch in text)


def parse_pattern_set(text: str) -> PatternSet:
    """Parse a pattern-set literal into canonical form.

    Accepts "" (the empty set), comma-separated digit strings ("123,132"),
    a JSON list of lists ("[[1,2,3],[1,3,2]]"), or a single bracketed
    permutation ("[1,2,3]").
    """
    text = text.strip()
    if not text:
        return ()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad pattern set syntax: {text!r}") from exc
        if all(is_int(v) for v in data) and data:
            return normalize_patterns([data])
        if all(isinstance(q, list) for q in data):
            return normalize_patterns(data)
        raise ValueError(f"bad pattern set syntax: {text!r}")
    return normalize_patterns(parse_permutation(part) for part in text.split(","))
