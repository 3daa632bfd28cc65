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
from math import inf
from typing import Iterable, Sequence

Perm = tuple[int, ...]
PatternSet = tuple[Perm, ...]


def check_permutation(entries: Iterable[int]) -> Perm:
    """Validate one-line notation: entries must be exactly 1..k in some order.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    """
    perm = tuple(entries)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm!r}")
    return perm


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


def ends_occurrence(prefix: Sequence[int], last: int, q: Sequence[int]) -> bool:
    """True if appending ``last`` to ``prefix`` creates an occurrence of q ending at it.

    The entries of ``prefix`` and ``last`` must be distinct, and q must be
    nonempty. Every pattern of length 1 ends at ``last``; a pattern longer
    than ``prefix`` plus one never does.

    >>> ends_occurrence((2, 5, 1), 4, (1, 3, 2))
    True
    >>> ends_occurrence((2, 5, 1), 4, (1, 2, 3))
    False
    >>> ends_occurrence((), 5, (1,))
    True
    >>> ends_occurrence((), 1, (2, 1))
    False
    >>> ends_occurrence((2, 1), 3, (1, 2, 3, 4))
    False
    """
    need = len(q) - 1
    size = len(prefix)
    q_last = q[need]
    # Backtracking with an explicit stack of the prefix indices matched to
    # q[0], q[1], ...; a candidate for q[s] must lie strictly between the
    # matched values (``last`` included) nearest to q[s] in the pattern.
    chosen: list[int] = []
    idx = 0
    while len(chosen) < need:
        s = len(chosen)
        q_s = q[s]
        lo, hi = (-inf, last) if q_s < q_last else (last, inf)
        for t in range(s):
            v = prefix[chosen[t]]
            if q[t] < q_s:
                if v > lo:
                    lo = v
            elif v < hi:
                hi = v
        for idx in range(idx, size - need + s + 1):
            if lo < prefix[idx] < hi:
                chosen.append(idx)
                idx += 1
                break
        else:
            if not chosen:
                return False
            idx = chosen.pop() + 1
    return True


def contains(host: Sequence[int], pattern: Sequence[int]) -> bool:
    """True if some subsequence of host is order-isomorphic to pattern.

    >>> contains((5, 1, 8, 7, 2, 4, 6, 3), (3, 4, 2, 1))
    True
    >>> contains((3, 2, 1), (1, 2))
    False
    >>> contains((2, 1), (1, 2, 3))
    False
    """
    host_t = tuple(host)
    if not pattern:
        return True
    return any(
        ends_occurrence(host_t[:e], host_t[e], pattern)
        for e in range(len(pattern) - 1, len(host_t))
    )


def avoids_all(host: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True if host contains none of the given patterns."""
    return not any(contains(host, q) for q in patterns)


def refinements(sigma: Perm) -> list[Perm]:
    """The k+1 one-longer permutations whose last-entry deletion reduces to sigma.

    The list is indexed by final entry: element j-1 (0-based) is the unique
    refinement ending in j.

    >>> refinements(())
    [(1,)]
    >>> refinements((1,))
    [(2, 1), (1, 2)]
    >>> sorted(refinements((3, 1, 2)))
    [(3, 1, 2, 4), (4, 1, 2, 3), (4, 1, 3, 2), (4, 2, 3, 1)]
    """
    k = len(sigma)
    out = []
    for j in range(1, k + 2):
        bumped = tuple(v + 1 if v >= j else v for v in sigma)
        out.append(bumped + (j,))
    return out


def delete_rank(sigma: Perm, r: int) -> Perm:
    """Remove the entry with value r from sigma and reduce.

    >>> delete_rank((2, 4, 1, 3), 2)
    (3, 1, 2)
    >>> delete_rank((2, 1), 2)
    (1,)
    >>> delete_rank((1,), 1)
    ()
    """
    if not 1 <= r <= len(sigma):
        raise ValueError(f"rank {r} out of range for length {len(sigma)}")
    return tuple(v - 1 if v > r else v for v in sigma if v != r)


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
        if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
            raise ValueError(f"bad permutation syntax: {text!r}")
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
        if not isinstance(data, list):
            raise ValueError(f"bad pattern set syntax: {text!r}")
        if all(isinstance(v, int) for v in data) and data:
            return normalize_patterns([data])
        if all(isinstance(q, list) for q in data):
            return normalize_patterns(data)
        raise ValueError(f"bad pattern set syntax: {text!r}")
    return normalize_patterns(parse_permutation(part) for part in text.split(","))
