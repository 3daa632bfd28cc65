"""Symbolic certification of prefix-class structure.

A prefix class fixes the first k entries of an avoider: position t holds the
sigma_t-th smallest of the prefix values i_1 < ... < i_k. Everything after
the prefix is unknown, but order facts about it can still be derived, and
two kinds of statements can be certified to hold for every class member, at
every size n:

* a *forced gap*: the values i_j and i_{j+1} must be adjacent (with the
  sentinels i_0 = 0 and i_{k+1} = n+1), because any value strictly between
  them would complete a forbidden pattern with prefix entries alone;

* a *deletable rank*: removing the r-th smallest prefix value is a bijection
  onto the one-smaller prefix class, because any forbidden pattern that its
  re-insertion could create implies another forbidden occurrence that does
  not use the inserted entry at all.

The deletability argument enumerates *events*: hypothetical occurrences of a
forbidden pattern that use the examined prefix place, with the slots after
the prefix filled by symbolic values. An event is discharged either by being
vacuous (its order constraints admit no values at all, given the known
forced gaps) or by a *bail-out*: an occurrence of some forbidden pattern,
fully implied by the event's order facts, that avoids the examined place.
The logic is deliberately incomplete: anything it cannot prove is simply not
certified, so failures cost search depth, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Union

from .perms import PatternSet, Perm


@dataclass(frozen=True)
class GapSet:
    """Forced adjacencies of a length-k prefix.

    ``j in forced`` means i_{j+1} = i_j + 1 must hold for every member of
    the class, under the sentinels i_0 = 0, i_{k+1} = n+1. In particular
    0 forces i_1 = 1 and k forces i_k = n.
    """

    k: int
    forced: frozenset[int]

    def __post_init__(self) -> None:
        if not all(0 <= j <= self.k for j in self.forced):
            raise ValueError(f"forced gaps {sorted(self.forced)} outside 0..{self.k}")

    def violated(self, values: tuple[int, ...], n: int) -> bool:
        """True if a concrete value tuple breaks some forced adjacency."""
        k = self.k
        for j in self.forced:
            below = values[j - 1] if j else 0
            above = values[j] if j < k else n + 1
            if above != below + 1:
                return True
        return False

    def sorted_list(self) -> list[int]:
        return sorted(self.forced)


@dataclass(frozen=True)
class PrefixPlace:
    """A position 1..k inside the prefix."""

    place: int


@dataclass(frozen=True)
class SuffixSymbol:
    """The index-th symbolic entry after the prefix; indices order positions."""

    index: int


Descriptor = Union[PrefixPlace, SuffixSymbol]


@dataclass(frozen=True)
class Event:
    """A hypothetical occurrence of ``pattern`` in a class member.

    Slots 1..d of the pattern are matched to the prefix places ``places``
    (strictly increasing); the remaining slots are matched, in order, to
    symbolic suffix entries u_1, u_2, ... that sit after the prefix in index
    order. Because every prefix position precedes every suffix position, the
    prefix-matched slots are necessarily the initial ones.
    """

    pattern: Perm
    places: tuple[int, ...]

    @property
    def num_symbols(self) -> int:
        return len(self.pattern) - len(self.places)

    def descriptors(self) -> tuple[Descriptor, ...]:
        pre: tuple[Descriptor, ...] = tuple(PrefixPlace(p) for p in self.places)
        return pre + tuple(SuffixSymbol(i + 1) for i in range(self.num_symbols))


@dataclass(frozen=True)
class Bailout:
    """An implied occurrence of ``pattern`` that avoids the examined place.

    ``places`` are prefix places (excluding the examined one); ``symbols``
    are 1-based indices into the originating event's suffix symbols, used in
    increasing order after the places.
    """

    pattern: Perm
    places: tuple[int, ...]
    symbols: tuple[int, ...]

    def descriptors(self) -> tuple[Descriptor, ...]:
        pre: tuple[Descriptor, ...] = tuple(PrefixPlace(p) for p in self.places)
        return pre + tuple(SuffixSymbol(i) for i in self.symbols)


@dataclass(frozen=True)
class OrderFacts:
    """Implied order relations for an event's suffix symbols.

    ``lower[u]``/``upper[u]`` are rank bounds: symbol u is greater than
    i_lower (0 meaning no bound) and smaller than i_upper (k+1 meaning no
    bound). ``less`` holds the symbol-symbol order required by the event's
    pattern, as 0-based index pairs (a, b) meaning u_a < u_b.
    """

    k: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    less: frozenset[tuple[int, int]]

    def implies_above(self, sym: int, rank: int) -> bool:
        """Is ``u_sym > i_rank`` implied?"""
        return rank <= self.lower[sym]

    def implies_below(self, sym: int, rank: int) -> bool:
        """Is ``u_sym < i_rank`` implied?"""
        return rank >= self.upper[sym]

    def implies_less(self, a: int, b: int) -> bool:
        """Is ``u_a < u_b`` implied?"""
        if (a, b) in self.less:
            return True
        # u_a < i_c <= i_{c'} < u_b bridges through any shared prefix bound.
        return self.upper[a] <= self.lower[b]


def _places_consistent(sigma: Perm, q: Perm, places: tuple[int, ...]) -> bool:
    # The prefix values are totally ordered by rank, so the pattern's demand
    # on each pair of prefix-matched slots is decidable outright.
    for (x, px), (y, py) in combinations(enumerate(places), 2):
        if (q[x] < q[y]) != (sigma[px - 1] < sigma[py - 1]):
            return False
    return True


def order_facts(sigma: Perm, gaps: GapSet, event: Event) -> OrderFacts | None:
    """Derive what the event forces about its suffix symbols.

    Returns None when the event is vacuous: its prefix slots clash with the
    known order of the prefix values, or some symbol's admissible region
    (the open gaps between its rank bounds, excluding forced ones) is empty,
    so no concrete values can realize the event in any member of the class.
    """
    k = len(sigma)
    q = event.pattern
    places = event.places
    d = len(places)
    if d > len(q) or d > k:
        raise ValueError(f"event maps {d} slots onto a length-{min(len(q), k)} space")
    if any(not 1 <= p <= k for p in places) or list(places) != sorted(set(places)):
        raise ValueError(f"places must be strictly increasing within 1..{k}: {places}")

    if not _places_consistent(sigma, q, places):
        return None

    s = len(q) - d
    lower = [0] * s
    upper = [k + 1] * s
    for sym_slot in range(d, len(q)):
        u = sym_slot - d
        for pre_slot in range(d):
            rank = sigma[places[pre_slot] - 1]
            if q[pre_slot] < q[sym_slot]:
                lower[u] = max(lower[u], rank)
            else:
                upper[u] = min(upper[u], rank)

    less = frozenset(
        (a, b) for a in range(s) for b in range(s) if a != b and q[d + a] < q[d + b]
    )

    # Propagate bounds along the symbol order until stable.
    changed = True
    while changed:
        changed = False
        for a, b in less:
            if lower[a] > lower[b]:
                lower[b] = lower[a]
                changed = True
            if upper[b] < upper[a]:
                upper[a] = upper[b]
                changed = True

    for u in range(s):
        region = (g for g in range(lower[u], upper[u]))
        if not any(g not in gaps.forced for g in region):
            return None

    return OrderFacts(k, tuple(lower), tuple(upper), less)


def _relation_implied(
    sigma: Perm,
    facts: OrderFacts,
    q: Perm,
    slot_x: int,
    slot_y: int,
    desc_x: Descriptor,
    desc_y: Descriptor,
) -> bool:
    want_less = q[slot_x] < q[slot_y]
    if isinstance(desc_x, PrefixPlace) and isinstance(desc_y, PrefixPlace):
        return (sigma[desc_x.place - 1] < sigma[desc_y.place - 1]) == want_less
    if isinstance(desc_x, PrefixPlace):
        rank = sigma[desc_x.place - 1]
        sym = desc_y.index - 1
        return facts.implies_above(sym, rank) if want_less else facts.implies_below(sym, rank)
    if isinstance(desc_y, PrefixPlace):
        rank = sigma[desc_y.place - 1]
        sym = desc_x.index - 1
        return facts.implies_below(sym, rank) if want_less else facts.implies_above(sym, rank)
    a, b = desc_x.index - 1, desc_y.index - 1
    return facts.implies_less(a, b) if want_less else facts.implies_less(b, a)


def embedding_implied(
    sigma: Perm, facts: OrderFacts, q: Perm, descriptors: tuple[Descriptor, ...]
) -> bool:
    """Check that every value relation q demands holds necessarily.

    ``descriptors`` assigns q's slots, in order, to prefix places followed by
    suffix symbols of the event that produced ``facts``.
    """
    for x, y in combinations(range(len(q)), 2):
        if not _relation_implied(sigma, facts, q, x, y, descriptors[x], descriptors[y]):
            return False
    return True


def find_bailout(
    sigma: Perm,
    gaps: GapSet,
    event: Event,
    excluded_place: int,
    patterns: PatternSet,
) -> Bailout | None:
    """Search for an implied forbidden occurrence avoiding ``excluded_place``.

    Candidate occurrences draw their entries from the remaining prefix places
    and from the event's own suffix symbols (any subset, kept in index
    order). A hit certifies that the event cannot be the only violation.
    """
    facts = order_facts(sigma, gaps, event)
    if facts is None:
        raise ValueError("event is vacuous; nothing to bail out")
    k = len(sigma)
    avail = [p for p in range(1, k + 1) if p != excluded_place]
    n_syms = event.num_symbols
    for q in patterns:
        m = len(q)
        for d in range(min(m, len(avail)), -1, -1):
            if m - d > n_syms:
                continue
            for places in combinations(avail, d):
                if not _places_consistent(sigma, q, places):
                    continue
                for syms in combinations(range(1, n_syms + 1), m - d):
                    cand = Bailout(q, places, syms)
                    if embedding_implied(sigma, facts, q, cand.descriptors()):
                        return cand
    return None


def certify_gap(sigma: Perm, patterns: PatternSet, j: int) -> bool:
    """Certify that gap j is forced: i_{j+1} = i_j + 1 in every class member.

    Single-witness test: a symbolic value u strictly between i_j and i_{j+1}
    sits somewhere after the prefix; if some forbidden pattern embeds into
    prefix places plus u with every value relation already decided, then any
    witness value completes a forbidden pattern, so the gap must be closed.

    True is sound; False only means this test could not prove it.
    """
    k = len(sigma)
    if not 0 <= j <= k:
        raise ValueError(f"gap index {j} outside 0..{k}")
    return _gap_witness(sigma, patterns, j) is not None


def _gap_witness(sigma: Perm, patterns: PatternSet, j: int) -> tuple[Perm, tuple[int, ...]] | None:
    k = len(sigma)
    for q in patterns:
        m = len(q)
        d = m - 1
        if d > k:
            continue
        for places in combinations(range(1, k + 1), d):
            if not _places_consistent(sigma, q, places):
                continue
            ok = True
            for slot in range(d):
                rank = sigma[places[slot] - 1]
                if q[slot] < q[m - 1]:
                    # u must exceed this prefix value: known since u > i_j.
                    if rank > j:
                        ok = False
                        break
                else:
                    if rank < j + 1:
                        ok = False
                        break
            if ok:
                return q, places
    return None


def compute_gap_set(sigma: Perm, patterns: PatternSet) -> GapSet:
    """All gaps certifiable as forced, each tested once.

    The witness test of ``certify_gap`` reads no other gap, so one pass over
    j = 0..k finds every gap it can certify. The caller guarantees sigma
    itself avoids the patterns (classes whose prefix already contains a
    pattern are empty and handled elsewhere).
    """
    k = len(sigma)
    return GapSet(k, frozenset(j for j in range(k + 1) if certify_gap(sigma, patterns, j)))


@dataclass(frozen=True)
class EventOutcome:
    event: Event
    verdict: str  # "vacuous" | "bailed-out" | "unresolved"
    bailout: Bailout | None


@dataclass(frozen=True)
class DeletionAnalysis:
    """Transcript of the deletability check for one (sigma, rank) pair."""

    sigma: Perm
    rank: int
    certified: bool
    outcomes: tuple[EventOutcome, ...]

    def non_vacuous(self) -> list[EventOutcome]:
        return [o for o in self.outcomes if o.verdict != "vacuous"]


def _events_at_place(sigma: Perm, patterns: PatternSet, t: int) -> Iterator[Event]:
    k = len(sigma)
    for q in patterns:
        m = len(q)
        for d in range(1, min(m, k) + 1):
            for places in combinations(range(1, k + 1), d):
                if t in places:
                    yield Event(q, places)


def analyze_deletable(sigma: Perm, patterns: PatternSet, gaps: GapSet, rank: int) -> DeletionAnalysis:
    """Examine every event involving the place of value ``rank`` in sigma.

    The rank is certified deletable when each event is vacuous or bailed
    out: re-inserting the value can then never be the sole cause of a
    forbidden pattern, so deletion is a bijection onto the smaller class for
    every size n and every value tuple obeying the forced gaps.
    """
    if not 1 <= rank <= len(sigma):
        raise ValueError(f"rank {rank} out of range for length {len(sigma)}")
    t = sigma.index(rank) + 1
    outcomes: list[EventOutcome] = []
    certified = True
    for event in _events_at_place(sigma, patterns, t):
        facts = order_facts(sigma, gaps, event)
        if facts is None:
            outcomes.append(EventOutcome(event, "vacuous", None))
            continue
        bailout = find_bailout(sigma, gaps, event, t, patterns)
        if bailout is None:
            outcomes.append(EventOutcome(event, "unresolved", None))
            certified = False
            break
        outcomes.append(EventOutcome(event, "bailed-out", bailout))
    return DeletionAnalysis(sigma, rank, certified, tuple(outcomes))


def certify_deletable(sigma: Perm, patterns: PatternSet, gaps: GapSet, rank: int) -> bool:
    """True if deleting the rank-th smallest prefix value is provably safe."""
    return analyze_deletable(sigma, patterns, gaps, rank).certified


def find_deletable_rank(sigma: Perm, patterns: PatternSet, gaps: GapSet) -> int | None:
    """Smallest certified deletable rank, or None if none certifies."""
    for rank in range(1, len(sigma) + 1):
        if certify_deletable(sigma, patterns, gaps, rank):
            return rank
    return None
