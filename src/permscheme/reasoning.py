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

A gap needs no symbols: whether it is forced is decided exactly, on one
concrete permutation, the refinement of sigma that opens it. One
``perms.closed_gaps`` mask decides all k+1 gaps, and ``GapSet`` keeps it,
so a run of gaps is tested as one span of bits.
A bail-out is a search for an implied embedding. Per event, the implied
order is a table over the available prefix places and the event's
symbols, built from the symbols' rank bounds and the pattern's order
(``OrderFacts``): two places compare by their ranks in sigma, a place
and a symbol by the place's rank against the symbol's bounds, and two
symbols by the event's pattern. A relation is implied when it holds in both
extreme realizations of the event, every symbol just above its lower bound
or every symbol just below its upper bound, symbols that share a bound
ordered as the pattern orders them. The tests decide "implied" on exactly
those two concrete rows, with code that shares nothing with the table.
The place rows depend on sigma alone and are built once per analysis. A
pruned depth-first search assigns the pattern's slots in order, places
first and then symbols, each at a larger index than the one before, and
checks each new slot only against the slots already chosen. Complete
assignments come out in the order in which ``combinations`` over places
and then symbols would list the candidates, so the first hit is the one an
exhaustive scan finds.

The events that put only a pattern's first entry on the examined place, the
single-place events, are decided in closed form (``single_place_rules``).
Such an event of q is vacuous when q has entries above (below) its first
and the gaps above (below) the rank are all forced. It bails out when some
pattern occurs in the rest of q, or is a direct (skew) sum alpha (+) beta
whose alpha occurs among the prefix values below (above) the rank and
whose beta occurs among q's entries above (below) its first.
``analyze_deletable``'s verdict decides those events by that rule
(``single_place_unresolved``), and of the other events it sends to the
bail-out search only those whose ranks are in the pattern's order and
whose symbols each have an open gap, the ones ``order_facts`` keeps. It
builds no transcript: ``DeletionAnalysis.outcomes`` examines every event
in order when it is first read, so a transcript is the same with or
without the rule. The empirical search decides deletion on concrete
permutations instead: ``_deletion_walk`` walks the extensions of
sigma by at most m-1 entries for a member that the deletion loses, which
is exact, since a lost member of any size cuts down to one of those. Each
extension reads two ``closed_gaps`` masks, its own and that of it minus
the rank entry, which decide all its one-longer extensions at once. One
table of masks per search serves the classes' gap sets and the walks, so
each permutation's mask is computed once per search, however many ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterator

from .perms import (
    PatternSet,
    Perm,
    avoids_all,
    check_permutation,
    check_rank,
    closed_gaps,
    delete_rank,
    ends_with_bounds,
    gap_plan,
    is_int,
    reduce_word,
    refine,
    slot_bounds,
)


@dataclass(frozen=True)
class GapSet:
    """Forced adjacencies of a length-k prefix, as one bit mask.

    Bit j of ``mask`` (``perms.closed_gaps``'s) means i_{j+1} = i_j + 1 must
    hold for every member of the class, under the sentinels i_0 = 0,
    i_{k+1} = n+1. So bit 0 forces i_1 = 1 and bit k forces i_k = n.
    """

    k: int
    mask: int

    def __post_init__(self) -> None:
        if not is_int(self.k) or self.k < 0:
            raise ValueError(f"gap set length {self.k!r} is not an int >= 0")
        if not is_int(self.mask) or self.mask < 0 or self.mask >> (self.k + 1):
            raise ValueError(f"gap mask {self.mask!r} is not a set of gaps in 0..{self.k}")

    def violated(self, values: tuple[int, ...], n: int) -> bool:
        """True if a concrete value tuple breaks some forced adjacency."""
        ext = (0, *values, n + 1)
        return any(ext[j + 1] != ext[j] + 1 for j in self.sorted_list())

    def sorted_list(self) -> list[int]:
        return [j for j in range(self.k + 1) if self.mask >> j & 1]


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


@dataclass(frozen=True)
class OrderFacts:
    """What an event implies about its suffix symbols.

    ``lower[u]``/``upper[u]`` are rank bounds: symbol u is greater than
    i_lower (0 meaning no bound) and smaller than i_upper (k+1 meaning no
    bound). ``order[u]`` is the event pattern's value on symbol u, so u_a <
    u_b is implied exactly when order[a] < order[b].

    No prefix value adds a symbol-symbol relation: u_a < i_c <= i_c' < u_b
    needs upper[a] <= lower[b]. The facts of a non-vacuous event have
    lower[u] < upper[u], and both bounds only rise along the pattern's
    order. So order[b] < order[a] would give lower[b] <= lower[a] <
    upper[a] <= lower[b], and such a bridge only ever joins symbols that
    the pattern already puts in that order.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    order: tuple[int, ...]


def order_facts(sigma: Perm, gaps: GapSet, event: Event) -> OrderFacts | None:
    """Derive what the event forces about its suffix symbols.

    Returns None when the event is vacuous: its prefix slots clash with the
    known order of the prefix values, or some symbol's admissible region
    (the open gaps between its rank bounds, excluding forced ones) is empty,
    so no concrete values can realize the event in any member of the class.

    Each bound is read off the prefix slots alone and needs no propagation
    along ``order``: the pattern orders all its slots totally, so every
    prefix slot below a symbol is also below each symbol above it.
    """
    k = len(sigma)
    q = event.pattern
    places = event.places
    d = len(places)
    if d > len(q) or d > k:
        raise ValueError(f"event maps {d} slots onto a length-{min(len(q), k)} space")
    if list(places) != sorted(set(places)) or (places and not 1 <= places[0] <= places[-1] <= k):
        raise ValueError(f"places must be strictly increasing within 1..{k}: {places}")
    if gaps.k != k:
        raise ValueError(f"gap set sized for length {gaps.k}, prefix has length {k}")

    # The prefix values are totally ordered by rank, so the pattern's demand
    # on the prefix-matched slots is decided outright: their ranks must be in
    # the same relative order as the slots' pattern values.
    ranks = [sigma[p - 1] for p in places]
    if d > 1 and sorted(range(d), key=ranks.__getitem__) != sorted(range(d), key=q.__getitem__):
        return None
    return _symbol_facts(k, gaps.mask, q, ranks)


def _symbol_facts(k: int, mask: int, q: Perm, ranks: list[int]) -> OrderFacts | None:
    """The facts of an event whose prefix slots, of ranks ``ranks`` in a
    length-k prefix, are in q's order; None if a symbol's region lies in
    the forced gaps of ``mask``."""
    d = len(ranks)
    lower = []
    upper = []
    for value in q[d:]:
        floor, ceiling = 0, k + 1
        for slot in range(d):
            rank = ranks[slot]
            if q[slot] < value:
                if rank > floor:
                    floor = rank
            elif rank < ceiling:
                ceiling = rank
        span = (1 << ceiling) - (1 << floor)
        if mask & span == span:
            return None
        lower.append(floor)
        upper.append(ceiling)
    return OrderFacts(tuple(lower), tuple(upper), q[d:])


# The relation table of one event: node x < len(avail) is prefix place
# avail[x], node len(avail) + u is suffix symbol u (0-based). Row x is a
# pair of bit masks over the nodes: ``above[x]`` has bit y when x < y is
# implied, ``below[x]`` has bit y when y < x is. The place rows come from
# sigma alone, so one analysis builds them once for all its events.
PlaceRows = tuple[list[int], list[int], list[int]]  # ranks of avail, above, below


def _place_rows(sigma: Perm, avail: list[int]) -> PlaceRows:
    """The place-place part of the table: prefix values compare by rank."""
    ranks = [sigma[p - 1] for p in avail]
    below = [0] * len(ranks)
    seen = 0
    for x in sorted(range(len(ranks)), key=ranks.__getitem__):
        below[x] = seen
        seen |= 1 << x
    above = [seen ^ mask ^ (1 << x) for x, mask in enumerate(below)]
    return ranks, above, below


def _relation_rows(rows: PlaceRows, facts: OrderFacts) -> tuple[list[int], list[int]]:
    """The whole table: the place rows plus one row per symbol of ``facts``.

    A place lies below symbol u when its rank is at most ``lower[u]`` and
    above it when its rank is at least ``upper[u]``; two symbols compare as
    ``order`` does. These are the relations true both when every symbol
    sits just above its lower bound and when every symbol sits just below
    its upper bound.
    """
    ranks = rows[0]
    n_places = len(ranks)
    order = facts.order
    n_syms = len(order)
    above = rows[1] + [0] * n_syms
    below = rows[2] + [0] * n_syms
    for u, (floor, ceiling) in enumerate(zip(facts.lower, facts.upper)):
        node = n_places + u
        bit = 1 << node
        for x, rank in enumerate(ranks):
            if rank <= floor:
                above[x] |= bit
                below[node] |= 1 << x
            elif rank >= ceiling:
                below[x] |= bit
                above[node] |= 1 << x
        for b, value in enumerate(order):
            if order[u] < value:
                above[node] |= 1 << (n_places + b)
                below[n_places + b] |= bit
    return above, below


@lru_cache(maxsize=1024)
def _slot_tests(q: Perm) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Per slot of q: (earlier slot, is it below this one) for each earlier slot."""
    return tuple(tuple((j, q[j] < q[i]) for j in range(i)) for i in range(len(q)))


def _first_embedding(
    above: list[int], below: list[int], n_places: int, q: Perm, d: int
) -> tuple[int, ...] | None:
    """First implied embedding of q with d slots on places, in table order.

    Slots are assigned in order, each at a larger node than the one before
    (places precede symbols among the nodes) and leaving enough nodes of its
    kind for the slots after it; a slot's candidate mask keeps only the
    nodes that relate as q demands to every slot already chosen. So
    complete assignments come out in the order of ``combinations`` over the
    places and then over the symbols, minus those the table refutes. Only
    the bail-out search uses it; gaps are decided on a concrete refinement.
    """
    m = len(q)
    tests = _slot_tests(q)
    chosen: list[int] = []
    untried: list[int] = []  # the candidates left for each chosen slot
    while True:
        i = len(chosen)
        if i == m:
            return tuple(chosen)
        first, last = (i, n_places - d + i) if i < d else (n_places + i - d, len(above) - m + i)
        if chosen and chosen[-1] >= first:
            first = chosen[-1] + 1
        mask = (1 << (last + 1)) - (1 << first) if first <= last else 0
        for j, is_below in tests[i]:
            mask &= above[chosen[j]] if is_below else below[chosen[j]]
        while not mask:
            if not chosen:
                return None
            chosen.pop()
            mask = untried.pop()
        low = mask & -mask
        untried.append(mask ^ low)
        chosen.append(low.bit_length() - 1)


def _bailout(avail: list[int], rows: PlaceRows, facts: OrderFacts, patterns: PatternSet) -> Bailout | None:
    above, below = _relation_rows(rows, facts)
    n_places = len(avail)
    n_syms = len(facts.order)
    for q in patterns:
        m = len(q)
        for d in range(min(m, n_places), max(m - n_syms, 0) - 1, -1):
            nodes = _first_embedding(above, below, n_places, q, d)
            if nodes is not None:
                places = tuple(avail[x] for x in nodes[:d])
                return Bailout(q, places, tuple(x - n_places + 1 for x in nodes[d:]))
    return None


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

    Candidates are tried pattern by pattern in the set's order; within a
    pattern, by the number of prefix places d, largest first; within d, by
    the places in lexicographic order, then by the symbols in lexicographic
    order. The first candidate whose every relation is implied is returned.
    For the class 2413 of {1234,1243,1324} and the event that puts the 1 of
    1234 on place 1, the smallest prefix value starts an occurrence on the
    three symbols:

    >>> find_bailout((2, 4, 1, 3), GapSet(4, 1 << 4), Event((1, 2, 3, 4), (1,)), 1,
    ...              ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4)))
    Bailout(pattern=(1, 2, 3, 4), places=(3,), symbols=(1, 2, 3))
    """
    if not is_int(excluded_place) or not 1 <= excluded_place <= len(sigma):
        raise ValueError(f"excluded place {excluded_place!r} outside 1..{len(sigma)}")
    facts = order_facts(sigma, gaps, event)
    if facts is None:
        raise ValueError("event is vacuous; nothing to bail out")
    avail = [p for p in range(1, len(sigma) + 1) if p != excluded_place]
    return _bailout(avail, _place_rows(sigma, avail), facts, patterns)


def _deletion_counterexample(sigma: Perm, patterns: PatternSet, gaps: GapSet, rank: int) -> Perm | None:
    """A member that deleting the rank-th prefix value loses, or None, for any
    sigma: None if sigma minus the rank entry contains a pattern (both classes
    are empty), sigma if it contains one, else ``_deletion_walk``'s answer."""
    if not avoids_all(delete_rank(sigma, rank), patterns):
        return None
    if not avoids_all(sigma, patterns):
        return sigma
    return _deletion_walk(sigma, patterns, gaps, rank, {})


def _deletion_walk(
    sigma: Perm, patterns: PatternSet, gaps: GapSet, rank: int, masks: dict[Perm, int]
) -> Perm | None:
    """A member that deleting the rank-th prefix value loses, or None.

    The deletion injects the class of sigma into the reduced class one size
    down, and misses exactly the reduced members whose re-insertion pi
    contains a pattern; pi's prefix values obey the forced gaps. Keep pi's
    prefix and the entries of one occurrence after it, at most m-1 (m the
    longest pattern length): the occurrence survives, the rest minus the
    rank entry still avoids, and the prefix gaps only narrow. So a miss at
    any size cuts down to one of size at most k+m-1, and a walk up to that
    size is exact at every n.

    Sigma must avoid the patterns (``scheme.search`` zeroes a class whose
    prefix contains one, ``_deletion_counterexample`` decides such roots).
    The walk appends at most m-1 entries, one at a time. A node pi is
    a permutation of 1..K that avoids the patterns, whose first k entries
    reduce to sigma and whose entry at the rank's place has value rv; rest,
    pi minus that entry reduced to 1..K-1, avoids too. The child of pi
    through gap g (0 <= g <= K) is ``refine(pi, g)``. Its new entry lies in
    the prefix gap numbered by pi's prefix values at most g, and in gap g
    (g < rv) or g-1 (g >= rv) of rest. So the ``perms.closed_gaps`` masks
    of pi and of rest decide every child: one in a forced prefix gap, or
    whose new entry ends an occurrence in rest, re-inserts no reduced
    member and is skipped; of the others, one whose new entry ends an
    occurrence in pi is a miss. The walk returns
    the lowest-gap miss of the first node that has one, and otherwise
    steps into each other child below size k+m-1, highest gap first.

    ``masks`` maps each permutation to its mask under ``patterns``, and a
    mask is computed only on the first ask. A search shares it between its
    gap sets and its walks: the root pi is the class itself, ranks 1, 2, ...
    of a class revisit the same pi, and one class's rest is often another's
    pi. So it holds masks under ``patterns`` only and outlives no search.
    """
    k = len(sigma)
    size = k + max((len(q) - 1 for q in patterns), default=0)
    gap_plans = [gap_plan(q) for q in patterns]

    def mask(p: Perm) -> int:
        closed = masks.get(p)
        if closed is None:
            closed = masks[p] = closed_gaps(p, gap_plans)
        return closed

    stack = [(sigma, rank)] if k < size else []
    while stack:
        pi, rv = stack.pop()
        top = len(pi)
        # Bit g of ``allowed``: gap g of pi lies in an open prefix gap. Prefix
        # gap j spans pi's gaps from its j-th to its (j+1)-th prefix value.
        edges = (0, *sorted(pi[:k]), top + 1)
        allowed = 0
        for j in range(k + 1):
            if not gaps.mask >> j & 1:
                allowed |= (1 << edges[j + 1]) - (1 << edges[j])
        low = (1 << rv) - 1
        closed = mask(delete_rank(pi, rv))
        candidates = allowed & ~((closed & low) | (closed << 1 & ~low))
        hits = candidates & mask(pi)
        if hits:
            return refine(pi, (hits & -hits).bit_length() - 1)
        if top + 1 < size:
            while candidates:
                bit = candidates & -candidates
                candidates ^= bit
                g = bit.bit_length() - 1
                stack.append((refine(pi, g), rv + 1 if rv > g else rv))
    return None


def compute_gap_set(sigma: Perm, patterns: PatternSet) -> GapSet:
    """Every forced gap of sigma, read off one ``perms.closed_gaps`` mask.

    Gap j is forced when i_{j+1} = i_j + 1 in every class member. Let rho
    be ``refine(sigma, j)``, whose last entry lies in gap j. If a member
    has a value v strictly between i_j and i_{j+1}, it comes after the
    prefix, and keeping only the prefix and v leaves an avoider that
    reduces to rho. Conversely, if rho avoids every pattern, it is itself a
    member of size k+1 with gap j open. So the gap is forced exactly when
    some pattern ends at rho's last entry, which is bit j of the mask: the
    answer is exact, not just sound, and all k+1 gaps cost one pass over
    the occurrences of the patterns' heads in sigma.

    The caller guarantees sigma itself avoids the patterns (classes whose
    prefix already contains a pattern are empty and handled elsewhere).

    >>> compute_gap_set((1, 2), ((1, 2, 3),)).sorted_list()
    [2]
    """
    sigma = check_permutation(sigma)
    return GapSet(len(sigma), closed_gaps(sigma, [gap_plan(q) for q in patterns]))


@dataclass(frozen=True)
class EventOutcome:
    event: Event
    verdict: str  # "vacuous" | "bailed-out" | "unresolved"
    bailout: Bailout | None


@dataclass(frozen=True)
class DeletionAnalysis:
    """The deletability check for one (sigma, rank) pair.

    ``certified`` is the verdict. ``outcomes``, the transcript, is built
    the first time it is read: every event on the rank's place in
    ``_events_at_place`` order, each with its verdict and first bail-out,
    up to and including the first unresolved one. When sigma avoids the
    patterns, ``certified`` is True exactly when no outcome is unresolved.
    """

    sigma: Perm
    patterns: PatternSet
    gaps: GapSet
    rank: int
    certified: bool

    @cached_property
    def outcomes(self) -> tuple[EventOutcome, ...]:
        sigma, gaps, patterns = self.sigma, self.gaps, self.patterns
        t = sigma.index(self.rank) + 1
        avail = [p for p in range(1, len(sigma) + 1) if p != t]
        rows = _place_rows(sigma, avail)
        outcomes: list[EventOutcome] = []
        for event in _events_at_place(sigma, patterns, t):
            facts = order_facts(sigma, gaps, event)
            if facts is None:
                outcomes.append(EventOutcome(event, "vacuous", None))
                continue
            bailout = _bailout(avail, rows, facts, patterns)
            if bailout is None:
                outcomes.append(EventOutcome(event, "unresolved", None))
                break
            outcomes.append(EventOutcome(event, "bailed-out", bailout))
        return tuple(outcomes)


def _events_at_place(sigma: Perm, patterns: PatternSet, t: int) -> Iterator[Event]:
    # Adding t to two (d-1)-sets of the other places leaves their symmetric
    # difference alone, so the events come in the lexicographic order of
    # their place tuples, as if every d-tuple were listed and filtered.
    others = [p for p in range(1, len(sigma) + 1) if p != t]
    for q in patterns:
        for d in range(1, min(len(q), len(sigma)) + 1):
            for rest in combinations(others, d - 1):
                yield Event(q, tuple(sorted((*rest, t))))


def _consistent_ranks(up: list[int], down: list[int], sigma: Perm, q: Perm, t: int) -> Iterator[list[int]]:
    """The ranks on the places of each event of q with two places or more,
    t among them, whose ranks are in the order of q's first entries.

    ``up[x]`` (``down[x]``) has bit y when sigma's entry y is above (below)
    its entry x, both 0-based. As in ``_first_embedding``, slots 0, 1, ...
    take increasing entries, each kept only if it relates as q demands to
    every slot before it; until one slot takes place t, none lies past it.
    Every such assignment of two slots or more that holds place t is an
    event's.
    """
    k = len(sigma)
    m = min(len(q), k)
    tests = _slot_tests(q)
    chosen: list[int] = []
    untried: list[int] = []
    mask = (1 << t) - 1  # slot 0 lies at or before place t
    while True:
        while not mask:
            if not chosen:
                return
            chosen.pop()
            mask = untried.pop()
        low = mask & -mask
        untried.append(mask ^ low)
        x = low.bit_length() - 1
        chosen.append(x)
        i = len(chosen)
        held = x >= t - 1  # some slot is on place t
        if held and i >= 2:
            yield [sigma[y] for y in chosen]
        if i == m:
            mask = 0
            continue
        mask = (1 << (k if held else t)) - (2 << x)
        for j, is_below in tests[i]:
            mask &= up[chosen[j]] if is_below else down[chosen[j]]


def _verdict(sigma: Perm, patterns: PatternSet, gaps: GapSet, rank: int, rules: list[SinglePlaceRule]) -> bool:
    """True if every event on the rank's place is vacuous or bailed out.

    The single-place events are decided by ``single_place_unresolved``.
    Of the others, only those ``order_facts`` keeps reach the bail-out
    search: their ranks are in the pattern's order and no symbol's region
    is all forced gaps.
    """
    if single_place_unresolved(sigma, gaps, rank, rules):
        return False
    k = len(sigma)
    t = sigma.index(rank) + 1
    _, up, down = _place_rows(sigma, list(range(1, k + 1)))
    avail = [p for p in range(1, k + 1) if p != t]
    rows = None
    for q in patterns:
        for ranks in _consistent_ranks(up, down, sigma, q, t):
            facts = _symbol_facts(k, gaps.mask, q, ranks)
            if facts is None:
                continue
            if rows is None:
                rows = _place_rows(sigma, avail)
            if _bailout(avail, rows, facts, patterns) is None:
                return False
    return True


def analyze_deletable(
    sigma: Perm, patterns: PatternSet, gaps: GapSet, rank: int, rules: list[SinglePlaceRule] | None = None
) -> DeletionAnalysis:
    """Examine every event involving the place of value ``rank`` in sigma.

    The rank is certified deletable when each event is vacuous or bailed
    out: re-inserting the value can then never be the sole cause of a
    forbidden pattern, so deletion is a bijection onto the smaller class for
    every size n and every value tuple obeying the forced gaps.

    ``rules`` are the set's ``single_place_rules``, derived here when
    omitted; a caller that tests many ranks passes them once. The verdict
    builds no transcript: ``DeletionAnalysis.outcomes`` does, when read.

    The caller guarantees sigma itself avoids the patterns, as for
    ``compute_gap_set``; ``scheme.search`` zeroes the other classes first.
    The single-place rule is exact only then; for any sigma, the
    transcript of a certified rank has no unresolved event.
    """
    sigma = check_permutation(sigma)
    check_rank(sigma, rank)
    if gaps.k != len(sigma):
        raise ValueError(f"gap set sized for length {gaps.k}, prefix has length {len(sigma)}")
    if rules is None:
        rules = single_place_rules(patterns)
    return DeletionAnalysis(sigma, patterns, gaps, rank, _verdict(sigma, patterns, gaps, rank, rules))


def certify_deletable(
    sigma: Perm, patterns: PatternSet, gaps: GapSet, rank: int, rules: list[SinglePlaceRule] | None = None
) -> bool:
    """True if deleting the rank-th smallest prefix value is provably safe.

    The arguments and the precondition are ``analyze_deletable``'s.
    """
    return analyze_deletable(sigma, patterns, gaps, rank, rules).certified


# One pattern q's single-place rule: whether q[1:] has entries above q[0],
# whether it has entries below, whether some pattern occurs in q[1:], and
# the ``slot_bounds`` of the alphas of cases (ii) and (iii).
SinglePlaceRule = tuple[bool, bool, bool, list, list]


def single_place_rules(patterns: PatternSet) -> list[SinglePlaceRule]:
    """Decide each pattern's single-place event in closed form.

    Let sigma (length k) avoid the set, let rank r sit at place t, and let q
    be a pattern. The event (q, (t,)) puts q[0] on place t and q[1:] on
    symbols. ``order_facts`` bounds a symbol above q[0] by (r, k+1) and one
    below it by (0, r). So the event is vacuous exactly when q[1:] has an
    entry above q[0] and gaps r..k are all forced, or an entry below q[0]
    and gaps 0..r-1 are all forced. Otherwise it bails out exactly when
    some pattern p of the set meets one of:

    (i) p occurs in q[1:];
    (ii) p = alpha (+) beta: its first d entries are its d smallest, with
         1 <= d < |p|, beta occurs among the entries of q[1:] above q[0],
         and alpha among sigma's values below r;
    (iii) p = alpha (-) beta: its first d entries are its d largest, beta
          occurs among the entries below q[0], and alpha among sigma's
          values above r.

    Proof: a bail-out puts p's first d slots on places other than t and the
    rest on symbols. A symbol above q[0] is implied above a place of rank
    at most r, so of rank below r, and is implied below none; a symbol
    below q[0] is implied below the places of rank above r and above none.
    Places relate as sigma orders them, symbols as q does. With no symbol,
    p would occur in sigma, which avoids the set; with no place, p occurs
    in q[1:], which is (i). Otherwise each place relates to each symbol, so
    the symbols lie on one side of q[0] and the places on the other side
    of r, each place below (above) each symbol: (ii) or (iii). Conversely,
    each case names an embedding whose every relation is implied.
    """
    rules = []
    for q in patterns:
        rises = [v for v in q[1:] if v > q[0]]
        falls = [v for v in q[1:] if v < q[0]]
        below_alphas, above_alphas = set(), set()
        for p in patterns:
            m = len(p)
            for d in range(1, m):
                beta = reduce_word(p[d:])
                if max(p[:d]) == d and not avoids_all(rises, [beta]):
                    below_alphas.add(p[:d])
                if min(p[:d]) == m - d + 1 and not avoids_all(falls, [beta]):
                    above_alphas.add(tuple(v - m + d for v in p[:d]))
        always = not avoids_all(q[1:], patterns)
        plans = [[slot_bounds(a) for a in alphas] for alphas in (below_alphas, above_alphas)]
        rules.append((bool(rises), bool(falls), always, *plans))
    return rules


def single_place_unresolved(sigma: Perm, gaps: GapSet, rank: int, rules: list[SinglePlaceRule]) -> bool:
    """True if some event on rank's place alone is neither vacuous nor bailed out.

    ``rules`` are the set's ``single_place_rules``, and sigma avoids the
    set. The answer is ``analyze_deletable``'s verdict on those events, so
    a rank for which it is True is never certified.
    """
    top = (1 << (len(sigma) + 1)) - (1 << rank)  # gaps rank..k
    bottom = (1 << rank) - 1  # gaps 0..rank-1
    top_closed, bottom_closed = gaps.mask & top == top, gaps.mask & bottom == bottom
    low = [v for v in sigma if v < rank]
    high = [v - rank for v in sigma if v > rank]
    for rises, falls, always, below_plans, above_plans in rules:
        if always or (rises and top_closed) or (falls and bottom_closed):
            continue
        if any(ends_with_bounds(low[:e], low[e], below_plans) for e in range(len(low))):
            continue
        if not any(ends_with_bounds(high[:e], high[e], above_plans) for e in range(len(high))):
            return True
    return False
