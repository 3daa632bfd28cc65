import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P12, P123, P132, PTHREE, SINGLETONS, random_pattern_sets
from permscheme.oracle import empirical_deletable, empirical_gap_set, iter_avoiders, prefix_class_members
from permscheme.perms import avoids_all, complement, normalize_patterns, reduce_word, symmetry_closure
from permscheme.reasoning import (
    Bailout,
    Event,
    GapSet,
    OrderFacts,
    _deletion_counterexample,
    _deletion_walk,
    analyze_deletable,
    certify_deletable,
    compute_gap_set,
    find_bailout,
    order_facts,
    single_place_rules,
    single_place_unresolved,
)
from permscheme.scheme import ReduEntry, search

NO_GAPS_1 = GapSet(1, 0)
NO_GAPS_2 = GapSet(2, 0)


class TestGapSet:
    @pytest.mark.parametrize(
        "mask", [1 << 3, -1, True, 2.0], ids=["bit-above-k", "negative", "bool", "float"]
    )
    def test_bounds_checked(self, mask):
        with pytest.raises(ValueError):
            GapSet(2, mask)

    @pytest.mark.parametrize("k", [True, -1, 2.5, 2.0, "2"], ids=["bool", "negative", "float", "integral-float", "str"])
    def test_length_checked(self, k):
        # True and -1 were accepted, and 2.5 raised TypeError.
        with pytest.raises(ValueError, match="gap set length"):
            GapSet(k, 1)

    def test_violation_semantics(self):
        gaps = GapSet(2, 1 << 2)
        assert not gaps.violated((1, 4), 4)  # i_2 = n
        assert gaps.violated((1, 3), 4)
        zero_gap = GapSet(1, 1 << 0)
        assert not zero_gap.violated((1,), 3)
        assert zero_gap.violated((2,), 3)


class TestOrderFacts:
    def test_event_one_of_2413(self):
        gaps = GapSet(4, 1 << 4)
        facts = order_facts((2, 4, 1, 3), gaps, Event((1, 2, 3, 4), (1,)))
        assert facts is not None
        assert all(lo >= 2 for lo in facts.lower)
        assert facts.order == (2, 3, 4)

    def test_closed_gap_makes_vacuous(self):
        # Middle value of a 132 occurrence must sit inside the closed gap.
        gaps = GapSet(2, 1 << 1)
        facts = order_facts((1, 2), gaps, Event((1, 3, 2), (1, 2)))
        assert facts is None

    def test_prefix_value_clash_is_vacuous(self):
        facts = order_facts((2, 1), NO_GAPS_2, Event((1, 3, 2), (1, 2)))
        assert facts is None

    def test_malformed_event_rejected(self):
        with pytest.raises(ValueError):
            order_facts((2, 1), NO_GAPS_2, Event((1, 2, 3), (2, 1)))
        with pytest.raises(ValueError):
            order_facts((1,), NO_GAPS_1, Event((1, 2), (1, 1)))

    def test_gap_set_sized_for_another_length_rejected(self):
        # As in ``analyze_deletable``: a length-5 gap set says nothing about
        # a length-2 prefix.
        with pytest.raises(ValueError, match="sized for length 5"):
            order_facts((1, 2), GapSet(5, 0), Event((1, 2, 3), (1,)))

    def test_derivation_idempotent(self):
        # Re-deriving from identical inputs reproduces identical facts.
        sigma = (2, 4, 1, 3)
        gaps = GapSet(4, 1 << 4)
        for places in [(1,), (1, 4), (1, 2)]:
            first = order_facts(sigma, gaps, Event((1, 3, 2, 4), places))
            second = order_facts(sigma, gaps, Event((1, 3, 2, 4), places))
            assert first == second


    @given(
        st.integers(1, 6).flatmap(lambda k: st.permutations(list(range(1, k + 1))).map(tuple)),
        st.integers(1, 5).flatmap(lambda m: st.permutations(list(range(1, m + 1))).map(tuple)),
        st.data(),
    )
    @settings(max_examples=200)
    def test_bounds_closed_along_symbol_order(self, sigma, q, data):
        # A propagation pass along the pattern's order would have nothing to
        # move, and no prefix value bridges two symbols against that order
        # (see ``OrderFacts``).
        d = data.draw(st.integers(0, min(len(q), len(sigma))))
        places = data.draw(st.sets(st.integers(1, len(sigma)), min_size=d, max_size=d))
        facts = order_facts(sigma, GapSet(len(sigma), 0), Event(q, tuple(sorted(places))))
        if facts is None:
            return
        assert all(lo < hi for lo, hi in zip(facts.lower, facts.upper))
        for a, b in permutations(range(len(facts.order)), 2):
            if facts.order[a] < facts.order[b]:
                assert facts.lower[a] <= facts.lower[b]
                assert facts.upper[a] <= facts.upper[b]


class TestBailout:
    def test_event_one_bails_via_smallest_prefix_value(self):
        gaps = GapSet(4, 1 << 4)
        event = Event((1, 2, 3, 4), (1,))
        witness = find_bailout((2, 4, 1, 3), gaps, event, 1, PTHREE)
        assert witness is not None
        assert witness.pattern == (1, 2, 3, 4)
        assert witness.places == (3,)
        assert witness.symbols == (1, 2, 3)

    def test_smaller_first_entry_bails(self):
        event = Event((1, 2, 3), (1,))
        witness = find_bailout((2, 1), NO_GAPS_2, event, 1, P123)
        assert witness is not None
        assert witness.places == (2,)

    def test_single_prefix_has_no_bailout(self):
        event = Event((1, 2, 3), (1,))
        assert find_bailout((1,), NO_GAPS_1, event, 1, P123) is None

    def test_witness_relations_machine_checkable(self):
        gaps = GapSet(4, 1 << 4)
        for places in [(1,), (1, 4)]:
            for q in PTHREE:
                event = Event(q, places)
                facts = order_facts((2, 4, 1, 3), gaps, event)
                if facts is None:
                    continue
                witness = find_bailout((2, 4, 1, 3), gaps, event, 1, PTHREE)
                assert witness is not None
                assert implied((2, 4, 1, 3), facts, witness)

    def test_vacuous_event_rejected(self):
        with pytest.raises(ValueError):
            find_bailout((2, 1), NO_GAPS_2, Event((1, 3, 2), (1, 2)), 1, P132)

    @pytest.mark.parametrize("place", [0, 3, 7, True, 1.0], ids=["zero", "past-k", "seven", "bool", "float"])
    def test_excluded_place_outside_prefix_rejected(self, place):
        # Place 7 of a length-2 sigma used to exclude nothing and answer.
        with pytest.raises(ValueError, match="excluded place"):
            find_bailout((2, 1), NO_GAPS_2, Event((1, 2, 3), (1,)), place, P123)


def implied(sigma, facts, candidate):
    # A concrete model of "implied": the candidate's entries reduce to its
    # pattern in both extreme realizations of the event. Place p takes the
    # value (sigma_p, 0). Symbol u takes (lower[u], 1 + order[u]) in one row,
    # just above i_lower, and (upper[u] - 1, 1 + order[u]) in the other, just
    # below i_upper; symbols next to the same prefix value keep the pattern's
    # order.
    for bounds in (facts.lower, [c - 1 for c in facts.upper]):
        entries = [(sigma[p - 1], 0) for p in candidate.places]
        entries += [(bounds[u - 1], 1 + facts.order[u - 1]) for u in candidate.symbols]
        if reduce_word(entries) != candidate.pattern:
            return False
    return True


def reference_bailout(sigma, gaps, event, excluded_place, patterns):
    # Every candidate in the documented order, each checked by ``implied``.
    facts = order_facts(sigma, gaps, event)
    avail = [p for p in range(1, len(sigma) + 1) if p != excluded_place]
    for q in patterns:
        m = len(q)
        for d in range(min(m, len(avail)), -1, -1):
            for places in combinations(avail, d):
                for symbols in combinations(range(1, len(event.pattern) - len(event.places) + 1), m - d):
                    candidate = Bailout(q, places, symbols)
                    if implied(sigma, facts, candidate):
                        return candidate
    return None


def reference_gap(sigma, patterns, j):
    # One symbol strictly between i_j and i_{j+1}, after every prefix place.
    k = len(sigma)
    facts = OrderFacts((j,), (j + 1,), (1,))
    return any(
        implied(sigma, facts, Bailout(q, places, (1,)))
        for q in patterns
        if len(q) - 1 <= k
        for places in combinations(range(1, k + 1), len(q) - 1)
    )


class TestSearchAgainstReference:
    SIGMAS = [s for k in range(1, 5) for s in permutations(range(1, k + 1))]

    @pytest.mark.parametrize("seed", [97103, 4207])
    def test_bailouts_and_events_match_exhaustive_scan(self, seed):
        for pats in random_pattern_sets(seed, 6):
            for sigma in self.SIGMAS:
                if not avoids_all(sigma, pats):
                    continue
                k = len(sigma)
                gaps = compute_gap_set(sigma, pats)
                for t in range(1, k + 1):
                    # Every event through place t, listed by filtering all place tuples.
                    events = [
                        Event(q, places)
                        for q in pats
                        for d in range(1, min(len(q), k) + 1)
                        for places in combinations(range(1, k + 1), d)
                        if t in places
                    ]
                    analysis = analyze_deletable(sigma, pats, gaps, sigma[t - 1])
                    assert [o.event for o in analysis.outcomes] == events[: len(analysis.outcomes)]
                    if analysis.certified:
                        assert len(analysis.outcomes) == len(events)
                    for event in events:
                        if order_facts(sigma, gaps, event) is None:
                            continue
                        expect = reference_bailout(sigma, gaps, event, t, pats)
                        assert find_bailout(sigma, gaps, event, t, pats) == expect, (pats, sigma, event)

    @pytest.mark.parametrize("seed", [97103, 4207])
    def test_single_place_rule_matches_bailout_search(self, seed):
        # Sets of one to three patterns of lengths 2 to 5, each sigma with its
        # own gaps and with a random gap set.
        rng = random.Random(seed)
        lengths = set()
        for _ in range(40):
            sizes = rng.choices(range(2, 6), k=rng.randint(1, 3))
            pats = normalize_patterns(rng.sample(range(1, m + 1), m) for m in sizes)
            lengths.update(map(len, pats))
            rules = single_place_rules(pats)
            for sigma in self.SIGMAS:
                if not avoids_all(sigma, pats):
                    continue
                k = len(sigma)
                random_gaps = GapSet(k, rng.getrandbits(k + 1))
                for gaps in (compute_gap_set(sigma, pats), random_gaps):
                    for t, rank in enumerate(sigma, 1):
                        events = [Event(q, (t,)) for q in pats]
                        expect = any(
                            order_facts(sigma, gaps, e) is not None and find_bailout(sigma, gaps, e, t, pats) is None
                            for e in events
                        )
                        assert single_place_unresolved(sigma, gaps, rank, rules) == expect, (pats, sigma, gaps, rank)
        assert lengths == {2, 3, 4, 5}

    @pytest.mark.parametrize("seed", [97103, 4207])
    def test_gaps_match_witness_scan(self, seed):
        for pats in random_pattern_sets(seed, 8):
            for sigma in self.SIGMAS:
                if not avoids_all(sigma, pats):
                    continue
                mask = compute_gap_set(sigma, pats).mask
                for j in range(len(sigma) + 1):
                    assert bool(mask >> j & 1) == reference_gap(sigma, pats, j), (pats, sigma, j)


class TestVerdictAgainstTranscript:
    SIGMAS = TestSearchAgainstReference.SIGMAS

    def test_certified_is_the_transcript_verdict(self):
        # ``certified`` skips the transcript: single-place events by their
        # rule, the others only when order_facts keeps them. Every avoiding
        # sigma up to length 4 and every rank, with the rules passed in and
        # derived.
        sets = random_pattern_sets(97103, 50) + random_pattern_sets(4207, 30) + SINGLETONS
        checked = 0
        for pats in sets:
            rules = single_place_rules(pats)
            for sigma in self.SIGMAS:
                if not avoids_all(sigma, pats):
                    continue
                gaps = compute_gap_set(sigma, pats)
                for rank in range(1, len(sigma) + 1):
                    analysis = analyze_deletable(sigma, pats, gaps, rank)
                    expect = all(o.verdict != "unresolved" for o in analysis.outcomes)
                    assert analysis.certified == expect, (pats, sigma, rank)
                    assert analyze_deletable(sigma, pats, gaps, rank, rules).certified == expect, (pats, sigma, rank)
                    checked += 1
        assert checked > 7000


class TestCertifyGap:
    """Single gaps, each decided as one bit of ``compute_gap_set``'s mask."""

    def test_increasing_prefix(self):
        assert compute_gap_set((1, 2), P123).mask >> 2 & 1
        assert not compute_gap_set((1, 2), P123).mask >> 1 & 1

    def test_middle_gap_for_132(self):
        assert compute_gap_set((1, 2), P132).mask >> 1 & 1

    def test_class_2413_top_gap(self):
        assert compute_gap_set((2, 4, 1, 3), PTHREE).mask >> 4 & 1


class TestComputeGapSet:
    @pytest.mark.parametrize(
        "sigma,pats,expect",
        [
            ((1, 2), P123, [2]),
            ((1, 2), P132, [1]),
            ((1,), (), []),
            ((1,), P12, [1]),
            ((2, 4, 1, 3), PTHREE, [4]),
            ((), ((1,),), [0]),
        ],
    )
    def test_known_sets(self, sigma, pats, expect):
        assert compute_gap_set(sigma, pats).sorted_list() == expect

    @pytest.mark.parametrize("pats", random_pattern_sets(97103, 50) + SINGLETONS, ids=str)
    def test_matches_enumerated_members(self, pats):
        # Read every class member straight off the avoiders of sizes k+1..k+3:
        # a gap is forced when no member leaves it open.
        avoiders = {n: list(iter_avoiders(n, pats)) for n in range(1, 7)}
        sigmas = [s for k in range(4) for s in permutations(range(1, k + 1)) if avoids_all(s, pats)]
        for sigma in sigmas:
            k = len(sigma)
            forced = set(range(k + 1))
            for n in range(k + 1, k + 4):
                for p in avoiders[n]:
                    if reduce_word(p[:k]) == sigma:
                        ext = (0, *sorted(p[:k]), n + 1)
                        forced -= {j for j in range(k + 1) if ext[j + 1] > ext[j] + 1}
            assert compute_gap_set(sigma, pats).sorted_list() == sorted(forced), sigma


class TestCertifyDeletable:
    def test_class_2413_rank_two(self):
        assert certify_deletable((2, 4, 1, 3), PTHREE, GapSet(4, 1 << 4), 2)

    def test_21_rank_two(self):
        assert certify_deletable((2, 1), P123, NO_GAPS_2, 2)

    def test_single_entry_fails(self):
        assert not certify_deletable((1,), P123, NO_GAPS_1, 1)

    def test_class_2413_six_events(self):
        analysis = analyze_deletable((2, 4, 1, 3), PTHREE, GapSet(4, 1 << 4), 2)
        assert analysis.certified
        live = [o for o in analysis.outcomes if o.verdict != "vacuous"]
        assert len(live) == 6
        assert all(outcome.verdict == "bailed-out" for outcome in live)
        shapes = sorted((o.event.pattern, o.event.places) for o in live)
        assert shapes == [
            ((1, 2, 3, 4), (1,)),
            ((1, 2, 3, 4), (1, 4)),
            ((1, 2, 4, 3), (1,)),
            ((1, 2, 4, 3), (1, 4)),
            ((1, 3, 2, 4), (1,)),
            ((1, 3, 2, 4), (1, 4)),
        ]

    def test_rank_range(self):
        for rank in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                certify_deletable((2, 1), P123, NO_GAPS_2, rank)
            with pytest.raises(ValueError, match="out of range"):
                analyze_deletable((2, 1), P123, NO_GAPS_2, rank)

    @pytest.mark.parametrize("rank", [1.0, True])
    def test_non_int_rank_rejected(self, rank):
        with pytest.raises(ValueError, match="rank must be an int"):
            certify_deletable((2, 1), P123, NO_GAPS_2, rank)
        with pytest.raises(ValueError, match="rank must be an int"):
            analyze_deletable((2, 1), P123, NO_GAPS_2, rank)

    def test_gap_set_length_validation(self):
        # A gap set sized for another length is an error, not a refusal.
        with pytest.raises(ValueError, match="sized for length 3"):
            certify_deletable((1,), P123, GapSet(3, 1 << 3), 1)


class TestFindDeletableRank:
    # The search reduces a class by its smallest certified rank, and
    # expands it (at depth 1 of 2) when none certifies.
    @pytest.mark.parametrize(
        "sigma,pats,gaps,expect",
        [
            ((1, 2), P123, GapSet(2, 1 << 2), 2),
            ((2, 1), P132, NO_GAPS_2, 2),
            ((1,), P123, NO_GAPS_1, None),
            ((1,), (), NO_GAPS_1, 1),
        ],
    )
    def test_known_ranks(self, sigma, pats, gaps, expect):
        found = search(pats, 2)
        if expect is None:
            assert found.expa[sigma] == gaps
        else:
            assert found.redu[sigma] == ReduEntry(expect, gaps)

    def test_deterministic(self):
        first = analyze_deletable((2, 4, 1, 3), PTHREE, GapSet(4, 1 << 4), 2)
        second = analyze_deletable((2, 4, 1, 3), PTHREE, GapSet(4, 1 << 4), 2)
        assert first == second


def event_realized(n, pats, sigma, gaps, event):
    # Oracle-side truth: some member realizes the event's occurrence shape.
    k = len(sigma)
    s = len(event.pattern) - len(event.places)
    for values in combinations(range(1, n + 1), k):
        if gaps.violated(values, n):
            continue
        for member in prefix_class_members(n, pats, sigma, values):
            for suffix in combinations(range(k + 1, n + 1), s):
                spots = tuple(event.places) + suffix
                if reduce_word([member[p - 1] for p in spots]) == event.pattern:
                    return True
    return False


class TestVacuousAgainstOracle:
    def test_named_vacuous_events(self):
        cases = [
            ((1, 2), P132, GapSet(2, 1 << 1), Event((1, 3, 2), (1, 2))),
            ((2, 1), P123, NO_GAPS_2, Event((1, 2, 3), (1, 2))),
            ((1, 2), P123, GapSet(2, 1 << 2), Event((1, 2, 3), (1, 2))),
        ]
        for sigma, pats, gaps, event in cases:
            assert order_facts(sigma, gaps, event) is None
            for n in range(len(sigma), 8):
                assert not event_realized(n, pats, sigma, gaps, event)

    def test_sampled_vacuous_events(self):
        for pats in random_pattern_sets(555, 4):
            for sigma in [(1, 2), (2, 1)]:
                if not avoids_all(sigma, pats):
                    continue
                gaps = compute_gap_set(sigma, pats)
                for q in pats:
                    for d in range(1, min(len(q), 2) + 1):
                        for places in combinations((1, 2), d):
                            event = Event(q, places)
                            if order_facts(sigma, gaps, event) is None:
                                for n in range(2, 7):
                                    assert not event_realized(n, pats, sigma, gaps, event)


class TestSoundnessAgainstOracle:
    def test_certified_facts_hold_empirically(self):
        sigmas = [s for k in (1, 2, 3) for s in permutations(range(1, k + 1))]
        for pats in random_pattern_sets(4207, 6):
            for sigma in sigmas:
                if not avoids_all(sigma, pats):
                    continue
                gaps = compute_gap_set(sigma, pats)
                observed = empirical_gap_set(sigma, pats)
                assert gaps.mask & ~observed.mask == 0, (pats, sigma)
                for rank in range(1, len(sigma) + 1):
                    if certify_deletable(sigma, pats, gaps, rank):
                        assert empirical_deletable(sigma, pats, gaps, rank), (
                            pats,
                            sigma,
                            rank,
                        )

    def test_certified_facts_hold_for_length_four_prefixes(self):
        for pats in random_pattern_sets(991, 3):
            for sigma in [(2, 4, 1, 3), (1, 2, 3, 4), (3, 1, 4, 2)]:
                if not avoids_all(sigma, pats):
                    continue
                gaps = compute_gap_set(sigma, pats)
                assert gaps.mask & ~empirical_gap_set(sigma, pats).mask == 0
                for rank in range(1, len(sigma) + 1):
                    if certify_deletable(sigma, pats, gaps, rank):
                        assert empirical_deletable(sigma, pats, gaps, rank), (pats, sigma, rank)

    def test_every_certified_reduction_loses_no_member(self):
        # The search-level net: each reduction that a certified document
        # lists passes the exact walk, over every symmetric image of the
        # corpus and the singletons at depths 4-6.
        images = {img for pats in random_pattern_sets(97103, 50) + SINGLETONS for img in symmetry_closure(pats)}
        checked = 0
        for pats in sorted(images):
            for depth in (4, 5, 6):
                found = search(pats, depth)
                for sigma, entry in (found.redu if found else {}).items():
                    pi = _deletion_counterexample(sigma, pats, entry.gaps, entry.rank)
                    assert pi is None, (pats, depth, sigma, entry.rank, pi)
                    checked += 1
        assert checked > 1000


def _mirror(gaps):
    # Gap j of sigma is gap k - j of its complement.
    return GapSet(gaps.k, sum(1 << (gaps.k - j) for j in gaps.sorted_list()))


def _one_per_complement_pair(sets):
    kept = []
    for pats in sets:
        if normalize_patterns(complement(q) for q in pats) not in kept:
            kept.append(pats)
    return kept


class TestComplementEquivariance:
    # scheme.search_with_symmetries skips an image on the strength of these
    # facts: complement maps gap j to gap k - j and rank r to rank k + 1 - r.
    # Each check runs both ways at once, so one set of each pair is enough.
    @pytest.mark.parametrize(
        "pats, longest",
        [(img, 5) for img in _one_per_complement_pair(img for q in SINGLETONS for img in symmetry_closure(q))]
        + [
            (pats, 4)
            for pats in _one_per_complement_pair(
                normalize_patterns(subset)
                for size in range(1, 7)
                for subset in combinations(permutations(range(1, 4)), size)
            )
        ],
        ids=str,
    )
    def test_gaps_and_ranks_mirror(self, pats, longest):
        flipped = normalize_patterns(complement(q) for q in pats)
        rules, flipped_rules = single_place_rules(pats), single_place_rules(flipped)
        # Each side's deletion walks share one mask table, as those of one
        # search do.
        masks, masks_c = {}, {}
        for k in range(longest + 1):
            for sigma in permutations(range(1, k + 1)):
                if not avoids_all(sigma, pats):
                    continue
                sigma_c = complement(sigma)
                gaps, gaps_c = compute_gap_set(sigma, pats), compute_gap_set(sigma_c, flipped)
                assert gaps_c == _mirror(gaps), sigma
                for r in range(1, k + 1):
                    unresolved = single_place_unresolved(sigma, gaps, r, rules)
                    assert unresolved == single_place_unresolved(sigma_c, gaps_c, k + 1 - r, flipped_rules), (sigma, r)
                    # The screen is exact (TestSearchAgainstReference), so a
                    # rank that it rejects on both sides is certified on
                    # neither; that keeps the test within its time budget.
                    if not unresolved:
                        assert certify_deletable(sigma, pats, gaps, r) == certify_deletable(
                            sigma_c, flipped, gaps_c, k + 1 - r
                        ), (sigma, r)
                    # The exact test: a member that deleting rank r loses
                    # maps to one that deleting rank k + 1 - r loses. Its walk
                    # grows slow past length 4, so the check stops there.
                    if k <= 4:
                        assert (_deletion_walk(sigma, pats, gaps, r, masks) is None) == (
                            _deletion_walk(sigma_c, flipped, gaps_c, k + 1 - r, masks_c) is None
                        ), (sigma, r)
