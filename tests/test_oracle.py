import math
import sys
from itertools import combinations, permutations

import pytest

from conftest import P12, P123, PAIRS, PBOTH, PTHREE, catalan, naive_contains, order_types, random_pattern_sets
from permscheme import oracle, reasoning
from permscheme.counting import count_class, sequence
from permscheme.oracle import (
    count_avoiders,
    empirical_deletable,
    empirical_gap_set,
    empirical_scheme_search,
    iter_avoiders,
    prefix_class_members,
)
from permscheme.perms import (
    avoids_all,
    closed_gaps,
    delete_rank,
    ends_with_bounds,
    normalize_patterns,
    parse_pattern_set,
    reduce_word,
    slot_bounds,
)
from permscheme.reasoning import GapSet, _deletion_counterexample, compute_gap_set
from permscheme.scheme import search, search_with_symmetries, serialize

CORPUS = random_pattern_sets(97103, 50)
P2143 = ((2, 1, 4, 3),)


@pytest.fixture(scope="module")
def corpus_avoiders():
    """The avoiders of every corpus set at n <= 7 by naive filter, in
    lexicographic order, keyed by (n, pats)."""
    # The corpus patterns have length 3 or 4, so each host's order types
    # of those lengths decide every set at once.
    out = {}
    for n in range(0, 8):
        hosts = list(permutations(range(1, n + 1)))
        types = [order_types(p, 3) | order_types(p, 4) for p in hosts]
        for pats in CORPUS:
            out[n, pats] = [p for p, seen in zip(hosts, types) if seen.isdisjoint(pats)]
    return out


def oracle_calls(monkeypatch, name: str, run, module=oracle) -> int:
    """How many calls the module makes in run() to the kernel it binds as name."""
    made = 0
    real = getattr(module, name)

    def counted(*args):
        nonlocal made
        made += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    run()
    return made


def code_calls(func, run) -> int:
    """How many times run() enters func's code, under whatever name it is
    bound by."""
    made = 0

    def profile(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is func.__code__:
            made += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return made


def kernel_arguments(monkeypatch, run) -> list:
    """The permutations whose ``closed_gaps`` mask a deletion walk computes
    in run(), in order; the search's own gap sets are not counted."""
    asked = []
    walking = []
    real_walk, real_kernel = reasoning._deletion_walk, reasoning.closed_gaps

    def walk(*args):
        walking.append(True)
        try:
            return real_walk(*args)
        finally:
            walking.pop()

    def recorded(p, plans):
        if walking:
            asked.append(tuple(p))
        return real_kernel(p, plans)

    with monkeypatch.context() as patch:
        # The walk as reasoning calls it, and as scheme.search binds it.
        for target in ("permscheme.reasoning._deletion_walk", "permscheme.scheme._deletion_walk"):
            patch.setattr(target, walk)
        patch.setattr(reasoning, "closed_gaps", recorded)
        run()
    return asked


def midpoint_walk(sigma, patterns, gaps, rank):
    """The deletion walk on midpoint values, as it was before it read
    closed-gap masks: a reference for ``_deletion_counterexample``.

    pi is a word of sigma's values 1..k and appended midpoints, and each
    open interval of its values is tested with ``ends_with_bounds``, once
    against pi minus the rank entry and once against pi. Returns the
    counterexample, reduced, and the number of nodes the walk popped.
    """
    plans = [slot_bounds(q) for q in patterns]
    k = len(sigma)
    t = sigma.index(rank)
    rest = sigma[:t] + sigma[t + 1 :]
    if any(ends_with_bounds(rest[:e], rest[e], plans) for e in range(k - 1)):
        return None, 0
    if any(ends_with_bounds(sigma[:e], sigma[e], plans) for e in range(k)):
        return sigma, 0
    size = k + max((len(bounds) for bounds in plans), default=0)
    stack = [(sigma, rest)] if k < size else []
    nodes = 0
    while stack:
        pi, rest = stack.pop()
        nodes += 1
        lo = 0
        for hi in (*sorted(pi), k + 1):
            # The prefix values are 1..k, so (lo, hi) lies in gap int(lo).
            if not gaps.mask >> int(lo) & 1:
                v = (lo + hi) / 2
                if not ends_with_bounds(rest, v, plans):
                    if ends_with_bounds(pi, v, plans):
                        return reduce_word(pi + (v,)), nodes
                    if len(pi) + 1 < size:
                        stack.append((pi + (v,), rest + (v,)))
            lo = hi
    return None, nodes


class TestEnumerate:
    def test_small_wilf_pair(self):
        assert len(list(iter_avoiders(3, PBOTH))) == 4

    @pytest.mark.parametrize("n", range(0, 6))
    def test_no_patterns_gives_everything(self, n):
        got = list(iter_avoiders(n, ()))
        assert len(got) == math.factorial(n)
        assert got == sorted(got)

    def test_single_decreasing(self):
        assert list(iter_avoiders(4, P12)) == [(4, 3, 2, 1)]
        # Dead prefixes are dropped, so a deep thin class stays cheap.
        assert list(iter_avoiders(60, P12)) == [tuple(range(60, 0, -1))]

    @pytest.mark.parametrize("pats,calls", [(PTHREE, 30004), (((1, 2, 3, 4),), 59214)])
    def test_call_count(self, monkeypatch, pats, calls):
        # Each prefix scans its unused values, largest first, and stops at
        # the first one that cannot follow it.
        assert oracle_calls(monkeypatch, "ends_with_bounds", lambda: list(iter_avoiders(8, pats))) == calls

    def test_negative_size_rejected(self, scheme123):
        # The scheme's class counts reject the same sizes as the oracle.
        with pytest.raises(ValueError, match="n must be >= 0"):
            iter_avoiders(-1, P123)
        with pytest.raises(ValueError, match="n must be >= 0"):
            count_avoiders(-1, P123)
        with pytest.raises(ValueError, match="n must be >= 0"):
            count_class(scheme123, (1,), -1, (1,))

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_non_int_size_rejected(self, scheme123, n):
        # A fractional size never reaches the walk's last level, and a float
        # or a bool that compares equal to an int is not one either.
        with pytest.raises(ValueError, match="n must be an int"):
            iter_avoiders(n, P123)
        with pytest.raises(ValueError, match="n must be an int"):
            count_avoiders(n, P123)
        with pytest.raises(ValueError, match="n must be an int"):
            count_class(scheme123, (), n, ())

    @pytest.mark.parametrize("pats", [P123, PBOTH, ((2, 1, 3),)])
    def test_pruning_matches_filter(self, pats):
        for n in range(0, 7):
            expect = [
                p for p in permutations(range(1, n + 1)) if not any(naive_contains(p, q) for q in pats)
            ]
            assert list(iter_avoiders(n, pats)) == expect

    def test_corpus_matches_naive_filter(self, corpus_avoiders):
        for (n, pats), expect in corpus_avoiders.items():
            assert list(iter_avoiders(n, pats)) == expect, (n, pats)


class TestCount:
    def test_catalan(self):
        assert count_avoiders(7, P123) == 429
        assert count_avoiders(7, P123) == catalan(7)

    def test_empty_permutation_always_counts(self):
        for pats in [(), ((1,),), P12, P123, PTHREE]:
            assert count_avoiders(0, pats) == 1

    def test_doubling_class(self):
        assert count_avoiders(5, PBOTH) == 16

    def test_corpus_matches_naive_filter(self, corpus_avoiders):
        for (n, pats), expect in corpus_avoiders.items():
            assert count_avoiders(n, pats) == len(expect), (n, pats)

    # The refinement walk and the value search are independent, so each
    # checks the other.
    @pytest.mark.parametrize("pats", [P123, PBOTH, PTHREE, *CORPUS])
    def test_count_equals_enumeration(self, pats):
        for n in range(0, 7):
            assert count_avoiders(n, pats) == len(list(iter_avoiders(n, pats)))

    def test_no_patterns_gives_everything(self):
        for n in range(0, 8):
            assert count_avoiders(n, ()) == math.factorial(n)

    def test_single_point_pattern_leaves_nothing(self):
        for n in range(1, 8):
            assert count_avoiders(n, ((1,),)) == 0

    def test_deep_thin_class(self):
        # One avoider per size, 60 levels deep: the walk runs on an explicit
        # stack in exact integers.
        assert count_avoiders(60, P12) == 1

    @pytest.mark.parametrize("pats,calls", [(PTHREE, 1778), (((1, 2, 3, 4),), 3409)])
    def test_call_count_closed_form(self, monkeypatch, pats, calls):
        # Each avoider of size 1 <= k < n gets its closed-gap mask from its
        # parent's in one ``tail_gaps`` call, and the root's needs none: the
        # walk makes sum over 1 <= k < n of |Av_k| calls, no ``closed_gaps``
        # call, and no containment test shared with the value search.
        n = 8
        tails = sum(len(list(iter_avoiders(k, pats))) for k in range(1, n))
        assert tails == calls
        assert oracle_calls(monkeypatch, "tail_gaps", lambda: count_avoiders(n, pats)) == calls
        assert oracle_calls(monkeypatch, "ends_with_bounds", lambda: count_avoiders(n, pats)) == 0
        assert code_calls(closed_gaps, lambda: count_avoiders(n, pats)) == 0

    def test_symmetry_invariance(self):
        from permscheme.perms import complement, inverse, reverse

        for pats in [P123, PTHREE]:
            for g in (reverse, complement, inverse):
                image = normalize_patterns(g(q) for q in pats)
                for n in range(0, 8):
                    assert count_avoiders(n, image) == count_avoiders(n, pats)


class TestPrefixClasses:
    def test_worked_example(self):
        got = prefix_class_members(5, ((1, 2, 3, 4), (1, 4, 3, 2)), (1, 3, 2), (2, 3, 5))
        assert got == {(2, 5, 3, 1, 4), (2, 5, 3, 4, 1)}

    def test_empty_prefix_is_everything(self):
        assert prefix_class_members(4, P123, (), ()) == set(iter_avoiders(4, P123))

    def test_forced_top_value_empty(self):
        assert prefix_class_members(3, P123, (1, 2), (1, 2)) == set()

    def test_pinned_deep_thin_class(self):
        assert prefix_class_members(40, P12, (1,), (40,)) == {tuple(range(40, 0, -1))}
        assert prefix_class_members(40, P12, (1,), (39,)) == set()

    def test_partition_identity(self):
        # Summing class sizes over all prefixes of length k recovers the count.
        for pats in [P123, PBOTH]:
            for n in range(1, 8):
                total = count_avoiders(n, pats)
                for k in range(1, min(3, n) + 1):
                    acc = 0
                    for sigma in permutations(range(1, k + 1)):
                        for values in combinations(range(1, n + 1), k):
                            acc += len(prefix_class_members(n, pats, sigma, values))
                    assert acc == total

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            prefix_class_members(4, P123, (1, 2), (3,))
        with pytest.raises(ValueError):
            prefix_class_members(4, P123, (1, 2), (3, 2))
        # sigma must be a permutation of 1..k.
        for sigma, values in [((3, 1), (1, 2)), ((2,), (1,)), ((1, 1), (2, 3))]:
            with pytest.raises(ValueError, match="not a permutation"):
                prefix_class_members(5, P123, sigma, values)
        # Values must be ints; a bool is not read as 0 or 1.
        for values in [(2.5,), (2.0,), (True,)]:
            with pytest.raises(ValueError, match="strictly increasing ints"):
                prefix_class_members(5, P123, (1,), values)
        # n is checked too: -1 with the empty prefix, True as 1, 2.5.
        for n, sigma, values in [(-1, (), ()), (True, (1,), (1,)), (2.5, (), ())]:
            with pytest.raises(ValueError, match="n must be"):
                prefix_class_members(n, P123, sigma, values)


class TestEmpiricalGaps:
    def test_increasing_prefix_forces_top(self):
        assert empirical_gap_set((1, 2), P123).sorted_list() == [2]

    def test_class_2413(self):
        assert empirical_gap_set((2, 4, 1, 3), PTHREE).sorted_list() == [4]

    def test_nothing_forced_without_patterns(self):
        assert empirical_gap_set((1,), ()).sorted_list() == []

    def test_empty_class_forces_every_gap(self):
        # No member at any size, so no gap is ever seen open.
        assert empirical_gap_set((1, 2, 3), P123).sorted_list() == [0, 1, 2, 3]

    @pytest.mark.parametrize("k", [8, 9])
    def test_long_prefix_forces_nothing(self, k):
        # Size k+1 decides, however long the prefix: an increasing prefix
        # leaves every gap open under {2143}.
        assert empirical_gap_set(tuple(range(1, k + 1)), P2143).sorted_list() == []


class TestEmpiricalDeletable:
    def test_second_rank_of_21(self):
        assert empirical_deletable((2, 1), P123, GapSet(2, 0), 2)

    def test_single_entry_not_deletable(self):
        assert not empirical_deletable((1,), P123, GapSet(1, 0), 1)

    def test_anything_goes_without_patterns(self):
        assert empirical_deletable((1,), (), GapSet(1, 0), 1)

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            empirical_deletable((2, 1), P123, GapSet(2, 0), 3)
        for rank in (1.0, True):
            with pytest.raises(ValueError, match="rank must be an int"):
                empirical_deletable((2, 1), P123, GapSet(2, 0), rank)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: reasoning.analyze_deletable((1, 1), P123, GapSet(2, 0), 1),
            lambda: reasoning.certify_deletable((2, 3), P123, GapSet(2, 0), 2),
            lambda: empirical_deletable((1, 1), P123, GapSet(2, 0), 1),
            lambda: empirical_deletable((2.0, 1), P123, GapSet(2, 0), 1),
            lambda: empirical_gap_set((0, 1), P123),
            lambda: compute_gap_set((0, 1), P123),
        ],
        ids=["analyze_11", "certify_23", "deletable_11", "deletable_float", "empirical_gaps_01", "gaps_01"],
    )
    def test_sigma_must_be_a_permutation(self, call):
        with pytest.raises(ValueError, match="not a permutation"):
            call()

    def test_gap_set_length_validation(self):
        # A gap set sized for length 3 says nothing about a length-1 prefix.
        with pytest.raises(ValueError, match="sized for length 3"):
            empirical_deletable((1,), P123, GapSet(3, 1 << 3), 1)

    def test_forced_gap_is_skipped(self):
        # Under {123} a value above 2 in (1,2) completes 123 with both, so
        # rank 2 is lost only through members that leave gap 2 open.
        assert empirical_deletable((1, 2), P123, GapSet(2, 1 << 2), 2)
        assert not empirical_deletable((1, 2), P123, GapSet(2, 0), 2)

    def test_prefix_decides_alone(self):
        # (1,2,3) minus any entry still contains 12: both classes are empty.
        assert empirical_deletable((1, 2, 3), P12, GapSet(3, 0), 1)
        # (1,2) contains 12 and (1,) avoids it: (1,2) itself is lost.
        assert not empirical_deletable((1, 2), P12, GapSet(2, 0), 1)
        # Forcing every gap rules out every extension, but not sigma itself.
        assert not empirical_deletable((1, 2, 3), P123, GapSet(3, 0b1111), 1)

    @pytest.mark.parametrize("pats", random_pattern_sets(97103, 50)[:10] + [P12, ()], ids=str)
    def test_counterexamples_are_lost_members(self, pats):
        # Each counterexample is checked by brute force, not by the walk's
        # own containment test.
        m = max((len(q) for q in pats), default=1)
        for k in range(1, 5):
            for sigma in permutations(range(1, k + 1)):
                gaps = compute_gap_set(sigma, pats)
                for rank in range(1, k + 1):
                    pi = _deletion_counterexample(sigma, pats, gaps, rank)
                    assert (pi is None) == empirical_deletable(sigma, pats, gaps, rank)
                    if pi is None:
                        continue
                    n = len(pi)
                    assert k <= n <= k + m - 1
                    assert sorted(pi) == list(range(1, n + 1))
                    assert reduce_word(pi[:k]) == sigma
                    assert not gaps.violated(tuple(sorted(pi[:k])), n)
                    assert any(naive_contains(pi, q) for q in pats)
                    t = sigma.index(rank)
                    rest = reduce_word(pi[:t] + pi[t + 1 :])
                    assert not any(naive_contains(rest, q) for q in pats), (sigma, rank, pi)

    @pytest.mark.parametrize("pats,longest", [(p, 3) for p in PAIRS] + [(p, 4) for p in CORPUS[:10]], ids=str)
    def test_same_answers_as_the_midpoint_walk(self, pats, longest):
        # Every sigma up to the longest length, those that contain a pattern
        # included, under the computed gaps and under no forced gap: the
        # walk accepts any mask. Length 4 for all 66 sets takes 8 s.
        for k in range(1, longest + 1):
            for sigma in permutations(range(1, k + 1)):
                for gaps in {compute_gap_set(sigma, pats), GapSet(k, 0)}:
                    for rank in range(1, k + 1):
                        expect, _ = midpoint_walk(sigma, pats, gaps, rank)
                        assert _deletion_counterexample(sigma, pats, gaps, rank) == expect, (sigma, gaps, rank)

    @pytest.mark.parametrize(
        "sigma,pats,rank,closed",
        [
            ((1,), P123, 1, 3),
            ((2, 4, 1, 3), PTHREE, 2, 34),
            (tuple(range(1, 7)), P2143, 1, 98),
        ],
    )
    def test_call_count(self, monkeypatch, sigma, pats, rank, closed):
        # The two root tests are ``avoids_all`` calls in front of the walk,
        # and the walk itself calls no ``ends_with_bounds``: each node reads
        # two closed-gap masks, one for pi and one for pi minus the rank
        # entry, from a table that computes each permutation's mask once.
        gaps = compute_gap_set(sigma, pats)
        expect, nodes = midpoint_walk(sigma, pats, gaps, rank)

        def run():
            assert _deletion_counterexample(sigma, pats, gaps, rank) == expect

        assert oracle_calls(monkeypatch, "ends_with_bounds", run, reasoning) == 0
        assert oracle_calls(monkeypatch, "avoids_all", run, reasoning) == 2
        asked = kernel_arguments(monkeypatch, run)
        assert len(asked) == closed <= 2 * nodes
        assert len(set(asked)) == len(asked)

    def test_single_entry_loses_a_member_of_size_k_plus_m_minus_one(self):
        # Under {123} the only miss of (1,), rank 1, is 123: deleting its 1
        # leaves 12, which avoids. Its size is 3 = k + m - 1.
        assert _deletion_counterexample((1,), P123, GapSet(1, 0), 1) == (1, 2, 3)

    def test_lost_member_past_size_eight(self):
        # Under {2143} deleting the smallest of 1..6 loses a member of size
        # 9 = k + m - 1 and none smaller, so a check up to size 8 passed it.
        sigma = tuple(range(1, 7))
        gaps = compute_gap_set(sigma, P2143)
        assert not empirical_deletable(sigma, P2143, gaps, 1)
        pi = _deletion_counterexample(sigma, P2143, gaps, 1)
        assert pi is not None and len(pi) == 9


class TestEmpiricalAgainstClassMembers:
    """The empirical deletion probe walks concrete extensions of sigma up to
    size k+m-1 on ``closed_gaps`` masks; here every size up to ``HORIZON``,
    at least that bound, comes from ``prefix_class_members`` instead, whose
    listing walk tests with ``ends_with_bounds``. Each kernel checks the
    other."""

    HORIZON = 6

    @pytest.mark.parametrize("pats", random_pattern_sets(97103, 50)[:6], ids=str)
    def test_gap_sets_and_verdicts(self, pats):
        sizes = {}

        def size(n, sigma, values):
            key = (n, sigma, values)
            if key not in sizes:
                sizes[key] = len(prefix_class_members(n, pats, sigma, values))
            return sizes[key]

        sigmas = [s for k in range(4) for s in permutations(range(1, k + 1)) if avoids_all(s, pats)]
        for sigma in sigmas:
            k = len(sigma)
            forced = set(range(k + 1))
            for n in range(k, self.HORIZON + 1):
                for values in combinations(range(1, n + 1), k):
                    if size(n, sigma, values):
                        ext = (0,) + values + (n + 1,)
                        forced -= {j for j in range(k + 1) if ext[j + 1] > ext[j] + 1}
            gaps = empirical_gap_set(sigma, pats)
            assert gaps.sorted_list() == sorted(forced), sigma
            assert k + max(map(len, pats)) - 1 <= self.HORIZON
            for rank in range(1, k + 1):
                smaller = delete_rank(sigma, rank)
                expect = all(
                    size(n, sigma, values)
                    == size(n - 1, smaller, values[: rank - 1] + tuple(v - 1 for v in values[rank:]))
                    for n in range(k, self.HORIZON + 1)
                    for values in combinations(range(1, n + 1), k)
                    if not gaps.violated(values, n)
                )
                assert empirical_deletable(sigma, pats, gaps, rank) == expect, (sigma, rank)


class TestEmpiricalSearch:
    def test_klassic_123(self):
        scheme = empirical_scheme_search(P123, 2, 8)
        assert scheme is not None
        assert scheme.mode == "empirical"
        assert sorted(scheme.expa) == [(), (1,)]
        assert sorted(scheme.redu) == [(1, 2), (2, 1)]

    def test_decreasing(self):
        scheme = empirical_scheme_search(P12, 1, 8)
        assert scheme is not None
        assert set(scheme.redu) == {(1,)}
        assert scheme.redu[(1,)].gaps.sorted_list() == [1]

    def test_single_point_pattern(self):
        scheme = empirical_scheme_search(((1,),), 1, 6)
        assert scheme is not None
        assert scheme.expa[()].sorted_list() == [0]
        assert scheme.zero == {(1,)}

    def test_depth_failure(self):
        assert empirical_scheme_search(P123, 1, 8) is None

    @pytest.mark.parametrize("pats,depth,stable", [(P123, 2, 4), (PTHREE, 4, 7), ((), 1, 2)])
    def test_horizon_at_or_below_depth_rejected(self, pats, depth, stable):
        # At size k a class holds at most sigma, so such a horizon would
        # accept every rank of the deepest classes on no evidence.
        for horizon in (depth - 1, depth):
            with pytest.raises(ValueError, match=f"from horizon {stable} on"):
                empirical_scheme_search(pats, depth, horizon)

    @pytest.mark.parametrize("depth", [2.5, 2.0, True, "2"])
    def test_non_int_depth_rejected(self, depth):
        with pytest.raises(ValueError, match="max_depth must be an int"):
            empirical_scheme_search(P123, depth)

    @pytest.mark.parametrize("horizon", [100.5, 8.0, True, "8"])
    def test_non_int_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be an int"):
            empirical_scheme_search(P123, 2, horizon)

    def test_same_scheme_from_the_bound_on(self):
        at_bound = empirical_scheme_search(PTHREE, 4, 7)
        assert at_bound is not None
        assert empirical_scheme_search(PTHREE, 4, 9) == at_bound

    def test_default_horizon_finds_no_wrong_scheme(self):
        # Checking sizes up to 8 only would accept a reduction at depth 6
        # that first miscounts at n = 9, so horizon 8 is rejected.
        with pytest.raises(ValueError, match="from horizon 9 on"):
            empirical_scheme_search(P2143, 6, 8)
        assert empirical_scheme_search(P2143, 6) is None
        assert empirical_scheme_search(P2143, 6, 9) is None

    def test_default_horizon_counts_exactly(self):
        pats = parse_pattern_set("1234,4321")
        scheme = empirical_scheme_search(pats, 6)
        assert scheme is not None and scheme.mode == "empirical"
        assert sequence(scheme, 10) == [count_avoiders(n, pats) for n in range(1, 11)]
        with pytest.raises(ValueError, match="from horizon 9 on"):
            empirical_scheme_search(pats, 6, 8)

    def test_one_mask_per_permutation_per_search(self, monkeypatch):
        # The walks of one search share a mask table, so none of them
        # asks the kernel for a permutation another walk already masked;
        # the next search starts from an empty table.
        def run():
            assert empirical_scheme_search(PTHREE, 4) is not None

        first = kernel_arguments(monkeypatch, run)
        assert len(set(first)) == len(first) > 0
        assert len(kernel_arguments(monkeypatch, run)) == len(first)

    @pytest.mark.parametrize("pats,depth", [(PTHREE, 4), (parse_pattern_set("1234,4321"), 6), (P2143, 6)], ids=str)
    def test_gap_sets_share_the_walks_mask_table(self, monkeypatch, pats, depth):
        # A class's gap set reads the mask that a walk of the same search
        # computed, and stores its own for the walks, so no permutation's
        # mask is computed twice in one search, the gap sets' included.
        asked = []
        real = reasoning.closed_gaps

        def recorded(p, plans):
            asked.append(tuple(p))
            return real(p, plans)

        monkeypatch.setattr(reasoning, "closed_gaps", recorded)
        log: list = []
        search(pats, depth, log, mode="empirical")
        classes = {tuple(r["sigma"]) for r in log if r["disposition"] != "zero"}
        assert classes <= set(asked)
        assert len(set(asked)) == len(asked)

    def test_pair_classes_at_depth_five(self):
        # Each of the 56 symmetry classes of length-4 pairs is tried at its
        # images by ``search_with_symmetries`` in the exact mode, and
        # counted once, at the first image whose search succeeds.
        found = 0
        for pats in PAIRS:
            hit = search_with_symmetries(pats, 5, "empirical")
            if hit is not None:
                found += 1
                img = hit[0].patterns
                assert sequence(hit[0], 8) == [count_avoiders(n, img) for n in range(1, 9)], img
        assert found == 25

    def test_default_horizon_is_depth_plus_m_minus_one(self):
        found = 0
        for pats in CORPUS:
            bound = 4 + max(len(q) for q in pats) - 1
            default, explicit = empirical_scheme_search(pats, 4), empirical_scheme_search(pats, 4, bound)
            assert (default is None) == (explicit is None), pats
            if default is not None:
                found += 1
                assert serialize(default) == serialize(explicit), pats
        assert found > 0
