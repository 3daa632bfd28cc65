from collections import deque
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAIRS, PBOTH, SINGLETONS, end_order_types, naive_contains, random_pattern_sets
from permscheme import perms
from permscheme.perms import (
    avoids_all,
    check_permutation,
    closed_gaps,
    complement,
    contains,
    delete_rank,
    ends_with_bounds,
    format_permutation,
    gap_plan,
    inverse,
    normalize_patterns,
    parse_pattern_set,
    parse_permutation,
    reduce_word,
    refine,
    refinements,
    reverse,
    slot_bounds,
    symmetry_closure,
    symmetry_images,
    tail_kernel,
    tail_plan,
)
from permscheme.scheme import search_with_symmetries


perms_up_to = lambda k: st.integers(1, k).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestReduce:
    def test_known_words(self):
        assert reduce_word((2, 6, 4)) == (1, 3, 2)
        assert reduce_word((9, 1, 5)) == (3, 1, 2)

    @pytest.mark.parametrize("k", range(0, 6))
    def test_identity_word(self, k):
        assert reduce_word(tuple(range(1, k + 1))) == tuple(range(1, k + 1))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            reduce_word((3, 3, 1))

    @given(st.lists(st.integers(-50, 50), max_size=8, unique=True))
    def test_idempotent_and_order_isomorphic(self, word):
        reduced = reduce_word(word)
        assert reduce_word(reduced) == reduced
        for x, y in combinations(range(len(word)), 2):
            assert (word[x] < word[y]) == (reduced[x] < reduced[y])


class TestContains:
    def test_known_host(self):
        host = (5, 1, 8, 7, 2, 4, 6, 3)
        assert contains(host, (3, 4, 2, 1))
        assert contains(host, (1, 2, 3, 4))

    def test_decreasing_host(self):
        assert not contains((3, 2, 1), (1, 2))

    def test_empty_pattern_is_in_every_host(self):
        assert contains((1, 2), ())
        assert contains((), ())

    def test_avoids_all(self):
        assert avoids_all((3, 1, 4, 2), ())
        assert not avoids_all((1, 3, 2), ((1, 2, 3), (1, 3, 2)))
        assert avoids_all((2, 1, 3), ((1, 2, 3), (1, 3, 2)))
        # The empty pattern occurs even in the empty host; the empty set of
        # patterns is avoided by every host.
        assert not avoids_all((), [()])
        assert avoids_all((), ())
        # The patterns are read once, so a generator works.
        assert not avoids_all((1, 3, 2), (q for q in PBOTH))

    @given(perms_up_to(7), perms_up_to(4))
    @settings(max_examples=150)
    def test_matches_naive_scan(self, host, pattern):
        assert contains(host, pattern) == naive_contains(host, pattern)

    @given(perms_up_to(8), perms_up_to(4))
    @settings(max_examples=200)
    def test_end_anchored_matches_subsequence_scan(self, host, pattern):
        prefix, last = host[:-1], host[-1]
        expect = any(
            reduce_word(sub + (last,)) == pattern
            for sub in combinations(prefix, len(pattern) - 1)
        )
        assert ends_with_bounds(prefix, last, [slot_bounds(pattern)]) == expect

    def test_end_anchored_exhaustive(self):
        # Every pattern of length 1-4, and every set of the 50-set corpus,
        # against every host of length <= 6.
        patterns = [q for m in range(1, 5) for q in permutations(range(1, m + 1))]
        sets = [(pats, [slot_bounds(q) for q in pats]) for pats in random_pattern_sets(97103, 50)]
        for h in range(1, 7):
            for host in permutations(range(1, h + 1)):
                ending = set().union(*(end_order_types(host, m) for m in range(1, min(h, 4) + 1)))
                for q in patterns:
                    assert ends_with_bounds(host[:-1], host[-1], [slot_bounds(q)]) == (q in ending), (host, q)
                for pats, plans in sets:
                    expect = any(q in ending for q in pats)
                    assert ends_with_bounds(host[:-1], host[-1], plans) == expect, (host, pats)

    @given(perms_up_to(7))
    def test_contains_own_reduction(self, p):
        assert contains(p, reduce_word(p))

    @given(perms_up_to(6), perms_up_to(4), perms_up_to(3))
    @settings(max_examples=80)
    def test_transitive(self, p, q, s):
        if contains(p, q) and contains(q, s):
            assert contains(p, s)


def refinement_ends(fines, plans) -> int:
    """Bit j set when some pattern, given by ``slot_bounds``, ends at the last
    entry of fines[j], the refinement that ends in j+1."""
    return sum(ends_with_bounds(fine[:-1], fine[-1], plans) << j for j, fine in enumerate(fines))


class TestClosedGaps:
    def test_examples(self):
        # 12 followed by a value above 2 completes 123; one between 1 and 2
        # or below 1 does not.
        assert closed_gaps((1, 2), [gap_plan((1, 2, 3))]) == 0b100
        assert closed_gaps((2, 1), [gap_plan((1, 2, 3))]) == 0
        # The point pattern closes every gap, the empty set none.
        assert closed_gaps((2, 1, 3), [gap_plan((1,))]) == 0b1111
        assert closed_gaps((2, 1, 3), []) == 0

    def test_single_patterns_exhaustive(self):
        # Every p of length <= 6 against every pattern of length 1-5 on its
        # own, checked by a scan of the subsequences that end at each
        # refinement's last entry.
        singles = [q for m in range(1, 6) for q in permutations(range(1, m + 1))]
        plans = [[gap_plan(q)] for q in singles]
        for k in range(7):
            for p in permutations(range(1, k + 1)):
                ending = dict.fromkeys(singles, 0)
                for j, fine in enumerate(refinements(p)):
                    for m in range(1, min(k + 1, 5) + 1):
                        for q in end_order_types(fine, m):
                            ending[q] |= 1 << j
                for q, gaps in zip(singles, plans):
                    assert closed_gaps(p, gaps) == ending[q], (p, q)

    def test_corpus_sets_exhaustive(self):
        # Every p of length <= 6 against every set of the 50-set corpus,
        # checked by ``ends_with_bounds`` on each refinement.
        sets = [
            ([gap_plan(q) for q in pats], [slot_bounds(q) for q in pats]) for pats in random_pattern_sets(97103, 50)
        ]
        for k in range(7):
            for p in permutations(range(1, k + 1)):
                fines = refinements(p)
                for gaps, bounds in sets:
                    assert closed_gaps(p, gaps) == refinement_ends(fines, bounds), (p, gaps)

    @given(perms_up_to(8), st.lists(perms_up_to(5), min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_matches_end_anchored_test(self, p, pats):
        gaps = [gap_plan(q) for q in pats]
        assert closed_gaps(p, gaps) == refinement_ends(refinements(p), [slot_bounds(q) for q in pats])


def check_grown_masks(pats, parents, tail=None) -> int:
    """For every p in parents and every gap g, the compiled kernel of pats
    (or tail, when given) on c = ``refine(p, g)`` from p's ``closed_gaps``
    mask must be c's ``closed_gaps`` mask. Returns the number of children
    checked."""
    gaps = [gap_plan(q) for q in pats]
    if tail is None:
        tail = tail_kernel(pats)
    checked = 0
    for p in parents:
        parent = closed_gaps(p, gaps)
        for g, fine in enumerate(refinements(p)):
            assert tail(fine, parent) == closed_gaps(fine, gaps), (p, g, pats)
            checked += 1
    return checked


def every_perm(k: int):
    """Every permutation of length at most k, shortest first."""
    return (p for size in range(k + 1) for p in permutations(range(1, size + 1)))


class TestTailGaps:
    def test_examples(self):
        # 12 ends at the last entry of 132 with 1 below it, so 123 closes
        # the gaps above 2, whatever the parent's mask.
        tail = tail_kernel([(1, 2, 3)])
        assert tail((1, 3, 2), 0b100) == 0b1100
        assert tail((1, 3, 2), 0) == 0b1100
        # The parent 12 closed the gap above 2 for 123. Its child 123 has
        # that bit doubled: both gaps next to the new entry 3 are closed.
        assert tail((1, 2, 3), 0b100) == 0b1100
        # The point pattern's empty head never uses the last entry, and the
        # empty set adds nothing to the parent's mask but bit g doubled.
        assert tail_kernel([(1,)])((2, 1, 3), 0) == 0
        assert tail_kernel([])((2, 1, 3), 0b101) == 0b1101

    def test_tail_alone_matches_a_scan(self):
        # From a parent mask of 0, bit j is set when a new last entry in
        # gap j completes a pattern through c's last entry: a scan of the
        # subsequences of refine(c, j) that end at its last two entries.
        singles = [q for m in range(1, 6) for q in permutations(range(1, m + 1))]
        kernels = {q: tail_kernel([q]) for q in singles}
        for c in every_perm(6):
            if not c:
                continue
            through = dict.fromkeys(singles, 0)
            for j, fine in enumerate(refinements(c)):
                *rest, last, new = fine
                for m in range(2, min(len(c) + 1, 5) + 1):
                    for sub in combinations(rest, m - 2):
                        through[reduce_word(list(sub) + [last, new])] |= 1 << j
            for q in singles:
                assert kernels[q](c, 0) == through[q], (c, q)

    def test_single_patterns_exhaustive(self):
        # Every pattern of length 1-5 on its own, at every gap g of every p
        # of length <= 5 (length 6 takes 10 s): the parent's mask with bit
        # g doubled, joined with the occurrences through the new last
        # entry, is the child's.
        checked = 0
        for m in range(1, 6):
            for q in permutations(range(1, m + 1)):
                checked += check_grown_masks([q], every_perm(5))
        assert checked == 153 * 873

    def test_corpus_sets_exhaustive(self):
        # Every set of the 50-set corpus at every gap of every p of length
        # <= 5, and of every avoider of length 6, which are the parents the
        # count walk reaches there.
        for pats in random_pattern_sets(97103, 50):
            check_grown_masks(pats, every_perm(5))
            check_grown_masks(pats, (p for p in permutations(range(1, 7)) if avoids_all(p, pats)))

    @given(perms_up_to(8), st.lists(perms_up_to(5), min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_matches_closed_gaps(self, p, pats):
        check_grown_masks(pats, [p])


class TestTailKernel:
    # Sets that mix pattern lengths 1-5, the point pattern, 12, 21 and the
    # empty set among them, with every fix a ``tail_plan`` can have: 123,
    # 4321 and 12345 search all their free slots for one occurrence (fix
    # 0); 132, 2143 and 21543 know their gap span after one slot, 1243 and
    # 24153 after two, 12354 after three.
    SETS = [
        (),
        ((1,),),
        ((1, 2),),
        ((2, 1),),
        ((1, 2, 3, 4, 5),),
        ((2, 1, 4, 3),),
        ((1, 2, 4, 3),),
        ((2, 4, 1, 5, 3),),
        ((1, 2, 3, 5, 4),),
        ((1,), (2, 1, 4, 3)),
        ((2, 1), (1, 2, 3, 4, 5)),
        ((1, 2), (2, 1, 5, 4, 3)),
        ((1, 3, 2), (2, 1, 4, 3), (2, 4, 1, 5, 3)),
        ((1, 2, 3), (4, 3, 2, 1), (1, 2, 3, 5, 4)),
        ((1, 2, 4, 3), (2, 1, 5, 4, 3), (3, 1, 2)),
        ((1, 3, 2, 4), (2, 1, 4, 3), (1, 2, 3, 4, 5), (1, 2, 3, 5, 4)),
    ]

    def test_every_fix_covered(self):
        fixes = {(len(q), tail_plan(q)[3]) for pats in self.SETS for q in pats}
        assert fixes == {(1, 0)} | {(m, fix) for m in range(2, 6) for fix in range(m - 1)}

    @staticmethod
    def avoiders(pats):
        return [p for p in every_perm(6) if avoids_all(p, pats)]

    def test_matches_closed_gaps_on_every_avoider(self):
        # The compiled kernel against ``closed_gaps``, which shares no code
        # with it, on every refinement of every avoider of length <= 6.
        for pats in self.SETS:
            assert check_grown_masks(pats, self.avoiders(pats)) >= 1, pats

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_helpers_past_the_nesting_budget(self, monkeypatch, blocks):
        # With room for 1-3 nested loops to a function, the longer patterns
        # go on with their search in helper functions, to the same masks.
        monkeypatch.setattr(perms, "_BLOCKS", blocks)
        for pats in self.SETS:
            namespace: dict = {}
            exec(compile(perms._tail_source(pats), "<tail kernel>", "exec"), namespace)
            check_grown_masks(pats, self.avoiders(pats), namespace["tail"])


class TestRefinements:
    def test_empty_and_single(self):
        assert refinements(()) == [(1,)]
        assert refinements((1,)) == [(2, 1), (1, 2)]

    def test_312(self):
        got = refinements((3, 1, 2))
        assert set(got) == {(3, 1, 2, 4), (4, 1, 2, 3), (4, 1, 3, 2), (4, 2, 3, 1)}
        for j, fine in enumerate(got, start=1):
            assert fine[-1] == j

    @given(perms_up_to(6))
    def test_round_trip(self, sigma):
        for fine in refinements(sigma):
            assert reduce_word(fine[:-1]) == sigma


class TestRefine:
    def test_every_gap_up_to_length_six(self):
        # A new last entry in gap g lies between values g and g+1; reducing
        # the word with g + 0.5 appended shares no code with ``refine``.
        for k in range(7):
            for p in permutations(range(1, k + 1)):
                for g in range(k + 1):
                    fine = refine(p, g)
                    assert fine == reduce_word(p + (g + 0.5,))
                    assert delete_rank(fine, g + 1) == p
                assert refinements(p) == [refine(p, g) for g in range(k + 1)]


class TestDeleteRank:
    def test_examples(self):
        assert delete_rank((2, 4, 1, 3), 2) == (3, 1, 2)
        assert delete_rank((2, 1), 2) == (1,)
        assert delete_rank((1,), 1) == ()

    @pytest.mark.parametrize("r", [0, 3, -1])
    def test_out_of_range(self, r):
        with pytest.raises(ValueError) as info:
            delete_rank((2, 1), r)
        assert str(info.value) == f"rank {r} out of range for length 2"

    @pytest.mark.parametrize("r", [1.0, True, 1.5])
    def test_non_int_rank_rejected(self, r):
        with pytest.raises(ValueError) as info:
            delete_rank((2, 1), r)
        assert str(info.value) == f"rank must be an int, got {r!r}"


class TestSymmetries:
    def test_examples(self):
        assert reverse((1, 2, 3)) == (3, 2, 1)
        assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)
        assert complement((2, 4, 1, 3)) == (3, 1, 4, 2)

    @given(perms_up_to(8))
    def test_involutions(self, p):
        assert reverse(reverse(p)) == p
        assert complement(complement(p)) == p
        assert inverse(inverse(p)) == p

    @given(perms_up_to(8), perms_up_to(4))
    @settings(max_examples=100)
    def test_equivariance(self, host, pattern):
        base = contains(host, pattern)
        for g in (reverse, complement, inverse):
            assert contains(g(host), g(pattern)) == base

    def test_closure_123(self):
        assert symmetry_closure([(1, 2, 3)]) == [((1, 2, 3),), ((3, 2, 1),)]

    def test_closure_size_and_membership(self):
        for pats in [((1, 2),), ((2, 4, 1, 3),), ((1, 2, 3), (2, 1, 3))]:
            canon = normalize_patterns(pats)
            closure = symmetry_closure(canon)
            assert canon in closure
            assert 1 <= len(closure) <= 8

    def test_images_labels(self):
        images = dict((img, label) for label, img in symmetry_images([(3, 2, 1)]))
        assert images[((3, 2, 1),)] == "identity"
        assert images[((1, 2, 3),)] == "reverse"

    def test_images_match_normalizing_every_image(self):
        for pats in [(), *random_pattern_sets(97103, 50), *SINGLETONS, *PAIRS]:
            expect = reference_symmetry_images(pats)
            assert symmetry_images(pats) == expect, pats
            assert symmetry_closure(pats) == sorted(img for _, img in expect), pats

    # Each rejected input with its whole message; the set functions see the
    # bad pattern after a good one.
    BAD_PATTERNS = [
        ((True, 2), "not a permutation of 1..2: (True, 2)"),
        ((1.0, 2), "not a permutation of 1..2: (1.0, 2)"),
        ((1, 1), "not a permutation of 1..2: (1, 1)"),
        ((2, 3), "not a permutation of 1..2: (2, 3)"),
        ((), "patterns must have length >= 1"),
    ]

    @pytest.mark.parametrize("bad, message", BAD_PATTERNS, ids=str)
    def test_set_functions_reject(self, bad, message):
        for call in (symmetry_images, symmetry_closure, lambda pats: search_with_symmetries(pats, 2)):
            with pytest.raises(ValueError) as info:
                call([(1, 2, 3), list(bad)])
            assert str(info.value) == message, call

    @pytest.mark.parametrize("bad, message", BAD_PATTERNS[:-1], ids=str)
    def test_check_permutation_rejects(self, bad, message):
        with pytest.raises(ValueError) as info:
            check_permutation(list(bad))
        assert str(info.value) == message

    def test_check_permutation_accepts_the_empty_permutation(self):
        # The empty prefix is a class; only a pattern must be nonempty.
        assert check_permutation([]) == ()


def reference_symmetry_images(patterns):
    # Every image normalized, validation included, as the images were built
    # before they were only deduplicated and sorted.
    start = normalize_patterns(patterns)
    labels = {start: "identity"}
    order = [start]
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for name, fn in (("reverse", reverse), ("inverse", inverse)):
            img = normalize_patterns(fn(q) for q in cur)
            if img not in labels:
                labels[img] = name if labels[cur] == "identity" else f"{labels[cur]}+{name}"
                order.append(img)
                queue.append(img)
    return [(labels[img], img) for img in order]


class TestTextForms:
    def test_parse_digits_and_brackets(self):
        assert parse_permutation("2413") == (2, 4, 1, 3)
        assert parse_permutation("[2,4,1,3]") == (2, 4, 1, 3)
        assert parse_permutation("") == ()

    def test_format(self):
        assert format_permutation((2, 4, 1, 3)) == "2413"
        long = tuple(range(1, 11))
        assert format_permutation(long) == "[1,2,3,4,5,6,7,8,9,10]"
        assert parse_permutation(format_permutation(long)) == long

    @pytest.mark.parametrize("bad", ["12a", "0", "120", "[1,2", "[1,1]", "122", "[true,2,3]"])
    def test_bad_permutations(self, bad):
        with pytest.raises(ValueError):
            parse_permutation(bad)

    def test_pattern_sets(self):
        assert parse_pattern_set("") == ()
        assert parse_pattern_set("[]") == ()
        assert parse_pattern_set("123,132") == ((1, 2, 3), (1, 3, 2))
        assert parse_pattern_set("[[1,2,3],[1,3,2]]") == ((1, 2, 3), (1, 3, 2))
        assert parse_pattern_set("[1,2,3]") == ((1, 2, 3),)
        assert parse_pattern_set("132,132") == ((1, 3, 2),)

    @pytest.mark.parametrize("bad", ["123,,132", "[[1,2],3]", "[[]]", "[[true,2,3]]", "[true,2,3]", "[1,"])
    def test_bad_pattern_sets(self, bad):
        with pytest.raises(ValueError):
            parse_pattern_set(bad)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            normalize_patterns([()])


def test_all_length_3_reductions_consistent():
    # delete_rank agrees with delete-position-and-reduce on every case.
    for sigma in permutations(range(1, 4)):
        for r in range(1, 4):
            pos = sigma.index(r)
            expect = reduce_word(sigma[:pos] + sigma[pos + 1 :])
            assert delete_rank(sigma, r) == expect
