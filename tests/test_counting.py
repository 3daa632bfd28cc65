import math
from itertools import combinations

import pytest

from conftest import PBOTH, SINGLETONS, catalan, random_pattern_sets
from permscheme import counting, oracle
from permscheme.counting import (
    SchemeIntegrityError,
    count,
    count_class,
    layer_key_counts,
    layer_keys,
    sequence,
)
from permscheme.perms import delete_rank, refinements, symmetry_images
from permscheme.reasoning import GapSet
from permscheme.scheme import MODE_CERTIFIED, MODE_EMPIRICAL, ReduEntry, Scheme, search, search_with_symmetries


def reference_count(scheme, sigma, n, values, cache=None):
    # Plain recursion, kept independent of the library's evaluator on
    # purpose. A cache dict, when given, memoizes it by (sigma, n, values).
    if cache is not None and (sigma, n, values) in cache:
        return cache[sigma, n, values]
    if sigma in scheme.zero:
        return 0
    expa_gaps = scheme.expa.get(sigma)
    rentry = scheme.redu.get(sigma)
    gaps = expa_gaps if expa_gaps is not None else rentry.gaps
    ext = (0,) + values + (n + 1,)
    if any(ext[j + 1] != ext[j] + 1 for j in gaps.sorted_list()):
        return 0
    if n == len(sigma):
        return 1
    if expa_gaps is not None:
        total = 0
        for j in range(1, len(sigma) + 2):
            child = refinements(sigma)[j - 1]
            for r in range(ext[j - 1] + 1, ext[j]):
                total += reference_count(scheme, child, n, values[: j - 1] + (r,) + values[j - 1 :], cache)
    else:
        reduced = values[: rentry.rank - 1] + tuple(v - 1 for v in values[rentry.rank :])
        total = reference_count(scheme, delete_rank(sigma, rentry.rank), n - 1, reduced, cache)
    if cache is not None:
        cache[sigma, n, values] = total
    return total


# Every non-empty set of length-3 patterns, written as strings.
LENGTH_THREE_SETS = [
    set(R) for size in range(1, 7) for R in combinations(["123", "132", "213", "231", "312", "321"], size)
]


def simion_schmidt(R, n):
    """|S_n(R)| for a set R of length-3 patterns, as Simion and Schmidt
    enumerate them (Restricted permutations, Europ. J. Combin. 6, 1985)."""
    if n <= 2:
        return math.factorial(n)
    if {"123", "321"} <= R:
        # Every permutation of size 5 or more contains 123 or 321
        # (Erdos-Szekeres). At n = 4 those avoiding both are 2143, which
        # contains 132 and 213, 3412, which contains 231 and 312, and 2413
        # and 3142, which contain all four.
        if n >= 5:
            return 0
        if n == 3:
            return 6 - len(R)
        four = {"132", "213", "231", "312"}
        return sum(not R & others for others in ({"132", "213"}, {"231", "312"}, four, four))
    if len(R) == 1:
        return catalan(n)
    if len(R) == 2:
        quadratic = ({"123", "231"}, {"123", "312"}, {"132", "321"}, {"213", "321"})
        return math.comb(n, 2) + 1 if R in quadratic else 2 ** (n - 1)
    if len(R) == 3:
        if R in ({"123", "132", "213"}, {"231", "312", "321"}):
            a, b = 1, 1  # F_{n+1}
            for _ in range(n - 1):
                a, b = b, a + b
            return b
        return n
    return 2 if len(R) == 4 else 1


def partitions(n, largest):
    """The partitions of n with parts at most largest, parts decreasing."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def increasing_avoiders(n, k):
    """|S_n(12...k)|. By Schensted's theorem (Canad. J. Math. 13, 1961) the
    longest increasing subsequence of a permutation is the first row of its
    Robinson-Schensted shape, so this is the sum of (f^lambda)^2 over the
    partitions lambda of n with parts at most k - 1, f^lambda by the
    hook-length formula of Frame, Robinson and Thrall (Canad. J. Math. 6,
    1954)."""
    total = 0
    for shape in partitions(n, k - 1):
        columns = [sum(part > j for part in shape) for j in range(shape[0] if shape else 0)]
        hooks = 1
        for i, part in enumerate(shape):
            for j in range(part):
                hooks *= part - j + columns[j] - i - 1
        total += (math.factorial(n) // hooks) ** 2
    return total


def as_patterns(R):
    return [tuple(map(int, q)) for q in sorted(R)]


def hand_built_scheme():
    # Hand-built, so not a valid scheme: 312 reduces into the zero class
    # 12, and 213 carries the forced gap 0 along its chain.
    def gaps(k, *forced):
        return GapSet(k, sum(1 << j for j in forced))

    return Scheme(
        patterns=((1, 2),),
        expa={
            (): gaps(0),
            (1,): gaps(1),
            (2, 1): gaps(2, 1),
        },
        redu={
            (3, 2, 1): ReduEntry(1, gaps(3)),
            (3, 1, 2): ReduEntry(3, gaps(3, 3)),
            (2, 1, 3): ReduEntry(3, gaps(3, 0)),
        },
        zero=frozenset({(1, 2)}),
        mode="certified",
    )


def colex_keys(n, k):
    # The keys of size n in colex order: by i_k, then i_{k-1}, and so on.
    return sorted(combinations(range(1, n + 1), k), key=lambda key: key[::-1])


def reference_prefix_sums(table, n, k, s):
    # Plain re-summation of a table along coordinate s, by key. Keys arrive
    # in colex order, so a key's predecessor along s is already summed; a
    # missing one is below the range.
    out = {}
    for key in colex_keys(n, k):
        below = key[:s] + (key[s] - 1,) + key[s + 1 :]
        out[key] = table[counting._rank(key)] + out.get(below, 0)
    return out


class TestCount:
    def test_catalan_values(self, scheme123):
        assert count(scheme123, 3) == 5
        assert count(scheme123, 0) == 1
        assert sequence(scheme123, 8) == [1, 2, 5, 14, 42, 132, 429, 1430]

    def test_factorials(self, scheme_empty):
        assert count(scheme_empty, 10) == 3628800
        assert sequence(scheme_empty, 5) == [1, 2, 6, 24, 120]

    def test_all_ones(self, scheme12):
        assert sequence(scheme12, 9) == [1] * 9

    def test_wilf_pair_small_count(self, scheme_both):
        assert count(scheme_both, 3) == 4
        assert sequence(scheme_both, 6) == [1, 2, 4, 8, 16, 32]

    def test_big_values_exact(self, scheme_empty):
        assert count(scheme_empty, 21) == math.factorial(21)

    def test_input_validation(self, scheme123):
        with pytest.raises(ValueError):
            count(scheme123, -1)
        with pytest.raises(ValueError):
            sequence(scheme123, 0)

    @pytest.mark.parametrize("func", [sequence, layer_keys, layer_key_counts])
    @pytest.mark.parametrize("size", [True, 2.5, -1])
    def test_size_must_be_a_nonnegative_int(self, scheme123, func, size):
        with pytest.raises(ValueError, match="n must be"):
            func(scheme123, size)


class TestCountClass:
    def test_closed_form_for_single_start(self, scheme123):
        for n in range(1, 13):
            for i in range(1, n + 1):
                expect = math.comb(n + i - 2, n - 1) - math.comb(n + i - 2, n)
                assert count_class(scheme123, (1,), n, (i,)) == expect

    def test_partition_identity_at_root(self, scheme123):
        for n in range(1, 11):
            parts = sum(count_class(scheme123, (1,), n, (i,)) for i in range(1, n + 1))
            assert parts == count(scheme123, n)

    def test_gap_violating_tuple_is_zero(self, scheme123):
        # Class 12 forces its larger value to be n.
        assert count_class(scheme123, (1, 2), 4, (1, 3)) == 0
        assert count_class(scheme123, (1, 2), 4, (1, 4)) > 0

    def test_absent_class_is_integrity_error(self, scheme123):
        with pytest.raises(SchemeIntegrityError):
            count_class(scheme123, (3, 1, 2), 4, (1, 2, 3))

    def test_chain_into_absent_class_is_integrity_error(self, scheme_three):
        # 2314 reduces to 213, which only the reduction chain reaches.
        assert scheme_three.redu[(2, 3, 1, 4)].rank == 2
        redu = {s: e for s, e in scheme_three.redu.items() if s != (2, 1, 3)}
        broken = Scheme(scheme_three.patterns, scheme_three.expa, redu, scheme_three.zero, "certified")
        with pytest.raises(SchemeIntegrityError, match=r"\(2, 1, 3\)"):
            sequence(broken, 5)
        with pytest.raises(SchemeIntegrityError):
            count_class(broken, (1,), 5, (2,))

    def test_deep_class_is_iterative(self, scheme123):
        n, i = 1000, 5
        expect = math.comb(n + i - 2, n - 1) - math.comb(n + i - 2, n)
        assert count_class(scheme123, (1,), n, (i,)) == expect

    def test_malformed_keys_rejected(self, scheme123):
        with pytest.raises(ValueError, match="not a permutation"):
            count_class(scheme123, (1, 1), 5, [2, 3])
        with pytest.raises(ValueError):
            count_class(scheme123, (1, 2), 4, (3,))
        with pytest.raises(ValueError):
            count_class(scheme123, (1, 2), 4, (3, 3))
        with pytest.raises(ValueError):
            count_class(scheme123, (1, 2), 4, (3, 5))
        # Values must be ints; a bool is not read as 0 or 1.
        for values in [(2.5,), (2.0,), (True,)]:
            with pytest.raises(ValueError, match="strictly increasing ints"):
                count_class(scheme123, (1,), 5, values)


class TestEvaluatorAgreement:
    def test_layered_matches_recursive_and_reference(self, scheme123, scheme_both):
        for scheme in (scheme123, scheme_both):
            layered = sequence(scheme, 7)
            for n in range(0, 8):
                recursive = count(scheme, n)
                reference = reference_count(scheme, (), n, ())
                assert recursive == reference
                assert n == 0 or layered[n - 1] == recursive

    def test_matches_oracle(self, scheme_three):
        seq = sequence(scheme_three, 8)
        assert seq == [oracle.count_avoiders(n, scheme_three.patterns) for n in range(1, 9)]

    def test_every_key_of_the_corpus_matches_reference(self):
        # The soundness corpus covers reduction chains such as 2413 -> 312
        # -> 12 under {1234} and chains that carry forced gaps.
        for pats in random_pattern_sets(97103, 50):
            scheme = search(pats, 4)
            if scheme is None:
                continue
            cache: dict = {}
            for sigma in (*scheme.expa, *scheme.redu, *scheme.zero):
                for n in range(len(sigma), 9):
                    for values in combinations(range(1, n + 1), len(sigma)):
                        got = count_class(scheme, sigma, n, values)
                        assert got == reference_count(scheme, sigma, n, values, cache), (pats, sigma, n, values)

    def test_a_built_plan_follows_no_chain_again(self, monkeypatch):
        # The compile pass fills the plan's chain table with every reduced
        # class and every refinement, so count_class deletes no rank.
        schemes = [s for s in (search(pats, 4) for pats in random_pattern_sets(97103, 50)) if s is not None]
        for scheme in schemes:
            counting._plan(scheme)
        calls = []

        def spy(sigma, rank):
            calls.append((sigma, rank))
            return delete_rank(sigma, rank)

        monkeypatch.setattr(counting, "delete_rank", spy)
        for scheme in schemes:
            for sigma in scheme.classes():
                count_class(scheme, sigma, len(sigma) + 1, tuple(range(1, len(sigma) + 1)))
        assert calls == []

    def test_symmetric_images_agree_to_forty(self):
        # Schemes for different symmetric images of one set are different
        # programs for one sequence, so they must agree far past the
        # oracle's reach: a prefix sum restarted one key off shows here.
        sets = schemes = 0
        for pats in random_pattern_sets(97103, 50):
            found = [s for s in (search(img, 4) for _, img in symmetry_images(pats)) if s is not None]
            if len(found) < 2:
                continue
            sets += 1
            schemes += len(found)
            seqs = [sequence(s, 40) for s in found]
            assert seqs == seqs[:1] * len(seqs), pats
        assert (sets, schemes) == (28, 98)


class TestLayout:
    def test_tables_are_flat_in_colex_order(self):
        # Every table of size n holds C(n, k) entries, entry i the count at
        # the i-th key in colex order, so a rank that misses its key shows.
        classes = 0
        for pats in random_pattern_sets(97103, 50):
            scheme = search(pats, 5)
            if scheme is None:
                continue
            cache: dict = {}
            for n, tables in counting._layers(counting._plan(scheme), 9):
                assert set(tables) == set(scheme.expa)
                for sigma, table in tables.items():
                    keys = colex_keys(n, len(sigma))
                    assert [counting._rank(key) for key in keys] == list(range(len(keys)))
                    assert len(table) == math.comb(n, len(sigma))
                    assert table == [reference_count(scheme, sigma, n, key, cache) for key in keys], (pats, sigma, n)
                    classes += 1
        assert classes


class TestLengthThreeSets:
    """Every set of length-3 patterns against Simion and Schmidt's closed
    forms, far past the oracle's reach: a layer boundary or a prefix-sum
    restart one key off shows here."""

    def test_closed_forms_match_the_oracle(self):
        assert len(LENGTH_THREE_SETS) == 63
        for R in LENGTH_THREE_SETS:
            got = [oracle.count_avoiders(n, as_patterns(R)) for n in range(1, 11)]
            assert got == [simion_schmidt(R, n) for n in range(1, 11)], R

    def test_schemes_match_the_closed_forms_to_forty(self):
        # A certified scheme of some image at depth 3 where there is one;
        # the exact search's at depth 2 for the four sets with none.
        uncertified = []
        for R in LENGTH_THREE_SETS:
            found = search_with_symmetries(as_patterns(R), 3)
            if found is None:
                uncertified.append(R)
                scheme = search(as_patterns(R), 2, mode=MODE_EMPIRICAL)
            else:
                scheme = found[0]
            assert sequence(scheme, 40) == [simion_schmidt(R, n) for n in range(1, 41)], R
        assert uncertified == [{"132", "213"}, {"231", "312"}, {"123", "231", "312"}, {"132", "213", "321"}]


class TestIncreasingPatterns:
    """{12...k} against the hook-length formula, far past the oracle's reach."""

    def test_hook_lengths_match_the_oracle(self):
        assert [increasing_avoiders(n, 3) for n in range(10)] == [catalan(n) for n in range(10)]
        for k in (3, 4, 5):
            got = [oracle.count_avoiders(n, [tuple(range(1, k + 1))]) for n in range(10)]
            assert got == [increasing_avoiders(n, k) for n in range(10)], k

    def test_schemes_match_the_hook_lengths(self):
        # The certified depth-4 {1234} scheme to 40, and the exact depth-7
        # {12345} scheme, the shallowest there is, to 20.
        scheme = search([(1, 2, 3, 4)], 4)
        assert sequence(scheme, 40) == [increasing_avoiders(n, 4) for n in range(1, 41)]
        assert search([(1, 2, 3, 4, 5)], 6, mode=MODE_EMPIRICAL) is None
        scheme = search([(1, 2, 3, 4, 5)], 7, mode=MODE_EMPIRICAL)
        assert sequence(scheme, 20) == [increasing_avoiders(n, 5) for n in range(1, 21)]


class TestErdosSzekeres:
    """A set holding 12...a and b...1 has no avoider of size above
    (a-1)(b-1) (Erdos and Szekeres, Compositio Math. 2, 1935), and some of
    that size."""

    @pytest.mark.parametrize("R", [("123", "321"), ("1234", "321"), ("123", "4321"), ("1234", "4321")], ids=",".join)
    def test_no_avoider_past_the_bound(self, R):
        bound = (len(R[0]) - 1) * (len(R[1]) - 1)
        pats = as_patterns(R)
        brute = [oracle.count_avoiders(n, pats) for n in range(1, 11)]
        assert brute[bound - 1] > 0
        assert brute[bound:] == [0] * (10 - bound)
        for mode in (MODE_CERTIFIED, MODE_EMPIRICAL):
            terms = sequence(search(pats, 6, mode=mode), 14)
            assert terms[:10] == brute, mode
            assert terms[bound:] == [0] * (14 - bound), mode

    @pytest.mark.parametrize("R", [("123", "321"), ("1234", "321"), ("123", "4321"), ("1234", "4321")], ids=",".join)
    def test_sequence_stops_at_an_all_zero_window(self, monkeypatch, R):
        # Past the bound every layer holds only zeros, so sequence stops
        # once the plan's window of them is built and pads the rest: its
        # terms are the full tabulation's, at each L tried up to 60, while
        # layer_key_counts still tabulates every layer.
        bound = (len(R[0]) - 1) * (len(R[1]) - 1)
        pats = as_patterns(R)
        real = counting._layers
        for mode in (MODE_CERTIFIED, MODE_EMPIRICAL):
            scheme = search(pats, 6, mode=mode)
            plan = counting._plan(scheme)
            upto = 60 if plan.longest <= 2 else 30 if plan.longest <= 4 else 16
            full = [tables[()][0] for n, tables in real(plan, upto) if n >= 1]
            assert full[bound:] == [0] * (upto - bound), mode
            built = []

            def spy(plan, length):
                for n, tables in real(plan, length):
                    built.append(n)
                    yield n, tables

            monkeypatch.setattr(counting, "_layers", spy)
            for L in (*range(1, 16), 30, 60):
                built.clear()
                assert sequence(scheme, L) == (full + [0] * 60)[:L], (mode, L)
            assert built[-1] == bound + plan.keep, mode
            monkeypatch.undo()
            assert layer_key_counts(scheme, upto) == [layer_keys(scheme, n) for n in range(upto + 1)], mode


class TestPolynomialGrowth:
    def test_key_count_is_quadratic_for_123(self, scheme123):
        for n, keys in enumerate(layer_key_counts(scheme123, 30)):
            assert keys <= 2 * max(n, 1) ** 2

    def test_layers_hold_expanded_classes_only(self, scheme_three):
        for n, keys in enumerate(layer_key_counts(scheme_three, 30)):
            closed_form = sum(math.comb(n, len(sigma)) for sigma in scheme_three.expa)
            assert keys == closed_form == layer_keys(scheme_three, n)


class TestZeroClasses:
    def test_chain_into_zero_class_matches_reference(self):
        scheme = hand_built_scheme()
        for sigma in (*scheme.expa, *scheme.redu, *scheme.zero):
            for n in range(len(sigma), 8):
                for values in combinations(range(1, n + 1), len(sigma)):
                    assert count_class(scheme, sigma, n, values) == reference_count(scheme, sigma, n, values)

    def test_zero_class_counts_zero(self):
        # Hand-built scheme for the single-point pattern: every class of
        # length >= 1 is empty.
        scheme = Scheme(
            patterns=((1,),),
            expa={(): GapSet(0, 1 << 0)},
            redu={},
            zero=frozenset({(1,)}),
            mode="certified",
        )
        assert count(scheme, 0) == 1
        assert sequence(scheme, 4) == [0, 0, 0, 0]
        assert count_class(scheme, (1,), 3, (2,)) == 0


class TestLayerMemo:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = counting._layers

        def spy(plan, upto):
            calls.append(upto)
            return real(plan, upto)

        monkeypatch.setattr(counting, "_layers", spy)
        counting._layer.cache_clear()
        yield calls
        counting._layer.cache_clear()

    def test_first_value_loop_builds_once(self, builds, scheme123, scheme_three):
        n = 9
        assert [count_class(scheme123, (1,), n, (v,)) for v in range(1, n + 1)][-1] == catalan(n - 1)
        assert builds == [n]
        assert count(scheme123, n) == catalan(n)
        assert builds == [n]
        count_class(scheme123, (1,), n + 1, (1,))
        assert builds == [n, n + 1]
        count_class(scheme_three, (1,), n + 1, (1,))
        assert builds == [n, n + 1, n + 1]
        assert counting._layer.cache_info().currsize <= 1

    def test_interleaved_calls_match_fresh_builds(self, scheme123, scheme_three):
        counting._layer.cache_clear()
        fresh = {}
        for scheme in (scheme123, scheme_three):
            assert (1,) in scheme.expa
            for n in (7, 8):
                for _, tables in counting._layers(counting._plan(scheme), n):
                    pass
                fresh[id(scheme), n] = tables
        for v in range(1, 9):
            for n in (7, 8):
                for scheme in (scheme123, scheme_three):
                    if v <= n:
                        assert count_class(scheme, (1,), n, (v,)) == fresh[id(scheme), n][(1,)][counting._rank((v,))]
                    assert count(scheme, n) == fresh[id(scheme), n][()][counting._rank(())]
                    assert counting._layer.cache_info().currsize <= 1


class TestKernelSums:
    """The compiled kernel's prefix sums against a plain re-summation of its table."""

    def check(self, monkeypatch, schemes) -> set:
        # Returns the (class, coordinate) pairs summed, plus "carried" when a
        # key zeroed by a forced gap held a nonzero sum.
        seen = set()
        real = counting._tabulate

        def spy(e, n, window, shares):
            table, sums = real(e, n, window, shares)
            assert sorted(sums) == list(e.summed)
            forced = scheme.expa[e.sigma].sorted_list()
            k = len(e.sigma)
            for s, got in sums.items():
                want = reference_prefix_sums(table, n, k, s)
                assert len(got) == len(want), (e.sigma, n, s)
                assert all(got[counting._rank(key)] == v for key, v in want.items()), (e.sigma, n, s)
                seen.add((e.sigma, s))
                for key in want:
                    ext = (0, *key, n + 1)
                    if got[counting._rank(key)] and any(ext[j + 1] != ext[j] + 1 for j in forced):
                        seen.add("carried")
            return table, sums

        monkeypatch.setattr(counting, "_tabulate", spy)
        for scheme in schemes:
            for _ in counting._layers(counting._plan(scheme), 10):
                pass
        return seen

    def test_corpus(self, monkeypatch):
        schemes = [s for s in (search(p, 5) for p in random_pattern_sets(97103, 50)) if s is not None]
        seen = self.check(monkeypatch, schemes)
        assert "carried" in seen
        assert ((2, 1), 0) in seen

    def test_singletons(self, monkeypatch):
        schemes = [s for s in (search(p, 6) for p in SINGLETONS) if s is not None]
        assert schemes
        assert ((2, 3, 1), 0) in self.check(monkeypatch, schemes)

    def test_forced_gaps_of_hand_built_scheme(self, monkeypatch):
        # (2, 1) forces its gap 1 and is summed along coordinate 0, which is
        # not its last: every key it skipped would be a missing predecessor.
        assert ((2, 1), 0) in self.check(monkeypatch, [hand_built_scheme()])
