import json

import pytest

from conftest import P12, P123, P132, PBOTH, PTHREE, catalan, random_pattern_sets
from permscheme import counting, oracle
from permscheme.perms import contains, refinements
from permscheme.reasoning import GapSet
from permscheme.scheme import (
    ExpaEntry,
    ReduEntry,
    Scheme,
    SchemeFormatError,
    deserialize,
    search,
    search_with_symmetries,
    serialize,
    validate,
)


class TestValidate:
    def test_discovered_scheme_is_clean(self, scheme123):
        assert validate(scheme123) == []

    def test_missing_empty_permutation(self, scheme123):
        broken = Scheme(
            scheme123.patterns,
            {s: e for s, e in scheme123.expa.items() if s != ()},
            dict(scheme123.redu),
            scheme123.zero,
            scheme123.mode,
        )
        assert any("empty permutation" in p for p in validate(broken))

    def test_truncated_refinements(self, scheme123):
        entry = scheme123.expa[(1,)]
        broken = Scheme(
            scheme123.patterns,
            {**scheme123.expa, (1,): ExpaEntry(entry.gaps, entry.children[:1])},
            dict(scheme123.redu),
            scheme123.zero,
            scheme123.mode,
        )
        assert any("refinements" in p for p in validate(broken))

    def test_overlap_reported(self, scheme123):
        broken = Scheme(
            scheme123.patterns,
            dict(scheme123.expa),
            {**scheme123.redu, (1,): ReduEntry(1, GapSet(1, frozenset()))},
            scheme123.zero,
            scheme123.mode,
        )
        assert any("both" in p for p in validate(broken))

    def test_zero_must_contain_a_pattern(self, scheme123):
        broken = Scheme(
            scheme123.patterns,
            dict(scheme123.expa),
            dict(scheme123.redu),
            frozenset({(2, 1, 3)}),
            scheme123.mode,
        )
        assert any("avoids" in p for p in validate(broken))


class TestSearch:
    def test_123_structure(self, scheme123):
        assert sorted(scheme123.expa) == [(), (1,)]
        assert scheme123.redu[(1, 2)] == ReduEntry(2, GapSet(2, frozenset({2})))
        assert scheme123.redu[(2, 1)] == ReduEntry(2, GapSet(2, frozenset()))
        assert scheme123.zero == frozenset()
        assert scheme123.mode == "certified"

    def test_132_structure(self, scheme132):
        assert scheme132.redu[(1, 2)] == ReduEntry(2, GapSet(2, frozenset({1})))
        assert scheme132.redu[(2, 1)] == ReduEntry(2, GapSet(2, frozenset()))

    def test_no_patterns(self, scheme_empty):
        assert sorted(scheme_empty.expa) == [()]
        assert scheme_empty.redu == {(1,): ReduEntry(1, GapSet(1, frozenset()))}

    def test_12_has_forced_gap(self, scheme12):
        assert scheme12.redu[(1,)].gaps.forced == {1}

    def test_depth_too_small_fails(self):
        assert search(P123, 1) is None

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            search(P123, 0)

    def test_depth_monotone(self, scheme123):
        deeper = search(P123, 5)
        assert deeper is not None
        assert deeper.expa == scheme123.expa
        assert deeper.redu == scheme123.redu
        assert deeper.zero == scheme123.zero

    def test_deterministic_bytes(self):
        assert serialize(search(PTHREE, 4)) == serialize(search(PTHREE, 4))

    def test_zero_classes_contain_patterns(self):
        found = search(((1, 2, 3), (3, 2, 1)), 3)
        if found is None:
            pytest.skip("no scheme at this depth; nothing to check")
        for sigma in found.zero:
            assert any(contains(sigma, q) for q in found.patterns)

    def test_search_log_records_dispositions(self):
        log = []
        search(P123, 2, log)
        by_sigma = {tuple(rec["sigma"]): rec for rec in log}
        assert by_sigma[()]["disposition"] == "expa"
        assert by_sigma[(1, 2)]["disposition"] == "redu"
        assert by_sigma[(1, 2)]["delete_rank"] == 2


class TestSearchWithSymmetries:
    def test_identity_when_direct_works(self):
        hit = search_with_symmetries(P123, 2)
        assert hit is not None
        scheme, label = hit
        assert label == "identity"
        assert scheme.patterns == P123

    def test_reverse_image(self):
        hit = search_with_symmetries([(3, 2, 1)], 2)
        assert hit is not None
        scheme, label = hit
        assert label == "reverse"
        assert scheme.patterns == P123
        assert counting.sequence(scheme, 10) == [catalan(n) for n in range(1, 11)]

    def test_fixed_point_set(self):
        hit = search_with_symmetries(((1,),), 1)
        assert hit is not None
        assert hit[0].patterns == ((1,),)


class TestSerialization:
    def test_round_trip(self, scheme123, scheme_three):
        for scheme in (scheme123, scheme_three):
            doc = serialize(scheme)
            again = deserialize(doc)
            assert again == scheme
            assert serialize(again) == doc

    def test_document_shape(self, scheme123):
        doc = json.loads(serialize(scheme123))
        assert doc["schema_version"] == 1
        assert doc["mode"] == "certified"
        assert doc["patterns"] == [[1, 2, 3]]
        assert [e["sigma"] for e in doc["expa"]] == [[], [1]]
        assert [e["sigma"] for e in doc["redu"]] == [[1, 2], [2, 1]]
        assert serialize(scheme123).endswith("\n")

    def test_out_of_range_rank_rejected(self):
        doc = {
            "patterns": [[1, 2]],
            "mode": "certified",
            "expa": [{"sigma": [], "gaps": [], "refinements": [[1]]}],
            "redu": [{"sigma": [1], "delete_rank": 5, "gaps": []}],
            "zero": [],
        }
        with pytest.raises(SchemeFormatError):
            deserialize(json.dumps(doc))

    def test_hand_written_document_counts(self):
        doc = {
            "patterns": [[1, 2]],
            "mode": "certified",
            "expa": [{"sigma": [], "gaps": [], "refinements": [[1]]}],
            "redu": [{"sigma": [1], "delete_rank": 1, "gaps": [1]}],
            "zero": [],
        }
        loaded = deserialize(json.dumps(doc))
        assert counting.sequence(loaded, 8) == [1] * 8

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("zero"),
            lambda d: d.update(extra=1),
            lambda d: d.update(schema_version=99),
            lambda d: d["expa"].clear(),
            lambda d: d.update(mode="guessed"),
            # A sigma listed twice: the last entry would win, rank 2 -> 1.
            lambda d: d["redu"].append({"sigma": [1, 2], "delete_rank": 1, "gaps": [2]}),
            lambda d: d["expa"].append(dict(d["expa"][0])),
            lambda d: d["zero"].extend([[1, 2, 3], [1, 2, 3]]),
            # JSON true loads as Python True, which equals 1.
            lambda d: d["redu"][0].update(delete_rank=True),
            lambda d: d.update(schema_version=True),
            lambda d: d["redu"][0].update(sigma=[True, 2]),
            lambda d: d["redu"][0].update(gaps=[True]),
            lambda d: d.update(patterns=[[True, 2, 3]]),
        ],
    )
    def test_bad_documents_rejected(self, scheme123, mangle):
        doc = json.loads(serialize(scheme123))
        mangle(doc)
        with pytest.raises(SchemeFormatError):
            deserialize(json.dumps(doc))

    def test_garbage_rejected(self):
        with pytest.raises(SchemeFormatError):
            deserialize("not json at all")


class TestDiscoveredSchemesAgainstOracle:
    def test_random_corpus_counts_match(self):
        found = 0
        for pats in random_pattern_sets(20240, 12):
            scheme = search(pats, 4)
            if scheme is None:
                continue
            found += 1
            assert validate(scheme) == []
            seq = counting.sequence(scheme, 7)
            assert seq == [oracle.count_avoiders(n, pats) for n in range(1, 8)], pats
        assert found >= 1

    def test_reduction_targets_always_classified(self, scheme_three):
        from permscheme.perms import delete_rank

        classes = scheme_three.classes()
        for sigma, entry in scheme_three.redu.items():
            assert delete_rank(sigma, entry.rank) in classes

    def test_refinement_closure(self, scheme_three):
        classes = scheme_three.classes()
        for sigma, entry in scheme_three.expa.items():
            assert entry.children == tuple(refinements(sigma))
            assert all(child in classes for child in entry.children)
