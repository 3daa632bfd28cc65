import hashlib
import json
from collections import deque
from itertools import combinations

import pytest

from conftest import P12, P123, P132, PAIRS, PBOTH, PTHREE, SINGLETONS, catalan, naive_contains, random_pattern_sets
from permscheme import counting, oracle, reasoning
from permscheme.perms import (
    avoids_all,
    contains,
    delete_rank,
    normalize_patterns,
    reduce_word,
    refinements,
    symmetry_closure,
    symmetry_images,
)
from permscheme.reasoning import (
    Event,
    GapSet,
    analyze_deletable,
    certify_deletable,
    compute_gap_set,
    find_bailout,
    order_facts,
)
from permscheme.scheme import (
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

    def test_overlap_reported(self, scheme123):
        broken = Scheme(
            scheme123.patterns,
            dict(scheme123.expa),
            {**scheme123.redu, (1,): ReduEntry(1, GapSet(1, 0))},
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

    def test_unclassified_refinement_reported(self, scheme123):
        # (1,) refines into (1, 2), which this scheme drops.
        broken = Scheme(
            scheme123.patterns,
            dict(scheme123.expa),
            {s: e for s, e in scheme123.redu.items() if s != (1, 2)},
            scheme123.zero,
            scheme123.mode,
        )
        assert validate(broken) == ["refinement (1, 2) of (1,) not classified"]

    def test_expa_gap_set_sized_for_another_length(self, scheme123):
        broken = Scheme(
            scheme123.patterns,
            {**scheme123.expa, (1,): GapSet(2, 0)},
            dict(scheme123.redu),
            scheme123.zero,
            scheme123.mode,
        )
        assert validate(broken) == ["expa[(1,)] gap set sized for length 2"]

    def test_redu_gap_set_sized_for_another_length(self, scheme123):
        broken = Scheme(
            scheme123.patterns,
            dict(scheme123.expa),
            {**scheme123.redu, (1, 2): ReduEntry(2, GapSet(1, 1 << 1))},
            scheme123.zero,
            scheme123.mode,
        )
        assert validate(broken) == ["redu[(1, 2)] gap set sized for length 1"]

    @pytest.mark.parametrize("rank", [True, 1.0], ids=["bool", "float"])
    def test_non_int_redu_rank_reported(self, scheme123, rank):
        # Both used to reach ``delete_rank``, which raised ValueError.
        broken = Scheme(
            scheme123.patterns,
            dict(scheme123.expa),
            {**scheme123.redu, (1, 2): ReduEntry(rank, GapSet(2, 1 << 2))},
            scheme123.zero,
            scheme123.mode,
        )
        assert validate(broken) == [f"redu[(1, 2)] delete rank {rank!r} is not an int"]

    @pytest.mark.parametrize("rank", [True, "2", 1.5, None], ids=["bool", "string", "float", "null"])
    def test_non_int_document_rank_reported_by_validate(self, scheme123, rank):
        doc = json.loads(serialize(scheme123))
        entry = next(e for e in doc["redu"] if e["sigma"] == [1, 2])
        entry["delete_rank"] = rank
        with pytest.raises(SchemeFormatError) as info:
            deserialize(json.dumps(doc))
        assert str(info.value) == f"redu[(1, 2)] delete rank {rank!r} is not an int"


class TestSearch:
    def test_123_structure(self, scheme123):
        assert sorted(scheme123.expa) == [(), (1,)]
        assert scheme123.redu[(1, 2)] == ReduEntry(2, GapSet(2, 1 << 2))
        assert scheme123.redu[(2, 1)] == ReduEntry(2, GapSet(2, 0))
        assert scheme123.zero == frozenset()
        assert scheme123.mode == "certified"

    def test_132_structure(self, scheme132):
        assert scheme132.redu[(1, 2)] == ReduEntry(2, GapSet(2, 1 << 1))
        assert scheme132.redu[(2, 1)] == ReduEntry(2, GapSet(2, 0))

    def test_no_patterns(self, scheme_empty):
        assert sorted(scheme_empty.expa) == [()]
        assert scheme_empty.redu == {(1,): ReduEntry(1, GapSet(1, 0))}

    def test_12_has_forced_gap(self, scheme12):
        assert scheme12.redu[(1,)].gaps.sorted_list() == [1]

    def test_depth_too_small_fails(self):
        assert search(P123, 1) is None

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            search(P123, 0)

    @pytest.mark.parametrize("depth", [2.5, 2.0, True, "2"])
    def test_non_int_depth_rejected(self, depth):
        # 2.5 used to search to depth 3, True to depth 1, and "2" raised
        # TypeError.
        with pytest.raises(ValueError, match="max_depth must be an int"):
            search(P123, depth)

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

    @pytest.mark.parametrize("run", [search, search_with_symmetries])
    def test_unknown_mode_rejected(self, run):
        with pytest.raises(ValueError, match="unknown mode 'checked'"):
            run(P123, 2, mode="checked")

    def test_search_log_records_dispositions(self):
        log = []
        search(P123, 2, log)
        by_sigma = {tuple(rec["sigma"]): rec for rec in log}
        assert by_sigma[()]["disposition"] == "expa"
        assert by_sigma[(1, 2)]["disposition"] == "redu"
        assert by_sigma[(1, 2)]["delete_rank"] == 2


    def test_failure_stops_at_first_stuck_class(self):
        # Depth-first, the search reaches a stuck length-6 class after 10
        # classes; visiting every shallower class first would take 38.
        log = []
        assert search(((1, 3, 2, 4),), 6, log) is None
        assert len(log) == 10
        assert log[-1] == {"sigma": [5, 6, 3, 4, 1, 2], "disposition": "stuck-at-depth"}


class TestZeroFromMask:
    """The search zeroes a refinement by its parent's forced gap and never a
    deletion target; only the empty root is tested for containment."""

    @pytest.mark.parametrize("mode", ["certified", "empirical"])
    def test_zero_records_are_the_containing_classes(self, mode):
        # Every class a search classifies is zeroed exactly when its prefix
        # contains a pattern, by a subsequence scan independent of perms.
        for pats in random_pattern_sets(97103, 50) + PAIRS:
            log = []
            found = search(pats, 5, log, mode=mode)
            if found is not None:
                assert validate(found) == [], pats
            for rec in log:
                contained = any(naive_contains(rec["sigma"], q) for q in pats)
                assert contained == (rec["disposition"] == "zero"), (pats, rec)

    @pytest.mark.parametrize("mode", ["certified", "empirical"])
    def test_one_containment_test_per_search(self, monkeypatch, mode):
        calls = []

        def counted(sigma, pats):
            calls.append(tuple(sigma))
            return avoids_all(sigma, pats)

        monkeypatch.setattr("permscheme.scheme.avoids_all", counted)
        jobs = [(P123, 2), (PTHREE, 4), (((1,),), 1), ((), 1), (((1, 3, 2, 4),), 6), (((1, 2, 3), (3, 2, 1)), 6)]
        for pats, depth in jobs:
            calls.clear()
            search(pats, depth, mode=mode)
            assert calls == [()], pats


def reference_search(patterns, max_depth):
    """Breadth-first reference: the document and log records, or None and the records.

    A class's disposition depends only on the class and the patterns, so any
    visiting order reaches the same closure of the empty prefix and the same
    dispositions, and fails exactly when that closure holds a stuck class.
    """
    pats = normalize_patterns(patterns)
    expa, redu, zero, records = {}, {}, set(), []
    queue, seen = deque([()]), {()}
    while queue:
        sigma = queue.popleft()
        if not avoids_all(sigma, pats):
            zero.add(sigma)
            records.append({"sigma": list(sigma), "disposition": "zero"})
            continue
        gaps = compute_gap_set(sigma, pats)
        rank = next((r for r in range(1, len(sigma) + 1) if certify_deletable(sigma, pats, gaps, r)), None)
        if rank is not None:
            redu[sigma] = ReduEntry(rank, gaps)
            reached = [delete_rank(sigma, rank)]
            records.append(
                {"sigma": list(sigma), "disposition": "redu", "gaps": gaps.sorted_list(), "delete_rank": rank}
            )
        elif len(sigma) < max_depth:
            reached = refinements(sigma)
            expa[sigma] = gaps
            records.append({"sigma": list(sigma), "disposition": "expa", "gaps": gaps.sorted_list()})
        else:
            return None, records
        for target in reached:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return serialize(Scheme(pats, expa, redu, frozenset(zero), "certified")), records


class TestSearchOrderIndependence:
    @pytest.mark.parametrize(
        "pats, depth",
        [(pats, 4 + i % 3) for i, pats in enumerate(random_pattern_sets(97103, 50)[:20])]
        + [(pats, 6) for pats in SINGLETONS],
        ids=str,
    )
    def test_same_result_as_breadth_first(self, pats, depth):
        for image in symmetry_closure(pats):
            found = search(image, depth)
            expected, _ = reference_search(image, depth)
            assert (None if found is None else serialize(found)) == expected, image

    def test_same_log_records_as_breadth_first(self):
        log = []
        assert search(PTHREE, 4, log) is not None
        document, records = reference_search(PTHREE, 4)
        assert document is not None

        def as_set(recs):
            return {json.dumps(r, sort_keys=True) for r in recs}

        assert len(log) == len(records)
        assert as_set(log) == as_set(records)
        # Depth-first, the records come in a different order.
        assert log != records


def document_and_log(pats, depth):
    """A search's document (None on failure) and its --explain records."""
    log = []
    found = search(pats, depth, log)
    return (found and serialize(found)), [json.dumps(r) for r in log]


def every_event_searched(sigma, pats, gaps, rank, rules):
    # The verdict with every event through the rank's place, single-place
    # ones and those whose ranks contradict the pattern included, sent to
    # the bail-out search: no rule, no event skipped.
    t = sigma.index(rank) + 1
    k = len(sigma)
    events = [
        Event(q, places)
        for q in pats
        for d in range(1, min(len(q), k) + 1)
        for places in combinations(range(1, k + 1), d)
        if t in places
    ]
    return all(order_facts(sigma, gaps, e) is None or find_bailout(sigma, gaps, e, t, pats) for e in events)


class TestSinglePlaceScreen:
    def test_same_bytes_as_searching_every_event(self, monkeypatch):
        # The walk decides single-place events by their closed-form rule and
        # sends only the events whose ranks are in the pattern's order and
        # that order_facts keeps to the bail-out search. Both are exact, so
        # the documents and the --explain records are the same bytes as with
        # a verdict that searches for a bail-out on every event.
        jobs = [(image, 4) for pats in random_pattern_sets(97103, 50) for image in symmetry_closure(pats)]
        jobs += [(image, 5) for pats in SINGLETONS for image in symmetry_closure(pats)]
        screened = [document_and_log(image, depth) for image, depth in jobs]
        monkeypatch.setattr("permscheme.scheme.certify_deletable", every_event_searched)
        for (image, depth), expected in zip(jobs, screened):
            assert document_and_log(image, depth) == expected, image

    def test_search_builds_no_transcript(self, monkeypatch):
        # The verdict records nothing, so a search in which building an
        # event, a bail-out or an outcome raises still writes the same
        # documents and logs: two successes at depth 4 and {1342}'s failure
        # at depth 5.
        jobs = [(PTHREE, 4), (((1, 2, 3, 4),), 4), (((1, 3, 4, 2),), 5)]
        expected = [document_and_log(pats, depth) for pats, depth in jobs]
        assert expected[0][0] and expected[1][0] and expected[2][0] is None

        def built(*args):
            raise AssertionError("transcript object built")

        for name in ("Event", "Bailout", "EventOutcome"):
            monkeypatch.setattr(reasoning, name, built)
        assert [document_and_log(pats, depth) for pats, depth in jobs] == expected
        with pytest.raises(AssertionError, match="transcript object built"):
            analyze_deletable((2, 4, 1, 3), PTHREE, GapSet(4, 1 << 4), 2).outcomes


class TestOutputBytes:
    def test_documents_logs_and_labels_pinned(self):
        # One SHA-256 over what the certified search writes: each document
        # (or "null" on failure) and --explain log, as the CLI prints them,
        # for the 50-set corpus at depth 5 and the 7 singletons at depth 6,
        # then each symmetric (document, label) of the 56 pair classes at
        # depth 5. A change to the verdict, the gaps or the order of the
        # images that alters one byte fails here.
        digest = hashlib.sha256()
        for pats, depth in [(p, 5) for p in random_pattern_sets(97103, 50)] + [(p, 6) for p in SINGLETONS]:
            log = []
            found = search(pats, depth, log)
            digest.update((serialize(found) if found else "null\n").encode())
            for record in log:
                digest.update((json.dumps(record, separators=(",", ":")) + "\n").encode())
        for pats in PAIRS:
            hit = search_with_symmetries(pats, 5)
            digest.update((f"{serialize(hit[0])}{hit[1]}\n" if hit else "null\n").encode())
        assert digest.hexdigest() == "61d7a8fed777b624ff8590918e1b78422345a65c9b16dd02eee21f6ac4af65f7"


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

    def test_no_image_found(self):
        # Both images of {123} need depth 2.
        assert search_with_symmetries(P123, 1) is None


SYMMETRIC_JOBS = (
    [(pats, depth, "certified") for depth in (5, 6) for pats in PAIRS]
    + [(pats, 6, "certified") for pats in SINGLETONS]
    + [(pats, 5, "certified") for pats in random_pattern_sets(97103, 50)]
    + [(pats, 5, "empirical") for pats in PAIRS]
    + [(pats, 6, "empirical") for pats in SINGLETONS]
)


@pytest.fixture(scope="module")
def every_image_searched():
    """The loop ``search_with_symmetries`` ran before it skipped any image:
    each image in sorted order until the first success. Per job, the
    document and label found (or None), and each failing search's image
    and ``--explain`` log."""
    results = {}
    for pats, depth, mode in SYMMETRIC_JOBS:
        labels = {img: label for label, img in symmetry_images(pats)}
        hit, failures = None, []
        for img in sorted(labels):
            log = []
            found = search(img, depth, log, mode=mode)
            if found is not None:
                hit = serialize(found), labels[img]
                break
            failures.append((img, log))
        results[pats, depth, mode] = hit, failures
    return results


class TestComplementSkip:
    def test_same_results_as_searching_every_image(self, every_image_searched):
        for (pats, depth, mode), (expected, _) in every_image_searched.items():
            hit = search_with_symmetries(pats, depth, mode)
            assert (hit and (serialize(hit[0]), hit[1])) == expected, (pats, depth, mode)

    def test_failure_report_matches_log(self, every_image_searched):
        # The log is the failure report: it ends at the one stuck class, and
        # both answers to "reached by expansion alone" occur, so the skip
        # and the search of a complement image are both exercised.
        flags = set()
        for _, failures in every_image_searched.values():
            for img, log in failures:
                assert [r["disposition"] for r in log].count("stuck-at-depth") == 1, img
                assert log[-1]["disposition"] == "stuck-at-depth", img
                stuck = tuple(log[-1]["sigma"])
                expanded = {tuple(r["sigma"]) for r in log if r["disposition"] == "expa"}
                flags.add(all(reduce_word(stuck[:i]) in expanded for i in range(len(stuck))))
        assert flags == {True, False}

    @pytest.mark.parametrize("depth, mode", [(5, "certified"), (6, "empirical")])
    def test_skip_happens(self, monkeypatch, depth, mode):
        # {1342} fails in every image, and each of its four searches proves
        # its complement image fails too.
        searched = []

        def spy(patterns, *args, **kwargs):
            searched.append(patterns)
            return search(patterns, *args, **kwargs)

        monkeypatch.setattr("permscheme.scheme.search", spy)
        assert search_with_symmetries([(1, 3, 4, 2)], depth, mode) is None
        assert len(searched) == 4
        assert len(symmetry_closure([(1, 3, 4, 2)])) == 8


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
            # 321 is not classified, so counting through 3214 would fail.
            lambda d: d["redu"].append({"sigma": [3, 2, 1, 4], "delete_rank": 4, "gaps": []}),
            # A repeated gap would load and re-serialize as [2].
            lambda d: d["redu"][0].update(gaps=[2, 2]),
            # 123 contains the pattern, so it cannot be reduced.
            lambda d: d["redu"].append({"sigma": [1, 2, 3], "delete_rank": 3, "gaps": []}),
            lambda d: d.update(patterns="123"),
            lambda d: d.update(expa={}),
            lambda d: d.update(zero=5),
            lambda d: d["expa"].append([[1, 2], [], []]),
            lambda d: d["expa"][0].pop("gaps"),
            lambda d: d["redu"].append(5),
            lambda d: d["redu"][0].update(extra=1),
            lambda d: d["expa"][0].update(refinements=5),
            # Refinements truncated, reordered, or [[true]], which equals
            # [[1]] unless each refinement is parsed before the comparison.
            lambda d: d["expa"][1].update(refinements=d["expa"][1]["refinements"][:1]),
            lambda d: d["expa"][1]["refinements"].reverse(),
            lambda d: d["expa"][0].update(refinements=[[True]]),
            lambda d: d["zero"].append("123"),
            # Gaps of a length-2 class lie in 0..2.
            lambda d: d["redu"][0].update(gaps=[3]),
            # Range-checked before the shift: no huge int is built.
            lambda d: d["redu"][0].update(gaps=[-1]),
            lambda d: d["redu"][0].update(gaps=[10**12]),
            # ``validate`` reports every rank that is not an int.
            lambda d: d["redu"][0].update(delete_rank="2"),
            lambda d: d["redu"][0].update(delete_rank=1.5),
            lambda d: d["redu"][0].update(delete_rank=None),
        ],
    )
    def test_bad_documents_rejected(self, scheme123, mangle):
        doc = json.loads(serialize(scheme123))
        mangle(doc)
        with pytest.raises(SchemeFormatError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json at all", "not valid JSON"),
            ("[]", "document must be a JSON object"),
            ("5", "document must be a JSON object"),
        ],
        ids=["text", "list", "number"],
    )
    def test_garbage_rejected(self, text, message):
        with pytest.raises(SchemeFormatError, match=message):
            deserialize(text)

    @pytest.mark.parametrize(
        "mode, shown",
        [(5, "5"), (None, "None"), (["certified"], "['certified']")],
        ids=["number", "null", "list"],
    )
    def test_non_string_mode_reported_as_given(self, scheme123, mode, shown):
        doc = json.loads(serialize(scheme123))
        doc["mode"] = mode
        with pytest.raises(SchemeFormatError) as info:
            deserialize(json.dumps(doc))
        assert str(info.value) == f"unknown mode {shown}"


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
        for sigma in scheme_three.expa:
            assert all(child in classes for child in refinements(sigma))
