"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time

import pytest

from conftest import P12, P123, P132, PBOTH, PTHREE, catalan, random_pattern_sets
from permscheme import counting, oracle, recurrence
from permscheme.oracle import count_avoiders, prefix_class_members
from permscheme.reasoning import GapSet, analyze_deletable, compute_gap_set
from permscheme.scheme import search, search_with_symmetries, validate


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {status}: {label}{tail}")
    assert ok, f"criterion {number}: {label}{tail}"


def test_criterion_01_single_123_pattern():
    start = time.perf_counter()
    scheme = search(P123, 2)
    assert scheme is not None
    seq = counting.sequence(scheme, 14)
    elapsed = time.perf_counter() - start
    structure = sorted(scheme.redu) == [(1, 2), (2, 1)]
    exact = seq == [catalan(n) for n in range(1, 15)]
    report(
        1,
        "{123}: scheme at depth 2, Redu={12,21}, Catalan n<=14",
        structure and exact and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_single_132_pattern():
    scheme = search(P132, 2)
    if scheme is None:
        hit = search_with_symmetries(P132, 2)
        assert hit is not None
        scheme = hit[0]
    seq = counting.sequence(scheme, 14)
    report(2, "{132}: scheme at depth <= 2, Catalan n<=14", seq == [catalan(n) for n in range(1, 15)])


def test_criterion_03_no_patterns():
    scheme = search((), 1)
    assert scheme is not None
    seq = counting.sequence(scheme, 10)
    report(3, "empty set: scheme at depth 1, factorials n<=10", seq == [math.factorial(n) for n in range(1, 11)])


def test_criterion_04_single_12_pattern():
    scheme = search(P12, 1)
    assert scheme is not None
    gap_forced = scheme.redu[(1,)].gaps.sorted_list() == [1]
    seq = counting.sequence(scheme, 12)
    report(4, "{12}: depth-1 scheme with forced gap on class 1, all ones n<=12", gap_forced and seq == [1] * 12)


def test_criterion_05_wilf_pair_123_132():
    scheme = search(PBOTH, 2)
    assert scheme is not None
    got3 = counting.count(scheme, 3)
    seq = counting.sequence(scheme, 9)
    brute = [count_avoiders(n, PBOTH) for n in range(1, 10)]
    doubling = [2 ** (n - 1) for n in range(1, 10)]
    report(5, "{123,132}: depth-2 scheme, count(3)=4, oracle match n<=9", got3 == 4 and seq == brute == doubling)


def test_criterion_06_three_length_four_patterns():
    start = time.perf_counter()
    gaps = compute_gap_set((2, 4, 1, 3), PTHREE)
    analysis = analyze_deletable((2, 4, 1, 3), PTHREE, gaps, 2)
    live = [o for o in analysis.outcomes if o.verdict != "vacuous"]
    scheme = search(PTHREE, 4)
    assert scheme is not None
    seq = counting.sequence(scheme, 9)
    brute = [count_avoiders(n, PTHREE) for n in range(1, 10)]
    elapsed = time.perf_counter() - start
    ok = (
        gaps.sorted_list() == [4]
        and analysis.certified
        and len(live) == 6
        and all(o.verdict == "bailed-out" for o in live)
        and seq == brute
        and elapsed < 60.0
    )
    report(6, "{1234,1324,1243}: gap {4} on 2413, rank 2 safe via 6 events, oracle match n<=9", ok, f"{elapsed:.1f}s")


def test_criterion_07_class_closed_form():
    scheme = search(P123, 2)
    assert scheme is not None
    ok = all(
        counting.count_class(scheme, (1,), n, (i,))
        == math.comb(n + i - 2, n - 1) - math.comb(n + i - 2, n)
        for n in range(1, 13)
        for i in range(1, n + 1)
    )
    report(7, "{123} class 1 equals binomial difference for all i <= n <= 12", ok)


def test_criterion_08_prefix_class_oracle():
    got = prefix_class_members(5, ((1, 2, 3, 4), (1, 4, 3, 2)), (1, 3, 2), (2, 3, 5))
    report(8, "prefix class (132; 2,3,5) at n=5 is exactly {25314, 25341}", got == {(2, 5, 3, 1, 4), (2, 5, 3, 4, 1)})


def test_criterion_09_recurrence_guesser():
    catalan_scheme = search(P123, 2)
    factorial_scheme = search((), 1)
    assert catalan_scheme is not None and factorial_scheme is not None
    cat_terms = counting.sequence(catalan_scheme, 30)
    fact_terms = counting.sequence(factorial_scheme, 20)
    cat = recurrence.guess_recurrence(cat_terms, 3, 3)
    fact = recurrence.guess_recurrence(fact_terms, 2, 2)
    ok = (
        cat is not None
        and cat.coeffs == ((-2, -4), (2, 1))
        and recurrence.verify_recurrence(cat, cat_terms)
        and fact is not None
        and fact.coeffs == ((-1, -1), (1, 0))
        and recurrence.verify_recurrence(fact, fact_terms)
    )
    report(9, "guesser recovers (n+2)a(n+1)=(4n+2)a(n) and a(n+1)=(n+1)a(n)", ok)


def test_criterion_10_master_soundness_suite():
    start = time.perf_counter()
    sets = random_pattern_sets(97103, 50)
    found = 0
    for pats in sets:
        scheme = search(pats, 4)
        if scheme is None:
            continue
        found += 1
        assert validate(scheme) == [], pats
        seq = counting.sequence(scheme, 8)
        brute = [count_avoiders(n, pats) for n in range(1, 9)]
        assert seq == brute, f"certified scheme miscounts for {pats}: {seq} vs {brute}"
    elapsed = time.perf_counter() - start
    report(
        10,
        f"soundness corpus: {found}/{len(sets)} schemes found, all match oracle n<=8",
        found > 0 and elapsed < 600.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_11_performance_bounds():
    scheme = search(P123, 2)
    assert scheme is not None
    start = time.perf_counter()
    terms = counting.sequence(scheme, 30)
    scheme_time = time.perf_counter() - start
    assert terms[29] == catalan(30)
    start = time.perf_counter()
    brute = count_avoiders(10, PTHREE)
    oracle_time = time.perf_counter() - start
    assert brute == counting.count(search(PTHREE, 4), 10)
    ok = scheme_time < 10.0 and oracle_time < 60.0
    report(11, "30 Catalan terms and brute-force n=10 within time bounds", ok, f"scheme {scheme_time:.2f}s, oracle {oracle_time:.1f}s")
