"""The guesser on terms that certified schemes compute."""

from conftest import P12, PTHREE, random_pattern_sets
from permscheme.counting import sequence
from permscheme.recurrence import RecurrenceCandidate, guess_recurrence, verify_recurrence
from permscheme.scheme import search


def scheme_terms(patterns, depth, length):
    found = search(patterns, depth)
    assert found is not None
    return sequence(found, length)


def test_gessel_1234():
    got = guess_recurrence(scheme_terms(((1, 2, 3, 4),), 4, 20), 3, 2)
    assert got == RecurrenceCandidate(2, 2, ((9, 18, 9), (-41, -42, -10), (16, 8, 1)))
    assert got.rendered() == (
        "(n^2+8*n+16)*a(n+2) - (10*n^2+42*n+41)*a(n+1) + (9*n^2+18*n+9)*a(n) = 0"
    )


def test_three_patterns_have_none():
    assert guess_recurrence(scheme_terms(PTHREE, 4, 20), 3, 2) is None


def test_eventually_zero():
    # {12,21}: a(1) = 1 and a(n) = 0 from n = 2 on.
    got = guess_recurrence(scheme_terms(P12 + ((2, 1),), 1, 15), 1, 1)
    assert got == RecurrenceCandidate(0, 1, ((-1, 1),))
    assert got.rendered() == "(n-1)*a(n) = 0"


def test_corpus_candidates_hold_past_the_fitted_terms():
    # Fitted on 30 terms, checked on 40: the ten unseen terms included.
    found = 0
    for pats in random_pattern_sets(97103, 50):
        scheme = search(pats, 4)
        if scheme is None:
            continue
        terms = sequence(scheme, 40)
        got = guess_recurrence(terms[:30], 3, 2)
        if got is not None:
            found += 1
            assert verify_recurrence(got, terms), pats
    assert found
