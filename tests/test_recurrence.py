import math
import random

import pytest

from conftest import catalan
from permscheme import recurrence
from permscheme.recurrence import (
    RecurrenceCandidate,
    guess_recurrence,
    nullspace,
    required_terms,
    verify_recurrence,
)

CATALAN_30 = [catalan(n) for n in range(1, 31)]
FACTORIAL_20 = [math.factorial(n) for n in range(1, 21)]

CATALAN_REC = RecurrenceCandidate(1, 1, ((-2, -4), (2, 1)))
FACTORIAL_REC = RecurrenceCandidate(1, 1, ((-1, -1), (1, 0)))


class TestNullspace:
    def test_simple_kernel(self):
        basis = nullspace([[1, 1, 0], [0, 1, 1]])
        assert len(basis) == 1
        assert basis[0] == [1, -1, 1]

    def test_full_rank_is_trivial(self):
        assert nullspace([[1, 0], [0, 1]]) == []

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            nullspace([])

    def test_annihilation(self):
        rows = [[2, 4, 6, 1], [1, 5, 2, 7], [3, 9, 8, 8]]
        for vec in nullspace(rows):
            assert any(vec)
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


class TestCandidate:
    def test_leading_polynomial_must_be_nonzero(self):
        with pytest.raises(ValueError):
            RecurrenceCandidate(1, 0, ((1,), (0,)))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            RecurrenceCandidate(1, 1, ((1, 0),))
        with pytest.raises(ValueError, match="needs 2 coefficients"):
            RecurrenceCandidate(1, 1, ((1, 0), (1,)))

    def test_rendering(self):
        assert CATALAN_REC.rendered() == "(n+2)*a(n+1) - (4*n+2)*a(n) = 0"
        assert FACTORIAL_REC.rendered() == "a(n+1) - (n+1)*a(n) = 0"
        assert RecurrenceCandidate(1, 0, ((-1,), (1,))).rendered() == "a(n+1) - a(n) = 0"
        # A zero coefficient and a zero polynomial drop out of the sum.
        assert RecurrenceCandidate(2, 1, ((-1, 0), (0, 0), (0, 1))).rendered() == "(n)*a(n+2) - a(n) = 0"

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            # A negative leading polynomial puts a bare minus on the first term.
            (((1,), (-1,)), "-a(n+1) + a(n) = 0"),
            (((1, 0, 0), (1, -1, -1)), "-(n^2+n-1)*a(n+1) + a(n) = 0"),
            # A constant polynomial other than 1 keeps its parentheses.
            (((0, -2), (3, 0)), "(3)*a(n+1) - (2*n)*a(n) = 0"),
            (((-5, 0), (0, 0), (-1, 3)), "(3*n-1)*a(n+2) - (5)*a(n) = 0"),
        ],
    )
    def test_rendering_signs(self, coeffs, text):
        assert RecurrenceCandidate(len(coeffs) - 1, len(coeffs[0]) - 1, coeffs).rendered() == text

    def test_polynomial_text(self):
        assert recurrence._poly_str([0, 0, 0]) == "0"
        assert recurrence._poly_str([-3, 0, 2]) == "2*n^2-3"
        assert recurrence._poly_str([4, -1]) == "-n+4"

    def test_json_form(self):
        doc = CATALAN_REC.to_json()
        assert doc["status"] == "conjecture"
        assert doc["order"] == 1 and doc["degree"] == 1
        assert doc["coefficients"] == [[-2, -4], [2, 1]]


class TestVerify:
    def test_catalan_holds(self):
        assert verify_recurrence(CATALAN_REC, CATALAN_30)

    def test_wrong_sequence_fails(self):
        assert not verify_recurrence(CATALAN_REC, FACTORIAL_20)

    def test_vacuous_when_too_short(self):
        assert verify_recurrence(CATALAN_REC, [1])


class TestGuess:
    def test_catalan(self):
        got = guess_recurrence(CATALAN_30, 3, 3)
        assert got == CATALAN_REC
        assert verify_recurrence(got, CATALAN_30)

    def test_factorial(self):
        got = guess_recurrence(FACTORIAL_20, 2, 2)
        assert got == FACTORIAL_REC
        assert verify_recurrence(got, FACTORIAL_20)

    def test_constant_sequence(self):
        got = guess_recurrence([1] * 20, 2, 2)
        assert got == RecurrenceCandidate(1, 0, ((-1,), (1,)))

    def test_scaling_invariance(self):
        assert guess_recurrence([7 * t for t in CATALAN_30], 3, 3) == CATALAN_REC

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((-1, 2, 0), "bounds must be nonnegative"),
            ((2, -1, 0), "bounds must be nonnegative"),
            ((2, 2, -1), "guard"),
            # A bool is not read as 0 or 1, and a float is not rounded.
            ((True, 2, 0), "bounds must be nonnegative ints"),
            ((2, 2.0, 0), "bounds must be nonnegative ints"),
            ((2, 2, 2.5), "guard must be a nonnegative int"),
            ((2, 2, True), "guard must be a nonnegative int"),
        ],
    )
    def test_negative_bounds_rejected(self, bounds, message):
        for call in (required_terms, lambda *b: guess_recurrence(CATALAN_30, *b)):
            with pytest.raises(ValueError, match=message):
                call(*bounds)

    @pytest.mark.parametrize("bad", [2.0, 2.5, True, "2"])
    def test_non_int_terms_rejected(self, bad):
        with pytest.raises(ValueError, match="terms must be ints"):
            guess_recurrence([*CATALAN_30[:-1], bad], 3, 3)

    def test_insufficient_terms_reported(self):
        need = required_terms(3, 3)
        with pytest.raises(ValueError, match=str(need)):
            guess_recurrence(CATALAN_30[: need - 1], 3, 3)

    def test_holdout_rejects_transient_fit(self):
        # Constant for 20 terms, then geometric: the constant-difference fit
        # survives training but dies on the held-out tail.
        terms = [1] * 20 + [3, 9, 27, 81, 243]
        assert guess_recurrence(terms, 1, 1) is None

    def test_minimality_in_shape_order(self):
        got = guess_recurrence(CATALAN_30, 3, 3)
        assert (got.order, got.degree) == (1, 1)
        # No shape strictly earlier in (order+degree, order) order fits: a
        # bounded re-search covering only earlier shapes must come up empty.
        earlier = [
            (d, e)
            for d in range(0, 4)
            for e in range(0, 4)
            if (d + e, d) < (got.order + got.degree, got.order)
            and required_terms(d, e) <= len(CATALAN_30)
        ]
        assert earlier
        for d, e in earlier:
            assert guess_recurrence(CATALAN_30, d, e) is None

    def test_mixed_sequence_has_no_low_order_recurrence(self):
        rng_terms = [n * n + 1 if n % 2 else n**3 for n in range(1, 26)]
        assert guess_recurrence(rng_terms, 1, 1) is None

    def test_full_rank_shape_solves_no_kernel(self, monkeypatch):
        # Seeded random terms fit no shape: each shape's first (d+1)(e+1)
        # rows already have full rank, so no kernel is solved.
        calls = []
        real = recurrence.nullspace
        monkeypatch.setattr(recurrence, "nullspace", lambda rows: calls.append(rows) or real(rows))
        rng = random.Random(1515)
        terms = [rng.randint(1, 10**6) for _ in range(30)]
        assert guess_recurrence(terms, 3, 2) is None
        assert calls == []
        assert guess_recurrence(CATALAN_30, 3, 2) == CATALAN_REC
        assert calls
