"""Fit a linear recurrence with polynomial coefficients to exact terms.

Given terms a(1), a(2), ... the search looks for integer polynomials
p_0..p_d of degree at most e, p_d not identically zero, with

    p_0(n) a(n) + p_1(n) a(n+1) + ... + p_d(n) a(n+d) = 0

at every applicable n. Candidate shapes (d, e) are tried in increasing
d+e, then increasing d, so the returned shape is lexicographically minimal
in (d+e, d) among the shapes that fit. Each shape is one linear system, one
equation per applicable n, solved exactly over the integers; when its first
(d+1)(e+1) equations alone leave no kernel, the rest are not eliminated.
The guard is the number of equations beyond the unknowns that a fit must
also satisfy: with too few terms, any sequence fits a shape with enough
free coefficients. Whatever this returns is a conjecture: it is verified
against the supplied terms and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .perms import is_int

DEFAULT_GUARD = 5


def _poly_eval(coeffs: Sequence[int], n: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * n + c
    return total


def _signed_sum(terms: Iterable[tuple[bool, str]], pad: str = "") -> str:
    """Join (negative, body) terms: the first as body or -body, each later
    one as + body or - body, with ``pad`` on both sides of its sign."""
    out = ""
    for negative, body in terms:
        if out:
            out += f"{pad}{'-' if negative else '+'}{pad}{body}"
        else:
            out = f"-{body}" if negative else body
    return out


def _poly_str(coeffs: Sequence[int]) -> str:
    terms = []
    for s in range(len(coeffs) - 1, -1, -1):
        c = coeffs[s]
        if c == 0:
            continue
        mag = abs(c)
        var = "n" if s == 1 else f"n^{s}"
        terms.append((c < 0, str(mag) if s == 0 else var if mag == 1 else f"{mag}*{var}"))
    return _signed_sum(terms) or "0"


@dataclass(frozen=True)
class RecurrenceCandidate:
    """A conjectured annihilating recurrence, content-normalized.

    ``coeffs[j][s]`` is the coefficient of n^s in p_j. The polynomials share
    no integer factor and the leading one is sign-normalized positive.
    """

    order: int
    degree: int
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError(f"expected {self.order + 1} polynomials, got {len(self.coeffs)}")
        if any(len(p) != self.degree + 1 for p in self.coeffs):
            raise ValueError(f"every polynomial needs {self.degree + 1} coefficients")
        if not any(self.coeffs[self.order]):
            raise ValueError("leading polynomial is identically zero")

    def applies_at(self, n: int, terms: Sequence[int]) -> int:
        """The recurrence's left-hand side at index n over 1-based terms."""
        return sum(
            _poly_eval(self.coeffs[j], n) * terms[n - 1 + j] for j in range(self.order + 1)
        )

    def rendered(self) -> str:
        """Human form, e.g. ``(n+2)*a(n+1) - (4*n+2)*a(n) = 0``."""
        terms = []
        for j in range(self.order, -1, -1):
            poly = self.coeffs[j]
            if not any(poly):
                continue
            lead = next(c for c in reversed(poly) if c != 0)
            sign = 1 if lead > 0 else -1
            signed = [sign * c for c in poly]
            arg = "n" if j == 0 else f"n+{j}"
            if signed[0] == 1 and not any(signed[1:]):
                term = f"a({arg})"
            else:
                term = f"({_poly_str(signed)})*a({arg})"
            terms.append((sign < 0, term))
        return _signed_sum(terms, " ") + " = 0"

    def to_json(self) -> dict:
        return {
            "status": "conjecture",
            "order": self.order,
            "degree": self.degree,
            "coefficients": [list(p) for p in self.coeffs],
            "rendered": self.rendered(),
        }


def verify_recurrence(candidate: RecurrenceCandidate, terms: Sequence[int]) -> bool:
    """Exact check of the recurrence at every index the terms support."""
    return all(
        candidate.applies_at(n, terms) == 0
        for n in range(1, len(terms) - candidate.order + 1)
    )


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    # Fraction-free (Bareiss) elimination: every intermediate entry stays an
    # exact integer minor of the input matrix.
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    piv_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], piv_cols


def nullspace(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer basis of the right kernel, one vector per free column.

    Deterministic: vectors come out in free-column order, content-reduced
    with a positive leading entry.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("nullspace needs at least one row")
    n_cols = len(rows[0])
    echelon, piv_cols = _echelon(rows)
    # The last Bareiss pivot is the determinant of the pivot minor. With the
    # free column set to it, every pivot entry is a minor by Cramer's rule,
    # so each division of the back substitution is exact.
    det = echelon[-1][piv_cols[-1]] if piv_cols else 1
    basis = []
    for fc in (c for c in range(n_cols) if c not in piv_cols):
        x = [0] * n_cols
        x[fc] = det
        for row, pc in zip(reversed(echelon), reversed(piv_cols)):
            x[pc] = -sum(row[j] * x[j] for j in range(pc + 1, n_cols)) // row[pc]
        g = gcd(*x)
        if next(v for v in x if v) < 0:
            g = -g
        basis.append([v // g for v in x])
    return basis


def required_terms(max_order: int, max_degree: int, guard: int = DEFAULT_GUARD) -> int:
    """Fewest terms that leave every shape within the bounds ``guard`` more equations than unknowns."""
    if not all(is_int(v) and v >= 0 for v in (max_order, max_degree)):
        raise ValueError(f"bounds must be nonnegative ints, got {max_order!r}, {max_degree!r}")
    if not is_int(guard) or guard < 0:
        raise ValueError(f"guard must be a nonnegative int, got {guard!r}")
    return (max_order + 1) * (max_degree + 1) + max_order + guard


def _vector_to_coeffs(vec: Sequence[int], d: int, e: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(vec[j * (e + 1) + s] for s in range(e + 1)) for j in range(d + 1))


def _try_shape(terms: Sequence[int], d: int, e: int) -> RecurrenceCandidate | None:
    # One row per applicable n. guess_recurrence's required_terms leaves
    # every shape at least guard more rows than its (d+1)(e+1) unknowns.
    rows = [
        [n**s * terms[n - 1 + j] for j in range(d + 1) for s in range(e + 1)]
        for n in range(1, len(terms) - d + 1)
    ]
    unknowns = (d + 1) * (e + 1)
    if len(_echelon(rows[:unknowns])[1]) == unknowns:
        return None  # full rank already: no rows added can open a kernel
    for vec in nullspace(rows):
        if any(vec[d * (e + 1):]):
            # Sign convention: the last nonzero entry, the leading
            # polynomial's top coefficient, comes out positive.
            if next(v for v in reversed(vec) if v) < 0:
                vec = [-v for v in vec]
            return RecurrenceCandidate(d, e, _vector_to_coeffs(vec, d, e))
    return None


def guess_recurrence(
    terms: Iterable[int], max_order: int, max_degree: int, guard: int = DEFAULT_GUARD
) -> RecurrenceCandidate | None:
    """Search shapes (order, degree) for an exactly fitting recurrence.

    Raises ValueError on a bad term, bound or guard, or too few terms for
    the bounds; returns None when no shape within the bounds fits.
    """
    terms = list(terms)
    if not all(is_int(t) for t in terms):
        raise ValueError("terms must be ints")
    need = required_terms(max_order, max_degree, guard)
    if len(terms) < need:
        raise ValueError(
            f"need at least {need} terms for order <= {max_order}, "
            f"degree <= {max_degree}, guard {guard}; got {len(terms)}"
        )
    for total in range(0, max_order + max_degree + 1):
        for d in range(0, min(total, max_order) + 1):
            e = total - d
            if e > max_degree:
                continue
            found = _try_shape(terms, d, e)
            if found is not None:
                return found
    return None
