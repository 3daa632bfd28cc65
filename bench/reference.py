"""Reference values computed apart from the program under test.

Nothing here imports ``permscheme``: the avoider counts come from
``itertools.permutations`` filtered by a containment test written below, and
the closed forms are the classical ones. The benchmark compares the program's
outputs against these values outside its timed region.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

NAIVE_MAX_N = 7
MAX_PATTERN_LENGTH = 4


def order_type(word) -> tuple[int, ...]:
    """The permutation order-isomorphic to a word of distinct integers."""
    ranks = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(ranks[v] for v in word)


class NaiveCounter:
    """Avoider counts for n <= 7 by filtering every permutation of 1..n.

    The containment test runs once per permutation for every pattern of
    length at most 4: the order types of its subsequences of those lengths
    become a bit mask, and the permutation avoids a pattern set when the
    set's mask shares no bit with it. One pass over the permutations then
    serves every pattern set a workload asks about.
    """

    def __init__(self, max_n: int = NAIVE_MAX_N) -> None:
        self.max_n = max_n
        self._counts: dict[int, list[int]] = {}
        self.bit = {
            q: 1 << i
            for i, q in enumerate(
                q for m in range(1, MAX_PATTERN_LENGTH + 1) for q in permutations(range(1, m + 1))
            )
        }
        self.table = {
            n: [(p[0], self._contained(p)) for p in permutations(range(1, n + 1))]
            for n in range(1, max_n + 1)
        }

    def _contained(self, host) -> int:
        mask = 0
        for m in range(1, min(len(host), MAX_PATTERN_LENGTH) + 1):
            for sub in combinations(host, m):
                mask |= self.bit[order_type(sub)]
        return mask

    def _forbidden(self, patterns) -> int:
        mask = 0
        for q in patterns:
            if tuple(q) not in self.bit:
                raise ValueError(f"patterns must have length 1..{MAX_PATTERN_LENGTH}: {q}")
            mask |= self.bit[tuple(q)]
        return mask

    def counts(self, patterns, upto: int) -> list[int]:
        """Avoider counts for n = 1..upto."""
        forbidden = self._forbidden(patterns)
        if forbidden not in self._counts:
            self._counts[forbidden] = [
                sum(1 for _, mask in self.table[n] if not mask & forbidden) for n in range(1, self.max_n + 1)
            ]
        return self._counts[forbidden][:upto]

    def by_first_value(self, n: int, patterns) -> list[int]:
        """Avoiders of size n that start with v, for v = 1..n."""
        forbidden = self._forbidden(patterns)
        out = [0] * n
        for first, mask in self.table[n]:
            if not mask & forbidden:
                out[first - 1] += 1
        return out


def catalan(n: int) -> int:
    """Avoiders of any single length-3 pattern."""
    return comb(2 * n, n) // (n + 1)


def gessel_1234(upto: int) -> list[int]:
    """Avoiders of 1234 for n = 1..upto, by Gessel's recurrence

    (n+4)^2 a(n+2) = (10n^2+42n+41) a(n+1) - 9(n+1)^2 a(n), a(1)=1, a(2)=2.
    """
    a = [1, 2]
    for n in range(1, upto - 1):
        num = (10 * n * n + 42 * n + 41) * a[n] - 9 * (n + 1) ** 2 * a[n - 1]
        den = (n + 4) ** 2
        if num % den:
            raise ArithmeticError(f"Gessel's recurrence is not integral at n={n}")
        a.append(num // den)
    return a[:upto]


def class_123_first(n: int, i: int) -> int:
    """Avoiders of 123 of size n whose first entry is i."""
    return comb(n + i - 2, n - 1) - comb(n + i - 2, n)


def growth_bounded(terms) -> bool:
    """a(n-1) <= a(n) <= n*a(n-1) for n >= 2, with terms a(1), a(2), ...

    The upper bound holds for every pattern set: deleting the entry n maps
    avoiders onto avoiders, at most n to one. The lower bound holds when no
    pattern starts with its largest entry: putting n in front of an avoider
    then keeps it an avoider.
    """
    return all(terms[n - 2] <= terms[n - 1] <= n * terms[n - 2] for n in range(2, len(terms) + 1))


def annihilates(coeffs, terms) -> bool:
    """Does sum_j p_j(n) a(n+j) vanish at every n the terms cover?

    ``coeffs[j][s]`` is the coefficient of n^s in p_j; terms are 1-based.
    """
    order = len(coeffs) - 1
    for n in range(1, len(terms) - order + 1):
        total = 0
        for j, poly in enumerate(coeffs):
            total += sum(c * n**s for s, c in enumerate(poly)) * terms[n - 1 + j]
        if total:
            return False
    return True
