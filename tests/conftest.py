import math
import random
from itertools import combinations, permutations

import pytest

from permscheme import normalize_patterns, reduce_word
from permscheme.perms import symmetry_closure
from permscheme.scheme import search

P123 = ((1, 2, 3),)
P132 = ((1, 3, 2),)
P12 = ((1, 2),)
PBOTH = ((1, 2, 3), (1, 3, 2))
PTHREE = ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4))
# One length-4 pattern from each of the seven symmetry classes.
SINGLETONS = sorted({symmetry_closure([q])[0] for q in permutations(range(1, 5))})
# One pair of length-4 patterns from each of the 56 symmetry classes.
PAIRS = sorted({symmetry_closure(pair)[0] for pair in combinations(permutations(range(1, 5)), 2)})


def catalan(n: int) -> int:
    return math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))


def order_types(host, m: int) -> set:
    """The reduced forms of every length-m subsequence of host."""
    return {reduce_word([host[i] for i in idx]) for idx in combinations(range(len(host)), m)}


def end_order_types(host, m: int) -> set:
    """The reduced forms of every length-m subsequence of host that ends at its last entry."""
    *prefix, last = host
    return {reduce_word(list(sub) + [last]) for sub in combinations(prefix, m - 1)}


def naive_contains(host, pattern) -> bool:
    # Independent of perms.contains: scan every subsequence of the right length.
    return tuple(pattern) in order_types(host, len(pattern))


def random_pattern_sets(seed: int, how_many: int) -> list:
    """Distinct pattern sets with patterns of length 3 or 4, at most 3 each."""
    rng = random.Random(seed)
    pool3 = list(permutations(range(1, 4)))
    pool4 = list(permutations(range(1, 5)))
    out: list = []
    seen = set()
    while len(out) < how_many:
        size = rng.choice([1, 2, 3])
        pats = [rng.choice(pool3 if rng.random() < 0.5 else pool4) for _ in range(size)]
        canon = normalize_patterns(pats)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


@pytest.fixture(scope="session")
def scheme123():
    found = search(P123, 2)
    assert found is not None
    return found


@pytest.fixture(scope="session")
def scheme132():
    found = search(P132, 2)
    assert found is not None
    return found


@pytest.fixture(scope="session")
def scheme_empty():
    found = search((), 1)
    assert found is not None
    return found


@pytest.fixture(scope="session")
def scheme12():
    found = search(P12, 1)
    assert found is not None
    return found


@pytest.fixture(scope="session")
def scheme_both():
    found = search(PBOTH, 2)
    assert found is not None
    return found


@pytest.fixture(scope="session")
def scheme_three():
    found = search(PTHREE, 4)
    assert found is not None
    return found
