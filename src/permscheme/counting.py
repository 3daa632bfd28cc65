"""Evaluate a scheme as an exact counting algorithm.

A class value a(sigma, n, values) counts the avoiders of size n whose first
k = len(sigma) entries take the values i_1 < ... < i_k in the arrangement
sigma. The scheme defines it by structural recursion:

* 0 if sigma is a zero class, or if the value tuple breaks one of the
  class's forced gaps (sentinels i_0 = 0, i_{k+1} = n+1);
* 1 when n = k: the class then holds exactly the arrangement sigma itself;
* for an expanded class, the sum over every value r that fits into an open
  slot j of the tuple, of refinement j at the same n with r inserted;
* for a reduced class, the value of the one-shorter class at n-1 on the
  tuple with the deleted value removed and larger values shifted down.

The recursion is compiled once per ``Scheme`` instance into a flat plan.
Each chain of reductions is followed to the expanded class it ends in (or
to a zero class), which gives its size drop m, where every surviving value
lands in the target's tuple, and every forced gap met on the way as the
equality i_p - i_q = p - q on the root's extended tuple (i_0, ..., i_{k+1}).
A chain through a class the scheme does not define raises
``SchemeIntegrityError`` while the plan is compiled. Each insertion slot of
an expanded class is then emitted straight from its child's chain, in one of
three forms:

* r is pinned by a gap of the child's chain: one lookup;
* r is deleted by the chain: the slot's width times one lookup;
* r survives into coordinate s of the target: a range sum, read as the
  difference of two prefix sums along s of the target table at n-m.

Gaps that do not involve r are checked once per key. Each expanded class's
loop over its keys is generated as Python source from its slots and
compiled; classes of the same shape share that code. The same loop fills
the class's prefix sums along each coordinate its readers sum over: a
running total along the last coordinate, and along any other the value
plus the sum at the key one below. A key that breaks a forced gap holds 0
and still carries every sum.

The layers run bottom-up in n and tabulate the expanded classes only,
longest first, so layer n holds sum over expanded sigma of C(n, len(sigma))
keys, and only the last (longest chain + 1) layers are kept. ``count_class``
follows its class's chain once per plan and reads one key of the same
tables at n - m, so no evaluation recurses. All arithmetic is exact Python
integers. The plan is built on first use and kept on the ``Scheme``
instance. The tables of the last layer ``count_class`` read are kept as
well, one layer of one scheme, so a loop over the keys of one size builds
its layers once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable

from .perms import Perm, check_permutation, check_prefix_values, check_size, delete_rank, refinements
from .scheme import Scheme


class SchemeIntegrityError(Exception):
    """A count referenced a class the scheme does not define."""


@dataclass(frozen=True)
class _Chain:
    """A class followed through its reductions to the class they end in.

    Indices refer to the root's extended tuple (0, i_1, ..., i_k, n+1).
    """

    target: "Perm | None"  # the expanded class reached; None for a zero class
    drop: int  # values deleted on the way, so the target is read at n - drop
    coords: tuple[tuple[int, int], ...]  # per target value: (index, shift down)
    gaps: tuple[tuple[int, int], ...]  # (q, p): i_p - i_q must equal p - q


def _follow(scheme: Scheme, sigma: Perm) -> _Chain:
    k = len(sigma)
    alive = list(range(1, k + 1))
    gaps: list[tuple[int, int]] = []
    cur = sigma
    while cur not in scheme.zero and cur not in scheme.expa:
        entry = scheme.redu.get(cur)
        if entry is None:
            check_permutation(cur)  # a sigma that is no permutation is an input error
            raise SchemeIntegrityError(f"class {cur} absent from scheme")
        ext = [0] + alive + [k + 1]
        # Every index strictly between two neighbours here was deleted
        # earlier, so adjacency now means p - q consecutive values then.
        gaps.extend((ext[g], ext[g + 1]) for g in entry.gaps.sorted_list())
        del alive[entry.rank - 1]
        cur = delete_rank(cur, entry.rank)
    target = None if cur in scheme.zero else cur
    coords = tuple((a, a - 1 - pos) for pos, a in enumerate(alive))
    return _Chain(target, k - len(alive), coords, tuple(gaps))


def _read(j: int, chain: _Chain) -> tuple:
    """Where slot j reads in a layer: (drop, part, key). Part 0 holds the tables
    by class; part 1 the sums by (class, coordinate), read when r runs free."""
    if j in dict(chain.coords) and not any(j in gap for gap in chain.gaps):
        return chain.drop, 1, (chain.target, sum(a < j for a, _ in chain.coords))
    return chain.drop, 0, chain.target


def _source(k: int, forced: tuple[int, ...], slots: "list[tuple[int, _Chain]]", summed: tuple[int, ...]) -> str:
    """Python source of one expanded class's table, and its prefix sums
    along each coordinate in summed, at a size n >= k + 1.

    Slot j comes with its child's chain, whose indices past j move down by
    one into the parent's. The key (i_1, ..., i_k) is unpacked into locals
    and every slot becomes one guarded sum term; slot t reads the table or
    prefix sums passed as argument t, as ``_read`` places them.
    """
    names = ["0", *(f"i{a}" for a in range(1, k + 1)), "top"]

    def at(a: int, c: int = 0) -> str:  # i_a + c
        if a == 0:
            return str(c)
        return names[a] + (f" + {c}" if c > 0 else f" - {-c}" if c < 0 else "")

    def key(*parts: "list[str]") -> str:
        items = [x for part in parts for x in part]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    params = "".join(f", t{t}" for t in range(len(slots)))
    lines = [
        f"def tabulate(n{params}):",
        "    table = {}",
        *(f"    p{s} = {{}}" for s in summed),
        "    top = n + 1",
        f"    for key in combinations(range(1, top), {k}):",
    ]
    if k:
        lines.append(f"        {', '.join(names[1:k + 1])}, = key")
    lines.append("        total = 0")
    indent = " " * 8
    if forced and slots:
        # A key that breaks a forced gap holds 0 but still carries the sums.
        lines.append(f"        if {' and '.join(f'{at(j + 1)} == {at(j, 1)}' for j in forced)}:")
        indent += " " * 4
    for t, (j, chain) in enumerate(slots):
        # A gap that touches j pins r (r == i_a + c); any other is checked as it stands.
        static, pins = [], []
        for q, p in chain.gaps:
            if p == j:
                pins.append(at(q, p - q))
            elif q == j:
                pins.append(at(p - 1, q - p))
            else:
                static.append(f"{at(p if p < j else p - 1)} - {at(q if q < j else q - 1)} == {p - q}")
        head = [at(a, -sh) for a, sh in chain.coords if a < j]
        tail = [at(a - 1, -sh) for a, sh in chain.coords if a > j]
        r_shift = dict(chain.coords).get(j)  # None when the chain deletes r
        if pins:
            lines.append(f"{indent}r = {pins[0]}")
            guard = [f"{at(j - 1)} < r < {at(j)}", *static, *(f"r == {x}" for x in pins[1:])]
            mid = [] if r_shift is None else [f"r - {r_shift}" if r_shift else "r"]
            term = f"t{t}[{key(head, mid, tail)}]"
        else:
            guard = [f"{at(j - 1, 1)} < {at(j)}", *static]
            if r_shift is None:
                term = f"t{t}[{key(head, tail)}] * ({at(j, -1)} - {at(j - 1)})"
            else:
                term = f"t{t}[{key(head, [at(j, -1 - r_shift)], tail)}]"
                if j > 1 and j - 1 not in dict(chain.coords):
                    # r's lower neighbour was deleted, so its range starts
                    # above the lowest value of the target coordinate.
                    term += f" - t{t}.get({key(head, [at(j - 1, -r_shift)], tail)}, 0)"
        lines += [f"{indent}if {' and '.join(guard)}:", f"{indent}    total += {term}"]
    lines.append("        table[key] = total")
    for s in summed:  # keys come in lexicographic order
        a = s + 1
        if a == k:
            lines.append(f"        run = total if {at(a, -1)} == {at(a - 1)} else run + total")
            lines.append(f"        p{s}[key] = run")
        else:
            below = key([at(b) for b in range(1, a)], [at(a, -1)], [at(b) for b in range(a + 1, k + 1)])
            lines.append(f"        p{s}[key] = total + p{s}[{below}] if {at(a, -1)} > {at(a - 1)} else total")
    lines.append("    return table, {" + ", ".join(f"{s}: p{s}" for s in summed) + "}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=1024)
def _table_function(source: str):
    # Keyed by source, so schemes that share a class shape share its code.
    namespace = {"combinations": combinations}
    exec(compile(source, "<scheme table>", "exec"), namespace)
    return namespace.pop("tabulate")


@dataclass(frozen=True)
class _Expa:
    """One expanded class as the layer step runs it."""

    sigma: Perm
    tabulate: Callable[..., tuple]  # (table, sums) at a size n >= k + 1
    reads: tuple[tuple[int, int, object], ...]  # per slot, as _read places them
    summed: tuple[int, ...]  # the coordinates its readers sum along


class _Plan:
    """The compiled form of one scheme; it holds no counts."""

    def __init__(self, scheme: Scheme) -> None:
        followed: dict = {}
        for sigma in scheme.redu:
            _chain(scheme, followed, sigma)  # an absent class fails here, not mid-count
        order = sorted(scheme.expa, key=lambda s: (-len(s), s))
        slots, reads = {}, {}
        for sigma in order:
            chains = (_chain(scheme, followed, child) for child in refinements(sigma))
            slots[sigma] = [(j, c) for j, c in enumerate(chains, start=1) if c.target is not None]
            reads[sigma] = tuple(_read(j, c) for j, c in slots[sigma])
        # A class's sums are known once all of its readers are.
        summed = {key for own in reads.values() for _, part, key in own if part}
        expa = []
        for sigma in order:
            own = tuple(sorted(c for t, c in summed if t == sigma))
            source = _source(len(sigma), tuple(scheme.expa[sigma].sorted_list()), slots[sigma], own)
            expa.append(_Expa(sigma, _table_function(source), reads[sigma], own))
        self.expa = tuple(expa)
        self.keep = 1 + max((drop for own in reads.values() for drop, _, _ in own), default=0)
        # The chains count_class has read, so a loop over one class's keys
        # follows its chain once. Only those are kept: a plan lives as long
        # as its scheme, and most schemes are asked about few classes.
        self.chains: dict = {}


def _chain(scheme: Scheme, chains: dict, sigma: Perm) -> _Chain:
    """sigma's chain, followed once per dict. A sigma the scheme does not
    define raises in _follow and is not stored."""
    chain = chains.get(sigma)
    if chain is None:
        chain = chains[sigma] = _follow(scheme, sigma)
    return chain


def _plan(scheme: Scheme) -> _Plan:
    # Compiled on first use and kept on the instance, which the frozen
    # dataclass allows through its __dict__.
    plan = scheme.__dict__.get("_plan")
    if plan is None:
        plan = _Plan(scheme)
        object.__setattr__(scheme, "_plan", plan)
    return plan


def _tabulate(e: _Expa, n: int, window: list) -> tuple:
    k = len(e.sigma)
    if n <= k:
        # Empty, or the one-key identity table, which is its own prefix sums.
        table = {tuple(range(1, k + 1)): 1} if n == k else {}
        return table, dict.fromkeys(e.summed, table)
    # From n = k + 1 on, every slot's key lies within its target's layer;
    # at k + 1 that layer is the target's one-key identity table.
    return e.tabulate(n, *[window[drop][part][key] for drop, part, key in e.reads])


def _layers(plan: _Plan, upto: int):
    """Yield (n, tables) for n = 0..upto; tables maps each expanded class
    to its value table at size n."""
    window: list = []  # window[m] holds the tables and prefix sums of layer n - m
    for n in range(upto + 1):
        tables: dict = {}
        sums: dict = {}
        window = [(tables, sums)] + window[: plan.keep - 1]
        for e in plan.expa:
            tables[e.sigma], own = _tabulate(e, n, window)
            sums.update(((e.sigma, s), p) for s, p in own.items())
        yield n, tables


@lru_cache(maxsize=1)
def _layer(plan: _Plan, n: int) -> dict:
    # The tables of layer n. The last layer built is kept, so a loop of
    # count_class calls at one size builds the layers once.
    tables: dict = {}
    for _, tables in _layers(plan, n):
        pass
    return tables


def count_class(scheme: Scheme, sigma: Perm, n: int, values: "tuple[int, ...] | list[int]") -> int:
    """Exact size of one prefix class: its chain's target key at n - drop."""
    check_size(n)
    sigma = tuple(sigma)
    values = check_prefix_values(sigma, values, n)
    if sigma in scheme.zero:
        return 0
    plan = _plan(scheme)
    chain = _chain(scheme, plan.chains, sigma)
    ext = (0, *values, n + 1)
    if any(ext[p] - ext[q] != p - q for q, p in chain.gaps):
        return 0
    if n == len(sigma):
        return 1
    if chain.target is None:
        return 0
    return _layer(plan, n - chain.drop)[chain.target][tuple([ext[a] - sh for a, sh in chain.coords])]


def count(scheme: Scheme, n: int) -> int:
    """Number of avoiders of size n according to the scheme."""
    return count_class(scheme, (), n, ())


def sequence(scheme: Scheme, length: int) -> list[int]:
    """The counts for n = 1..length, computed bottom-up with layer reuse."""
    if check_size(length) < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return [tables[()][()] for n, tables in _layers(_plan(scheme), length) if n >= 1]


def layer_key_counts(scheme: Scheme, length: int) -> list[int]:
    """Keys tabulated per size layer n = 0..length; exposes the polynomial growth."""
    return [sum(map(len, tables.values())) for _, tables in _layers(_plan(scheme), check_size(length))]


def layer_keys(scheme: Scheme, n: int) -> int:
    """Closed-form key count of layer n: sum of C(n, len(sigma)) over expanded sigma."""
    check_size(n)
    return sum(comb(n, len(sigma)) for sigma in scheme.expa)
