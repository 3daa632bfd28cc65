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
table is a flat list: the key (i_1, ..., i_k) sits at its colex rank, sum
over j of C(i_j - 1, j). That rank does not depend on n, so the keys of size
n are the first C(n, k) ranks, and a slot reads its target at n - m by the
same formula its writer used. Each expanded class's loop over its keys is
generated as Python source from its slots and compiled; classes of the same
shape share that code. The loop binds i_k outermost and i_1 innermost, so
keys come in rank order and each value is appended. A slot's read index
is one rank share per target coordinate, each summed in at the loop level
of the value it depends on, and every read is guarded so that it only
happens at a valid key (one rank from a non-increasing tuple would land on
another key's slot). The same loop fills the class's prefix sums along each
coordinate its readers sum over: a running total along coordinate 1,
restarted at i_1 = 1, and along coordinate a > 1 the value plus the sum at
the key one below, C(i_a - 2, a - 1) ranks back. A key that breaks a forced
gap holds 0 and still carries every sum.

The layers run bottom-up in n and tabulate the expanded classes only,
longest first, so layer n holds sum over expanded sigma of C(n, len(sigma))
keys, and only the last (longest chain + 1) layers are kept. ``count_class``
reads its class's chain from the plan's one chain table and one rank of the
same tables at n - m, so no evaluation recurses. All arithmetic is exact
Python integers. The plan is built on first use and kept on the ``Scheme``
instance. The tables of the last layer ``count_class`` read are kept as
well, one layer of one scheme, so a loop over the keys of one size builds
its layers once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def _follow(scheme: Scheme, chains: dict, sigma: Perm) -> _Chain:
    """sigma's chain, followed once per table ``chains`` and kept there. A
    sigma the scheme does not define raises and is not kept."""
    chain = chains.get(sigma)
    if chain is not None:
        return chain
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
    chain = chains[sigma] = _Chain(target, k - len(alive), coords, tuple(gaps))
    return chain


def _read(j: int, chain: _Chain) -> tuple:
    """Where slot j reads in a layer: (drop, part, key). Part 0 holds the tables
    by class; part 1 the sums by (class, coordinate), read when r runs free."""
    if j in dict(chain.coords) and not any(j in gap for gap in chain.gaps):
        return chain.drop, 1, (chain.target, sum(a < j for a, _ in chain.coords))
    return chain.drop, 0, chain.target


def _source(k: int, forced: tuple[int, ...], slots: "tuple[tuple[int, _Chain], ...]", summed: tuple[int, ...]) -> str:
    """Python source of one expanded class's table, and its prefix sums
    along each coordinate in summed, at a size n >= k + 1.

    The loops bind i_k outermost down to i_1 innermost, so keys come in
    colex order and each is appended at its rank. Slot j comes with its
    child's chain, whose indices past j move down by one into the parent's.
    Every slot becomes one guarded sum term; slot t reads the table or
    prefix sums passed as argument t, as ``_read`` places them, at the rank
    of its target key. That rank is one share per target coordinate, and
    each share is summed in at the loop level of the value it depends on.
    Argument c holds the share rows: c[b][e] = C(e - 1, b), 0 at e = 0.
    """
    names = ["0", *(f"i{a}" for a in range(1, k + 1)), "top"]

    def at(a: int, c: int = 0) -> str:  # i_a + c
        if a == 0:
            return str(c)
        return names[a] + plus(c)

    def plus(c: int) -> str:
        return f" + {c}" if c > 0 else f" - {-c}" if c < 0 else ""

    # Lines run at the top of each loop level, k + 1 being before the loops.
    hoisted: dict = {level: [] for level in range(1, k + 2)}
    named: dict = {}  # hoisted expression -> its local
    rows: set = set()  # the share rows the source reads

    def rank(values: "list[tuple[int, int]]") -> str:
        """The rank of the target key whose coordinates are i_a + c for
        (a, c) in values. The shares of outer values are summed at their
        levels; only those of i_1 are left to the innermost body.

        Guard or not, each value a share reads lies in 0..n+1, which the
        rows cover: a coordinate's shift is at most the number of values
        below it, and a pinned r is at most n + 1. Only the table read
        waits for the slot's guard."""
        groups: dict = {level: [] for level in range(1, k + 2)}
        const = 0
        for b, (a, c) in enumerate(values, start=1):
            if a == 0:
                const += comb(c - 1, b)
            elif b == 1:  # C(e - 1, 1) = e - 1 wherever the guard lets the read happen
                groups[a].append(names[a])
                const += c - 1
            else:
                rows.add(b)
                groups[a].append(f"c{b}[{at(a, c)}]")
        sofar: list = []
        for level in range(k + 1, 1, -1):
            if groups[level]:
                expr = " + ".join(sofar + groups[level]) + plus(const)
                const = 0
                if expr not in named:
                    named[expr] = f"x{len(named)}"
                    hoisted[level].append(f"{named[expr]} = {expr}")
                sofar = [named[expr]]
        parts = sofar + groups[1]
        return " + ".join(parts) + plus(const) if parts else str(const)

    body = ["total = 0"]
    indent = ""
    if forced and slots:
        # A key that breaks a forced gap holds 0 but still carries the sums.
        body.append(f"if {' and '.join(f'{at(j + 1)} == {at(j, 1)}' for j in forced)}:")
        indent = " " * 4
    for t, (j, chain) in enumerate(slots):
        # A gap that touches j pins r (r == i_a + c); any other is checked as it stands.
        static, pins = [], []
        for q, p in chain.gaps:
            if p == j:
                pins.append((q, p - q))
            elif q == j:
                pins.append((p - 1, q - p))
            else:
                static.append(f"{at(p if p < j else p - 1)} - {at(q if q < j else q - 1)} == {p - q}")
        head = [(a, -sh) for a, sh in chain.coords if a < j]
        tail = [(a - 1, -sh) for a, sh in chain.coords if a > j]
        r_shift = dict(chain.coords).get(j)  # None when the chain deletes r
        if pins:
            body.append(f"{indent}r = {at(*pins[0])}")
            guard = [f"{at(j - 1)} < r < {at(j)}", *static, *(f"r == {at(*x)}" for x in pins[1:])]
            mid = [] if r_shift is None else [(pins[0][0], pins[0][1] - r_shift)]
            terms = [f"total += t{t}[{rank(head + mid + tail)}]"]
        else:
            guard = [f"{at(j - 1, 1)} < {at(j)}", *static]
            if r_shift is None:
                terms = [f"total += t{t}[{rank(head + tail)}] * ({at(j, -1)} - {at(j - 1)})"]
            else:
                terms = [f"total += t{t}[{rank(head + [(j, -1 - r_shift)] + tail)}]"]
                if j > 1 and j - 1 not in dict(chain.coords):
                    # r's lower neighbour was deleted, so its range starts
                    # above the lowest value of the target coordinate: the
                    # sum up to low = i_{j-1} - r_shift comes off. Indices
                    # a+1..j-1 are all deleted, a being the last alive one
                    # below j (or 0), so low is at least the coordinate
                    # under it, i_a - sh_a (or 0), and, under the slot's
                    # guard, below r's upper bound. So the key is valid
                    # exactly when low exceeds the coordinate under it;
                    # otherwise the range below is empty and takes nothing
                    # off.
                    low, under = (j - 1, -r_shift), head[-1] if head else (0, 0)
                    terms += [f"if {at(*low)} > {at(*under)}:", f"    total -= t{t}[{rank(head + [low] + tail)}]"]
        body += [f"{indent}if {' and '.join(guard)}:", *(f"{indent}    {x}" for x in terms)]
    body.append("table.append(total)")
    for s in summed:
        a = s + 1
        if a == 1:
            # Coordinate 1 runs innermost: a running total, restarted at i_1 = 1.
            hoisted[2].append("run = 0")
            body += ["run += total", f"p{s}.append(run)"]
        else:
            # The key one below along a sits C(i_a - 2, a - 1) ranks back,
            # and p holds one sum per key so far.
            rows.add(a - 1)
            hoisted[a].append(f"d{a} = c{a - 1}[{at(a, -1)}]")
            body.append(f"p{s}.append(total + p{s}[-d{a}] if {at(a, -1)} > {at(a - 1)} else total)")

    params = "".join(f", t{t}" for t in range(len(slots)))
    lines = [
        f"def tabulate(n, c{params}):",
        *(f"    c{b} = c[{b}]" for b in sorted(rows)),
        "    table = []",
        *(f"    p{s} = []" for s in summed),
        "    top = n + 1",
    ]
    depth = 1
    for level in range(k + 1, 0, -1):
        if level <= k:
            lines.append(f"{'    ' * depth}for {names[level]} in range({level}, {names[level + 1]}):")
            depth += 1
        lines += [f"{'    ' * depth}{x}" for x in hoisted[level]]
    lines += [f"{'    ' * depth}{x}" for x in body]
    lines.append("    return table, {" + ", ".join(f"{s}: p{s}" for s in summed) + "}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=1024)
def _kernel(k: int, forced: tuple[int, ...], slots: "tuple[tuple[int, _Chain], ...]", summed: tuple[int, ...]):
    # Keyed by the class's shape, so a shape met again, in this scheme or a
    # later one, reuses its code without generating the source again.
    namespace: dict = {}
    exec(compile(_source(k, forced, slots, summed), "<scheme table>", "exec"), namespace)
    return namespace.pop("tabulate")


@dataclass(frozen=True)
class _Expa:
    """One expanded class as the layer step runs it."""

    sigma: Perm
    tabulate: Callable[..., tuple]  # (table, sums) at a size n >= k + 1, as lists by rank
    reads: tuple[tuple[int, int, object], ...]  # per slot, as _read places them
    summed: tuple[int, ...]  # the coordinates its readers sum along


class _Plan:
    """The compiled form of one scheme; it holds no counts."""

    def __init__(self, scheme: Scheme) -> None:
        # The chain of every reduced class and of every refinement, so
        # count_class follows none of them again.
        self.chains: dict = {}
        for sigma in scheme.redu:
            _follow(scheme, self.chains, sigma)  # an absent class fails here, not mid-count
        order = sorted(scheme.expa, key=lambda s: (-len(s), s))
        slots, reads = {}, {}
        for sigma in order:
            chains = (_follow(scheme, self.chains, child) for child in refinements(sigma))
            slots[sigma] = tuple((j, c) for j, c in enumerate(chains, start=1) if c.target is not None)
            reads[sigma] = tuple(_read(j, c) for j, c in slots[sigma])
        # A class's sums are known once all of its readers are.
        summed = {key for own in reads.values() for _, part, key in own if part}
        expa = []
        for sigma in order:
            own = tuple(sorted(c for t, c in summed if t == sigma))
            kernel = _kernel(len(sigma), tuple(scheme.expa[sigma].sorted_list()), slots[sigma], own)
            expa.append(_Expa(sigma, kernel, reads[sigma], own))
        self.expa = tuple(expa)
        self.keep = 1 + max((drop for own in reads.values() for drop, _, _ in own), default=0)
        # No key has more coordinates, so no share row past this one is read.
        self.longest = len(order[0]) if order else 0


def _plan(scheme: Scheme) -> _Plan:
    # Compiled on first use and kept on the instance, which the frozen
    # dataclass allows through its __dict__.
    plan = scheme.__dict__.get("_plan")
    if plan is None:
        plan = _Plan(scheme)
        object.__setattr__(scheme, "_plan", plan)
    return plan


def _rank(values) -> int:
    """The colex rank of the key i_1 < ... < i_k: sum over j of C(i_j - 1, j).
    It does not depend on n, so the keys of size n are the first C(n, k)."""
    return sum(comb(v - 1, j) for j, v in enumerate(values, start=1))


def _tabulate(e: _Expa, n: int, window: list, shares: list) -> tuple:
    k = len(e.sigma)
    if n <= k:
        # Empty, or the one-key identity table, which is its own prefix sums.
        table = [1] if n == k else []
        return table, dict.fromkeys(e.summed, table)
    # From n = k + 1 on, every slot's key lies within its target's layer;
    # at k + 1 that layer is the target's one-key identity table.
    return e.tabulate(n, shares, *[window[drop][part][key] for drop, part, key in e.reads])


def _layers(plan: _Plan, upto: int):
    """Yield (n, tables) for n = 0..upto; tables maps each expanded class
    to its value table at size n, a list indexed by ``_rank``."""
    # shares[b][e] = C(e - 1, b), the rank share of value e at coordinate b,
    # for every value 0..n+1 a kernel computes.
    shares = [[comb(e - 1, b) if e else 0 for e in range(upto + 2)] for b in range(plan.longest + 1)]
    window: list = []  # window[m] holds the tables and prefix sums of layer n - m
    for n in range(upto + 1):
        tables: dict = {}
        sums: dict = {}
        window = [(tables, sums)] + window[: plan.keep - 1]
        for e in plan.expa:
            tables[e.sigma], own = _tabulate(e, n, window, shares)
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
    chain = _follow(scheme, plan.chains, sigma)
    ext = (0, *values, n + 1)
    if any(ext[p] - ext[q] != p - q for q, p in chain.gaps):
        return 0
    if n == len(sigma):
        return 1
    if chain.target is None:
        return 0
    return _layer(plan, n - chain.drop)[chain.target][_rank([ext[a] - sh for a, sh in chain.coords])]


def count(scheme: Scheme, n: int) -> int:
    """Number of avoiders of size n according to the scheme."""
    return count_class(scheme, (), n, ())


def sequence(scheme: Scheme, length: int) -> list[int]:
    """The counts for n = 1..length, computed bottom-up with layer reuse.

    The layers stop early once the counts can only be 0. Let layers
    n - keep + 1, ..., n hold only zeros (keep being the plan's window),
    with n at least the longest expanded class's length. Then layer n + 1
    is zero: n + 1 exceeds every expanded class's length, so each table is
    its kernel's sum of slot reads, each read times a width or subtracted.
    A slot at drop m >= 1 reads a table, or its prefix sums, of layer
    n + 1 - m, one of the zero layers. A slot at drop 0 reads the table of
    an expanded refinement, one entry longer, which layer n + 1 tabulated
    first. The longest classes have no drop-0 slot, so by induction on
    length every read, and so every entry and prefix sum, is 0. Layer n + 1
    then closes the next such window, so every later layer is zero too, and
    the rest of the counts are padded with 0. The tables are scanned only
    at a layer whose count is 0, so a scheme whose counts never reach 0
    pays nothing for this.
    """
    return _sequence(scheme, length, lambda n: None)


def _sequence(scheme: Scheme, length: int, check: Callable[[int], None]) -> list[int]:
    # ``sequence``, calling ``check(n)`` before it builds layer n >= 1, so
    # that a caller can bound the layers actually built.
    if check_size(length) < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    plan = _plan(scheme)
    terms: list[int] = []
    zeros = 0  # consecutive layers, up to this one, that hold only zeros
    for n, tables in _layers(plan, length):
        term = tables[()][0]
        if n >= 1:
            terms.append(term)
        zeros = 0 if term or any(map(any, tables.values())) else zeros + 1
        if zeros >= plan.keep and n >= plan.longest:
            break
        if n < length:
            check(n + 1)
    return terms + [0] * (length - len(terms))


def layer_key_counts(scheme: Scheme, length: int) -> list[int]:
    """Keys tabulated per size layer n = 0..length; exposes the polynomial growth."""
    return [sum(map(len, tables.values())) for _, tables in _layers(_plan(scheme), check_size(length))]


def layer_keys(scheme: Scheme, n: int) -> int:
    """Closed-form key count of layer n: sum of C(n, len(sigma)) over expanded sigma."""
    check_size(n)
    return sum(comb(n, len(sigma)) for sigma in scheme.expa)
