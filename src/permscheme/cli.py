"""Command-line front end.

Subcommands: ``scheme find``, ``scheme verify``, ``count``, ``sequence``,
``guess``, ``oracle count``, ``oracle members``, ``compare``. Exit codes:
0 success, 1 honest negative result (no scheme, no recurrence, failed
cross-check), 2 usage or input error.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

import click

from . import counting, oracle, recurrence
from .perms import PatternSet, format_permutation, is_int, parse_pattern_set
from .scheme import (
    MODE_CERTIFIED,
    MODE_EMPIRICAL,
    SCHEMA_VERSION,
    Scheme,
    SchemeFormatError,
    deserialize,
    search,
    search_with_symmetries,
    serialize,
)

# Largest size layer, in table keys, that any command builds.
# In 64-bit CPython, `sequence` on {1234,1243,1324} at L=60 peaks at 72
# bytes traced (tracemalloc) per key of its largest layer, 66 at L=100, so
# the largest accepted layer stays near 70 MiB. The budget is kept as set
# for about 0.4 KiB per key; raising it waits on a measured peak RSS.
KEY_BUDGET = 1_000_000
# Largest size that a command brute-forces on its own (`scheme verify`'s
# cross-check, `compare`'s fallback). The oracle's cost grows factorially:
# {123} took 6.3 s at n = 11 and 36 s at n = 12 on a 2-core x86 box.
BRUTE_FORCE_MAX_N = 10
# Smallest size that `scheme verify` cross-checks by default.
VERIFY_MIN_N = 8


def _patterns_arg(text: str) -> PatternSet:
    try:
        return parse_pattern_set(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load_scheme(path: str) -> Scheme:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read scheme file {path}: {exc}")
    try:
        return deserialize(text)
    except SchemeFormatError as exc:
        raise click.UsageError(f"malformed scheme document {path}: {exc}")


def _check_budget(loaded: Scheme, n: int) -> None:
    keys = counting.layer_keys(loaded, n)
    if keys > KEY_BUDGET:
        raise click.UsageError(
            f"size {n} needs {keys} keys in its largest layer, over the budget of {KEY_BUDGET}"
        )


def _sequence(loaded: Scheme, length: int) -> list[int]:
    """The counts for n = 1..length, each layer built within the budget.

    The layers can stop short of ``length`` only for a finite class, whose
    set holds an increasing and a decreasing pattern (Erdos-Szekeres), so
    each layer is checked before it is built. Otherwise the last layer is
    the largest, and it is checked before any is built.
    """
    pats = loaded.patterns
    if not (any(list(q) == sorted(q) for q in pats) and any(list(q) == sorted(q, reverse=True) for q in pats)):
        _check_budget(loaded, length)
    return counting._sequence(loaded, length, lambda n: _check_budget(loaded, n))


def _check_brute_force(n: int) -> None:
    if n > BRUTE_FORCE_MAX_N:
        raise click.UsageError(
            f"brute force up to n = {n} is over the cap of n <= {BRUTE_FORCE_MAX_N}; "
            "count one size at a time with `permscheme oracle count`"
        )


def _emit(fmt: str, payload: dict, lines: Iterable[str]) -> None:
    """Print one schema-versioned JSON record, or the plain lines."""
    if fmt == "json":
        click.echo(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, separators=(",", ":")))
    else:
        for line in lines:
            click.echo(line)


@click.group()
def main() -> None:
    """Discover and run prefix enumeration schemes for forbidden patterns."""


@main.group("scheme")
def scheme_group() -> None:
    """Discover, inspect, and verify scheme documents."""


@scheme_group.command("find")
@click.option("-p", "--patterns", "patterns_text", required=True, help='Pattern set, e.g. "123,132" or "[[1,2,3]]".')
@click.option("--max-depth", default=4, show_default=True, type=click.IntRange(min=1), help="Largest prefix length to expand to.")
@click.option("--mode", default=MODE_CERTIFIED, show_default=True, type=click.Choice([MODE_CERTIFIED, MODE_EMPIRICAL]))
@click.option("--symmetries", is_flag=True, help="Also try reverse/inverse images of the pattern set.")
@click.option("--explain", is_flag=True, help="Emit the search log as JSON lines on stderr.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write the scheme document here instead of stdout.")
@click.pass_context
def scheme_find(
    ctx: click.Context,
    patterns_text: str,
    max_depth: int,
    mode: str,
    symmetries: bool,
    explain: bool,
    output: "str | None",
) -> None:
    """Search for a scheme and print its document."""
    patterns = _patterns_arg(patterns_text)
    if symmetries and explain:
        raise click.UsageError("--explain cannot be combined with --symmetries")
    log: "list[dict] | None" = [] if explain else None
    label = "identity"
    if symmetries:
        hit = search_with_symmetries(patterns, max_depth, mode)
        found = None if hit is None else hit[0]
        if hit is not None:
            label = hit[1]
    else:
        found = search(patterns, max_depth, log, mode=mode)
    if log is not None:
        for record in log:
            click.echo(json.dumps(record, separators=(",", ":")), err=True)
    if found is None:
        reason = "no scheme within depth bound"
        _emit("json", {"result": "failure", "reason": reason, "patterns": patterns, "max_depth": max_depth}, ())
        ctx.exit(1)
    if symmetries:
        click.echo(f"symmetry: {label}", err=True)
    document = serialize(found)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise click.UsageError(f"cannot write scheme file {output}: {exc}")
    else:
        click.echo(document, nl=False)


@scheme_group.command("verify")
@click.option("--scheme", "scheme_path", required=True, type=click.Path(dir_okay=False))
@click.option("--check-n", type=click.IntRange(min=0), show_default=f"longest class + longest pattern - 1, within {VERIFY_MIN_N}..{BRUTE_FORCE_MAX_N}", help=f"Cross-check counts against brute force up to this size (at most {BRUTE_FORCE_MAX_N}).")
@click.pass_context
def scheme_verify(ctx: click.Context, scheme_path: str, check_n: "int | None") -> None:
    """Validate a scheme document and cross-check it against brute force."""
    loaded = _load_scheme(scheme_path)
    if check_n is None:
        # A reduction of a length-k class that loses members loses one of
        # size at most k+m-1 (reasoning._deletion_walk).
        longest = max(map(len, (*loaded.expa, *loaded.redu, *loaded.zero)), default=0)
        pattern = max(map(len, loaded.patterns), default=0)
        check_n = min(max(VERIFY_MIN_N, longest + pattern - 1), BRUTE_FORCE_MAX_N)
    # Every usage check runs before the first line and before any count.
    _check_budget(loaded, check_n)
    _check_brute_force(check_n)
    click.echo("structure: ok")
    terms = counting.sequence(loaded, check_n) if check_n else []
    for n, got in enumerate(terms, start=1):
        expected = oracle.count_avoiders(n, loaded.patterns)
        if got != expected:
            click.echo(f"mismatch at n={n}: scheme {got}, brute force {expected}")
            ctx.exit(1)
    click.echo(f"counts match brute force for n <= {check_n}")


@main.command("count")
@click.option("--scheme", "scheme_path", required=True, type=click.Path(dir_okay=False))
@click.option("-n", "size", required=True, type=click.IntRange(min=0))
@click.option("--format", "fmt", default="lines", show_default=True, type=click.Choice(["lines", "json"]))
def count_cmd(scheme_path: str, size: int, fmt: str) -> None:
    """Count avoiders of one size with a saved scheme."""
    loaded = _load_scheme(scheme_path)
    _check_budget(loaded, size)
    value = counting.count(loaded, size)
    _emit(fmt, {"n": size, "count": value}, [str(value)])


@main.command("sequence")
@click.option("--scheme", "scheme_path", required=True, type=click.Path(dir_okay=False))
@click.option("-L", "--length", "length", required=True, type=click.IntRange(min=1))
@click.option("--format", "fmt", default="lines", show_default=True, type=click.Choice(["lines", "json"]))
def sequence_cmd(scheme_path: str, length: int, fmt: str) -> None:
    """Print the counting sequence for n = 1..L."""
    terms = _sequence(_load_scheme(scheme_path), length)
    _emit(fmt, {"length": length, "terms": terms}, map(str, terms))


def _read_terms_file(path: str) -> list[int]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read terms file {path}: {exc}")
    text = text.strip()
    if not text:
        raise click.UsageError(f"terms file {path} is empty")
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"terms file {path}: {exc}")
        if not isinstance(data, list) or not all(is_int(v) for v in data):
            raise click.UsageError(f"terms file {path} must hold integers")
        return data
    try:
        return [int(line) for line in text.split()]
    except ValueError as exc:
        raise click.UsageError(f"terms file {path}: {exc}")


@main.command("guess")
@click.option("--scheme", "scheme_path", type=click.Path(dir_okay=False), help="Compute terms from this scheme.")
@click.option("--terms-file", type=click.Path(dir_okay=False), help="Read terms from a file instead.")
@click.option("-L", "--length", "length", type=click.IntRange(min=1), help="How many terms to compute from the scheme.")
@click.option("--max-order", default=3, show_default=True, type=click.IntRange(min=0))
@click.option("--max-degree", default=2, show_default=True, type=click.IntRange(min=0))
@click.option("--guard", default=recurrence.DEFAULT_GUARD, show_default=True, type=click.IntRange(min=0), help="Equations beyond the unknowns that every fit must also satisfy.")
@click.option("--format", "fmt", default="lines", show_default=True, type=click.Choice(["lines", "json"]))
@click.pass_context
def guess_cmd(
    ctx: click.Context,
    scheme_path: "str | None",
    terms_file: "str | None",
    length: "int | None",
    max_order: int,
    max_degree: int,
    guard: int,
    fmt: str,
) -> None:
    """Conjecture a polynomial-coefficient linear recurrence for the counts."""
    if (scheme_path is None) == (terms_file is None):
        raise click.UsageError("provide exactly one of --scheme or --terms-file")
    if scheme_path is not None:
        if length is None:
            raise click.UsageError("--scheme requires -L to choose how many terms to compute")
        terms = _sequence(_load_scheme(scheme_path), length)
    else:
        if length is not None:
            raise click.UsageError("--terms-file takes no -L: the file holds the terms")
        terms = _read_terms_file(terms_file)
    try:
        candidate = recurrence.guess_recurrence(terms, max_order, max_degree, guard)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if candidate is None:
        _emit(
            fmt,
            {"status": "no-recurrence", "max_order": max_order, "max_degree": max_degree},
            [f"no recurrence found (order <= {max_order}, degree <= {max_degree})"],
        )
        ctx.exit(1)
    _emit(fmt, candidate.to_json(), [f"CONJECTURE: {candidate.rendered()}"])


@main.group("oracle")
def oracle_group() -> None:
    """Brute-force queries (exact, exponential; keep n small)."""


@oracle_group.command("count")
@click.option("-p", "--patterns", "patterns_text", required=True)
@click.option("-n", "size", required=True, type=click.IntRange(min=0))
@click.option("--format", "fmt", default="lines", show_default=True, type=click.Choice(["lines", "json"]))
def oracle_count(patterns_text: str, size: int, fmt: str) -> None:
    """Count avoiders by exhaustive search."""
    patterns = _patterns_arg(patterns_text)
    value = oracle.count_avoiders(size, patterns)
    _emit(fmt, {"n": size, "count": value}, [str(value)])


@oracle_group.command("members")
@click.option("-p", "--patterns", "patterns_text", required=True)
@click.option("-n", "size", required=True, type=click.IntRange(min=0))
@click.option("--format", "fmt", default="lines", show_default=True, type=click.Choice(["lines", "json"]))
def oracle_members(patterns_text: str, size: int, fmt: str) -> None:
    """List every avoider of one size, lexicographically."""
    patterns = _patterns_arg(patterns_text)
    # Lines mode prints each avoider as the search reaches it.
    members = oracle.iter_avoiders(size, patterns)
    if fmt == "json":
        members = list(members)
    _emit(fmt, {"n": size, "members": members}, map(format_permutation, members))


def _sequence_for(patterns: PatternSet, length: int, max_depth: int) -> tuple[list[int], str]:
    found = search(patterns, max_depth)
    if found is not None:
        return _sequence(found, length), "scheme"
    _check_brute_force(length)
    return [oracle.count_avoiders(n, patterns) for n in range(1, length + 1)], "brute-force"


@main.command("compare")
@click.option("-a", "patterns_a", required=True, help="First pattern set.")
@click.option("-b", "patterns_b", required=True, help="Second pattern set.")
@click.option("-L", "--length", "length", default=8, show_default=True, type=click.IntRange(min=1))
@click.option("--max-depth", default=4, show_default=True, type=click.IntRange(min=1))
@click.option("--format", "fmt", default="lines", show_default=True, type=click.Choice(["lines", "json"]))
def compare_cmd(patterns_a: str, patterns_b: str, length: int, max_depth: int, fmt: str) -> None:
    """Compare two counting sequences: empirical Wilf-equivalence evidence.

    Each side uses a discovered scheme when one exists and brute force
    otherwise. Agreement up to L is evidence, never a proof.
    """
    pats_a = _patterns_arg(patterns_a)
    pats_b = _patterns_arg(patterns_b)
    seq_a, method_a = _sequence_for(pats_a, length, max_depth)
    seq_b, method_b = _sequence_for(pats_b, length, max_depth)
    agree = seq_a == seq_b
    first_diff = next((n for n, (x, y) in enumerate(zip(seq_a, seq_b), start=1) if x != y), None)
    verdict = (
        f"sequences agree (n <= {length}) -- empirical Wilf-equivalence evidence, not a proof"
        if agree
        else f"sequences differ first at n = {first_diff}"
    )
    _emit(
        fmt,
        {
            "a": {"patterns": pats_a, "method": method_a, "terms": seq_a},
            "b": {"patterns": pats_b, "method": method_b, "terms": seq_b},
            "agree": agree,
            "first_difference": first_diff,
            "note": "empirical Wilf-equivalence evidence, not a proof",
        },
        ["a: " + " ".join(map(str, seq_a)), "b: " + " ".join(map(str, seq_b)), verdict],
    )


if __name__ == "__main__":
    main()
