"""Prefix enumeration schemes: structure, discovery, and serialization.

A scheme classifies prefix permutations into three dispositions:

* ``expa``: the class is split over its k+1 refinements (stored in
  final-entry order), each refinement obtained by appending one more prefix
  entry;
* ``redu``: a deletable rank maps the class bijectively onto a
  one-shorter class at size n-1, subject to the class's forced gaps;
* ``zero``: the prefix itself contains a forbidden pattern, so the class is
  empty at every size.

A scheme whose every refinement lands back in one of the three tables turns
the class recurrences into a polynomial-time counting algorithm. Discovery
is a depth-first search from the empty prefix, bounded by a maximal prefix
length; a class of maximal length that can neither be reduced nor zeroed
makes the search fail, so a failing search stops at the first such class it
reaches instead of first classifying every shallower one.

Both modes run that loop with ``compute_gap_set``'s gaps and reduce a class
by the smallest rank that passes their test: a symbolic certificate in
``search``, concrete extensions up to a horizon in ``empirical_scheme_search``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from .perms import (
    PatternSet,
    Perm,
    avoids_all,
    check_permutation,
    delete_rank,
    is_int,
    normalize_patterns,
    refinements,
    symmetry_images,
)
from .reasoning import GapSet, certify_deletable, compute_gap_set

SCHEMA_VERSION = 1
MODE_CERTIFIED = "certified"
MODE_EMPIRICAL = "empirical"


class SchemeFormatError(ValueError):
    """A scheme document failed to parse or validate."""


@dataclass(frozen=True)
class ExpaEntry:
    gaps: GapSet
    children: tuple[Perm, ...]


@dataclass(frozen=True)
class ReduEntry:
    rank: int
    gaps: GapSet


@dataclass(frozen=True)
class Scheme:
    patterns: PatternSet
    expa: dict[Perm, ExpaEntry]
    redu: dict[Perm, ReduEntry]
    zero: frozenset[Perm]
    mode: str

    def classes(self) -> set[Perm]:
        return set(self.expa) | set(self.redu) | set(self.zero)


def validate(scheme: Scheme) -> list[str]:
    """Structural well-formedness report; empty means well-formed.

    This checks the scheme's own closure and table invariants. It does not
    re-derive the certificates behind the tables; that is the discovery
    search's job (and the brute-force oracle's, for cross-checking).
    """
    problems: list[str] = []
    if scheme.mode not in (MODE_CERTIFIED, MODE_EMPIRICAL):
        problems.append(f"unknown mode {scheme.mode!r}")
    if () not in scheme.expa:
        problems.append("empty permutation absent from expa")
    seen: dict[Perm, str] = {}
    for name, members in (("expa", scheme.expa), ("redu", scheme.redu), ("zero", scheme.zero)):
        for sigma in members:
            if sigma in seen:
                problems.append(f"{sigma} appears in both {seen[sigma]} and {name}")
            seen[sigma] = name
    all_classes = scheme.classes()
    for sigma, entry in scheme.expa.items():
        k = len(sigma)
        if entry.children != tuple(refinements(sigma)):
            problems.append(f"expa[{sigma}] refinements incomplete or misordered")
        for child in entry.children:
            if child not in all_classes:
                problems.append(f"refinement {child} of {sigma} not classified")
        if entry.gaps.k != k:
            problems.append(f"expa[{sigma}] gap set sized for length {entry.gaps.k}")
    for sigma, rentry in scheme.redu.items():
        k = len(sigma)
        if not 1 <= rentry.rank <= k:
            problems.append(f"redu[{sigma}] delete rank {rentry.rank} outside 1..{k}")
        elif (target := delete_rank(sigma, rentry.rank)) not in all_classes:
            problems.append(f"reduction target {target} of {sigma} not classified")
        if rentry.gaps.k != k:
            problems.append(f"redu[{sigma}] gap set sized for length {rentry.gaps.k}")
    for sigma in list(scheme.expa) + list(scheme.redu):
        if not avoids_all(sigma, scheme.patterns):
            problems.append(f"{sigma} contains a forbidden pattern but is not in zero")
    for sigma in scheme.zero:
        if avoids_all(sigma, scheme.patterns):
            problems.append(f"zero class {sigma} avoids every pattern")
    return problems


def _search_core(
    patterns: PatternSet,
    max_depth: int,
    deletable: Callable[[Perm, GapSet, int], bool],
    mode: str,
    log: "list[dict] | None" = None,
) -> Scheme | None:
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    expa: dict[Perm, ExpaEntry] = {}
    redu: dict[Perm, ReduEntry] = {}
    zero: set[Perm] = set()
    # The empty prefix avoids every pattern, has no rank to delete and is
    # shorter than any legal depth, so the loop expands it like any class.
    # A class's disposition depends on the class alone, so the visiting
    # order changes only the log and which stuck class ends a failure.
    stack: list[Perm] = [()]
    scheduled: set[Perm] = {()}

    def schedule(sigma: Perm) -> None:
        if sigma not in scheduled:
            scheduled.add(sigma)
            stack.append(sigma)

    while stack:
        sigma = stack.pop()
        if not avoids_all(sigma, patterns):
            zero.add(sigma)
            if log is not None:
                log.append({"sigma": list(sigma), "disposition": "zero"})
            continue
        gaps = compute_gap_set(sigma, patterns)
        rank = next((r for r in range(1, len(sigma) + 1) if deletable(sigma, gaps, r)), None)
        if rank is not None:
            redu[sigma] = ReduEntry(rank, gaps)
            # The counting recurrence hands this class off to its deletion
            # target, so the target must be classified as well even when no
            # expansion ever refines into it.
            schedule(delete_rank(sigma, rank))
            if log is not None:
                log.append(
                    {
                        "sigma": list(sigma),
                        "disposition": "redu",
                        "gaps": gaps.sorted_list(),
                        "delete_rank": rank,
                    }
                )
        elif len(sigma) < max_depth:
            children = tuple(refinements(sigma))
            expa[sigma] = ExpaEntry(gaps, children)
            # Pushed last-first, so the first refinement is popped first.
            for child in reversed(children):
                schedule(child)
            if log is not None:
                log.append({"sigma": list(sigma), "disposition": "expa", "gaps": gaps.sorted_list()})
        else:
            if log is not None:
                log.append({"sigma": list(sigma), "disposition": "stuck-at-depth"})
            return None
    return Scheme(patterns, expa, redu, frozenset(zero), mode)


def search(patterns: Iterable[Perm], max_depth: int, log: "list[dict] | None" = None) -> Scheme | None:
    """Depth-first discovery of a certified scheme, or None on failure.

    Classes are examined depth-first, the refinements of a class in
    refinement order; each is zeroed if its prefix contains a pattern,
    reduced by the smallest rank that ``reasoning.certify_deletable``
    certifies, expanded while below the depth bound, and otherwise the
    whole search fails at once. ``log`` receives one record per class in
    that order, so on failure its last record is the first stuck class
    found.
    """
    pats = normalize_patterns(patterns)
    return _search_core(
        pats, max_depth, lambda sigma, gaps, rank: certify_deletable(sigma, pats, gaps, rank), MODE_CERTIFIED, log
    )


def search_with_symmetries(
    patterns: Iterable[Perm], max_depth: int
) -> "tuple[Scheme, str] | None":
    """Try the search on every reverse/inverse image of the pattern set.

    Images are attempted in a fixed sorted order; the first success is
    returned together with the generator word mapping the input set to the
    image. Counting with the image's scheme is valid for the input set
    because each symmetry is a bijection on permutations of every size.
    """
    images = symmetry_images(patterns)
    labels = {img: label for label, img in images}
    for img in sorted(labels):
        found = search(img, max_depth)
        if found is not None:
            return found, labels[img]
    return None


def serialize(scheme: Scheme) -> str:
    """Render the canonical one-line JSON document, trailing newline included.

    Table entries are sorted by sigma and gap lists ascending, so equal
    schemes always serialize to identical bytes.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "patterns": [list(p) for p in scheme.patterns],
        "mode": scheme.mode,
        "expa": [
            {
                "sigma": list(s),
                "gaps": scheme.expa[s].gaps.sorted_list(),
                "refinements": [list(c) for c in scheme.expa[s].children],
            }
            for s in sorted(scheme.expa)
        ],
        "redu": [
            {
                "sigma": list(s),
                "delete_rank": scheme.redu[s].rank,
                "gaps": scheme.redu[s].gaps.sorted_list(),
            }
            for s in sorted(scheme.redu)
        ],
        "zero": [list(s) for s in sorted(scheme.zero)],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _perm_field(data: object, context: str) -> Perm:
    if not isinstance(data, list):
        raise SchemeFormatError(f"{context}: expected a list of integers, got {data!r}")
    try:
        return check_permutation(data)
    except ValueError as exc:
        raise SchemeFormatError(f"{context}: {exc}") from exc


def _gaps_field(data: object, k: int, context: str) -> GapSet:
    if not isinstance(data, list) or not all(is_int(v) for v in data):
        raise SchemeFormatError(f"{context}: expected a list of integers, got {data!r}")
    if len(set(data)) != len(data):
        raise SchemeFormatError(f"{context}: a gap is listed twice in {data!r}")
    try:
        return GapSet(k, frozenset(data))
    except ValueError as exc:
        raise SchemeFormatError(f"{context}: {exc}") from exc


def deserialize(text: str) -> Scheme:
    """Parse and validate a scheme document; reject anything ill-formed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemeFormatError("document must be a JSON object")
    allowed = {"schema_version", "patterns", "mode", "expa", "redu", "zero"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemeFormatError(f"unknown keys: {sorted(unknown)}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not is_int(version) or version != SCHEMA_VERSION:
        raise SchemeFormatError(f"unsupported schema_version {version!r}")
    missing = {"patterns", "mode", "expa", "redu", "zero"} - set(doc)
    if missing:
        raise SchemeFormatError(f"missing keys: {sorted(missing)}")
    if not isinstance(doc["patterns"], list):
        raise SchemeFormatError("patterns must be a list")
    try:
        patterns = normalize_patterns(
            _perm_field(q, "pattern") for q in doc["patterns"]
        )
    except ValueError as exc:
        raise SchemeFormatError(str(exc)) from exc
    expa: dict[Perm, ExpaEntry] = {}
    redu: dict[Perm, ReduEntry] = {}
    if not isinstance(doc["expa"], list) or not isinstance(doc["redu"], list):
        raise SchemeFormatError("expa and redu must be lists")
    for item in doc["expa"]:
        if not isinstance(item, dict) or set(item) != {"sigma", "gaps", "refinements"}:
            raise SchemeFormatError(f"bad expa entry: {item!r}")
        sigma = _perm_field(item["sigma"], "expa sigma")
        if sigma in expa:
            raise SchemeFormatError(f"expa lists {sigma} twice")
        gaps = _gaps_field(item["gaps"], len(sigma), f"expa[{sigma}] gaps")
        if not isinstance(item["refinements"], list):
            raise SchemeFormatError(f"expa[{sigma}] refinements must be a list")
        children = tuple(
            _perm_field(c, f"expa[{sigma}] refinement") for c in item["refinements"]
        )
        expa[sigma] = ExpaEntry(gaps, children)
    for item in doc["redu"]:
        if not isinstance(item, dict) or set(item) != {"sigma", "delete_rank", "gaps"}:
            raise SchemeFormatError(f"bad redu entry: {item!r}")
        sigma = _perm_field(item["sigma"], "redu sigma")
        if sigma in redu:
            raise SchemeFormatError(f"redu lists {sigma} twice")
        rank = item["delete_rank"]
        if not is_int(rank):
            raise SchemeFormatError(f"redu[{sigma}] delete_rank must be an integer")
        gaps = _gaps_field(item["gaps"], len(sigma), f"redu[{sigma}] gaps")
        redu[sigma] = ReduEntry(rank, gaps)
    if not isinstance(doc["zero"], list):
        raise SchemeFormatError("zero must be a list")
    zeros = [_perm_field(s, "zero sigma") for s in doc["zero"]]
    zero = frozenset(zeros)
    if len(zero) != len(zeros):
        raise SchemeFormatError("zero lists a sigma twice")
    scheme = Scheme(patterns, expa, redu, zero, doc["mode"])
    problems = validate(scheme)
    if problems:
        raise SchemeFormatError("; ".join(problems))
    return scheme
