"""Prefix enumeration schemes: structure, discovery, and serialization.

A scheme classifies prefix permutations into three dispositions:

* ``expa``: the class is split over its k+1 refinements (in final-entry
  order, each obtained by appending one more prefix entry), so the table
  holds only its forced gaps;
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

``search`` runs that loop in both modes, with ``compute_gap_set``'s gaps,
and reduces a class by the smallest rank that passes the mode's test: a
symbolic certificate in mode ``certified``, every concrete extension up to
the proven size bound k+m-1 in mode ``empirical``
(``reasoning._deletion_walk``), which is exact at every n too.

A failing search's log is its failure report: the last record is the stuck
class, and the ``expa`` records show whether every proper prefix of it was
expanded. Complement maps the search on P onto the one on P^c class by
class, in either mode, so such a failure proves that the search on P^c
fails too, and ``search_with_symmetries`` skips that image (proof there).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .perms import (
    PatternSet,
    Perm,
    avoids_all,
    check_permutation,
    complement,
    delete_rank,
    is_int,
    normalize_patterns,
    reduce_word,
    refinements,
    symmetry_images,
)
from .reasoning import (
    GapSet,
    _deletion_walk,
    certify_deletable,
    compute_gap_set,
    single_place_rules,
)

SCHEMA_VERSION = 1
MODE_CERTIFIED = "certified"
MODE_EMPIRICAL = "empirical"


class SchemeFormatError(ValueError):
    """A scheme document failed to parse or validate."""


@dataclass(frozen=True)
class ReduEntry:
    rank: int
    gaps: GapSet


@dataclass(frozen=True)
class Scheme:
    patterns: PatternSet
    expa: dict[Perm, GapSet]
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
    for sigma, gaps in scheme.expa.items():
        for child in refinements(sigma):
            if child not in all_classes:
                problems.append(f"refinement {child} of {sigma} not classified")
        if gaps.k != len(sigma):
            problems.append(f"expa[{sigma}] gap set sized for length {gaps.k}")
    for sigma, rentry in scheme.redu.items():
        k = len(sigma)
        if not is_int(rentry.rank):
            problems.append(f"redu[{sigma}] delete rank {rentry.rank!r} is not an int")
        elif not 1 <= rentry.rank <= k:
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


def check_depth(max_depth: object) -> int:
    """Validate a search depth: an int (not a bool) that is at least 1.

    >>> check_depth(2)
    2
    """
    if not is_int(max_depth):
        raise ValueError(f"max_depth must be an int, got {max_depth!r}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    return max_depth


def search(
    patterns: Iterable[Perm],
    max_depth: int,
    log: "list[dict] | None" = None,
    *,
    mode: str = MODE_CERTIFIED,
) -> Scheme | None:
    """Depth-first discovery of a scheme, or None on failure.

    Classes are examined depth-first, the refinements of a class in
    refinement order; each is zeroed if its prefix contains a pattern,
    reduced by the smallest rank that passes the mode's rank test,
    expanded while below the depth bound, and otherwise the whole search
    fails at once. ``log`` receives one record per class in that order; it
    is the failure report, whose last record is the first stuck class found.

    In mode ``certified`` a rank passes when ``certify_deletable`` certifies
    it, given the set's ``reasoning.single_place_rules``, derived once per
    call. For each pattern q, the event that puts only q's first entry on
    the rank's place is decided by that closed-form rule, and only the
    other events that ``order_facts`` keeps go to the bail-out search. Both
    steps are exact for a class that avoids the set, which every class
    tested here does, so the documents and logs are the same as when every
    event goes to the bail-out search.

    In mode ``empirical`` a rank passes when ``reasoning._deletion_walk``
    finds no member that its deletion loses. The walk checks every
    extension of sigma up to size k+m-1, m the longest pattern length, and
    a miss at any size cuts down to one of that size, so the scheme counts
    exactly at every n. Any other mode raises ``ValueError``.

    One table of ``closed_gaps`` masks per call, in both modes, serves the
    classes' gap sets and the walks, so no mask is computed twice in a call.
    """
    pats = normalize_patterns(patterns)
    check_depth(max_depth)
    masks: dict[Perm, int] = {}
    if mode == MODE_CERTIFIED:
        rules = single_place_rules(pats)

        def deletable(sigma: Perm, gaps: GapSet, rank: int) -> bool:
            return certify_deletable(sigma, pats, gaps, rank, rules)

    elif mode == MODE_EMPIRICAL:
        def deletable(sigma: Perm, gaps: GapSet, rank: int) -> bool:
            return _deletion_walk(sigma, pats, gaps, rank, masks) is None

    else:
        raise ValueError(f"unknown mode {mode!r}")
    expa: dict[Perm, GapSet] = {}
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
        if not avoids_all(sigma, pats):
            zero.add(sigma)
            if log is not None:
                log.append({"sigma": list(sigma), "disposition": "zero"})
            continue
        gaps = GapSet(len(sigma), masks[sigma]) if sigma in masks else compute_gap_set(sigma, pats)
        masks[sigma] = gaps.mask
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
            expa[sigma] = gaps
            # Pushed last-first, so the first refinement is popped first.
            for child in reversed(refinements(sigma)):
                schedule(child)
            if log is not None:
                log.append({"sigma": list(sigma), "disposition": "expa", "gaps": gaps.sorted_list()})
        else:
            if log is not None:
                log.append({"sigma": list(sigma), "disposition": "stuck-at-depth"})
            return None
    return Scheme(pats, expa, redu, frozenset(zero), mode)


def search_with_symmetries(
    patterns: Iterable[Perm], max_depth: int, mode: str = MODE_CERTIFIED
) -> "tuple[Scheme, str] | None":
    """Search the reverse/inverse images of the pattern set for a scheme.

    Images are attempted in a fixed sorted order, each by ``search`` in the
    given mode; the first success is returned together with the generator
    word mapping the input set to the image. Counting with the image's
    scheme is valid for the input set because each symmetry is a bijection
    on permutations of every size.

    An image is skipped, unsearched, when the search on its complement
    already failed at a stuck class reached by expansion alone, since that
    search must fail too. Proof: write x^c for the complement of a
    permutation x of length k (entry v becomes k+1-v) and P^c for the
    set of the complements of P's patterns. Then sigma^c contains a
    pattern of P^c exactly when sigma contains one of P; the refinements
    of sigma^c are the complements of those of sigma; and the prefixes of
    s^c reduce to the complements of the prefixes of s. Complement maps
    each member of sigma's class under P to one of sigma^c's class under
    P^c, and deleting rank r to deleting rank k+1-r. So gap j of sigma is
    forced exactly when gap k-j of sigma^c is, and both rank tests map rank
    r of sigma to rank k+1-r of sigma^c. The exact test of mode
    ``empirical`` does, since a member that deleting rank r loses maps to
    one that deleting rank k+1-r loses. The certifier of mode
    ``certified`` does, since it is complement-equivariant: the event
    (q, places) of sigma maps to the event (q^c, places) of sigma^c,
    ``order_facts`` maps a symbol's bounds (floor, ceiling) to
    (k+1-ceiling, k+1-floor), the implied relations swap "above" and
    "below", and so an implied embedding of a pattern p maps to one of
    p^c; its verdict on a class that avoids the set is that of the
    bail-out search on every event, so it maps the same way. A class is thus
    zeroed, reduced or expanded exactly when its complement is, though a
    reduction may pick another rank and so hand off to another class. Now
    let the search on P fail at s, with every proper prefix of s expanded.
    The search on P^c expands the empty class, and whenever it expands
    a prefix of s^c it schedules the next one, a refinement, which is
    expanded in turn, since its complement was; a scheduled class is
    always classified before the search can succeed. So the search on P^c
    reaches s^c unless it fails first, and s^c is stuck, since s is:
    it avoids P^c, has no rank that passes the test and has the maximal
    length. Either way it fails, and skipping it leaves the first success,
    and so the result, unchanged.
    """
    images = symmetry_images(patterns)
    labels = {img: label for label, img in images}
    refuted: set[PatternSet] = set()
    for img in sorted(labels):
        if tuple(sorted({complement(q) for q in img})) in refuted:
            continue
        log: list[dict] = []
        found = search(img, max_depth, log, mode=mode)
        if found is not None:
            return found, labels[img]
        stuck = log[-1]["sigma"]
        expanded = {tuple(r["sigma"]) for r in log if r["disposition"] == "expa"}
        if all(reduce_word(stuck[:i]) in expanded for i in range(len(stuck))):
            refuted.add(img)
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
                "gaps": scheme.expa[s].sorted_list(),
                "refinements": [list(c) for c in refinements(s)],
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
    # Checked before any shift, so a huge or negative gap builds no int.
    if not all(0 <= j <= k for j in data):
        raise SchemeFormatError(f"{context}: forced gaps {sorted(data)} outside 0..{k}")
    return GapSet(k, sum(1 << j for j in data))


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
    expa: dict[Perm, GapSet] = {}
    redu: dict[Perm, ReduEntry] = {}
    if not isinstance(doc["expa"], list) or not isinstance(doc["redu"], list):
        raise SchemeFormatError("expa and redu must be lists")
    for item in doc["expa"]:
        if not isinstance(item, dict) or set(item) != {"sigma", "gaps", "refinements"}:
            raise SchemeFormatError(f"bad expa entry: {item!r}")
        sigma = _perm_field(item["sigma"], "expa sigma")
        if sigma in expa:
            raise SchemeFormatError(f"expa lists {sigma} twice")
        expa[sigma] = _gaps_field(item["gaps"], len(sigma), f"expa[{sigma}] gaps")
        if not isinstance(item["refinements"], list):
            raise SchemeFormatError(f"expa[{sigma}] refinements must be a list")
        # Parsed first: JSON true equals 1, so [[true]] would match [(1,)].
        listed = [_perm_field(c, f"expa[{sigma}] refinement") for c in item["refinements"]]
        if listed != refinements(sigma):
            raise SchemeFormatError(f"expa[{sigma}] refinements incomplete or misordered")
    for item in doc["redu"]:
        if not isinstance(item, dict) or set(item) != {"sigma", "delete_rank", "gaps"}:
            raise SchemeFormatError(f"bad redu entry: {item!r}")
        sigma = _perm_field(item["sigma"], "redu sigma")
        if sigma in redu:
            raise SchemeFormatError(f"redu lists {sigma} twice")
        # ``validate`` reports a rank that is not an int in range.
        gaps = _gaps_field(item["gaps"], len(sigma), f"redu[{sigma}] gaps")
        redu[sigma] = ReduEntry(item["delete_rank"], gaps)
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
