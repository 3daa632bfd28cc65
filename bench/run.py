"""Benchmark of permscheme's three engines on three workloads.

    python3 bench/run.py --workload evaluate --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Each run sets a workload up, then repeats whole rounds of the same
operations until the next round would end past ``--seconds``. Every
operation's output is checked, outside the timed region, against values the
benchmark computes without the program (``reference.py``) or against
properties the output must have. An operation that raises or fails its check
counts as failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` when ``--trace 0``, its per-layer metrics when
``--trace 1``. See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from operator import eq
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

if not (SRC / "permscheme" / "__init__.py").is_file():
    sys.exit(f"bench: no program sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

from permscheme import counting, oracle, perms, recurrence, scheme  # noqa: E402

import reference  # noqa: E402
from spans import Tracer, program_bindings  # noqa: E402

WORKLOADS = ("evaluate", "oracle", "discover")
SETUP_REPEATS = 25

P123 = ((1, 2, 3),)
P1234 = ((1, 2, 3, 4),)
PTHREE = ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4))
# The Tier-1 soundness corpus: same recipe, same seed, 50 sets.
CORPUS_SEED = 97103
CORPUS_SIZE = 50
# Shape bounds of ``permscheme guess``: at least 20 terms are needed.
GUESS_ORDER, GUESS_DEGREE = 3, 2
NAIVE_N = reference.NAIVE_MAX_N
# oracle: the brute-force sizes and the larger count_class size.
BRUTE_N, CLASS_N = 8, 12
# discover: certified search depths, the corpus's empirical depth and
# horizon, and the oracle size of the soundness pass. That size is small and
# its call repeated, because many short calls give a steadier median than a
# few long ones.
CORPUS_DEPTH, SINGLETON_DEPTH = 5, 6
CORPUS_EMPIRICAL_DEPTH, CORPUS_HORIZON = 3, 6
SOUNDNESS_BRUTE_N = 5
# The count metric each kind of search adds its successes to.
FOUND_METRICS = {"search_s": "schemes_found", "empirical_s": "empirical_found"}
# On a shared host the speed of Python code drifts by up to 40% between runs,
# and the program's calls slow together with plain dict loops. Each timed
# call is therefore scaled by REFERENCE_CALIBRATION_S over the mean time of a
# fixed calibration loop run right before and right after it: timed metrics
# read as seconds at the speed where that loop takes 5 ms.
CALIBRATION_ITEMS = 36000
REFERENCE_CALIBRATION_S = 0.005


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    label: str
    metric: "str | None"  # the end-to-end metric its time adds to
    call: Callable[[], object]
    check: Callable[[object], bool]
    repeat: int = 1  # calls per round, so that a short call still sums to a steady time


# ---------------------------------------------------------------- inputs


def corpus_sets(corpus_seed: int, how_many: int) -> list:
    """Distinct pattern sets of 1 to 3 patterns of length 3 or 4."""
    rng = random.Random(corpus_seed)
    pool3 = list(permutations(range(1, 4)))
    pool4 = list(permutations(range(1, 5)))
    out, seen = [], set()
    while len(out) < how_many:
        size = rng.choice([1, 2, 3])
        pats = [rng.choice(pool3 if rng.random() < 0.5 else pool4) for _ in range(size)]
        canon = perms.normalize_patterns(pats)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def singleton_classes() -> list:
    """One length-4 pattern from each of the seven symmetry classes."""
    return sorted({perms.symmetry_closure([q])[0] for q in permutations(range(1, 5))})


def seeded_image(rng: random.Random, patterns):
    """One of the set's images under reverse, inverse and complement.

    Counts are the same for every image, and ``search_with_symmetries``
    tries the same images in the same order whichever it is handed, so the
    seed changes the input without changing the work.
    """
    images = perms.symmetry_closure(patterns)
    return rng.choice(images)


def found_schemes(wanted: dict) -> dict:
    """Discover each scheme and load it back from its document."""
    docs = {name: scheme.serialize(scheme.search(pats, depth)) for name, (pats, depth) in wanted.items()}
    return {name: scheme.deserialize(doc) for name, doc in docs.items()}


def set_up(workload: str, seed: int) -> dict:
    if workload == "evaluate":
        return {"schemes": found_schemes({"123": (P123, 2), "1234": (P1234, 4), "three": (PTHREE, 4)})}
    if workload == "oracle":
        return {"schemes": found_schemes({"1234": (P1234, 4), "three": (PTHREE, 4)})}
    # Each set as (the seeded image the certified search is handed, the
    # smallest image every other call is handed).
    rng = random.Random(seed)
    corpus = [perms.symmetry_closure(pats)[0] for pats in corpus_sets(CORPUS_SEED, CORPUS_SIZE)]
    return {
        "corpus": [(seeded_image(rng, pats), pats) for pats in corpus],
        "singletons": [(seeded_image(rng, pats), pats) for pats in singleton_classes()],
    }


# ---------------------------------------------------------------- checks


def name(patterns) -> str:
    return "{" + ",".join(perms.format_permutation(q) for q in patterns) + "}"


def round_trips(found) -> bool:
    doc = scheme.serialize(found)
    return scheme.serialize(scheme.deserialize(doc)) == doc


def certified_search(patterns, depth):
    """The scheme ``search_with_symmetries`` found, whichever image it used."""
    result = scheme.search_with_symmetries(patterns, depth)
    return None if result is None else result[0]


def scheme_ok(naive, patterns, mode, upto, found) -> bool:
    """A found scheme has the search's mode, round-trips byte for byte and
    counts the input set's avoiders up to ``upto``. None is an honest
    failure within the search's bounds."""
    if found is None:
        return True
    return (
        found.mode == mode
        and round_trips(found)
        and counting.sequence(found, upto) == naive.counts(patterns, upto)
    )


def certified_ok(naive, patterns):
    return partial(scheme_ok, naive, patterns, "certified", NAIVE_N)


def empirical_ok(naive, patterns, horizon):
    """An empirical scheme is only claimed up to its horizon."""
    return partial(scheme_ok, naive, patterns, "empirical", min(horizon, NAIVE_N))


def terms_and_guess(found, length):
    terms = counting.sequence(found, length)
    return terms, recurrence.guess_recurrence(terms, GUESS_ORDER, GUESS_DEGREE)


def guessed_ok(expected_terms, must_find, out) -> bool:
    terms, candidate = out
    if terms[: len(expected_terms)] != expected_terms:
        return False
    if candidate is None:
        return not must_find
    return reference.annihilates(candidate.coeffs, terms)


# ---------------------------------------------------------------- workloads


def evaluate_ops(state, naive, *, l123=60, l4=20, class_n=400, deep_n=1000) -> list[Op]:
    s = state["schemes"]

    def three_ok(out):
        return guessed_ok(naive.counts(PTHREE, NAIVE_N), False, out) and reference.growth_bounded(out[0])

    ops = [
        # Catalan and Gessel: both sequences have a recurrence within the bounds.
        Op(f"sequence+guess {name(P123)} L={l123}", "eval_s", partial(terms_and_guess, s["123"], l123),
           partial(guessed_ok, [reference.catalan(n) for n in range(1, l123 + 1)], True), repeat=2),
        Op(f"sequence+guess {name(P1234)} L={l4}", "eval_s", partial(terms_and_guess, s["1234"], l4),
           partial(guessed_ok, reference.gessel_1234(l4), True), repeat=2),
        Op(f"sequence+guess {name(PTHREE)} L={l4}", "eval_s", partial(terms_and_guess, s["three"], l4), three_ok,
           repeat=2),
    ]
    for n, metric in ((class_n, "class_s"), (deep_n, None)):
        ops.append(Op(f"count_class {name(P123)} (1,) n={n} (5,)", metric,
                      partial(counting.count_class, s["123"], (1,), n, (5,)),
                      partial(eq, reference.class_123_first(n, 5)), repeat=2 if metric else 1))
    for pats, depth in ((P123, 2), (P1234, 4), (PTHREE, 4)):
        ops.append(Op(f"count_avoiders {name(pats)} n=1..{NAIVE_N}", "brute_s",
                      lambda pats=pats: [oracle.count_avoiders(n, pats) for n in range(1, NAIVE_N + 1)],
                      partial(eq, naive.counts(pats, NAIVE_N)), repeat=2))
        ops.append(Op(f"search_with_symmetries {name(pats)} depth {depth}", "search_s",
                      partial(certified_search, pats, depth), certified_ok(naive, pats),
                      repeat=30))
    ops.append(Op(f"empirical_scheme_search {name(P123)} depth 2 horizon 7", "empirical_s",
                  partial(oracle.empirical_scheme_search, P123, 2, 7), empirical_ok(naive, P123, 7),
                  repeat=6))
    return ops


def oracle_ops(state, naive) -> list[Op]:
    s = state["schemes"]
    gessel = reference.gessel_1234(BRUTE_N)
    three_naive = naive.counts(PTHREE, NAIVE_N)
    # The cross-engine reference: the certified scheme's counts, computed
    # untimed. They must also agree with the naive counts where those exist.
    three_scheme = counting.sequence(s["three"], max(BRUTE_N, CLASS_N))

    def three_ok(terms):
        return terms[:NAIVE_N] == three_naive and terms == three_scheme[:BRUTE_N] and reference.growth_bounded(terms)

    def by_first_value(found):
        return [[counting.count_class(found, (1,), n, (v,)) for v in range(1, n + 1)] for n in (NAIVE_N, CLASS_N)]

    def first_values_ok(patterns, out):
        return out[0] == naive.by_first_value(NAIVE_N, patterns) and sum(out[1]) == three_scheme[CLASS_N - 1]

    return [
        Op(f"count_avoiders {name(PTHREE)} n=1..{BRUTE_N}", "brute_s",
           lambda: [oracle.count_avoiders(n, PTHREE) for n in range(1, BRUTE_N + 1)], three_ok),
        Op(f"count_avoiders {name(P1234)} n={BRUTE_N}", "brute_s",
           partial(oracle.count_avoiders, BRUTE_N, P1234), partial(eq, gessel[BRUTE_N - 1])),
        Op(f"sequence {name(PTHREE)} L={BRUTE_N}", "eval_s", partial(counting.sequence, s["three"], BRUTE_N),
           lambda terms: terms[:NAIVE_N] == three_naive and reference.growth_bounded(terms), repeat=20),
        Op(f"sequence {name(P1234)} L={BRUTE_N}", "eval_s", partial(counting.sequence, s["1234"], BRUTE_N),
           partial(eq, gessel[:BRUTE_N]), repeat=20),
        Op(f"count_class {name(PTHREE)} (1,) n={NAIVE_N},{CLASS_N} every first value", "class_s",
           partial(by_first_value, s["three"]), partial(first_values_ok, PTHREE), repeat=3),
        Op(f"search_with_symmetries {name(PTHREE)} depth 4", "search_s",
           partial(certified_search, PTHREE, 4), certified_ok(naive, PTHREE), repeat=30),
        Op(f"search_with_symmetries {name(P1234)} depth 4", "search_s",
           partial(certified_search, P1234, 4), certified_ok(naive, P1234), repeat=30),
        Op(f"empirical_scheme_search {name(PTHREE)} depth 4 horizon 7", "empirical_s",
           partial(oracle.empirical_scheme_search, PTHREE, 4, 7), empirical_ok(naive, PTHREE, 7)),
    ]


def discover_ops(state, naive) -> list[Op]:
    found: list = []  # (smallest image, scheme) for every success of this round

    def remember(patterns, result):
        if result is not None:
            found.append((patterns, result))
        return result

    ops = []
    for label, sets, depth in (("corpus", state["corpus"], CORPUS_DEPTH),
                               ("singleton", state["singletons"], SINGLETON_DEPTH)):
        for pats, smallest in sets:
            ops.append(Op(f"search_with_symmetries {label} {name(pats)} depth {depth}", "search_s",
                          lambda pats=pats, smallest=smallest, depth=depth:
                          remember(smallest, certified_search(pats, depth)),
                          certified_ok(naive, pats)))
    ops.append(Op(f"empirical_scheme_search {name(PTHREE)} depth 4 horizon 7", "empirical_s",
                  partial(oracle.empirical_scheme_search, PTHREE, 4, 7), empirical_ok(naive, PTHREE, 7)))
    for _, pats in state["corpus"]:
        ops.append(Op(f"empirical_scheme_search corpus {name(pats)} depth {CORPUS_EMPIRICAL_DEPTH} "
                      f"horizon {CORPUS_HORIZON}", "empirical_s",
                      partial(oracle.empirical_scheme_search, pats, CORPUS_EMPIRICAL_DEPTH, CORPUS_HORIZON),
                      empirical_ok(naive, pats, CORPUS_HORIZON)))
    # The soundness pass over this round's schemes, at small sizes.
    ops += [
        Op(f"sequence L={NAIVE_N} of every scheme found", "eval_s",
           lambda: [counting.sequence(sch, NAIVE_N) for _, sch in found],
           lambda out: out == [naive.counts(pats, NAIVE_N) for pats, _ in found], repeat=8),
        Op(f"count_class (1,) n={NAIVE_N} every first value, every scheme found", "class_s",
           lambda: [[counting.count_class(sch, (1,), NAIVE_N, (v,)) for v in range(1, NAIVE_N + 1)]
                    for _, sch in found],
           lambda out: out == [naive.by_first_value(NAIVE_N, sch.patterns) for _, sch in found], repeat=6),
        Op(f"count_avoiders n={SOUNDNESS_BRUTE_N} of every set with a scheme", "brute_s",
           lambda: [oracle.count_avoiders(SOUNDNESS_BRUTE_N, pats) for pats, _ in found],
           lambda out: out == [naive.counts(pats, SOUNDNESS_BRUTE_N)[-1] for pats, _ in found], repeat=12),
    ]
    return ops


BUILDERS = {"evaluate": evaluate_ops, "oracle": oracle_ops, "discover": discover_ops}


# ---------------------------------------------------------------- running


def calibration_seconds() -> float:
    """Time of a fixed loop of dict and integer work, no program code.

    It allocates nothing the garbage collector tracks, so its time does not
    depend on how much the program left on the heap.
    """
    start = perf_counter()
    table = {}
    for i in range(CALIBRATION_ITEMS):
        table[i] = i * 3 + (i >> 2)
    sum(table.values())
    return perf_counter() - start


class Clock:
    """Scaled seconds of a timed call, bracketed by calibration loops."""

    def __init__(self) -> None:
        self.before = calibration_seconds()

    def scaled(self, seconds: float) -> float:
        after = calibration_seconds()
        scale = REFERENCE_CALIBRATION_S / ((self.before + after) / 2)
        self.before = after
        return seconds * scale


@dataclass
class Outcome:
    op: Op
    scaled: list  # seconds of each call, scaled to the reference speed
    raw_seconds: float
    ok: bool = False
    wrong: bool = False  # returned an output that failed its check
    found: bool = False  # a search that returned a scheme
    error: str = ""


def run_round(ops: list[Op], tracer: Tracer) -> list[Outcome]:
    outcomes = []
    clock = Clock()
    for op in ops:
        outcome = Outcome(op, [], 0.0)
        outcomes.append(outcome)
        outs = []
        try:
            for _ in range(op.repeat):
                tracer.active = tracer.enabled
                start = perf_counter()
                try:
                    outs.append(op.call())
                finally:
                    seconds = perf_counter() - start
                    tracer.active = False
                    outcome.raw_seconds += seconds
                    outcome.scaled.append(clock.scaled(seconds))
        except Exception as exc:  # a raising operation is a failed one
            outcome.error = type(exc).__name__
            continue
        try:
            outcome.ok = all(op.check(out) for out in outs)
        except Exception as exc:
            outcome.error = f"check raised {type(exc).__name__}"
        else:
            outcome.error = "" if outcome.ok else "wrong output"
        outcome.wrong = not outcome.ok
        outcome.found = op.metric in FOUND_METRICS and outs[-1] is not None
    return outcomes


def measure_setup(workload: str, seed: int) -> list[float]:
    """Scaled seconds from starting a fresh process until it reports ready."""
    times = []
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        )
        with child.stdout:
            line = child.stdout.readline()
            seconds = perf_counter() - start
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {workload} failed in a fresh process")
        times.append(clock.scaled(seconds))
    return times


class LayerKeys:
    """Keys per size layer of each evaluated scheme, computed once each."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def __call__(self, found, length) -> list[int]:
        key = (scheme.serialize(found), length)
        if key not in self._cache:
            self._cache[key] = counting.layer_key_counts(found, length)
        return self._cache[key]


def snapshot(tracer: Tracer, layer_keys: LayerKeys) -> dict:
    """The per-layer values of the spans closed since the last reset."""
    values: dict = {}
    for m in SPEC["per_layer"]:
        metric = m["name"]
        if metric.endswith(".calls"):
            values[metric] = tracer.calls[metric[: -len(".calls")]]
        elif metric.endswith(".s"):
            values[metric] = tracer.self_s[metric[: -len(".s")]]
        else:
            values[metric] = tracer.counters[metric]
    per_call = [layer_keys(found, length) for found, length in tracer.sequence_args]
    values["counting.keys"] = sum(sum(keys) for keys in per_call)
    values["counting.peak_layer_keys"] = max((max(keys) for keys in per_call), default=0)
    return values


def share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(setup: dict, rounds: list[dict]) -> dict:
    """One set-up plus the median round; peaks are the larger of the two."""
    values = {}
    for metric in setup:
        median = statistics.median(r[metric] for r in rounds)
        values[metric] = max(setup[metric], median) if "peak" in metric else setup[metric] + median
    values["reasoning.ranks_certified_share"] = share(
        values["reasoning.ranks_certified"], values["reasoning.analyze_deletable.calls"])
    values["reasoning.bailed_out_share"] = share(
        values["reasoning.events_bailed_out"],
        values["reasoning.events"] - values["reasoning.events_vacuous"])
    return values


def end_to_end_metrics(rounds: list[list[Outcome]], setup_times: list[float]) -> dict:
    """A timed metric sums, over its operations, the calls per round times
    the median call, taken over every call of every round."""
    values = {m["name"]: 0.0 for m in SPEC["end_to_end"] if m["unit"] == "s"}
    for same_op in zip(*rounds):
        op = same_op[0].op
        if op.metric is not None:
            values[op.metric] += op.repeat * statistics.median(t for o in same_op for t in o.scaled)
    for metric, count in FOUND_METRICS.items():
        values[count] = statistics.median(sum(o.found for o in r if o.op.metric == metric) for r in rounds)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_times = [] if trace else measure_setup(workload, seed)
    tracer = Tracer(enabled=trace)
    if trace:
        tracer.install(program_bindings())
    layer_keys = LayerKeys()
    tracer.active = trace
    state = set_up(workload, seed)
    tracer.active = False
    setup_layers = snapshot(tracer, layer_keys)
    tracer.reset()
    naive = reference.NaiveCounter()
    rounds, layer_rounds = [], []
    start = perf_counter()
    while True:
        rounds.append(run_round(BUILDERS[workload](state, naive), tracer))
        layer_rounds.append(snapshot(tracer, layer_keys))
        tracer.reset()
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    outcomes = [o for r in rounds for o in r]
    failures: dict = {}
    for o in outcomes:
        if not o.ok:
            failures[(o.op.label, o.error)] = failures.get((o.op.label, o.error), 0) + 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    values = layer_metrics(setup_layers, layer_rounds) if trace else end_to_end_metrics(rounds, setup_times)
    return {
        "workload": workload,
        "rounds": [sum(o.raw_seconds for o in r) for r in rounds],
        "failures": failures,
        "result": {
            "correct": not any(o.wrong for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(not o.ok for o in outcomes),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
        },
    }


def report(args, outcome: dict) -> None:
    result = outcome["result"]
    print(f"workload {outcome['workload']}  seed {args.seed}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}")
    print(f"rounds {len(outcome['rounds'])}, unscaled timed seconds each: "
          + " ".join(f"{s:.3f}" for s in outcome["rounds"]))
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {str(result['correct']).lower()}")
    for (label, error), times in outcome["failures"].items():
        print(f"  failed x{times}: {label}: {error}")
    for metric, v in result["metrics"].items():
        print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"workload {workload} exited with {child.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args, outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    os.environ.pop("WILF_THREADS", None)
    sys.exit(main())
