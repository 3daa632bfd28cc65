"""The benchmark's checks catch wrong outputs.

    python3 -m pytest bench/test_bench.py

A short evaluate pass runs clean, then once with a scheme document whose
delete rank was changed and once with an off-by-one term. Each error must be
reported as a failed operation with a wrong output.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
from permscheme import counting, scheme  # noqa: E402
from spans import Tracer  # noqa: E402

SHORT = {"l123": 20, "l4": 20, "class_n": 30}
DEEP = "count_class {123} (1,) n=1000 (5,)"


@pytest.fixture(scope="module")
def naive():
    return reference.NaiveCounter()


def short_pass(state, naive) -> dict:
    ops = run.evaluate_ops(state, naive, **SHORT)
    return {o.op.label: o for o in run.run_round(ops, Tracer(enabled=False))}


def wrong(outcomes) -> list:
    return sorted(label for label, o in outcomes.items() if o.wrong and not o.ok)


def test_clean_pass_fails_only_the_deep_class_call(naive):
    outcomes = short_pass(run.set_up("evaluate", 1), naive)
    assert [label for label, o in outcomes.items() if not o.ok] == [DEEP]
    assert outcomes[DEEP].error == "RecursionError" and not outcomes[DEEP].wrong


def test_changed_delete_rank_is_a_failed_operation(naive):
    state = run.set_up("evaluate", 1)
    doc = scheme.serialize(state["schemes"]["123"])
    bad = doc.replace('"delete_rank":2', '"delete_rank":1', 1)
    assert bad != doc
    state["schemes"]["123"] = scheme.deserialize(bad)  # still structurally valid
    assert "sequence+guess {123} L=20" in wrong(short_pass(state, naive))


def test_off_by_one_term_is_a_failed_operation(naive, monkeypatch):
    exact = counting.sequence

    def off_by_one(found, length):
        terms = exact(found, length)
        terms[-1] += 1
        return terms

    monkeypatch.setattr(counting, "sequence", off_by_one)
    assert "sequence+guess {1234} L=20" in wrong(short_pass(run.set_up("evaluate", 1), naive))
