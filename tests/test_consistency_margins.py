"""Pinned consistency margins: every check of ``consistency_checks`` keeps its
name, times, tolerance and margin bits (``float.hex``) on each case below,
as written in tests/golden/consistency-margins.json.

Regenerate the file only when a change to the margins is intended, from the
repository root:

    PYTHONPATH=src python3 tests/test_consistency_margins.py
"""

import json
import os
import sys
from pathlib import Path

import pytest

from contmeas.engine import consistency_checks
from contmeas.model import TimeGrid, builtin_scenario, random_model

ROOT = Path(__file__).resolve().parents[1]
MARGINS = ROOT / "tests" / "golden" / "consistency-margins.json"
SCENARIOS = ("identity", "qubit-projective", "qubit-weak", "pure-preserving-random", "damped-qubit")
# the benchmark's enumerate-dense model: 1,458 leaves
DENSE = dict(dim=4, n_outcomes=3, n_letters=2, horizon=6)


def _cases() -> dict:
    """Case name -> (model arguments, grid arguments)."""
    cases = {}
    for seed in (1, 101):
        model = ("random", dict(seed=seed, **DENSE))
        cases[f"dense-seed{seed}"] = (model, (None, None))
        cases[f"dense-seed{seed}-sparse"] = (model, ((0, 2, 3, 6), (0, 3)))
        cases[f"dense-seed{seed}-no-refs"] = (model, (None, ()))
    for name in SCENARIOS:
        cases[f"scenario-{name}"] = (("scenario", dict(name=name, horizon=4)), (None, None))
    for seed in range(3):
        model = ("random", dict(seed=seed, dim=3, n_outcomes=3, horizon=5))
        cases[f"random-seed{seed}-h5"] = (model, (None, None))
    model = ("random", dict(seed=4, dim=3, n_outcomes=2, kraus_per_outcome=2, horizon=5))
    cases["random-seed4-kraus2"] = (model, (None, None))
    return cases


CASES = _cases()


def margins(case: str) -> list:
    """[name, times, tol, float.hex(margin)] of every check, in check order."""
    (kind, kwargs), (records, refs) = CASES[case]
    model = random_model(**kwargs) if kind == "random" else builtin_scenario(**kwargs)
    grid = TimeGrid.make(model.horizon, records, refs)
    report = consistency_checks(model, grid)
    return [[c.name, list(c.times), c.tol, float.hex(c.margin)] for c in report.checks]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(MARGINS.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_margins_keep_their_bits(case, pinned):
    assert margins(case) == pinned[case]


if __name__ == "__main__":
    os.chdir(ROOT)
    doc = {case: margins(case) for case in sorted(CASES)}
    # one check a line
    body = ",\n".join(
        f"{json.dumps(case)}: [\n" + ",\n".join(f"  {json.dumps(c)}" for c in checks) + "\n]"
        for case, checks in doc.items()
    )
    MARGINS.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print("wrote", MARGINS.relative_to(ROOT), "with", sum(map(len, doc.values())), "checks")
