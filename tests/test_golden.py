"""Golden reports: ``contmeas check`` must reproduce the pinned report.json,
bounds.csv and exit code of every case under tests/golden/.

Numbers are compared within GOLDEN_TOL; strings (including "inf"), pass
flags, integers and exit codes are compared exactly. See
tests/golden/README.md for how the files were made and how to regenerate
them.
"""

import csv
import json
import math
import os
import shutil
import sys
from pathlib import Path

import pytest

from contmeas.cli import main
from contmeas.model import random_model, serialize_model

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_TOL = 1e-12
# model document name -> random_model arguments
MODELS = {
    "random-seed0": dict(seed=0, dim=3, n_outcomes=3, horizon=3),
    "random-seed1": dict(seed=1, dim=3, n_outcomes=3, horizon=3),
    # 486 leaves: many blocks of sibling nodes per depth
    "random-seed2-h5": dict(seed=2, dim=3, n_outcomes=3, horizon=5),
}


def _model_path(name: str) -> str:
    # relative to the repository root, because report.json records it
    return f"tests/golden/models/{name}.json"


CASES = {
    **{
        f"scenario-{name}": ["check", "--scenario", name, "--horizon", "3"]
        for name in (
            "identity",
            "qubit-projective",
            "qubit-weak",
            "pure-preserving-random",
            "damped-qubit",
        )
    },
    **{name: ["check", "--model", _model_path(name)] for name in MODELS},
    "random-seed2-h5-sparse": [
        "check", "--model", _model_path("random-seed2-h5"), "--grid", "0,2,3,5", "--refs", "0,3",
    ],
    "scenario-pure-preserving-random-sparse": [
        "check", "--scenario", "pure-preserving-random", "--horizon", "4",
        "--grid", "0,1,3,4", "--refs", "1,3",
    ],
    "sample-damped-qubit-seed1": [
        "check", "--scenario", "damped-qubit", "--horizon", "3",
        "--mode", "sample", "--samples", "500", "--seed", "1",
    ],
}


def _numbers_close(a: float, b: float) -> bool:
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= GOLDEN_TOL
    return repr(a) == repr(b)


def _json_diff(expected, got, where="report.json"):
    """Paths at which two decoded JSON documents differ."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if set(expected) != set(got):
            return [f"{where}: keys {sorted(set(expected) ^ set(got))} differ"]
        return [d for key in expected for d in _json_diff(expected[key], got[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{where}: length {len(got)}, expected {len(expected)}"]
        return [d for i, pair in enumerate(zip(expected, got)) for d in _json_diff(*pair, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(got, float):
        return [] if _numbers_close(expected, got) else [f"{where}: {got!r}, expected {expected!r}"]
    if type(expected) is not type(got) or expected != got:
        return [f"{where}: {got!r}, expected {expected!r}"]
    return []


def _bounds_diff(expected_text: str, got_text: str):
    expected = list(csv.reader(expected_text.splitlines()))
    got = list(csv.reader(got_text.splitlines()))
    if len(expected) != len(got) or expected[:1] != got[:1]:
        return [f"bounds.csv: {len(got)} lines, expected {len(expected)} (or header differs)"]
    problems = []
    for line, (e, g) in enumerate(zip(expected[1:], got[1:]), start=2):
        # bound_id, times, lhs, rhs, margin, pass
        same = (
            e[:2] == g[:2]
            and e[5] == g[5]
            and all(_numbers_close(float(x), float(y)) for x, y in zip(e[2:5], g[2:5]))
        )
        if not same:
            problems.append(f"bounds.csv line {line}: {g}, expected {e}")
    return problems


def _run_case(args, out_dir: Path) -> int:
    return main(args + ["--out", str(out_dir)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_case(case, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = _run_case(CASES[case], tmp_path)
    expected_dir = GOLDEN / case
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[case]
    problems = _json_diff(
        json.loads((expected_dir / "report.json").read_text()),
        json.loads((tmp_path / "report.json").read_text()),
    )
    problems += _bounds_diff(
        (expected_dir / "bounds.csv").read_text(), (tmp_path / "bounds.csv").read_text()
    )
    assert not problems, "\n".join(problems[:20])


def regenerate(cases=(), golden: Path = GOLDEN) -> list:
    """Rewrite the files of the named cases (by default, of every case that
    has no files yet) from the code on the import path, and only their
    entries of exit_codes.json; a model document is written only when it
    is missing. Returns the cases written."""
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden cases: {', '.join(unknown)}")
    if not cases:
        cases = [case for case in CASES if not (golden / case / "report.json").exists()]
    (golden / "models").mkdir(parents=True, exist_ok=True)
    for name, kwargs in MODELS.items():
        path = golden / "models" / f"{name}.json"
        if not path.exists():
            path.write_text(serialize_model(random_model(**kwargs)), encoding="utf-8")
    codes_path = golden / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    for case in cases:
        codes[case] = _run_case(CASES[case], golden / case)
    codes = dict(sorted(codes.items()))
    codes_path.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    return sorted(cases)


def test_regenerate_writes_only_the_named_cases(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    before = {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()}
    named = golden / "scenario-identity" / "report.json"
    named.write_text("{}")
    assert regenerate(["scenario-identity"], golden) == ["scenario-identity"]
    assert json.loads(named.read_text())["config"]["source"] == "identity"
    after = {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()}
    assert after.keys() == before.keys()
    changed = [p for p in after if after[p] != before[p] and p.parent.name != "scenario-identity"]
    assert changed == []
    # with no names, only the cases without files are written
    shutil.rmtree(golden / "scenario-damped-qubit")
    stale = golden / "random-seed1" / "bounds.csv"
    stale.write_text("stale\n")
    assert regenerate(golden=golden) == ["scenario-damped-qubit"]
    assert (golden / "scenario-damped-qubit" / "bounds.csv").exists()
    assert stale.read_text() == "stale\n"
    assert json.loads((golden / "exit_codes.json").read_text()) == json.loads(
        before[golden / "exit_codes.json"]
    )


if __name__ == "__main__":
    os.chdir(ROOT)
    print("wrote:", " ".join(regenerate(sys.argv[1:])) or "nothing")
