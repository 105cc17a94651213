"""The benchmark's workloads and the output check for each.

Every workload is one ``contmeas check`` job over a model document that the
benchmark generates from its seed. The seed also goes to the job as
``--seed``. The checks here run outside the timed region and compare the
job's ``report.json`` and ``bounds.csv`` with routes computed independently
of the CLI. See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

from contmeas.engine import enumerate_trajectories
from contmeas.entropics import build_entropy_report, mutual_entropy_hybrid
from contmeas.model import MeasurementModel, TimeGrid, builtin_scenario, random_model
from contmeas.quantum import chi_quantity

# The CLI's default margin tolerance; a bounds.csv row passes iff margin >= -TOL.
TOL = 1e-9
# enumerate-dense: allowed deviation between the report and the independent
# hybrid / Holevo routes (the acceptance suite uses the same 1e-8).
ORACLE_TOL = 1e-8
# Sample workload: an estimate may sit at most Z standard errors (plus an
# absolute rounding allowance) from its exact enumerated value. With a few
# hundred correlated entries per report, 5 keeps the false-alarm rate
# negligible while a biased estimator still shows.
Z = 5.0
ABS_SLACK = 1e-9
KINDS = ("Ic", "chi_bar", "chi_at", "Iq", "Iq_cond")


@dataclass(frozen=True)
class Workload:
    name: str
    model: Callable[[int], MeasurementModel]
    mode_args: tuple  # CLI arguments after --model/--seed/--out
    # Problems in a job's outputs; empty when they are correct.
    check: Callable[[MeasurementModel, dict], list]
    # Exit codes that count as a job failure. Exit 2 on the sample workload
    # is the known Monte-Carlo-noise audit failure and is reported through
    # the bound rows instead.
    failing_exits: frozenset


def _value(entry) -> float:
    value = entry["value"]
    return math.inf if value == "inf" else float(value)


def _times(key: str) -> tuple:
    return tuple(int(t) for t in key.split(","))


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _check_enumeration(model: MeasurementModel, doc: dict) -> list:
    """Ic(r,s) + chi_bar(r,s) against the hybrid relative-entropy route, and
    chi_at(t) against the Holevo quantity of the time-t ensemble."""
    grid = TimeGrid.make(model.horizon)
    records = list(enumerate_trajectories(model, grid))
    problems = []
    for r, s in grid.pairs():
        key = f"{r},{s}"
        via_report = _value(doc["Ic"][key]) + _value(doc["chi_bar"][key])
        direct = mutual_entropy_hybrid(records, r, s).direct
        if not _close(via_report, direct, ORACLE_TOL):
            problems.append(f"Ic+chi_bar({key}) = {via_report!r}, hybrid route {direct!r}")
    for t in grid.record_times:
        members = {}
        for rec in records:
            members.setdefault((rec.letter, rec.outcomes[:t]), (rec.prob_at[t], rec.aposteriori[t]))
        holevo = chi_quantity(list(members.values()))
        reported = _value(doc["chi_at"][str(t)])
        if not _close(reported, holevo, ORACLE_TOL):
            problems.append(f"chi_at({t}) = {reported!r}, chi_quantity {holevo!r}")
    return problems


def _check_estimates(exact_horizon: int) -> Callable[[MeasurementModel, dict], list]:
    """Every sampled entry whose times lie within ``exact_horizon`` must be
    within Z standard errors of the exact value enumerated at that horizon.
    The quantities at times <= T depend only on the first T steps, so a
    shorter enumeration is exact for them."""

    def check(model: MeasurementModel, doc: dict) -> list:
        short = MeasurementModel(
            dim=model.dim,
            horizon=exact_horizon,
            ensemble=model.ensemble,
            steps=model.steps[:exact_horizon],
            homogeneous=model.homogeneous,
        )
        grid = TimeGrid.make(exact_horizon)
        exact = build_entropy_report(enumerate_trajectories(short, grid), grid)
        problems = []
        compared = 0
        for kind in KINDS:
            table = getattr(exact, kind)
            for key, entry in doc[kind].items():
                times = _times(key)
                if max(times) > exact_horizon:
                    continue
                compared += 1
                truth = table[times[0] if kind == "chi_at" else times]
                estimate = _value(entry)
                allowed = Z * float(entry["se"]) + ABS_SLACK
                if not _close(estimate, truth, allowed):
                    problems.append(
                        f"{kind}({key}) = {estimate!r} +- {entry['se']!r}, exact {truth!r}"
                    )
        if compared == 0:
            problems.append("no report entry was compared with its exact value")
        return problems

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enumerate-dense",
            model=lambda seed: random_model(seed, dim=4, n_outcomes=3, n_letters=2, horizon=6),
            mode_args=("--mode", "enumerate"),
            check=_check_enumeration,
            failing_exits=frozenset({1, 2, 3}),
        ),
        Workload(
            name="sample-long",
            model=lambda seed: builtin_scenario("qubit-weak", horizon=20),
            mode_args=("--mode", "sample", "--samples", "200"),
            check=_check_estimates(exact_horizon=6),
            failing_exits=frozenset({1, 3}),
        ),
    )
}


def read_bounds(text: str) -> list:
    """Rows of bounds.csv as dicts."""
    return list(csv.DictReader(text.splitlines()))


def check_bounds_csv(rows: list, exit_code: int) -> list:
    """Each row's pass flag must follow from its margin, and exit code 2
    must appear exactly when some row fails."""
    problems = []
    failing = 0
    for row in rows:
        expected = float(row["margin"]) >= -TOL
        if row["pass"] not in ("true", "false") or (row["pass"] == "true") != expected:
            problems.append(f"bounds.csv row {row['bound_id']}({row['times']}) flag {row['pass']}")
        failing += row["pass"] == "false"
    if (failing > 0) != (exit_code == 2):
        problems.append(f"exit code {exit_code} with {failing} failing bound rows")
    return problems
