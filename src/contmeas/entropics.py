"""Information functionals over trajectory streams and the bound audit.

Every quantity is a trajectory-local expectation: each record contributes a
log-probability difference or an entropy term, so a single pass builds the
full report for both exhaustive enumeration (exact weights) and Monte-Carlo
sampling (uniform weights with standard errors). Quantities:

* ``Ic(r, t)``  mutual information between (letter, outcomes up to r) and
  the outcome increments r+1..t;
* ``chi_bar(s, t)``  mean relative entropy of the a-posteriori state at t
  against the state conditioned only on outcomes after s;
* ``chi_at(t)``  the Holevo quantity of the time-t a-posteriori ensemble;
* ``Iq(s, t)``  mean entropy decrease of a-posteriori states;
* ``Iq_cond(r, s, t)``  the same for the outcome-only conditioned states.

``check_bounds`` audits the inequalities these quantities satisfy (data
processing for Ic, the decrease of chi_bar, the strengthened Holevo bound,
the quantum-gain inequality, telescoping additivity, and the monotonicity
special to purity-preserving measurements), recording one signed margin
per time tuple; infinities are compared in the extended reals.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import TrajectoryRecord
from .errors import GridMiss
from .model import Check, CheckReport, TimeGrid
from .quantum import HybridRelativeEntropy, UnnormalizedState, hybrid_relative_entropy

LN2 = math.log(2.0)


class MeanAccumulator:
    """Weighted streaming mean and variance (West's update), with an
    infinity flag for diverging relative-entropy contributions."""

    __slots__ = ("count", "total_weight", "_mean", "m2", "infinite")

    def __init__(self):
        self.count = 0
        self.total_weight = 0.0
        self._mean = 0.0
        self.m2 = 0.0
        self.infinite = False

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0.0:
            return
        self.count += 1
        if math.isinf(value):
            self.infinite = True
            return
        self.total_weight += weight
        delta = value - self._mean
        self._mean += (weight / self.total_weight) * delta
        self.m2 += weight * delta * (value - self._mean)

    def merge(self, other: "MeanAccumulator") -> None:
        if other.total_weight == 0.0 and not other.infinite:
            self.count += other.count
            return
        self.infinite = self.infinite or other.infinite
        self.count += other.count
        if other.total_weight == 0.0:
            return
        total = self.total_weight + other.total_weight
        delta = other._mean - self._mean
        self._mean += delta * (other.total_weight / total)
        self.m2 += other.m2 + delta * delta * self.total_weight * other.total_weight / total
        self.total_weight = total

    @property
    def mean(self) -> float:
        if self.infinite:
            return math.inf
        return self._mean

    def standard_error(self) -> float:
        """Standard error of the mean for unit-weight (sampling) streams."""
        if self.infinite or self.count < 2:
            return 0.0
        variance = self.m2 / (self.count - 1)
        return math.sqrt(max(variance, 0.0) / self.count)


def _ic_contribution(rec: TrajectoryRecord, r: int, t: int) -> float:
    return (
        math.log(rec.prob_at[t]) - math.log(rec.prob_at[r]) - math.log(rec.incr_prob[(r, t)])
    )


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """Time-grid tables of all information quantities plus standard errors
    (zero in enumeration mode)."""

    grid: TimeGrid
    mode: str  # "enumerate" | "sample"
    count: int
    Ic: dict  # (r, t) -> nats
    chi_bar: dict  # (s, t) -> nats
    chi_at: dict  # t -> nats
    Iq: dict  # (s, t) -> nats
    Iq_cond: dict  # (r, s, t) -> nats
    se: dict  # full key, e.g. ("Ic", r, t) -> standard error


class EntropyReportBuilder:
    """One-pass accumulator of every report entry over a record stream.

    With ``mode="enumerate"`` records are weighted by their exact
    probability; with ``mode="sample"`` every record counts 1/N and the
    accumulators also produce standard errors. Builders for disjoint
    subtree streams can be merged.
    """

    def __init__(self, grid: TimeGrid, mode: str = "enumerate"):
        if mode not in ("enumerate", "sample"):
            raise ValueError(f"unknown mode {mode!r}")
        self.grid = grid
        self.mode = mode
        self.count = 0
        self.acc = {}
        records = grid.record_times
        for (s, t) in grid.pairs():
            self.acc[("Ic", s, t)] = MeanAccumulator()
            self.acc[("chi_bar", s, t)] = MeanAccumulator()
        for t in records:
            self.acc[("chi_at", t)] = MeanAccumulator()
        for i, s in enumerate(records):
            for t in records[i:]:
                self.acc[("Iq", s, t)] = MeanAccumulator()
        for r in grid.reference_times:
            laters = [t for t in records if t >= r]
            for i, s in enumerate(laters):
                for t in laters[i:]:
                    self.acc[("Iq_cond", r, s, t)] = MeanAccumulator()

    def add(self, rec: TrajectoryRecord) -> None:
        weight = rec.prob if self.mode == "enumerate" else 1.0
        self.count += 1
        acc = self.acc
        for key, a in acc.items():
            kind = key[0]
            if kind == "Ic":
                a.add(_ic_contribution(rec, key[1], key[2]), weight)
            elif kind == "chi_bar":
                a.add(rec.chi_term[(key[1], key[2])], weight)
            elif kind == "chi_at":
                a.add(rec.chi_at_term[key[1]], weight)
            elif kind == "Iq":
                a.add(rec.entropy[key[1]] - rec.entropy[key[2]], weight)
            else:  # Iq_cond
                r, s, t = key[1], key[2], key[3]
                a.add(rec.cond_entropy[(r, s)] - rec.cond_entropy[(r, t)], weight)

    def merge(self, other: "EntropyReportBuilder") -> None:
        if set(self.acc) != set(other.acc) or self.mode != other.mode:
            raise ValueError("builders must share grid and mode to merge")
        self.count += other.count
        for key, a in self.acc.items():
            a.merge(other.acc[key])

    def finalize(self) -> EntropyReport:
        tables = {"Ic": {}, "chi_bar": {}, "chi_at": {}, "Iq": {}, "Iq_cond": {}}
        se = {}
        for key, a in self.acc.items():
            kind = key[0]
            times = key[1] if kind == "chi_at" else key[1:]
            tables[kind][times] = a.mean
            se[key] = a.standard_error() if self.mode == "sample" else 0.0
        return EntropyReport(
            grid=self.grid,
            mode=self.mode,
            count=self.count,
            Ic=tables["Ic"],
            chi_bar=tables["chi_bar"],
            chi_at=tables["chi_at"],
            Iq=tables["Iq"],
            Iq_cond=tables["Iq_cond"],
            se=se,
        )


def build_entropy_report(
    records: Iterable[TrajectoryRecord], grid: TimeGrid, mode: str = "enumerate"
) -> EntropyReport:
    builder = EntropyReportBuilder(grid, mode=mode)
    for rec in records:
        builder.add(rec)
    return builder.finalize()


def mutual_entropy_hybrid(records, r: int, s: int) -> HybridRelativeEntropy:
    """Mutual entropy of the joint time-s state against the product of its
    two marginals, computed as a hybrid relative entropy over the full
    product sample space (letter, outcomes up to r) x (increments r+1..s).
    Equals Ic(r, s) + chi_bar(r, s); the agreement of the two routes is a
    tested identity.

    Product atoms where the joint law vanishes get a zero first-side
    member: they contribute nothing to the entropy but carry the marginal
    mass that keeps the product side normalized.
    """
    joint = {}
    marginal = {}
    increments = {}
    dim = None
    try:
        for rec in records:
            dim = rec.aposteriori[s].dim
            joint_key = (rec.letter, rec.outcomes[:s])
            if joint_key not in joint:
                joint[joint_key] = rec.prob_at[s] * rec.aposteriori[s].matrix
            marginal[(rec.letter, rec.outcomes[:r])] = rec.prob_at[r]
            increments[rec.outcomes[r:s]] = (
                rec.incr_prob[(r, s)],
                rec.conditioned[(r, s)].matrix,
            )
    except KeyError as exc:
        raise GridMiss(f"time {exc.args[0]!r} is not on the record/reference grid") from exc
    zero = np.zeros((dim, dim), dtype=complex)
    side1 = []
    side2 = []
    for (letter, prefix), prob_r in marginal.items():
        for z, (incr_w, cond_matrix) in increments.items():
            side1.append(UnnormalizedState(matrix=joint.get((letter, prefix + z), zero)))
            side2.append(UnnormalizedState(matrix=prob_r * incr_w * cond_matrix))
    return hybrid_relative_entropy(side1, side2)


# ---------------------------------------------------------------------------
# Bound audit
# ---------------------------------------------------------------------------


def _extended_diff(a: float, b: float) -> float:
    """a - b in the extended reals where a dominating +inf on ``a`` wins."""
    if math.isinf(a):
        return math.inf
    if math.isinf(b):
        return -math.inf
    return a - b


def check_bounds(
    report: EntropyReport, tol: float = 1e-9, pure_preserving: bool = False
) -> CheckReport:
    """Evaluate every inequality on every ordered tuple of the grid.

    Margin convention: margin = (slack of the inequality), the minimum over
    the chained parts for compound statements; an entry passes iff its
    margin is at least -tol. Equality statements carry margin equal to
    minus the absolute residual.
    """
    checks = []
    grid = report.grid
    records = grid.record_times
    refs = grid.reference_times

    def emit(bound_id, times, lhs, rhs, margin):
        checks.append(Check(bound_id, margin, tol, times, lhs, rhs))

    for r in refs:
        laters = [t for t in records if t >= r]
        for i, s in enumerate(laters):
            for t in laters[i:]:
                ic_rs = report.Ic[(r, s)]
                ic_rt = report.Ic[(r, t)]
                ic_diff = ic_rt - ic_rs
                # B1: Ic grows with the observation window
                emit("B1", (r, s, t), ic_rs, ic_rt, ic_rt - ic_rs)
                # B2: the chi_bar decrease dominates the Ic increase
                rhs = _extended_diff(report.chi_bar[(r, s)], report.chi_bar[(r, t)])
                emit("B2", (r, s, t), ic_diff, rhs, min(_extended_diff(rhs, ic_diff), ic_diff))
                # B5: the conditioned quantum gain dominates the Ic increase
                rhs_q = report.Iq_cond[(r, s, t)] - report.Iq[(s, t)]
                emit("B5", (r, s, t), ic_diff, rhs_q, min(rhs_q - ic_diff, ic_diff))

    for s in refs:
        for t in (t for t in records if t >= s):
            # B3: Ic is bounded by how much of the Holevo quantity was used up
            lhs = report.Ic[(s, t)]
            rhs = _extended_diff(report.chi_at[s], report.chi_bar[(s, t)])
            emit("B3", (s, t), lhs, rhs, min(_extended_diff(rhs, lhs), lhs))

    if 0 in refs:
        for t in records:
            # B4: the plain Holevo bound
            lhs = report.Ic[(0, t)]
            rhs = report.chi_at[0]
            emit("B4", (0, t), lhs, rhs, _extended_diff(rhs, lhs))

    for i, r in enumerate(records):
        for j, s in enumerate(records[i:], start=i):
            for t in records[j:]:
                lhs = report.Iq[(r, s)] + report.Iq[(s, t)]
                rhs = report.Iq[(r, t)]
                emit("B6", (r, s, t), lhs, rhs, -abs(rhs - lhs))
    for u in refs:
        laters = [t for t in records if t >= u]
        for i, r in enumerate(laters):
            for j, s in enumerate(laters[i:], start=i):
                for t in laters[j:]:
                    lhs = report.Iq_cond[(u, r, s)] + report.Iq_cond[(u, s, t)]
                    rhs = report.Iq_cond[(u, r, t)]
                    emit("B6", (u, r, s, t), lhs, rhs, -abs(rhs - lhs))

    if pure_preserving:
        for u in refs:
            laters = [t for t in records if t >= u]
            for r in laters:
                window = [t for t in laters if t >= r]
                for t1, t2 in zip(window, window[1:]):
                    lhs = report.Iq_cond[(u, r, t1)]
                    rhs = report.Iq_cond[(u, r, t2)]
                    emit("B7-mono", (u, r, t1, t2), lhs, rhs, rhs - lhs)
        if 0 in refs:
            for t in records:
                value = report.Iq_cond[(0, 0, t)]
                emit("B7-nonneg", (0, 0, t), 0.0, value, value)
            emit(
                "B7-zero",
                (0, 0, 0),
                report.Iq_cond[(0, 0, 0)],
                0.0,
                -abs(report.Iq_cond[(0, 0, 0)]),
            )

    return CheckReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _scaled(value: float, scale: float):
    if math.isinf(value):
        return "inf"
    return value * scale


def report_to_json_dict(report: EntropyReport, units: str = "nats") -> dict:
    """JSON-ready mapping: quantity name -> {"r,t": {"value": x, "se": y}}.
    Values are nats unless ``units="bits"`` (then everything is divided by
    ln 2). Infinite values serialize as the string "inf"."""
    scale = 1.0 if units == "nats" else 1.0 / LN2
    out = {}
    for kind in ("Ic", "chi_bar", "chi_at", "Iq", "Iq_cond"):
        table = getattr(report, kind)
        entries = {}
        for times, value in table.items():
            if kind == "chi_at":
                key = str(times)
                se_key = (kind, times)
            else:
                key = ",".join(str(t) for t in times)
                se_key = (kind,) + times
            entries[key] = {
                "value": _scaled(value, scale),
                "se": report.se[se_key] * scale,
            }
        out[kind] = entries
    return out


def write_bounds_csv(report: CheckReport, stream, units: str = "nats") -> int:
    """CSV with columns (bound_id, times, lhs, rhs, margin, pass)."""
    scale = 1.0 if units == "nats" else 1.0 / LN2
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["bound_id", "times", "lhs", "rhs", "margin", "pass"])
    for c in report.checks:
        writer.writerow(
            [
                c.name,
                ",".join(str(t) for t in c.times),
                repr(c.lhs * scale if not math.isinf(c.lhs) else c.lhs),
                repr(c.rhs * scale if not math.isinf(c.rhs) else c.rhs),
                repr(c.margin * scale if not math.isinf(c.margin) else c.margin),
                "true" if c.passed else "false",
            ]
        )
    return len(report.checks)
