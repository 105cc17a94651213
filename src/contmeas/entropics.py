"""Information functionals over trajectory streams and the bound audit.

Every quantity is a trajectory-local expectation: each record contributes a
log-probability difference or an entropy term, so a single pass builds the
full report for both exhaustive enumeration (exact weights) and Monte-Carlo
sampling (draw counts as weights, with standard errors). Quantities:

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
from .quantum import HybridRelativeEntropy, hybrid_relative_entropy

LN2 = math.log(2.0)
KINDS = ("Ic", "chi_bar", "chi_at", "Iq", "Iq_cond")


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


def _logs(a: np.ndarray) -> np.ndarray:
    """math.log of every entry, once per distinct value (np.log may round
    differently in the last bit)."""
    values, inverse = np.unique(a, return_inverse=True)
    return np.array([math.log(x) for x in values.tolist()])[inverse].reshape(a.shape)


def _index_rows(rows: list, width: int) -> np.ndarray:
    """Integer index columns of ``rows`` as the rows of a (width, n) array."""
    return np.array(rows, dtype=int).reshape(-1, width).T


class EntropyReportBuilder:
    """One-pass accumulator of every report entry over a record stream.

    With ``mode="enumerate"`` records are weighted by their exact
    probability; with ``mode="sample"`` a record (one distinct path) is
    weighted by its draw count, each draw counting 1/N, and the
    accumulators also produce standard errors. Each entry is a weighted
    streaming mean and variance (West's update; a frequency weight k gives
    the mean and m2 of k unit updates in exact arithmetic) with an infinity
    flag for diverging relative-entropy contributions; the entries are kept
    as columns in ``keys`` order and updated together. ``count`` counts
    draws in sample mode and records in enumerate mode.
    """

    def __init__(self, grid: TimeGrid, mode: str = "enumerate"):
        if mode not in ("enumerate", "sample"):
            raise ValueError(f"unknown mode {mode!r}")
        self.grid = grid
        self.mode = mode
        self.count = 0  # draws added (the se sample size)
        times = grid.record_times
        pairs = grid.pairs()
        keys = []
        for (s, t) in pairs:
            keys += [("Ic", s, t), ("chi_bar", s, t)]
        keys += [("chi_at", t) for t in times]
        for i, s in enumerate(times):
            keys += [("Iq", s, t) for t in times[i:]]
        for r in grid.reference_times:
            laters = [t for t in times if t >= r]
            for i, s in enumerate(laters):
                keys += [("Iq_cond", r, s, t) for t in laters[i:]]
        self.keys = tuple(keys)
        self._times = times
        self._pairs = pairs
        kinds = np.array([key[0] for key in keys])
        self._cols = {kind: np.flatnonzero(kinds == kind) for kind in KINDS}
        # indices into the per-record time and pair vectors, in column order
        at = {t: i for i, t in enumerate(times)}
        pair_at = {p: i for i, p in enumerate(pairs)}
        self._ic_src = _index_rows([(at[t], at[s], pair_at[(s, t)]) for s, t in pairs], 3)
        self._iq_src = _index_rows([(at[k[1]], at[k[2]]) for k in keys if k[0] == "Iq"], 2)
        self._iq_cond_src = _index_rows(
            [(pair_at[k[1:3]], pair_at[(k[1], k[3])]) for k in keys if k[0] == "Iq_cond"], 2
        )
        n = len(keys)
        self.total_weight = np.zeros(n)
        self.mean = np.zeros(n)
        self.m2 = np.zeros(n)
        self.infinite = np.zeros(n, dtype=bool)
        self._block, self._block_values = None, None  # the last block seen

    def _values(self, block) -> np.ndarray:
        """Every entry's contribution of each row of a block of records,
        (n, len(keys)) in ``keys`` order."""
        block.check_grid(self._times, self._pairs)
        log_prob = _logs(block.prob_at)
        log_incr = _logs(block.incr_prob)
        cols = self._cols
        values = np.empty((len(block.prob_at), len(self.keys)))
        t, r, p = self._ic_src
        values[:, cols["Ic"]] = log_prob[:, t] - log_prob[:, r] - log_incr[:, p]
        values[:, cols["chi_bar"]] = block.chi_term
        values[:, cols["chi_at"]] = block.chi_at_term
        s, t = self._iq_src
        values[:, cols["Iq"]] = block.entropy[:, s] - block.entropy[:, t]
        a, b = self._iq_cond_src
        values[:, cols["Iq_cond"]] = block.cond_entropy[:, a] - block.cond_entropy[:, b]
        return values

    def add(self, rec: TrajectoryRecord) -> None:
        weight = rec.prob if self.mode == "enumerate" else rec.count
        self.count += rec.count
        if weight <= 0.0:
            return
        if rec.block is not self._block:
            self._block, self._block_values = rec.block, self._values(rec.block)
        values = self._block_values[rec.row]
        infinite = np.isinf(values)
        cols = slice(None)
        if infinite.any():
            self.infinite |= infinite
            cols = ~infinite
            values = values[cols]
        total = self.total_weight[cols] + weight
        mean = self.mean[cols]
        delta = values - mean
        mean = mean + (weight / total) * delta
        self.m2[cols] += weight * delta * (values - mean)
        self.mean[cols] = mean
        self.total_weight[cols] = total

    def finalize(self) -> EntropyReport:
        self._block, self._block_values = None, None
        means = np.where(self.infinite, math.inf, self.mean).tolist()
        errors = np.zeros(len(self.keys))
        if self.mode == "sample" and self.count >= 2:
            variance = self.m2 / (self.count - 1)
            errors = np.sqrt(np.where(0.0 > variance, 0.0, variance) / self.count)
            errors[self.infinite] = 0.0
        tables = {kind: {} for kind in KINDS}
        se = {}
        for key, mean, error in zip(self.keys, means, errors.tolist()):
            kind = key[0]
            times = key[1] if kind == "chi_at" else key[1:]
            tables[kind][times] = mean
            se[key] = error
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
            prob_at, state = rec.prob_at, rec.aposteriori[s]
            dim = state.dim
            joint_key = (rec.letter, rec.outcomes[:s])
            if joint_key not in joint:
                joint[joint_key] = prob_at[s] * state.matrix
            marginal[(rec.letter, rec.outcomes[:r])] = prob_at[r]
            increments[rec.outcomes[r:s]] = (
                rec.incr_prob[(r, s)],
                rec.conditioned[(r, s)].matrix,
            )
    except KeyError as exc:
        raise GridMiss(f"time {exc.args[0]!r} is not on the record/reference grid") from exc
    zero = np.zeros((dim, dim), dtype=complex)
    side1 = np.array(
        [joint.get((letter, prefix + z), zero) for letter, prefix in marginal for z in increments]
    )
    side2 = np.array(
        [prob_r * w * m for prob_r in marginal.values() for w, m in increments.values()]
    )
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
    for kind in KINDS:
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
