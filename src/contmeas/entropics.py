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

from .engine import RecordBlock, TrajectoryRecord, runs
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


def _index_rows(rows: list, width: int) -> np.ndarray:
    """Integer index columns of ``rows`` as the rows of a (width, n) array."""
    return np.array(rows, dtype=int).reshape(-1, width).T


class EntropyReportBuilder:
    """One-pass accumulator of every report entry over a record stream.

    With ``mode="enumerate"`` records are weighted by their exact
    probability; with ``mode="sample"`` a record (one distinct path) is
    weighted by its draw count, each draw counting 1/N, and the
    accumulators also produce standard errors. Each entry is a weighted
    streaming mean and M2 (a frequency weight k gives the mean and m2 of k
    unit updates in exact arithmetic) with an infinity flag for diverging
    relative-entropy contributions, which weigh 0 in their column. The
    entries are kept as columns in ``keys`` order and updated together, a
    run of records of one block at a time (see ``add`` and engine.runs).
    ``count`` counts draws in sample mode and records in enumerate mode,
    weight 0 or not. ``add`` holds none of a run once it returns.
    """

    def __init__(self, grid: TimeGrid, mode: str = "enumerate"):
        if mode not in ("enumerate", "sample"):
            raise ValueError(f"unknown mode {mode!r}")
        self.grid = grid
        self.mode = mode
        self.count = 0  # draws added (the se sample size)
        times = grid.record_times
        pairs = grid.pairs()
        # the keys kind by kind, Ic and chi_bar interleaved: the columns of
        # each kind are one slice
        keys = [(kind, s, t) for s, t in pairs for kind in ("Ic", "chi_bar")]
        self._cols = {"Ic": slice(0, len(keys), 2), "chi_bar": slice(1, len(keys), 2)}
        iq = [(s, t) for i, s in enumerate(times) for t in times[i:]]
        iq_cond = []
        for r in grid.reference_times:
            laters = [t for t in times if t >= r]
            iq_cond += [(r, s, t) for i, s in enumerate(laters) for t in laters[i:]]
        for kind, family in (("chi_at", [(t,) for t in times]), ("Iq", iq), ("Iq_cond", iq_cond)):
            self._cols[kind] = slice(len(keys), len(keys) + len(family))
            keys += [(kind,) + entry for entry in family]
        self.keys = tuple(keys)
        self._times = times
        self._pairs = pairs
        # indices into the per-record time and pair vectors, in column order
        at = {t: i for i, t in enumerate(times)}
        pair_at = {p: i for i, p in enumerate(pairs)}
        self._ic_src = _index_rows([(at[t], at[s], pair_at[(s, t)]) for s, t in pairs], 3)
        self._iq_src = _index_rows([(at[s], at[t]) for s, t in iq], 2)
        self._iq_cond_src = _index_rows(
            [(pair_at[(r, s)], pair_at[(r, t)]) for r, s, t in iq_cond], 2
        )
        n = len(keys)
        self.total_weight = np.zeros(n)
        self.mean = np.zeros(n)
        self.m2 = np.zeros(n)
        self.infinite = np.zeros(n, dtype=bool)

    def _values(self, block) -> np.ndarray:
        """Every entry's contribution of each row of a block of records,
        (n, len(keys)) in ``keys`` order."""
        block.check_grid(self._times, self._pairs)
        log_prob, states, conditioned = block.log_prob, block.states, block.conditioned
        log_incr, cond_entropy = states.log_mass[conditioned], states.entropy[conditioned]
        cols = self._cols
        values = np.empty((len(block.prob_at), len(self.keys)))
        t, r, p = self._ic_src
        values[:, cols["Ic"]] = log_prob[:, t] - log_prob[:, r] - log_incr[:, p]
        values[:, cols["chi_bar"]] = block.chi_term
        values[:, cols["chi_at"]] = block.chi_at_term
        s, t = self._iq_src
        values[:, cols["Iq"]] = block.entropy[:, s] - block.entropy[:, t]
        a, b = self._iq_cond_src
        values[:, cols["Iq_cond"]] = cond_entropy[:, a] - cond_entropy[:, b]
        return values

    def add(self, block: RecordBlock, rows: np.ndarray, counts: np.ndarray) -> None:
        """Fold a run of records, the rows ``rows`` of ``block`` with draw
        counts ``counts``: the run's weight, weighted mean and M2 per column
        are merged into the report's (Chan, Golub & LeVeque 1979, in West's
        form). A one-row run, as every sampled record is, merges with M2 0:
        West's update of its row, bit for bit."""
        self.count += int(counts.sum())
        weights = block.prob_at[rows, -1] if self.mode == "enumerate" else counts * 1.0
        positive = weights > 0.0
        if not positive.any():
            return
        rows, weights = rows[positive], weights[positive]
        values = self._values(block)[rows]
        infinite = np.isinf(values)
        self.infinite |= infinite.any(axis=0)
        # an infinite entry weighs 0 in its column
        weights = np.where(infinite, 0.0, weights[:, np.newaxis])
        if len(rows) == 1:
            run_weight, run_mean, run_m2 = weights[0], values[0], np.zeros(len(self.keys))
        else:
            values = np.where(infinite, 0.0, values)
            run_weight = weights.sum(axis=0)
            run_mean = (weights * values).sum(axis=0)
            run_mean /= np.where(run_weight > 0.0, run_weight, 1.0)
            run_m2 = (weights * (values - run_mean) ** 2).sum(axis=0)
        # a column the run gives no weight keeps its entries
        cols = run_weight > 0.0
        weight, run_mean = run_weight[cols], run_mean[cols]
        total = self.total_weight[cols] + weight
        mean = self.mean[cols]
        delta = run_mean - mean
        mean = mean + (weight / total) * delta
        self.m2[cols] += weight * delta * (run_mean - mean) + run_m2[cols]
        self.mean[cols] = mean
        self.total_weight[cols] = total

    def finalize(self) -> EntropyReport:
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
    for run in runs(records):
        builder.add(*run)
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
            prob_at, state, outcomes = rec.prob_at, rec.aposteriori[s], rec.outcomes
            dim = state.dim
            joint_key = (rec.letter, outcomes[:s])
            if joint_key not in joint:
                joint[joint_key] = prob_at[s] * state.matrix
            marginal[(rec.letter, outcomes[:r])] = prob_at[r]
            increments[outcomes[r:s]] = (
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


def report_size(grid: TimeGrid, bounds: bool = False, pure_preserving: bool = False) -> int:
    """The number of report entries, plus the rows check_bounds makes when
    ``bounds``, worked out from the grid's times without listing a key."""
    times, refs = grid.record_times, grid.reference_times
    n = len(times)
    # per reference time, the number of record times at or after it
    later = (n - np.searchsorted(times, refs)).tolist()
    pairs = sum(later)
    triples = sum(math.comb(m + 1, 2) for m in later)  # (r, s, t), r <= s <= t
    size = 2 * pairs + n + math.comb(n + 1, 2) + triples
    if bounds:
        # B1, B2 and B5 per triple, B3 per pair, B4, and B6 per (r, s, t)
        # and per (u, r, s, t)
        size += 3 * triples + pairs + n * (0 in refs) + math.comb(n + 2, 3)
        size += sum(math.comb(m + 2, 3) for m in later)
        if pure_preserving:
            # B7-mono per (u, r) and adjacent times after r; B7-nonneg, B7-zero
            size += sum(math.comb(m, 2) for m in later) + (n + 1) * (0 in refs)
    return size


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
        times = ",".join(str(t) for t in c.times)
        sides = [repr(value * scale) for value in (c.lhs, c.rhs, c.margin)]
        writer.writerow([c.name, times, *sides, "true" if c.passed else "false"])
    return len(report.checks)
