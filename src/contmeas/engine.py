"""Trajectory engine: exhaustive enumeration of the outcome tree and seeded
Monte-Carlo sampling.

A trajectory is one (letter, outcome string) path. Along each path the
engine carries the unnormalized conditional state of the system, plus one
parallel unnormalized state per reference time s, seeded with the a-priori
state when the walk passes depth s and pushed through the same outcome maps
afterwards. The parallel state at time t depends only on the outcomes
observed after s, which is what the outcome-only conditioning requires.

All probabilities are plain probabilities under the physical law; the
uniform reference-measure densities differ from them by constant factors
that cancel in every information functional (see the model module).

Emission order is deterministic: letters ascending, outcome labels in
sorted order, depth first. Zero-probability branches are pruned, never
normalized.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import BudgetExceeded, NotPositiveSemidefinite, NumericRangeError
from .model import Check, CheckReport, MeasurementModel, TimeGrid
from .quantum import DensityOperator, quantum_relative_entropy

# A branch is pruned when its trace drops below this fraction of its parent.
PRUNE_REL_TOL = 1e-14
# Default cap on letters x outcome strings for exhaustive enumeration.
DEFAULT_LEAF_BUDGET = 10**7
# Distinct sampled paths cached per sample_trajectories call.
SAMPLE_MEMO_CAP = 100_000


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One enumerated or sampled trajectory with all attached states.

    prob_at[t] is the probability mass of (letter, outcomes up to t);
    incr_prob[(s, t)] the mass of the outcome increments s+1..t alone,
    computed from the a-priori state at s. The *_term caches hold the
    per-trajectory entropic contributions so that report building never
    re-decomposes a matrix.
    """

    letter: int
    outcomes: tuple
    prob_at: dict
    aposteriori: dict  # t -> DensityOperator (state given letter and outcomes)
    conditioned: dict  # (s, t) -> DensityOperator (state given outcomes after s)
    incr_prob: dict  # (s, t) -> float
    entropy: dict  # t -> S_q(aposteriori[t])
    cond_entropy: dict  # (s, t) -> S_q(conditioned[(s, t)])
    chi_term: dict  # (s, t) -> S_q(aposteriori[t] | conditioned[(s, t)])
    chi_at_term: dict  # t -> S_q(aposteriori[t] | a-priori state at t)

    @property
    def prob(self) -> float:
        return self.prob_at[max(self.prob_at)]


def format_outcomes(outcomes) -> str:
    if all(len(label) == 1 for label in outcomes):
        return "".join(outcomes)
    return "|".join(outcomes)


def _path_name(letter, outcomes, t) -> str:
    return f"trajectory (letter {letter}, outcomes {format_outcomes(outcomes)!r}, time {t})"


def _letter_roots(model: MeasurementModel) -> list:
    """Root of each letter's walk: prior weight times the Hermitian part of
    its state. Their sum is the initial a-priori state."""
    return [
        p * ((state + state.conj().T) / 2.0)
        for p, state in zip(model.ensemble.prior, model.ensemble.states)
    ]


def compute_a_priori(model: MeasurementModel, grid: TimeGrid) -> dict:
    """A-priori states eta_t = average over letters and all outcomes, as a
    dict from each record time t to its DensityOperator."""
    record_set = set(grid.record_times)
    states = {}
    current = sum(_letter_roots(model))
    if 0 in record_set:
        states[0] = DensityOperator.from_matrix(current)
    for step in range(1, model.horizon + 1):
        current = model.instrument_at(step).apply_total(current)
        if step in record_set:
            states[step] = DensityOperator.from_matrix(current)
    return states


def _path_mass(matrix) -> float:
    """Trace of an unnormalized path state, refused when too small to divide by."""
    mass = float(np.trace(matrix).real)
    if not mass >= sys.float_info.min:
        raise NumericRangeError(f"path mass {mass!r} is below the smallest normal float")
    return mass


def _record_time_data(t, main, refs, eta, record):
    """Record everything attached to time t into fresh copies of the
    per-path dicts (copy-on-write so subtree siblings never alias)."""
    (prob_at, apost, cond, incrp, ent, cent, chit, chiat) = record
    trace = _path_mass(main)
    rho = DensityOperator.from_matrix(main / trace)
    eta_t = eta[t]
    prob_at = {**prob_at, t: trace}
    apost = {**apost, t: rho}
    ent = {**ent, t: rho.entropy}
    chiat = {**chiat, t: quantum_relative_entropy(rho, eta_t)}
    cond = dict(cond)
    incrp = dict(incrp)
    cent = dict(cent)
    chit = dict(chit)
    for s, ref_matrix in refs.items():
        if s == t:
            varrho = eta_t  # freshly seeded track: exactly the a-priori state
            weight = 1.0
        else:
            weight = _path_mass(ref_matrix)
            varrho = DensityOperator.from_matrix(ref_matrix / weight)
        cond[(s, t)] = varrho
        incrp[(s, t)] = weight
        cent[(s, t)] = varrho.entropy
        chit[(s, t)] = quantum_relative_entropy(rho, varrho)
    return (prob_at, apost, cond, incrp, ent, cent, chit, chiat)


_EMPTY_RECORD = ({}, {}, {}, {}, {}, {}, {}, {})


class _Walk:
    """What enumeration and sampling share: the letter roots, and the step
    taken at every node of a path."""

    def __init__(self, model: MeasurementModel, grid: TimeGrid, apriori: Optional[dict]):
        self.model = model
        self.eta = apriori if apriori is not None else compute_a_priori(model, grid)
        self.roots = _letter_roots(model)
        self.record_set = set(grid.record_times)
        self.ref_set = set(grid.reference_times)

    def visit(self, letter, outcomes, t, main, refs, record):
        """Seed the reference track of time t and attach the record-time
        data; an error names the trajectory. Returns (refs, record)."""
        if t in self.ref_set and t not in refs:
            refs = {**refs, t: self.eta[t].matrix}
        if t in self.record_set:
            try:
                record = _record_time_data(t, main, refs, self.eta, record)
            except (NotPositiveSemidefinite, NumericRangeError) as exc:
                raise type(exc)(f"{_path_name(letter, outcomes, t)}: {exc}") from exc
        return refs, record

    def replay(self, letter, outcomes) -> TrajectoryRecord:
        """Rebuild the full record for a known path (no randomness involved)."""
        main = self.roots[letter]
        refs = {}
        record = _EMPTY_RECORD
        for t in range(self.model.horizon + 1):
            refs, record = self.visit(letter, outcomes, t, main, refs, record)
            if t == self.model.horizon:
                break
            kraus = self.model.instrument_at(t + 1).map_for(outcomes[t])
            main = kraus.apply(main)
            refs = {s: kraus.apply(m) for s, m in refs.items()}
        return TrajectoryRecord(letter, outcomes, *record)


def enumerate_trajectories(
    model: MeasurementModel,
    grid: TimeGrid,
    apriori: Optional[dict] = None,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> Iterator[TrajectoryRecord]:
    """Depth-first walk over all (letter, outcome string) paths.

    Yields one record per positive-probability leaf; the emitted
    probabilities sum to 1 up to the pruning tolerance. Raises
    BudgetExceeded before doing any work when the leaf count is too large.
    """
    leaves = model.leaf_count()
    if leaves > budget:
        raise BudgetExceeded(f"{leaves} leaves exceed the budget of {budget}")
    walk = _Walk(model, grid, apriori)
    horizon = model.horizon

    for letter, (p, root) in enumerate(zip(model.ensemble.prior, walk.roots)):
        if p <= 0.0:
            continue
        # stack entries: (depth, main matrix, ref matrices, record dicts, outcomes)
        stack = [(0, root, {}, _EMPTY_RECORD, ())]
        while stack:
            t, main, refs, record, outcomes = stack.pop()
            refs, record = walk.visit(letter, outcomes, t, main, refs, record)
            if t == horizon:
                yield TrajectoryRecord(letter, outcomes, *record)
                continue
            instrument = model.instrument_at(t + 1)
            parent_trace = float(np.trace(main).real)
            children = []
            for label, kraus in zip(instrument.outcomes, instrument.maps):
                child = kraus.apply(main)
                if float(np.trace(child).real) < PRUNE_REL_TOL * parent_trace:
                    continue
                child_refs = {s: kraus.apply(m) for s, m in refs.items()}
                children.append((t + 1, child, child_refs, record, outcomes + (label,)))
            stack.extend(reversed(children))


def sample_trajectories(
    model: MeasurementModel,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    apriori: Optional[dict] = None,
) -> Iterator[TrajectoryRecord]:
    """Draw trajectories under the physical law; deterministic in the seed.

    The letter is drawn from the prior, then each outcome with probability
    equal to the trace its Kraus map leaves on the current state. Records
    carry the same attached states as enumeration, with prob_at holding the
    true path probability (not the 1/N estimator weight). A record is a
    pure function of its path, so repeated paths are served from a memo;
    the random stream never depends on the memo. Raises NumericRangeError
    when a path's mass falls below the smallest normal float.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    walk = _Walk(model, grid, apriori)
    rng = np.random.default_rng(seed)
    prior = model.ensemble.prior
    prior_cum = np.cumsum(prior / prior.sum())
    effects = [
        [km.normalization() for km in model.instrument_at(step).maps]
        for step in range(1, model.horizon + 1)
    ]
    memo = {}
    for _ in range(n_samples):
        letter = int(np.searchsorted(prior_cum, rng.random(), side="right"))
        letter = min(letter, len(prior) - 1)
        main = walk.roots[letter]
        outcomes = ()
        for t in range(model.horizon):
            instrument = model.instrument_at(t + 1)
            weights = [max(0.0, float(np.trace(main @ e).real)) for e in effects[t]]
            total = sum(weights)
            if not total >= sys.float_info.min:
                raise NumericRangeError(
                    f"{_path_name(letter, outcomes, t)}: outcome weights sum to {total!r}, "
                    "below the smallest normal float"
                )
            u = rng.random() * total
            cum = 0.0
            pick = len(weights) - 1
            for v, w in enumerate(weights):
                cum += w
                if u <= cum:
                    pick = v
                    break
            main = instrument.maps[pick].apply(main)
            outcomes = outcomes + (instrument.outcomes[pick],)
        key = (letter, outcomes)
        record = memo.get(key)
        if record is None:
            record = walk.replay(letter, outcomes)
            if len(memo) < SAMPLE_MEMO_CAP:
                memo[key] = record
        yield record


# ---------------------------------------------------------------------------
# Consistency checks over the enumerated table
# ---------------------------------------------------------------------------


class ConsistencyAccumulator:
    """Streaming verifier of the structural identities of the enumerated
    table: probability conservation, martingale marginals, measurability of
    the outcome-only states, a-priori averaging, map composition and the
    normalized-state recursion."""

    def __init__(self, model, grid, apriori, tol: float = 1e-9):
        self.model = model
        self.grid = grid
        self.eta = apriori
        self.tol = tol
        self.total_prob = 0.0
        # (alpha, outcomes up to t) -> (prob_t, rho_t matrix)
        self.prefix = {t: {} for t in grid.record_times}
        # (s, t) -> increments -> (incr_prob, conditioned matrix)
        self.incr = {pair: {} for pair in grid.pairs()}
        self.incr_dependence = 0.0
        self.composition = 0.0
        self.recursion = 0.0

    def add(self, rec: TrajectoryRecord) -> None:
        self.total_prob += rec.prob
        for t in self.grid.record_times:
            key = (rec.letter, rec.outcomes[:t])
            self.prefix[t][key] = (rec.prob_at[t], rec.aposteriori[t].matrix)
        for (s, t) in self.grid.pairs():
            z = rec.outcomes[s:t]
            entry = (rec.incr_prob[(s, t)], rec.conditioned[(s, t)].matrix)
            seen = self.incr[(s, t)].get(z)
            if seen is None:
                self.incr[(s, t)][z] = entry
            else:
                dev = max(
                    abs(seen[0] - entry[0]), float(np.linalg.norm(seen[1] - entry[1]))
                )
                self.incr_dependence = max(self.incr_dependence, dev)
        self._check_composition(rec)
        self._check_recursion(rec)

    def _steps_between(self, rec, s, t, matrix):
        out = matrix
        for step in range(s + 1, t + 1):
            inst = self.model.instrument_at(step)
            out = inst.map_for(rec.outcomes[step - 1]).apply(out)
        return out

    def _check_composition(self, rec) -> None:
        # conditioning r -> s, rescaling, then s -> t must match r -> t
        times = self.grid.record_times
        for r in self.grid.reference_times:
            laters = [t for t in times if t >= r]
            for s, t in zip(laters, laters[1:]):
                sigma_rs = rec.incr_prob[(r, s)] * rec.conditioned[(r, s)].matrix
                via = self._steps_between(rec, s, t, sigma_rs)
                direct = rec.incr_prob[(r, t)] * rec.conditioned[(r, t)].matrix
                self.composition = max(
                    self.composition, float(np.linalg.norm(via - direct))
                )

    def _check_recursion(self, rec) -> None:
        times = self.grid.record_times
        for s, t in zip(times, times[1:]):
            pushed = self._steps_between(rec, s, t, rec.aposteriori[s].matrix)
            trace = float(np.trace(pushed).real)
            if trace <= 0.0:
                self.recursion = max(self.recursion, 1.0)
                continue
            dev = float(np.linalg.norm(pushed / trace - rec.aposteriori[t].matrix))
            self.recursion = max(self.recursion, dev)

    def finalize(self) -> CheckReport:
        """One check per identity; each margin is minus its residual."""
        checks = [Check("total-probability", -abs(self.total_prob - 1.0), self.tol)]
        times = self.grid.record_times
        for i, s in enumerate(times):
            for t in times[i + 1 :]:
                grouped = {}
                for (letter, xs), (prob, _) in self.prefix[t].items():
                    gkey = (letter, xs[:s])
                    grouped[gkey] = grouped.get(gkey, 0.0) + prob
                residual = max(
                    (
                        abs(total - self.prefix[s][gkey][0])
                        for gkey, total in grouped.items()
                    ),
                    default=0.0,
                )
                checks.append(Check("martingale", -residual, self.tol, (s, t)))
        for (s, t) in self.grid.pairs():
            table = self.incr[(s, t)]
            checks.append(
                Check(
                    "increment-total",
                    -abs(sum(w for w, _ in table.values()) - 1.0),
                    self.tol,
                    (s, t),
                )
            )
            residual = 0.0
            sums = {}
            for (letter, xs), (prob, rho) in self.prefix[t].items():
                z = xs[s:t]
                mass, acc = sums.get(z, (0.0, None))
                acc = prob * rho if acc is None else acc + prob * rho
                sums[z] = (mass + prob, acc)
            for z, (mass, acc) in sums.items():
                incr_w, cond_matrix = table[z]
                residual = max(residual, abs(mass - incr_w))
                if mass > 0.0:
                    residual = max(
                        residual, float(np.linalg.norm(acc / mass - cond_matrix))
                    )
            checks.append(Check("measurability", -residual, self.tol, (s, t)))
        for t in times:
            acc = np.zeros((self.model.dim, self.model.dim), dtype=complex)
            for prob, rho in self.prefix[t].values():
                acc += prob * rho
            residual = float(np.linalg.norm(acc - self.eta[t].matrix))
            checks.append(Check("apriori-mean", -residual, self.tol, (t,)))
        checks.append(Check("increment-dependence", -self.incr_dependence, 1e-12))
        checks.append(Check("composition", -self.composition, 1e-12))
        checks.append(Check("state-recursion", -self.recursion, 1e-10))
        return CheckReport(checks=tuple(checks))


def consistency_checks(
    model: MeasurementModel,
    grid: TimeGrid,
    records: Optional[Iterable[TrajectoryRecord]] = None,
    apriori: Optional[dict] = None,
    tol: float = 1e-9,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> CheckReport:
    """Run all structural checks over the enumerated table (requires
    enumeration to be feasible within the budget)."""
    eta = apriori if apriori is not None else compute_a_priori(model, grid)
    if records is None:
        records = enumerate_trajectories(model, grid, apriori=eta, budget=budget)
    acc = ConsistencyAccumulator(model, grid, eta, tol=tol)
    for rec in records:
        acc.add(rec)
    return acc.finalize()
