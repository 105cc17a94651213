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
from .quantum import DensityOperator, _first_false, relative_entropies

# A branch is pruned when its trace drops below this fraction of its parent.
PRUNE_REL_TOL = 1e-14
# Default cap on letters x outcome strings for exhaustive enumeration.
DEFAULT_LEAF_BUDGET = 10**7


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


def _node_states(live):
    """Masses and validated normalized states of a node's live stack (main
    state first, then the reference tracks in seeding order), checked in
    that order: each member's mass, then its state."""
    masses = np.trace(live, axis1=1, axis2=2).real
    n = _first_false(masses >= sys.float_info.min)
    batch = DensityOperator.from_stack(live[:n] / masses[:n, np.newaxis, np.newaxis])
    if n < len(masses):
        raise NumericRangeError(
            f"path mass {float(masses[n])!r} is below the smallest normal float"
        )
    return masses.tolist(), batch


def _record_time_data(t, stack, pairs, eta_t, eta_spectrum, record):
    """Record everything attached to time t into fresh copies of the
    per-path dicts (copy-on-write so subtree siblings never alias). The
    node's states come from one validated batch and their relative
    entropies from one pass; ``eta_spectrum`` is the (eigenvalues,
    eigenvectors) pair of the a-priori state ``eta_t``, and ``pairs``
    holds the (s, t) keys of the stack's tracks, shared by every record so
    that records do not each carry their own copies."""
    (prob_at, apost, cond, incrp, ent, cent, chit, chiat) = record
    # a track seeded at t is exactly the a-priori state: no batch member
    fresh = bool(pairs) and pairs[-1][0] == t
    masses, batch = _node_states(stack[: len(stack) - fresh])
    rho, *varrhos = batch.states
    # against eta_t first, then against each earlier-seeded track
    lam2 = batch.eigenvalues.copy()
    vec2 = batch.eigenvectors.copy()
    lam2[0], vec2[0] = eta_spectrum
    chis = relative_entropies(batch.eigenvalues[0], batch.eigenvectors[0], lam2, vec2).tolist()
    prob_at = {**prob_at, t: masses[0]}
    apost = {**apost, t: rho}
    ent = {**ent, t: rho.entropy}
    chiat = {**chiat, t: chis[0]}
    cond = dict(cond)
    incrp = dict(incrp)
    cent = dict(cent)
    chit = dict(chit)
    tracks = zip(pairs, varrhos, masses[1:], chis[1:])
    if fresh:
        tracks = [*tracks, (pairs[-1], eta_t, 1.0, chis[0])]
    for key, varrho, weight, chi in tracks:
        cond[key] = varrho
        incrp[key] = weight
        cent[key] = varrho.entropy
        chit[key] = chi
    return (prob_at, apost, cond, incrp, ent, cent, chit, chiat)


_EMPTY_RECORD = ({}, {}, {}, {}, {}, {}, {}, {})


class _Walk:
    """What enumeration and sampling share: the letter roots, and the step
    taken at every node of a path. A path's states travel as one
    (1 + k, d, d) stack: the main state, then one track per reference time
    passed so far, in seeding order."""

    def __init__(self, model: MeasurementModel, grid: TimeGrid, apriori: Optional[dict]):
        self.model = model
        self.eta = apriori if apriori is not None else compute_a_priori(model, grid)
        times = sorted(self.eta)
        batch = DensityOperator.from_stack([self.eta[t].matrix for t in times])
        self.eta_spectra = dict(zip(times, zip(batch.eigenvalues, batch.eigenvectors)))
        self.roots = _letter_roots(model)
        self.ref_set = set(grid.reference_times)
        self.pairs = {
            t: tuple((s, t) for s in grid.reference_times if s <= t) for t in grid.record_times
        }

    def visit(self, letter, outcomes, t, stack, record):
        """Seed the reference track of time t and attach the record-time
        data; an error names the trajectory. Returns (stack, record)."""
        if t in self.ref_set:
            stack = np.concatenate([stack, self.eta[t].matrix[np.newaxis]])
        if t in self.pairs:
            try:
                record = _record_time_data(
                    t, stack, self.pairs[t], self.eta[t], self.eta_spectra[t], record
                )
            except (NotPositiveSemidefinite, NumericRangeError) as exc:
                raise type(exc)(f"{_path_name(letter, outcomes, t)}: {exc}") from exc
        return stack, record

    def replay(self, letter, outcomes) -> TrajectoryRecord:
        """Rebuild the full record for a known path (no randomness involved)."""
        stack = self.roots[letter][np.newaxis]
        record = _EMPTY_RECORD
        for t in range(self.model.horizon + 1):
            stack, record = self.visit(letter, outcomes, t, stack, record)
            if t == self.model.horizon:
                break
            stack = self.model.instrument_at(t + 1).map_for(outcomes[t]).apply(stack)
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
        # pending entries: (depth, state stack, record dicts, outcomes)
        pending = [(0, root[np.newaxis], _EMPTY_RECORD, ())]
        while pending:
            t, stack, record, outcomes = pending.pop()
            stack, record = walk.visit(letter, outcomes, t, stack, record)
            if t == horizon:
                yield TrajectoryRecord(letter, outcomes, *record)
                continue
            instrument = model.instrument_at(t + 1)
            parent_trace = float(np.trace(stack[0]).real)
            children = []
            for label, kraus in zip(instrument.outcomes, instrument.maps):
                child = kraus.apply(stack)
                if float(np.trace(child[0]).real) < PRUNE_REL_TOL * parent_trace:
                    continue
                children.append((t + 1, child, record, outcomes + (label,)))
            pending.extend(reversed(children))


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
    pure function of its path, so all paths are drawn first and each
    distinct path is replayed once: the memo keeps a record only until the
    last draw of its path, so memory holds just the records a later draw
    still needs. The random stream never depends on the memo. Raises
    NumericRangeError when a path's mass falls below the smallest normal
    float.
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
    paths = []
    last = {}  # path -> index of its last draw
    for i in range(n_samples):
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
        path = (letter, outcomes)
        paths.append(path)
        last[path] = i
    memo = {}
    for i, path in enumerate(paths):
        record = memo.pop(path, None)
        if record is None:
            record = walk.replay(*path)
        if last[path] > i:
            memo[path] = record
        yield record


# ---------------------------------------------------------------------------
# Consistency checks over the enumerated table
# ---------------------------------------------------------------------------


def _worst(residuals, worst=0.0):
    """Largest of ``worst`` and the ``residuals``. Unlike ``max`` it keeps a
    NaN (``max(0.0, nan)`` is 0.0), so that a NaN residual fails its check."""
    for residual in residuals:
        if worst == worst and not residual <= worst:
            worst = residual
    return worst


def _keep_first(table, key, entry, worst):
    """Hold the first (prob, matrix) entry of each key; fold the deviation of
    a later entry for a held key from it into ``worst``."""
    seen = table.setdefault(key, entry)
    # records of one subtree share their state objects: nothing to compare
    if seen is entry or (seen[1] is entry[1] and seen[0] == entry[0]):
        return worst
    return _worst((abs(seen[0] - entry[0]), float(np.linalg.norm(seen[1] - entry[1]))), worst)


class ConsistencyAccumulator:
    """Streaming verifier of the structural identities of the enumerated
    table: probability conservation, martingale marginals, measurability of
    the outcome-only states, a-priori averaging, map composition, the
    normalized-state recursion and the agreement of records that share a
    prefix or an increment string."""

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
        self.prefix_dependence = 0.0
        self.incr_dependence = 0.0

    def add(self, rec: TrajectoryRecord) -> None:
        self.total_prob += rec.prob
        for t in self.grid.record_times:
            key = (rec.letter, rec.outcomes[:t])
            entry = (rec.prob_at[t], rec.aposteriori[t].matrix)
            self.prefix_dependence = _keep_first(
                self.prefix[t], key, entry, self.prefix_dependence
            )
        for (s, t) in self.grid.pairs():
            entry = (rec.incr_prob[(s, t)], rec.conditioned[(s, t)].matrix)
            self.incr_dependence = _keep_first(
                self.incr[(s, t)], rec.outcomes[s:t], entry, self.incr_dependence
            )

    def _pushed(self, s, t, starts, paths) -> np.ndarray:
        """A fresh stack of the start matrices, each pushed through the
        outcome maps of steps s+1..t along its path: one Kraus application
        per (step, outcome) group."""
        stack = np.array(starts, dtype=complex)
        for step in range(s + 1, t + 1):
            groups = {}
            for row, path in enumerate(paths):
                groups.setdefault(path[step - s - 1], []).append(row)
            instrument = self.model.instrument_at(step)
            for label, rows in groups.items():
                stack[rows] = instrument.map_for(label).apply(stack[rows])
        return stack

    def _composition_residuals(self):
        """Conditioning r -> s, rescaling, then s -> t must match r -> t:
        one residual per increment-table entry that has a parent."""
        times = self.grid.record_times
        for r in self.grid.reference_times:
            laters = [t for t in times if t >= r]
            for s, t in zip(laters, laters[1:]):
                table = self.incr[(r, t)]
                starts = [w * m for w, m in (self.incr[(r, s)][z[: s - r]] for z in table)]
                via = self._pushed(s, t, starts, [z[s - r :] for z in table])
                for sigma, (w, m) in zip(via, table.values()):
                    yield float(np.linalg.norm(sigma - w * m))

    def _recursion_residuals(self):
        """The state at s pushed to t and normalized must be the state at t,
        per prefix-table entry; a pushed trace <= 0 gives residual 1."""
        times = self.grid.record_times
        for s, t in zip(times, times[1:]):
            table = self.prefix[t]
            starts = [self.prefix[s][(letter, xs[:s])][1] for letter, xs in table]
            pushed = self._pushed(s, t, starts, [xs[s:] for _, xs in table])
            for sigma, (_, rho) in zip(pushed, table.values()):
                trace = float(np.trace(sigma).real)
                yield 1.0 if trace <= 0.0 else float(np.linalg.norm(sigma / trace - rho))

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
                residual = _worst(
                    abs(total - self.prefix[s][gkey][0]) for gkey, total in grouped.items()
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
            devs = []
            sums = {}
            for (letter, xs), (prob, rho) in self.prefix[t].items():
                z = xs[s:t]
                mass, acc = sums.get(z, (0.0, None))
                acc = prob * rho if acc is None else acc + prob * rho
                sums[z] = (mass + prob, acc)
            for z, (mass, acc) in sums.items():
                incr_w, cond_matrix = table[z]
                devs.append(abs(mass - incr_w))
                if mass > 0.0:
                    devs.append(float(np.linalg.norm(acc / mass - cond_matrix)))
            checks.append(Check("measurability", -_worst(devs), self.tol, (s, t)))
        for t in times:
            acc = np.zeros((self.model.dim, self.model.dim), dtype=complex)
            for prob, rho in self.prefix[t].values():
                acc += prob * rho
            residual = float(np.linalg.norm(acc - self.eta[t].matrix))
            checks.append(Check("apriori-mean", -residual, self.tol, (t,)))
        checks.append(Check("prefix-dependence", -self.prefix_dependence, 1e-12))
        checks.append(Check("increment-dependence", -self.incr_dependence, 1e-12))
        checks.append(Check("composition", -_worst(self._composition_residuals()), 1e-12))
        checks.append(Check("state-recursion", -_worst(self._recursion_residuals()), 1e-10))
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
