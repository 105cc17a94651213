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

import copy
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import BudgetExceeded, GridMiss, NotPositiveSemidefinite, NumericRangeError
from .model import Check, CheckReport, MeasurementModel, TimeGrid
from .quantum import DensityOperator, _first_false, relative_entropies

# A branch is pruned when its trace drops below this fraction of its parent.
PRUNE_REL_TOL = 1e-14
# Nodes stepped together: the walk holds the nodes of one depth in blocks of
# at most this many, in emission order, each one (n, 1 + k, d, d) array.
BLOCK_NODES = 32
# Default cap on letters x outcome strings for exhaustive enumeration.
DEFAULT_LEAF_BUDGET = 10**7
# The consistency checks form their (m, d, d) temporaries at most this many
# rows at a time, so that finalize's peak memory stays near the walk's.
_SLICE_ROWS = 256


_TIME_COLUMNS = ("prob_at", "aposteriori", "entropy", "chi_at_term")
_PAIR_COLUMNS = ("incr_prob", "conditioned", "cond_entropy", "chi_term")


class RecordBlock:
    """The record columns of a block of nodes of one letter, a row per node
    in emission order. By record time t, (n, len(times)): prob_at, the mass
    of (letter, outcomes up to t); aposteriori, the state given them (a
    DensityOperator, shared by the rows of a subtree); its entropy; and
    chi_at_term, its relative entropy against the a-priori state. By pair
    (s, t), (n, len(pairs)): incr_prob, the mass of the outcomes s+1..t
    alone from the a-priori state at s; conditioned, the state given them;
    its cond_entropy; and chi_term, the relative entropy of aposteriori[t]
    against it. ``codes`` holds each node's outcome index at each step. A
    column not reached yet holds NaN (None for states)."""

    __slots__ = ("letter", "times", "pairs", "codes") + _TIME_COLUMNS + _PAIR_COLUMNS

    def __init__(self, letter, times, pairs, horizon):
        """The one-row block of a letter's root."""
        self.letter, self.times, self.pairs = letter, times, pairs
        self.codes = np.zeros((1, horizon), dtype=np.int64)
        for name in _TIME_COLUMNS + _PAIR_COLUMNS:
            width = len(times) if name in _TIME_COLUMNS else len(pairs)
            states = name in ("aposteriori", "conditioned")
            fill, dtype = (None, object) if states else (np.nan, float)
            setattr(self, name, np.full((1, width), fill, dtype=dtype))

    def take(self, rows) -> "RecordBlock":
        """A new block of copies of the given rows."""
        block = copy.copy(self)
        for name in ("codes",) + _TIME_COLUMNS + _PAIR_COLUMNS:
            setattr(block, name, getattr(self, name)[rows])
        return block

    def check_grid(self, times, pairs) -> None:
        if self.times != tuple(times) or self.pairs != tuple(pairs):
            raise GridMiss("the records were made on another time grid")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One enumerated or sampled trajectory: row ``row`` of a block of
    leaves. Each column of the block reads as a dict of this row, keyed by
    time or by (s, t) pair: ``rec.prob_at[t]``, ``rec.conditioned[(s, t)]``
    (see RecordBlock). Each read of a field builds that dict from the whole
    row, so a caller that reads several keys binds the field once. The
    entropic terms are cached so that report building never re-decomposes
    a matrix."""

    letter: int
    outcomes: tuple
    block: RecordBlock
    row: int

    def __getattr__(self, name):
        if name not in _TIME_COLUMNS + _PAIR_COLUMNS:
            raise AttributeError(name)
        block = self.block
        keys = block.times if name in _TIME_COLUMNS else block.pairs
        return dict(zip(keys, getattr(block, name)[self.row].tolist()))

    @property
    def prob(self) -> float:
        # the last record time is the horizon
        return self.block.prob_at[self.row, -1].item()


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


class APrioriTrack(dict):
    """The a-priori states eta_t by record time t. ``spectra[t]`` is the
    (eigenvalues, eigenvectors) pair of eta_t from the same decomposition,
    which the walk reuses."""

    spectra: dict


def compute_a_priori(model: MeasurementModel, grid: TimeGrid) -> APrioriTrack:
    """A-priori states eta_t = average over letters and all outcomes, at
    each record time t, validated and decomposed as one stack."""
    record_set = set(grid.record_times)
    times, matrices = [], []
    current = sum(_letter_roots(model))
    for step in range(model.horizon + 1):
        if step > 0:
            current = model.instrument_at(step).apply_total(current)
        if step in record_set:
            times.append(step)
            matrices.append(current)
    batch = DensityOperator.from_stack(matrices)
    track = APrioriTrack(zip(times, batch.states))
    track.spectra = dict(zip(times, zip(batch.eigenvalues, batch.eigenvectors)))
    return track


def _track(model: MeasurementModel, grid: TimeGrid, apriori) -> APrioriTrack:
    """``apriori``, computed when None; only compute_a_priori's track
    carries the spectra the walk reuses."""
    if apriori is not None and not isinstance(apriori, APrioriTrack):
        name = type(apriori).__name__
        raise TypeError(f"apriori must be the track that compute_a_priori returns, not {name}")
    return compute_a_priori(model, grid) if apriori is None else apriori


def _node_states(live):
    """Masses and validated normalized states of a block's live stacks
    (n, L, d, d), both flat in node-major order. Checked in emission order,
    node by node and member by member (the main state, then the tracks):
    each member's mass, then its state."""
    flat = live.reshape((-1,) + live.shape[2:])
    masses = np.trace(flat, axis1=1, axis2=2).real
    k = _first_false(masses >= sys.float_info.min)
    batch = DensityOperator.from_stack(flat[:k] / masses[:k, np.newaxis, np.newaxis])
    if k < len(masses):
        raise NumericRangeError(
            f"path mass {float(masses[k])!r} is below the smallest normal float"
        )
    return masses, batch


def _record_time_data(stacks, block, col, track_cols, seeded, eta_t, eta_spectrum):
    """Write one record time into the rows of ``block``: time column
    ``col``, and the pair columns ``track_cols`` of the tracks in seeding
    order. One validated batch of states, one relative-entropy pass against
    ``eta_t`` (spectrum ``eta_spectrum``) and the tracks. A track seeded at
    this time (pair column ``seeded``, None when there is none) is exactly
    the a-priori state: no batch member."""
    n, size, d = stacks.shape[:3]
    live = size - (seeded is not None)
    masses, batch = _node_states(stacks[:, :live])
    lam = batch.eigenvalues.reshape(n, live, d)
    vec = batch.eigenvectors.reshape(n, live, d, d)
    # each main state against eta_t first, then against its own tracks
    lam2 = lam.copy()
    vec2 = vec.copy()
    lam2[:, 0], vec2[:, 0] = eta_spectrum
    chis = relative_entropies(lam[:, 0], vec[:, 0], lam2, vec2)
    states = np.empty(n * live, dtype=object)
    states[:] = batch.states
    entropies = np.array([state.entropy for state in batch.states])
    columns = [a.reshape(n, live) for a in (masses, states, entropies)] + [chis]
    for time_name, pair_name, values in zip(_TIME_COLUMNS, _PAIR_COLUMNS, columns):
        getattr(block, time_name)[:, col] = values[:, 0]
        getattr(block, pair_name)[:, track_cols] = values[:, 1:]
    if seeded is not None:
        for name, value in zip(_PAIR_COLUMNS, (1.0, eta_t, eta_t.entropy, chis[:, 0])):
            getattr(block, name)[:, seeded] = value


class _Walk:
    """What enumeration and sampling share: the letter roots, and the step
    taken at every node of a path. Nodes are stepped in blocks of siblings
    at one depth, held as one (n, 1 + k, d, d) array: per node the main
    state, then one track per reference time passed so far, in seeding
    order. Replay steps a one-node block."""

    def __init__(self, model: MeasurementModel, grid: TimeGrid, apriori: Optional[APrioriTrack]):
        self.model = model
        self.eta = _track(model, grid, apriori)
        self.roots = _letter_roots(model)
        # the a-priori state of each reference time, as a block's new tracks
        self.seeds = {
            s: np.broadcast_to(self.eta[s].matrix, (BLOCK_NODES, 1) + self.eta[s].matrix.shape)
            for s in grid.reference_times
        }
        self.times = grid.record_times
        self.pairs = tuple(grid.pairs())
        pair_col = {pair: col for col, pair in enumerate(self.pairs)}
        # per record time: the _record_time_data arguments after the block
        self.columns = {
            t: (
                col,
                np.array([pair_col[(s, t)] for s in grid.reference_times if s < t], dtype=int),
                pair_col[(t, t)] if t in self.seeds else None,
                self.eta[t],
                self.eta.spectra[t],
            )
            for col, t in enumerate(self.times)
        }

    def root(self, letter) -> RecordBlock:
        return RecordBlock(letter, self.times, self.pairs, self.model.horizon)

    def visit(self, paths, t, stacks, block):
        """Seed the reference track of time t in every node of a block and
        write its record-time columns into ``block``; ``paths`` holds the
        nodes' outcome strings in emission order. An error names the
        trajectory of the first failing node. Returns the stacks."""
        if t in self.seeds:
            stacks = np.concatenate([stacks, self.seeds[t][: len(stacks)]], axis=1)
        if t in self.columns:
            args = self.columns[t]
            try:
                _record_time_data(stacks, block, *args)
            except (NotPositiveSemidefinite, NumericRangeError):
                # the first failing node raises the same error on its own
                for i, path in enumerate(paths):
                    try:
                        _record_time_data(stacks[i : i + 1], block.take([i]), *args)
                    except (NotPositiveSemidefinite, NumericRangeError) as exc:
                        name = _path_name(block.letter, path, t)
                        raise type(exc)(f"{name}: {exc}") from exc
                raise
        return stacks

    def replay(self, letter, outcomes) -> TrajectoryRecord:
        """Rebuild the full record for a known path (no randomness involved)."""
        stacks = self.roots[letter][np.newaxis, np.newaxis]
        block = self.root(letter)
        for t in range(self.model.horizon + 1):
            stacks = self.visit((outcomes,), t, stacks, block)
            if t == self.model.horizon:
                break
            instrument = self.model.instrument_at(t + 1)
            block.codes[0, t] = code = instrument.outcomes.index(outcomes[t])
            stacks = instrument.maps[code].apply(stacks)
        return TrajectoryRecord(letter, outcomes, block, 0)


def enumerate_trajectories(
    model: MeasurementModel,
    grid: TimeGrid,
    apriori: Optional[APrioriTrack] = None,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> Iterator[TrajectoryRecord]:
    """Depth-first walk over all (letter, outcome string) paths, in blocks
    of at most BLOCK_NODES nodes at one depth.

    Yields one record per positive-probability leaf, a block of leaves row
    by row; the emitted probabilities sum to 1 up to the pruning tolerance.
    ``apriori`` is compute_a_priori's track (computed when omitted; anything
    else raises TypeError). Raises BudgetExceeded before doing any work when
    the leaf count is too large.
    """
    leaves = model.leaf_count()
    if leaves > budget:
        raise BudgetExceeded(f"{leaves} leaves exceed the budget of {budget}")
    walk = _Walk(model, grid, apriori)
    horizon = model.horizon

    for letter, (p, root) in enumerate(zip(model.ensemble.prior, walk.roots)):
        if p <= 0.0:
            continue
        # pending blocks: (depth, (n, 1 + k, d, d) stacks, record block, outcome strings)
        pending = [(0, root[np.newaxis, np.newaxis], walk.root(letter), [()])]
        while pending:
            t, stacks, block, paths = pending.pop()
            stacks = walk.visit(paths, t, stacks, block)
            if t == horizon:
                for row, outcomes in enumerate(paths):
                    yield TrajectoryRecord(letter, outcomes, block, row)
                continue
            instrument = model.instrument_at(t + 1)
            n_out = instrument.n_outcomes
            children = np.empty((len(stacks), n_out) + stacks.shape[1:], dtype=complex)
            for v, kraus in enumerate(instrument.maps):
                children[:, v] = kraus.apply(stacks)
            parent_trace = np.trace(stacks[:, 0], axis1=1, axis2=2).real[:, np.newaxis]
            child_trace = np.trace(children[:, :, 0], axis1=2, axis2=3).real
            kept = np.flatnonzero(~(child_trace < PRUNE_REL_TOL * parent_trace))
            # node-major, outcome-minor: emission order
            children = children.reshape((-1,) + stacks.shape[1:])[kept]
            parents, codes = np.divmod(kept, n_out)
            labels = instrument.outcomes
            paths = [paths[i] + (labels[v],) for i, v in zip(parents.tolist(), codes.tolist())]
            for j in reversed(range(0, len(kept), BLOCK_NODES)):
                rows = slice(j, j + BLOCK_NODES)
                child = block.take(parents[rows])
                child.codes[:, t] = codes[rows]
                pending.append((t + 1, children[rows], child, paths[rows]))


def sample_trajectories(
    model: MeasurementModel,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    apriori: Optional[APrioriTrack] = None,
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


def _worst(residuals, worst=0.0) -> float:
    """Largest of ``worst`` and the ``residuals``. Unlike the builtin ``max``
    (``max(0.0, nan)`` is 0.0) np.max keeps a NaN, so that a NaN residual
    fails its check."""
    return float(np.max(residuals, initial=worst))


def _norms(stack) -> np.ndarray:
    """Frobenius norm of each matrix of a (m, d, d) stack, a slice at a time."""
    out = np.empty(len(stack))
    for i in range(0, len(stack), _SLICE_ROWS):
        out[i : i + _SLICE_ROWS] = np.linalg.norm(stack[i : i + _SLICE_ROWS], axis=(1, 2))
    return out


class _Table:
    """The first (prob, matrix) entry of each key of one family, prefixes or
    increment strings, over all its columns (record times or pairs): a key
    is the string's number times ``width`` plus the column. Entries are
    kept in first-seen order, in arrays that grow by doubling."""

    def __init__(self, width, dim):
        self.width = width
        self.index = {}  # key -> row
        self.keys = np.zeros(0, dtype=np.int64)
        self.probs = np.zeros(0)
        self.matrices = np.zeros((0, dim, dim), dtype=complex)
        self.deviation = 0.0  # of later entries from the held ones

    def hold(self, strings, probs, states) -> None:
        """Hold the first entry of each key and fold the deviation of every
        other one; (n, width) arrays, a row per record in the order the
        records came."""
        n = len(strings)
        # down a column, a run of rows with one key and one entry (records
        # of one subtree share their states) takes one lookup and comparison
        start = np.ones(strings.shape, dtype=bool)
        start[1:] = (strings[1:] != strings[:-1]) | (states[1:] != states[:-1])
        start[1:] |= probs[1:] != probs[:-1]
        firsts = np.flatnonzero(start.T)
        keys = strings.T.ravel()[firsts] * self.width + firsts // n
        probs, states = probs.T.ravel()[firsts], states.T.ravel()[firsts]
        size = len(self.index)
        rows = np.array([self.index.setdefault(key, len(self.index)) for key in keys.tolist()])
        # a new row first shows above every row before it
        new = rows > np.maximum.accumulate(np.append(size - 1, rows[:-1]))
        n = len(self.index)
        if n > size:
            self._grow(n)
            self.keys[size:n], self.probs[size:n] = keys[new], probs[new]
            self.matrices[size:n] = [state.matrix for state in states[new]]
        later = np.flatnonzero(~new)
        if len(later):
            held = rows[later]
            self.deviation = _worst(np.abs(self.probs[held] - probs[later]), self.deviation)
            diffs = self.matrices[held] - np.array([state.matrix for state in states[later]])
            self.deviation = _worst(_norms(diffs), self.deviation)

    def _grow(self, size) -> None:
        """Room for ``size`` entries: the arrays double when they are full."""
        if size > len(self.keys):
            capacity = max(size, 2 * len(self.keys))
            for name in ("keys", "probs", "matrices"):
                old = getattr(self, name)
                new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)

    def column(self, col):
        """String numbers and rows of one column's entries, in first-seen
        order."""
        rows = np.flatnonzero(self.keys[: len(self.index)] % self.width == col)
        return self.keys[rows] // self.width, rows

    def rows(self, strings, col) -> np.ndarray:
        """Rows of the entries of ``strings`` in column ``col``, all of
        which are held."""
        keys = (strings * self.width + col).tolist()
        return np.array([self.index[key] for key in keys], dtype=np.int64)


def _group_sums(groups, count, probs, matrices, rows) -> np.ndarray:
    """Sum of probs[i] * matrices[rows[i]] per group index ``groups[i]``,
    each group added up in order, a slice at a time."""
    out = np.zeros((count,) + matrices.shape[1:], dtype=complex)
    for i in range(0, len(probs), _SLICE_ROWS):
        part = slice(i, i + _SLICE_ROWS)
        np.add.at(out, groups[part], probs[part, None, None] * matrices[rows[part]])
    return out


class ConsistencyAccumulator:
    """Streaming verifier of the structural identities of the enumerated
    table: probability conservation, martingale marginals, measurability of
    the outcome-only states, a-priori averaging, map composition, the
    normalized-state recursion and the agreement of records that share a
    prefix or an increment string.

    ``add`` queues a record; the queued rows of one block are checked
    together when a record of another block comes, or at ``finalize``. A
    prefix (letter, outcomes up to t) or an increment string (outcomes
    s+1..t) is numbered in mixed radix, outcome indices as digits."""

    def __init__(self, model, grid, apriori, tol: float = 1e-9):
        self._pairs = tuple(grid.pairs())
        width = max(len(grid.record_times), len(self._pairs))
        if model.leaf_count() * width > np.iinfo(np.int64).max:
            raise BudgetExceeded(f"{model.leaf_count()} leaves are too many to key the tables")
        self.model, self.grid, self.eta, self.tol = model, grid, apriori, tol
        self.total_prob = 0.0
        self._radix = [1] + [model.instrument_at(k).n_outcomes for k in range(1, model.horizon + 1)]
        self._count = np.cumprod(self._radix)  # outcome strings up to each time
        self.prefix = _Table(len(grid.record_times), model.dim)
        self.incr = _Table(len(self._pairs), model.dim)
        self._block, self._rows = None, []

    def _span(self, s, t):
        """The number of outcome strings of steps s+1..t."""
        return self._count[t] // self._count[s]

    def add(self, rec: TrajectoryRecord) -> None:
        if rec.block is not self._block:
            self._flush()
            self._block = rec.block
        self._rows.append(rec.row)

    def _flush(self) -> None:
        """Check the queued rows of one block, in the order they came."""
        block, rows = self._block, self._rows
        self._block, self._rows = None, []
        if not rows:
            return
        block.check_grid(self.grid.record_times, self._pairs)
        prob_at = block.prob_at[rows]
        # added one by one, as the records came
        self.total_prob = float(np.cumsum(np.append(self.total_prob, prob_at[:, -1]))[-1])
        codes = block.codes[rows]
        strings = np.zeros((len(rows), len(self._radix)), dtype=np.int64)
        for k in range(1, len(self._radix)):
            strings[:, k] = strings[:, k - 1] * self._radix[k] + codes[:, k - 1]
        times = np.array(self.grid.record_times)
        s, t = np.array(self._pairs).reshape(-1, 2).T
        prefixes = block.letter * self._count[times] + strings[:, times]
        self.prefix.hold(prefixes, prob_at, block.aposteriori[rows])
        increments = strings[:, t] - strings[:, s] * self._span(s, t)
        self.incr.hold(increments, block.incr_prob[rows], block.conditioned[rows])

    def _pushed(self, table, col, keys, s, t, weighted):
        """The entries in column ``col`` of ``table`` (strings ending at s)
        that are the parents of the keys (strings ending at t), times their
        probabilities when ``weighted``, each pushed through the outcome
        maps of steps s+1..t along the digits of its key: one Kraus
        application per (step, outcome) group of up to _SLICE_ROWS rows."""
        parents = table.rows(keys // self._span(s, t), col)
        stack = table.matrices[parents]
        if weighted:
            stack *= table.probs[parents, None, None]
        for step in range(s + 1, t + 1):
            labels = keys // self._span(step, t) % self._radix[step]
            for v, kraus in enumerate(self.model.instrument_at(step).maps):
                group = np.flatnonzero(labels == v)
                for i in range(0, len(group), _SLICE_ROWS):
                    rows = group[i : i + _SLICE_ROWS]
                    stack[rows] = kraus.apply(stack[rows])
        return stack

    def _composition_residuals(self):
        """Conditioning r -> s, rescaling, then s -> t must match r -> t:
        one residual per increment-table entry that has a parent."""
        col = {pair: i for i, pair in enumerate(self._pairs)}
        residuals = [np.zeros(0)]
        for r in self.grid.reference_times:
            laters = [t for t in self.grid.record_times if t >= r]
            for s, t in zip(laters, laters[1:]):
                keys, rows = self.incr.column(col[(r, t)])
                via = self._pushed(self.incr, col[(r, s)], keys, s, t, weighted=True)
                via -= self.incr.probs[rows, None, None] * self.incr.matrices[rows]
                residuals.append(_norms(via))
        return np.concatenate(residuals)

    def _recursion_residuals(self):
        """The state at s pushed to t and normalized must be the state at t,
        per prefix-table entry; a pushed trace <= 0 gives residual 1."""
        times = self.grid.record_times
        residuals = [np.zeros(0)]
        for i, (s, t) in enumerate(zip(times, times[1:])):
            keys, rows = self.prefix.column(i + 1)
            pushed = self._pushed(self.prefix, i, keys, s, t, weighted=False)
            trace = np.trace(pushed, axis1=1, axis2=2).real
            positive = ~(trace <= 0.0)
            pushed /= np.where(positive, trace, 1.0)[:, None, None]
            pushed -= self.prefix.matrices[rows]
            residuals.append(np.where(positive, _norms(pushed), 1.0))
        return np.concatenate(residuals)

    def finalize(self) -> CheckReport:
        """One check per identity; each margin is minus its residual."""
        self._flush()
        times = self.grid.record_times
        prefix, incr = self.prefix, self.incr
        checks = [Check("total-probability", -abs(self.total_prob - 1.0), self.tol)]
        columns = [prefix.column(i) for i in range(len(times))]
        for i, s in enumerate(times):
            for j, t in enumerate(times[i + 1 :], start=i + 1):
                keys_t, rows_t = columns[j]
                groups, inverse = np.unique(keys_t // self._span(s, t), return_inverse=True)
                totals = np.bincount(inverse, prefix.probs[rows_t], len(groups))
                residual = _worst(np.abs(totals - prefix.probs[prefix.rows(groups, i)]))
                checks.append(Check("martingale", -residual, self.tol, (s, t)))
        for col, (s, t) in enumerate(self._pairs):
            total = sum(incr.probs[incr.column(col)[1]].tolist())
            checks.append(Check("increment-total", -abs(total - 1.0), self.tol, (s, t)))
            keys_t, rows_t = columns[times.index(t)]
            probs_t = prefix.probs[rows_t]
            groups, inverse = np.unique(keys_t % self._span(s, t), return_inverse=True)
            mass = np.bincount(inverse, probs_t, len(groups))
            mean = _group_sums(inverse, len(groups), probs_t, prefix.matrices, rows_t)
            rows_z = incr.rows(groups, col)
            positive = mass > 0.0
            mean /= np.where(positive, mass, 1.0)[:, None, None]
            mean -= incr.matrices[rows_z]
            residual = _worst(_norms(mean)[positive], _worst(np.abs(mass - incr.probs[rows_z])))
            checks.append(Check("measurability", -residual, self.tol, (s, t)))
        for t, (_, rows_t) in zip(times, columns):
            probs_t = prefix.probs[rows_t]
            groups = np.zeros(len(probs_t), dtype=int)
            acc = _group_sums(groups, 1, probs_t, prefix.matrices, rows_t)
            residual = _worst(_norms(acc - self.eta[t].matrix))
            checks.append(Check("apriori-mean", -residual, self.tol, (t,)))
        checks.append(Check("prefix-dependence", -prefix.deviation, 1e-12))
        checks.append(Check("increment-dependence", -incr.deviation, 1e-12))
        checks.append(Check("composition", -_worst(self._composition_residuals()), 1e-12))
        checks.append(Check("state-recursion", -_worst(self._recursion_residuals()), 1e-10))
        return CheckReport(checks=tuple(checks))


def consistency_checks(
    model: MeasurementModel,
    grid: TimeGrid,
    records: Optional[Iterable[TrajectoryRecord]] = None,
    apriori: Optional[APrioriTrack] = None,
    tol: float = 1e-9,
    budget: int = DEFAULT_LEAF_BUDGET,
) -> CheckReport:
    """Run all structural checks over the enumerated table (requires
    enumeration to be feasible within the budget). ``apriori`` is the
    track that compute_a_priori returns (computed when omitted; anything
    else raises TypeError)."""
    eta = _track(model, grid, apriori)
    if records is None:
        records = enumerate_trajectories(model, grid, apriori=eta, budget=budget)
    acc = ConsistencyAccumulator(model, grid, eta, tol=tol)
    for rec in records:
        acc.add(rec)
    return acc.finalize()
