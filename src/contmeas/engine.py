"""Trajectory engine: exhaustive enumeration of the outcome tree and seeded
Monte-Carlo sampling.

A trajectory is one (letter, outcome string) path. Along each path the
engine carries the unnormalized conditional state of the system. The
outcome-only conditioned state of a reference time s is the a-priori state
at s pushed through the outcome maps of the later steps; it depends only on
the increments s+1..t, which is what the outcome-only conditioning requires.
The walk reads these states (a node's tracks) from one route only, the rows
of a table of states whose first rows are the a-priori states eta_t, one
per record time: enumeration keeps the tracks once per (s, increment
string), in an increment trie shared by all letters and prefixes; a
replayed path (and so the sampler) pushes them with its own state, seeded
with the a-priori state when it passes depth s, and copies them into rows
of a table of its own at each record time. A record is a row of its
block, and a path is a row of outcome codes from the draw to the record;
labels are made only at the edges. The sampler draws its paths in arrays
and replays each distinct path once, into one record with its draw count.

All probabilities are plain probabilities under the physical law; the
uniform reference-measure densities differ from them by constant factors
that cancel in every information functional (see the model module).

Emission order is deterministic: letters ascending, outcome labels in
sorted order, depth first. Zero-probability branches are pruned, never
normalized.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import BudgetExceeded, GridMiss, NotPositiveSemidefinite, NumericRangeError
from .model import Check, CheckReport, MeasurementModel, TimeGrid
from .quantum import (
    DensityOperator,
    StateBatch,
    _first_false,
    _hermitian_part,
    relative_entropies,
)

# A branch is pruned when its trace drops below this fraction of its parent.
PRUNE_REL_TOL = 1e-14
# Nodes stepped together: the walk holds the nodes of one depth in blocks of
# at most this many, in emission order, each one (n, d, d) array.
BLOCK_NODES = 64
# Cap on letters x outcome strings for exhaustive enumeration.
DEFAULT_LEAF_BUDGET = 10**7
# The consistency checks apply Kraus maps, take norms and add group sums at
# most this many rows at a time; the stacks they work on are whole columns.
_SLICE_ROWS = 256
# The sampler draws at most this many paths as one set of arrays.
_DRAW_ROWS = 1024


_TIME_COLUMNS = ("prob_at", "log_prob", "aposteriori", "entropy", "chi_at_term")
_PAIR_COLUMNS = ("conditioned", "chi_term")
# facts of a conditioned state that its row of the table of states holds
_STATE_FACTS = {"incr_prob": "mass", "cond_entropy": "entropy"}


def _grow(owner, names, size) -> None:
    """Room for ``size`` rows in the arrays ``names`` of ``owner``: they
    double when they are full; new rows are not initialized."""
    if size > len(getattr(owner, names[0])):
        capacity = max(size, 2 * len(getattr(owner, names[0])))
        for name in names:
            old = getattr(owner, name)
            new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: len(old)] = old
            setattr(owner, name, new)


class IncrementTrie:
    """Outcome-only conditioned states, a row per increment string (outcomes
    s+1..t), kept as arrays: the pushed (unnormalized) matrix, its mass and
    the math.log of it, the entropy and spectrum of the state, and the child
    row of each outcome. The normalized matrix is worked out from the pushed
    one and its mass by the steps DensityOperator.from_stack takes, so it
    has the same bits. Row i is
    eta_t of the i-th record time t (mass 1), taken from the batch ``eta``
    that compute_a_priori decomposed; the relative entropies against eta_t
    read its spectrum there. A row is validated and decomposed when a
    record time first needs it (done). Enumeration grows one table per run
    by ``step``, a trie per reference time s rooted at the row of eta_s; a
    replay copies the tracks it pushes into a table of its own."""

    ARRAYS = (
        "mass", "pushed", "entropy", "eigenvalues", "eigenvectors", "children", "done", "log_mass"
    )

    def __init__(self, eta: StateBatch, width=1):
        self.size = len(eta.entropies)
        for name, values in zip(self.ARRAYS, (np.ones(self.size), *eta)):
            setattr(self, name, values.copy())
        self.children = np.full((self.size, width), -1)
        self.done = np.ones(self.size, dtype=bool)
        self.log_mass = np.zeros(self.size)

    def reserve(self, count) -> np.ndarray:
        """``count`` new rows with no children, not written or decomposed."""
        rows = np.arange(self.size, self.size + count)
        _grow(self, self.ARRAYS, self.size + count)
        self.size += count
        self.children[rows], self.done[rows] = -1, False
        return rows

    def write(self, rows, masses, batch: StateBatch, start: int) -> None:
        """Rows ``rows`` hold the states batch[start:] of masses ``masses``,
        with math.log of each mass (np.log may round differently in the last
        bit)."""
        self.mass[rows], self.entropy[rows] = masses, batch.entropies[start:]
        self.log_mass[rows] = [math.log(mass) for mass in masses.tolist()]
        self.eigenvalues[rows] = batch.eigenvalues[start:]
        self.eigenvectors[rows] = batch.eigenvectors[start:]
        self.done[rows] = True

    def matrices(self, rows) -> np.ndarray:
        """The normalized matrices of ``rows``."""
        return _hermitian_part(self.pushed[rows] / self.mass[rows, ..., None, None])

    def step(self, rows, codes, maps) -> np.ndarray:
        """Rows of the children of ``rows`` (n, k) by the outcomes ``codes``
        (n,); a missing child is made by pushing its parent through the map
        of its outcome, one Kraus application per outcome."""
        codes = np.broadcast_to(codes[:, np.newaxis], rows.shape)
        found = self.children[rows, codes]
        missing = found < 0
        if missing.any():
            width = self.children.shape[1]
            pairs, inverse = np.unique(rows[missing] * width + codes[missing], return_inverse=True)
            parents, labels = np.divmod(pairs, width)
            new = self.reserve(len(pairs))
            for v in np.unique(labels).tolist():
                group = labels == v
                self.pushed[new[group]] = maps[v].apply(self.pushed[parents[group]])
            self.children[parents, labels] = new
            found[missing] = new[inverse]
        return found


class RecordBlock:
    """The record columns of a block of nodes of one letter, a row per node
    in emission order. By record time t, (n, len(times)): prob_at, the mass
    of (letter, outcomes up to t), and log_prob, its math.log; aposteriori,
    the state given them as its row of ``posteriors[col]``, the stack of
    main states written at t (shared with the blocks taken from this one);
    its entropy; and chi_at_term, its relative entropy against the a-priori
    state. By pair (s, t), (n, len(pairs)): conditioned, the row in
    ``states`` of the state given the outcomes s+1..t alone, which holds
    its mass from the a-priori state at s and its entropy; and chi_term,
    the relative entropy of aposteriori[t] against it. ``codes`` holds each
    node's outcome index at each step: its path, whose ``labels`` name the
    node's records and errors. A column not reached yet holds NaN (-1 for
    rows)."""

    __slots__ = ("letter", "times", "pairs", "index", "states", "posteriors", "codes", "labels")
    __slots__ += _TIME_COLUMNS + _PAIR_COLUMNS

    def __init__(self, letter, times, pairs, index, states, labels):
        """The one-row block of a letter's root; ``index`` maps each time and
        each pair to its column."""
        self.letter, self.times, self.pairs, self.states = letter, times, pairs, states
        self.index, self.labels = index, labels
        self.posteriors = [None] * len(times)
        self.codes = np.zeros((1, len(labels)), dtype=np.int64)
        for name in _TIME_COLUMNS + _PAIR_COLUMNS:
            width = len(times) if name in _TIME_COLUMNS else len(pairs)
            fill = -1 if name in ("aposteriori", "conditioned") else np.nan
            setattr(self, name, np.full((1, width), fill))

    def take(self, rows) -> "RecordBlock":
        """A new block of copies of the given rows, on the same states and stacks."""
        block = copy.copy(self)
        block.posteriors = list(self.posteriors)
        for name in ("codes",) + _TIME_COLUMNS + _PAIR_COLUMNS:
            setattr(block, name, getattr(self, name).take(rows, axis=0))
        return block

    def check_grid(self, times, pairs) -> None:
        if self.times != tuple(times) or self.pairs != tuple(pairs):
            raise GridMiss("the records were made on another time grid")

    def path(self, row, t=None) -> tuple:
        """The outcome labels of row ``row`` at steps 1..t (by default all)."""
        return tuple(step[code] for step, code in zip(self.labels, self.codes[row, :t].tolist()))


class RecordRow(Mapping):
    """One record's entries of one field, keyed by time or by (s, t) pair;
    a lookup reads one element. The one place where a row of a stack or of
    the states becomes a DensityOperator, with a fresh copy of its matrix;
    incr_prob and cond_entropy read the conditioned row of the states."""

    __slots__ = ("_block", "_row", "_name", "_index")

    def __init__(self, block: RecordBlock, row: int, name: str):
        self._block, self._row, self._name = block, row, name
        self._index = block.index[name not in _TIME_COLUMNS]

    def __getitem__(self, key):
        block, name, col = self._block, self._name, self._index[key]
        states = block.states
        value = getattr(block, "conditioned" if name in _STATE_FACTS else name).item(self._row, col)
        if name == "aposteriori":
            matrix = block.posteriors[col][value].copy()
            return DensityOperator(matrix, block.entropy.item(self._row, col))
        if name == "conditioned":
            return DensityOperator(states.matrices(value), states.entropy.item(value))
        return getattr(states, _STATE_FACTS[name]).item(value) if name in _STATE_FACTS else value

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One enumerated trajectory, or one distinct sampled path with
    ``count``, its number of draws (1 in enumeration): row ``row`` of a
    block of leaves, which holds its letter and outcomes. Each field reads as
    a read-only mapping of this row, keyed by time or by (s, t) pair:
    ``rec.prob_at[t]``, ``rec.incr_prob[(s, t)]`` (see RecordBlock)."""

    block: RecordBlock
    row: int
    count: int = 1
    letter = property(lambda rec: rec.block.letter)
    outcomes = property(lambda rec: rec.block.path(rec.row))

    def __getattr__(self, name):
        if name not in _TIME_COLUMNS + _PAIR_COLUMNS + tuple(_STATE_FACTS):
            raise AttributeError(name)
        return RecordRow(self.block, self.row, name)

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


def runs(records: Iterable[TrajectoryRecord]) -> Iterator[tuple]:
    """The runs of consecutive records of one block in a stream, in order,
    as (block, rows, counts) with arrays of their rows and draw counts."""
    for block, run in itertools.groupby(records, key=attrgetter("block")):
        rows, counts = zip(*[(rec.row, rec.count) for rec in run])
        yield block, np.array(rows), np.array(counts)


def _letter_roots(model: MeasurementModel) -> list:
    """Root of each letter's walk: prior weight times the Hermitian part of
    its state. Their sum is the initial a-priori state."""
    return [
        p * ((state + state.conj().T) / 2.0)
        for p, state in zip(model.ensemble.prior, model.ensemble.states)
    ]


class APrioriTrack(dict):
    """The a-priori states eta_t by record time t. ``batch`` is the one
    decomposition they come from, in record-time order: the first rows of
    the walk's tables of states."""

    batch: StateBatch


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
    track.batch = batch
    return track


def _node_states(stack):
    """Masses and validated normalized states of a (..., d, d) stack of
    unnormalized states, both flat in stack order. Checked in that order,
    each member's mass before its state."""
    flat = stack.reshape((-1,) + stack.shape[-2:])
    masses = np.trace(flat, axis1=1, axis2=2).real
    k = _first_false(masses >= sys.float_info.min)
    batch = DensityOperator.from_stack(flat[:k] / masses[:k, np.newaxis, np.newaxis])
    if k < len(masses):
        raise NumericRangeError(
            f"path mass {float(masses[k])!r} is below the smallest normal float"
        )
    return masses, batch


class _Walk:
    """What enumeration and sampling share: the a-priori track of the grid,
    the letter roots, and the step taken at every node of a path. Nodes are
    stepped in blocks of siblings at one depth, their main states held as
    one (n, d, d) array, and the per-node step ``visit`` writes each record
    time. A node's outcome-only conditioned states (its tracks, one per
    reference time passed so far, in seeding order) are rows of its block's
    table of states: of the increment trie in enumeration, of the record's
    own table in a replay. Row i of every table is eta_t of the i-th record
    time t."""

    def __init__(self, model: MeasurementModel, grid: TimeGrid, stats=None):
        self.model = model
        self.labels = tuple(model.instrument_at(t).outcomes for t in range(1, model.horizon + 1))
        self.eta = compute_a_priori(model, grid)
        self.roots = _letter_roots(model)
        # states decomposed: "path states" (main states), "increment states"
        self.stats = Counter() if stats is None else stats
        refs = self.refs = grid.reference_times
        self.times = grid.record_times
        self.pairs = tuple(grid.pairs())
        pair_col = {pair: col for col, pair in enumerate(self.pairs)}
        self.index = ({t: col for col, t in enumerate(self.times)}, pair_col)
        # per record time: its column (and the row of eta_t in every table
        # of states), the pair columns of the tracks seeded before it and
        # the pair column of the track seeded at it (or None)
        self.columns = {
            t: (
                col,
                np.array([pair_col[(s, t)] for s in refs if s < t], dtype=int),
                pair_col[(t, t)] if t in refs else None,
            )
            for col, t in enumerate(self.times)
        }

    def root(self, letter, states=None) -> RecordBlock:
        """The root block of a letter; its tracks go to ``states``, by
        default a table of their own."""
        if states is None:
            states = IncrementTrie(self.eta.batch)
        return RecordBlock(letter, self.times, self.pairs, self.index, states, self.labels)

    def visit(self, t, stacks, block, rows):
        """Seed the reference track of time t in every node of a block and
        write its record-time columns into ``block``; ``stacks`` (n, d, d)
        holds the nodes' main states and ``rows`` (n, k) their tracks as
        rows of ``block.states``, in emission order. One validated batch
        holds the main states and the rows not decomposed before; an error
        names the trajectory of the first failing node, from its codes.
        Returns the rows with the track seeded at t: the row of eta_t."""
        n = len(stacks)
        if t in self.refs:
            rows = np.concatenate([rows, np.full((n, 1), self.columns[t][0])], axis=1)
        if t not in self.columns:
            return rows
        states = block.states
        own = rows[:, : len(self.columns[t][1])]
        new = np.unique(own[~states.done.take(own)])
        try:
            masses, batch = _node_states(np.concatenate([stacks, states.pushed.take(new, axis=0)]))
        except (NotPositiveSemidefinite, NumericRangeError):
            # the first failing node raises the same error on its own
            for i in range(n):
                try:
                    _node_states(np.concatenate([stacks[i : i + 1], states.pushed[own[i]]]))
                except (NotPositiveSemidefinite, NumericRangeError) as exc:
                    path = block.path(i, t)
                    raise type(exc)(f"{_path_name(block.letter, path, t)}: {exc}") from exc
            raise
        states.write(new, masses[n:], batch, n)
        self.stats["path states"] += n
        self.stats["increment states"] += len(new)
        self._write(block, t, own, masses[:n], batch)
        return rows

    def _write(self, block, t, rows, masses, batch) -> None:
        """Write record time t into the rows of ``block``: a copy of the
        main states (the first n of ``batch``), their masses and the logs of
        them (as the trie keeps its rows' logs), and the tracks at rows
        ``rows`` (n, k) of ``block.states``; one relative-entropy pass of
        each main state against the rows of eta_t and its tracks. A track
        seeded at t is eta_t itself: its row."""
        col, track_cols, seeded = self.columns[t]
        states = block.states
        n = len(rows)
        both = np.concatenate([np.full((n, 1), col), rows], axis=1)
        lam, vec = batch.eigenvalues[:n], batch.eigenvectors[:n]
        lam2, vec2 = (a.take(both, axis=0) for a in (states.eigenvalues, states.eigenvectors))
        chis = relative_entropies(lam, vec, lam2, vec2)
        block.posteriors[col] = batch.matrices[:n].copy()
        logs = [math.log(mass) for mass in masses.tolist()]
        values = (masses, logs, np.arange(n), batch.entropies[:n], chis[:, 0])
        for name, value in zip(_TIME_COLUMNS, values):
            getattr(block, name)[:, col] = value
        block.conditioned[:, track_cols], block.chi_term[:, track_cols] = rows, chis[:, 1:]
        if seeded is not None:
            block.conditioned[:, seeded], block.chi_term[:, seeded] = col, chis[:, 0]

    def replay(self, letter, codes, count=1) -> TrajectoryRecord:
        """Rebuild the full record for a known path (no randomness involved),
        its outcome ``codes``, drawn ``count`` times, as a one-node walk: its
        stack carries the tracks after the main state, seeded with eta_s at
        depth s and pushed with it, and each record time copies them into
        new rows of the record's own table."""
        stacks = self.roots[letter][np.newaxis, np.newaxis]
        block = self.root(letter)
        block.codes[0] = codes
        states = block.states
        free = states.reserve(len(self.pairs) - len(self.refs))
        for t in range(self.model.horizon + 1):
            k = stacks.shape[1] - 1 if t in self.columns else 0
            rows, free = free[np.newaxis, :k], free[k:]
            states.pushed[rows[0]] = stacks[0, 1 : 1 + k]
            self.visit(t, stacks[:, 0], block, rows)
            if t in self.refs:
                seed = self.eta[t].matrix[np.newaxis, np.newaxis]
                stacks = np.concatenate([stacks, seed], axis=1)
            if t == self.model.horizon:
                break
            stacks = self.model.instrument_at(t + 1).maps[codes[t]].apply(stacks)
        return TrajectoryRecord(block, 0, count)


def enumerate_trajectories(
    model: MeasurementModel, grid: TimeGrid, stats: Optional[Counter] = None
) -> Iterator[TrajectoryRecord]:
    """Depth-first walk over all (letter, outcome string) paths, in blocks
    of at most BLOCK_NODES nodes at one depth. The nodes carry their main
    states; the outcome-only conditioned states come from one increment
    trie per reference time, grown only for the strings a kept node reaches.

    Yields one record per positive-probability leaf, a block of leaves row
    by row; the emitted probabilities sum to 1 up to the pruning tolerance.
    ``stats``, when given, counts the states decomposed: "path states" (one
    per node at a record time) and "increment states" (one per trie row).
    Raises BudgetExceeded before doing any work when the leaf count exceeds
    DEFAULT_LEAF_BUDGET.
    """
    leaves = model.leaf_count()
    if leaves > DEFAULT_LEAF_BUDGET:
        raise BudgetExceeded(f"{leaves} leaves exceed the budget of {DEFAULT_LEAF_BUDGET}")
    walk = _Walk(model, grid, stats)
    horizon = model.horizon
    width = max((model.instrument_at(k).n_outcomes for k in range(1, horizon + 1)), default=1)
    trie = IncrementTrie(walk.eta.batch, width)

    for letter, (p, root) in enumerate(zip(model.ensemble.prior, walk.roots)):
        if p <= 0.0:
            continue
        # pending blocks: (depth, (n, d, d) main states, (n, k) trie rows,
        # record block)
        no_rows = np.zeros((1, 0), dtype=np.int64)
        pending = [(0, root[np.newaxis], no_rows, walk.root(letter, trie))]
        while pending:
            t, stacks, rows, block = pending.pop()
            rows = walk.visit(t, stacks, block, rows)
            if t == horizon:
                for row in range(len(block.codes)):
                    yield TrajectoryRecord(block, row)
                continue
            instrument = model.instrument_at(t + 1)
            n_out = instrument.n_outcomes
            children = np.empty((len(stacks), n_out) + stacks.shape[1:], dtype=complex)
            for v, kraus in enumerate(instrument.maps):
                children[:, v] = kraus.apply(stacks)
            parent_trace = np.trace(stacks, axis1=1, axis2=2).real[:, np.newaxis]
            child_trace = np.trace(children, axis1=2, axis2=3).real
            kept = np.flatnonzero(~(child_trace < PRUNE_REL_TOL * parent_trace))
            # node-major, outcome-minor: emission order
            children = children.reshape((-1,) + stacks.shape[1:])[kept]
            parents, codes = np.divmod(kept, n_out)
            child_rows = trie.step(rows[parents], codes, instrument.maps)
            for j in reversed(range(0, len(kept), BLOCK_NODES)):
                part = slice(j, j + BLOCK_NODES)
                child = block.take(parents[part])
                child.codes[:, t] = codes[part]
                pending.append((t + 1, children[part], child_rows[part], child))


def _draw_paths(model: MeasurementModel, n_samples: int, seed: int) -> Iterator[tuple]:
    """The (letter, outcome codes) paths of ``n_samples`` draws, the codes a
    tuple of ints, yielded in draw order: the letter from the prior, then
    each outcome with probability equal to the trace its Kraus map leaves on
    the current state. Drawn in arrays of _DRAW_ROWS paths, with the bits of
    one draw at a time: the uniforms as one block of the same stream, the
    weights clipped at 0 and summed in outcome order. Raises
    NumericRangeError for the first draw whose weights at a step sum below
    the smallest normal float."""
    rng = np.random.default_rng(seed)
    prior = model.ensemble.prior
    prior_cum = np.cumsum(prior / prior.sum())
    roots = np.array(_letter_roots(model))
    steps = [model.instrument_at(t) for t in range(1, model.horizon + 1)]
    effects = [[km.normalization() for km in instrument.maps] for instrument in steps]
    for start in range(0, n_samples, _DRAW_ROWS):
        draws = rng.random((min(_DRAW_ROWS, n_samples - start), 1 + model.horizon))
        letters = np.minimum(np.searchsorted(prior_cum, draws[:, 0], side="right"), len(prior) - 1)
        mains = roots[letters]
        codes = np.zeros((len(draws), model.horizon), dtype=np.int64)
        live = np.arange(len(draws))
        failed = {}  # draw -> (step, weight total) where its weights fell short
        for t, instrument in enumerate(steps):
            weights = np.empty((len(live), instrument.n_outcomes))
            for v, e in enumerate(effects[t]):
                weights[:, v] = np.trace(mains @ e, axis1=1, axis2=2).real
            weights[~(weights > 0.0)] = 0.0  # max(0.0, w): a NaN weight counts 0
            cum = np.cumsum(weights, axis=1)
            total = cum[:, -1]
            short = ~(total >= sys.float_info.min)
            failed.update((i, (t, w)) for i, w in zip(live[short].tolist(), total[short].tolist()))
            live, mains, cum, total = live[~short], mains[~short], cum[~short], total[~short]
            hits = (draws[live, 1 + t] * total)[:, np.newaxis] <= cum
            picks = np.where(hits.any(axis=1), hits.argmax(axis=1), instrument.n_outcomes - 1)
            codes[live, t] = picks
            for v in np.unique(picks).tolist():
                group = picks == v
                mains[group] = instrument.maps[v].apply(mains[group])
        if failed:
            first = min(failed)
            t, total = failed[first]
            path = [step.outcomes[code] for step, code in zip(steps, codes[first, :t].tolist())]
            raise NumericRangeError(
                f"{_path_name(int(letters[first]), path, t)}: outcome weights sum to {total!r}, "
                "below the smallest normal float"
            )
        yield from zip(letters.tolist(), map(tuple, codes.tolist()))


def sample_trajectories(
    model: MeasurementModel,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    stats: Optional[Counter] = None,
) -> Iterator[TrajectoryRecord]:
    """Draw trajectories under the physical law; deterministic in the seed.

    Records carry the same attached states as enumeration, with prob_at
    holding the true path probability (not the 1/N estimator weight). A
    record is a pure function of its path, so all paths are drawn and
    counted first (``_draw_paths``, a chunk at a time, so that memory grows
    with the distinct paths, not the draws), and each distinct path is
    replayed once and yielded once, in first-draw order, as a record whose
    ``count`` is its number of draws; the counts sum to ``n_samples``. The
    generator holds no record once it yields the next. ``stats``, when
    given, counts the "distinct paths" and the states decomposed, as in
    enumerate_trajectories. Raises NumericRangeError when the outcome
    weights or a path's mass fall below the smallest normal float.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    walk = _Walk(model, grid, stats)
    counts = Counter(_draw_paths(model, n_samples, seed))
    walk.stats["distinct paths"] += len(counts)
    for path, count in counts.items():
        yield walk.replay(*path, count)


# ---------------------------------------------------------------------------
# Consistency checks over one enumeration
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


class _Prefixes:
    """The first (probability, state) entry of each prefix (letter, outcomes
    up to t) at each record time t, with its number and its time's column,
    in arrays that grow by doubling; ``last`` holds each column's last entry
    and ``last_keys`` its number (-1 before the first)."""

    ARRAYS = ("keys", "cols", "probs", "matrices")

    def __init__(self, width, dim):
        self.size, self.deviation = 0, 0.0  # of later rows from the first of their prefix
        self.last, self.last_keys = np.full(width, -1), np.full(width, -1)
        self.keys, self.cols = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        self.probs, self.matrices = np.zeros(0), np.zeros((0, dim, dim), dtype=complex)

    def hold(self, keys, probs, sources, stack) -> None:
        """Hold the prefixes of a run's rows, column by column: (n, width)
        arrays of their numbers, probabilities and states (rows ``sources``
        of ``stack``), in emission order, where a column's numbers only grow.
        A row whose number differs from the one before it (across runs too)
        is new; any other is compared with the first of its prefix, unless
        it has the state row and probability of the row before it."""
        before = np.vstack([self.last_keys, keys[:-1]])
        if (keys < before).any():
            raise ValueError("prefix numbers fall: the records are not in emission order")
        new = keys != before
        counts = np.cumsum(new, axis=0)
        starts = self.size + np.cumsum(counts[-1]) - counts[-1]
        held = np.where(counts > 0, starts + counts - 1, self.last)
        rows = slice(self.size, self.size + int(counts[-1].sum()))
        _grow(self, self.ARRAYS, rows.stop)
        self.keys[rows], self.cols[rows] = keys.T[new.T], np.nonzero(new.T)[0]
        self.probs[rows], self.matrices[rows] = probs.T[new.T], stack[sources.T[new.T]]
        self.size, self.last, self.last_keys = rows.stop, held[-1], keys[-1]
        later = ~new
        later[1:] &= (sources[1:] != sources[:-1]) | (probs[1:] != probs[:-1])
        held, probs, sources = held[later], probs[later], sources[later]
        gaps = _worst(np.abs(self.probs[held] - probs), self.deviation)
        self.deviation = _worst(_norms(self.matrices[held] - stack[sources]), gaps)


def _group_sums(groups, count, probs, matrices, rows) -> np.ndarray:
    """Sum of probs[i] * matrices[rows[i]] per group index ``groups[i]``,
    each group added up from 0 in input order (np.add.at), _SLICE_ROWS
    terms at a time."""
    out = np.zeros((count,) + matrices.shape[1:], dtype=complex)
    for i in range(0, len(probs), _SLICE_ROWS):
        part = slice(i, i + _SLICE_ROWS)
        np.add.at(out, groups[part], probs[part, None, None] * matrices.take(rows[part], axis=0))
    return out


class ConsistencyAccumulator:
    """Streaming verifier of the structural identities of one enumeration,
    whose runs ``add`` takes in emission order: probability conservation,
    martingale marginals, measurability of the outcome-only states,
    a-priori averaging, map composition, the normalized-state recursion and
    the agreement of records that share a prefix or an increment string.

    Prefixes (letter, outcomes up to t) and increment strings (outcomes
    s+1..t) are numbered in mixed radix. A prefix's first entry is copied;
    an increment string is its row of the run's trie, found through the
    links, which ``_recheck`` checks on an independent route."""

    def __init__(self, model, grid, tol: float = 1e-9):
        if model.leaf_count() > np.iinfo(np.int64).max:
            raise BudgetExceeded(f"{model.leaf_count()} leaves are too many to key the tables")
        self.model, self.grid, self.tol = model, grid, tol
        self.eta = compute_a_priori(model, grid)
        self.total_prob = 0.0
        self._radix = [1] + [model.instrument_at(k).n_outcomes for k in range(1, model.horizon + 1)]
        self._count = np.cumprod(self._radix)  # outcome strings up to each time
        self._width = max(self._radix)  # links per trie row; a replayed path's table has 1
        times, refs, self._pairs = grid.record_times, grid.reference_times, tuple(grid.pairs())
        self._times = np.array(times)
        # the row of eta_s of each reference time s, and each pair's t and s
        self._roots = np.array([times.index(s) for s in refs], dtype=np.int64)
        self._t = np.array([t for _, t in self._pairs], dtype=np.int64)
        self._ref_of = np.array([refs.index(s) for s, _ in self._pairs], dtype=np.int64)
        self.prefix = _Prefixes(len(times), model.dim)
        self._trie, self._incr_deviation = None, 0.0  # the first block's table of states
        self._rechecked = set()  # letters whose first record was re-checked

    def _span(self, s, t):
        """The number of outcome strings of steps s+1..t."""
        return self._count[t] // self._count[s]

    def add(self, block: RecordBlock, rows) -> None:
        """Check the rows ``rows`` of ``block``, a run of records, in order;
        holds none of the block once it returns. Raises ValueError for
        records not of one enumeration or out of emission order."""
        block.check_grid(self.grid.record_times, self._pairs)
        states = block.states
        if self._trie is None and states.children.shape[1] == self._width:
            self._trie = states
        if states is not self._trie:
            raise ValueError("records of another table of states than the enumeration's trie")
        if block.letter not in self._rechecked:
            self._rechecked.add(block.letter)
            self._recheck(block, rows[0])
        prob_at = block.prob_at[rows]
        # added one by one, as the records came
        self.total_prob = float(np.cumsum(np.append(self.total_prob, prob_at[:, -1]))[-1])
        codes = block.codes[rows]
        strings = np.zeros((len(rows), len(self._radix)), dtype=np.int64)
        for k in range(1, len(self._radix)):
            strings[:, k] = strings[:, k - 1] * self._radix[k] + codes[:, k - 1]
        prefixes = block.letter * self._count[self._times] + strings[:, self._times]
        # the a-posteriori rows of every column, as rows of one stack
        offsets = np.cumsum([0] + [len(stack) for stack in block.posteriors[:-1]])
        sources = block.aposteriori[rows] + offsets
        self.prefix.hold(prefixes, prob_at, sources, np.concatenate(block.posteriors))
        # each eta_s row walked down the trie's links along the codes, a gather
        # a step: a record that points at another row deviates from this one
        found = [np.tile(self._roots, (len(rows), 1))]
        for t in range(1, self.model.horizon + 1):
            walk = states.children[found[-1], codes[:, t - 1, None]]
            found.append(np.where(self._times[self._roots] < t, walk, found[-1]))
            if (found[-1] < 0).any():
                raise ValueError("a record's increment string has no row in the trie")
        found = np.stack(found, axis=1)[:, self._t, self._ref_of]
        given = block.conditioned[rows]
        given, found = given[given != found], found[given != found]
        gaps = _worst(np.abs(states.mass[given] - states.mass[found]), self._incr_deviation)
        self._incr_deviation = _worst(_norms(states.matrices(given) - states.matrices(found)), gaps)

    def _recheck(self, block: RecordBlock, row: int) -> None:
        """Fold into ``increment-dependence`` the deviation of a row's increment
        masses and conditioned states from each eta_s pushed along the row's
        own outcomes, one Kraus application per step."""
        codes, records = block.codes[row].tolist(), set(self.grid.record_times)
        pushed = []  # in pair order
        for s in self.grid.reference_times:
            matrix = self.eta[s].matrix
            for t in range(s, self.model.horizon + 1):
                if t > s:
                    matrix = self.model.instrument_at(t).maps[codes[t - 1]].apply(matrix)
                if t in records:
                    pushed.append(matrix)
        pushed = np.array(pushed).reshape(-1, self.model.dim, self.model.dim)
        masses = np.trace(pushed, axis1=1, axis2=2).real
        theirs = _hermitian_part(pushed / masses[:, np.newaxis, np.newaxis])
        conditioned = block.conditioned[row]
        mine = block.states.matrices(conditioned)
        gaps = np.abs(block.states.mass[conditioned] - masses)
        self._incr_deviation = _worst(_norms(mine - theirs), _worst(gaps, self._incr_deviation))

    def _increments(self, children) -> dict:
        """String numbers and trie rows of each pair's increment strings, in
        string order: a breadth-first walk of the links from each eta_s."""
        columns = {}
        for s, root in zip(self.grid.reference_times, self._roots):
            columns[(s, s)] = keys, rows = np.zeros(1, dtype=np.int64), root[np.newaxis]
            for t in range(s + 1, self.model.horizon + 1):
                rows, digits = children[rows, : self._radix[t]], np.arange(self._radix[t])
                keys = (keys[:, np.newaxis] * len(digits) + digits)[rows >= 0]
                rows = rows[rows >= 0]
                if t in self.grid.record_times:
                    columns[(s, t)] = keys, rows
        return columns

    def _pushed(self, stack, keys, s, t):
        """``stack``, a matrix per key (a string ending at t), pushed in place
        through the maps of steps s+1..t along the key's digits: one Kraus
        application per (step, outcome) group of up to _SLICE_ROWS rows."""
        for step in range(s + 1, t + 1):
            labels = keys // self._span(step, t) % self._radix[step]
            for v, kraus in enumerate(self.model.instrument_at(step).maps):
                group = np.flatnonzero(labels == v)
                for i in range(0, len(group), _SLICE_ROWS):
                    rows = group[i : i + _SLICE_ROWS]
                    stack[rows] = kraus.apply(stack[rows])
        return stack

    def _composition_residuals(self, trie, incr):
        """Conditioning r -> s, rescaling, then s -> t must match r -> t:
        one residual per increment string that has a parent."""
        times = self.grid.record_times
        residuals = [np.zeros(0)]
        for s, t in zip(times, times[1:]):
            for r in self.grid.reference_times:
                if r <= s:
                    (keys, rows), (starts, parents) = incr[(r, t)], incr[(r, s)]
                    parents = parents[np.searchsorted(starts, keys // self._span(s, t))]
                    via = trie.matrices(parents) * trie.mass[parents, None, None]
                    via = self._pushed(via, keys, s, t)
                    via -= trie.mass[rows, None, None] * trie.matrices(rows)
                    residuals.append(_norms(via))
        return np.concatenate(residuals)

    def _recursion_residuals(self, columns):
        """The state at s pushed to t and normalized must be the state at t,
        per prefix; a pushed trace <= 0 gives residual 1."""
        times = self.grid.record_times
        residuals = [np.zeros(0)]
        for i, (s, t) in enumerate(zip(times, times[1:])):
            (starts, _, above), (keys, _, rows) = columns[i : i + 2]
            parents = above[np.searchsorted(starts, keys // self._span(s, t))]
            pushed = self._pushed(self.prefix.matrices[parents], keys, s, t)
            trace = np.trace(pushed, axis1=1, axis2=2).real
            positive = ~(trace <= 0.0)
            pushed /= np.where(positive, trace, 1.0)[:, None, None]
            pushed -= self.prefix.matrices[rows]
            residuals.append(np.where(positive, _norms(pushed), 1.0))
        return np.concatenate(residuals)

    def finalize(self) -> CheckReport:
        """One check per identity; each margin is minus its residual. Lets go
        of the trie, but for its links, masses and pushed matrices."""
        trie = copy.copy(self._trie or IncrementTrie(self.eta.batch, self._width))
        self._trie = None
        del trie.eigenvalues, trie.eigenvectors
        incr = self._increments(trie.children)
        times = self.grid.record_times
        prefix = self.prefix
        held = [np.flatnonzero(prefix.cols[: prefix.size] == col) for col in range(len(times))]
        columns = [(prefix.keys[rows], prefix.probs[rows], rows) for rows in held]
        checks = [Check("total-probability", -abs(self.total_prob - 1.0), self.tol)]
        for i, s in enumerate(times):
            starts, probs_s, _ = columns[i]
            for t, (keys_t, probs_t, _) in zip(times[i + 1 :], columns[i + 1 :]):
                groups, inverse = np.unique(keys_t // self._span(s, t), return_inverse=True)
                totals = np.bincount(inverse, probs_t, len(groups))
                residual = _worst(np.abs(totals - probs_s[np.searchsorted(starts, groups)]))
                checks.append(Check("martingale", -residual, self.tol, (s, t)))
        for (s, t), (strings, rows) in incr.items():
            total = sum(trie.mass[rows].tolist())
            checks.append(Check("increment-total", -abs(total - 1.0), self.tol, (s, t)))
            keys_t, probs_t, rows_t = columns[times.index(t)]
            groups, inverse = np.unique(keys_t % self._span(s, t), return_inverse=True)
            mass = np.bincount(inverse, probs_t, len(groups))
            mean = _group_sums(inverse, len(groups), probs_t, prefix.matrices, rows_t)
            rows_z = rows[np.searchsorted(strings, groups)]
            positive = mass > 0.0
            mean /= np.where(positive, mass, 1.0)[:, None, None]
            mean -= trie.matrices(rows_z)
            residual = _worst(_norms(mean)[positive], _worst(np.abs(mass - trie.mass[rows_z])))
            checks.append(Check("measurability", -residual, self.tol, (s, t)))
        for t, (_, probs_t, rows_t) in zip(times, columns):
            groups = np.zeros(len(probs_t), dtype=int)
            acc = _group_sums(groups, 1, probs_t, prefix.matrices, rows_t)
            residual = _worst(_norms(acc - self.eta[t].matrix))
            checks.append(Check("apriori-mean", -residual, self.tol, (t,)))
        checks.append(Check("prefix-dependence", -prefix.deviation, 1e-12))
        checks.append(Check("increment-dependence", -self._incr_deviation, 1e-12))
        checks.append(Check("composition", -_worst(self._composition_residuals(trie, incr)), 1e-12))
        checks.append(Check("state-recursion", -_worst(self._recursion_residuals(columns)), 1e-10))
        return CheckReport(checks=tuple(checks))


def consistency_checks(
    model: MeasurementModel,
    grid: TimeGrid,
    records: Optional[Iterable[TrajectoryRecord]] = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Run all structural checks over the records of one enumeration, in
    emission order: by default those of enumerate_trajectories (which
    requires enumeration to be feasible within DEFAULT_LEAF_BUDGET)."""
    acc = ConsistencyAccumulator(model, grid, tol=tol)
    if records is None:
        records = enumerate_trajectories(model, grid)
    for block, rows, _ in runs(records):
        acc.add(block, rows)
    return acc.finalize()
