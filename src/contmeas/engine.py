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
    log_supports,
    relative_entropies,
)

# A branch is pruned when its trace drops below this fraction of its parent.
PRUNE_REL_TOL = 1e-14
# Nodes stepped together: the walk holds the nodes of one depth in blocks of
# at most this many, in emission order, each one (n, d, d) array.
BLOCK_NODES = 256
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
    the math.log of it, the entropy of the state, its log-support table and
    flag (quantum.log_supports), and the child row of each outcome. The
    normalized matrix is worked out from the pushed one and its mass by the
    steps DensityOperator.from_stack takes, so it has the same bits. Row i is
    eta_t of the i-th record time t (mass 1), taken from the batch ``eta``
    that compute_a_priori decomposed; the relative entropies against eta_t
    read its log-support table there. A row is validated and decomposed when a
    record time first needs it (done). Enumeration grows one table per run
    by ``step``, a trie per reference time s rooted at the row of eta_s; a
    replay copies the tracks it pushes into a table of its own."""

    ARRAYS = ("mass", "pushed", "entropy", "log_support", "null", "children", "done", "log_mass")

    def __init__(self, eta: StateBatch, width=1):
        self.size = len(eta.entropies)
        self.mass, self.pushed, self.entropy = np.ones(self.size), *map(np.copy, eta[:2])
        self.log_support, self.null = log_supports(eta.eigenvalues, eta.eigenvectors)
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
        bit); the batch has the eigenvectors of these states alone."""
        self.mass[rows], self.entropy[rows] = masses, batch.entropies[start:]
        self.log_mass[rows] = [math.log(mass) for mass in masses.tolist()]
        tables = log_supports(batch.eigenvalues[start:], batch.eigenvectors)
        self.log_support[rows], self.null[rows] = tables
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


def _node_states(stack, spectra_only):
    """Masses and validated normalized states of a (..., d, d) stack of
    unnormalized states, both flat in stack order, the first
    ``spectra_only`` with no eigenvectors. Checked in that order, each
    member's mass before its state."""
    flat = stack.reshape((-1,) + stack.shape[-2:])
    masses = np.trace(flat, axis1=1, axis2=2).real
    k = _first_false(masses >= sys.float_info.min)
    batch = DensityOperator.from_stack(flat[:k] / masses[:k, None, None], spectra_only)
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
        holds the main states (no eigenvectors) and the new rows; an error
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
            masses, batch = _node_states(np.concatenate([stacks, states.pushed[new]]), n)
        except (NotPositiveSemidefinite, NumericRangeError):
            # the first failing node raises the same error on its own
            for i in range(n):
                try:
                    _node_states(np.concatenate([stacks[i : i + 1], states.pushed[own[i]]]), 1)
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
        each main state against the rows of eta_t and its tracks, read as
        log-support tables. A track seeded at t is eta_t itself: its row."""
        col, track_cols, seeded = self.columns[t]
        states = block.states
        n = len(rows)
        both = np.concatenate([np.full((n, 1), col), rows], axis=1)
        tables, null = states.log_support.take(both, axis=0), states.null.take(both)
        chis = relative_entropies(batch.eigenvalues[:n], batch.matrices[:n], tables, null)
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
    """Largest of ``worst`` and the ``residuals``. Unlike the builtin ``max`` (``max(0.0,
    nan)`` is 0.0) np.max keeps a NaN, so that a NaN residual fails its check."""
    return float(np.max(residuals, initial=worst))


def _norms(stack, minus=lambda part: 0.0) -> np.ndarray:
    """Frobenius norm of each matrix of a (m, d, d) stack less ``minus(part)``,
    a slice ``part`` at a time."""
    out = np.empty(len(stack))
    for i in range(0, len(stack), _SLICE_ROWS):
        part = slice(i, i + _SLICE_ROWS)
        out[part] = np.linalg.norm(stack[part] - minus(part), axis=(1, 2))
    return out


def _group_sums(groups, count, terms, out) -> np.ndarray:
    """``out``, the sums of the (m, d, d) ``terms`` by group, each from 0 in
    input order: by np.add.reduce down the (prefix, group) tile when groups
    run 0..count-1 over and over, else by np.add.at, _SLICE_ROWS at a time."""
    if count and len(groups) % count == 0 and (groups.reshape(-1, count) == np.arange(count)).all():
        return np.add.reduce(terms.reshape((-1, count) + terms.shape[1:]), 0, initial=0.0, out=out)
    out[...] = 0.0
    for i in range(0, len(groups), _SLICE_ROWS):
        np.add.at(out, groups[i : i + _SLICE_ROWS], terms[i : i + _SLICE_ROWS])
    return out


class ConsistencyAccumulator:
    """Streaming verifier of the structural identities of one enumeration, whose runs
    ``add`` takes in emission order: probability conservation, martingale marginals,
    measurability of the outcome-only states, a-priori averaging, map composition, the
    normalized-state recursion and the agreement of records that share a prefix or an
    increment string. Prefixes (letter, outcomes up to t) and increment strings (outcomes
    s+1..t) are numbered in mixed radix. An increment string is its row of the run's trie,
    found through the links, which ``_recheck`` checks on an independent route. A prefix's
    first (probability, state) entry at each record time t is copied, with its number and
    its time's column, into the first ``size`` rows of ``keys``, ``cols``, ``probs`` and
    ``matrices``, arrays that grow by doubling; ``_last`` holds each column's last entry and
    ``_last_keys`` its number (-1 before the first). ``add`` keeps a run's prefix numbers,
    rows and a-posteriori stacks, not its block, until ``hold`` holds the runs kept, a few
    _SLICE_ROWS states at a time; ``_total`` sums the records' probabilities in their order."""

    def __init__(self, model, grid, tol: float = 1e-9):
        if model.leaf_count() > np.iinfo(np.int64).max:
            raise BudgetExceeded(f"{model.leaf_count()} leaves are too many to key the tables")
        self.model, self.grid, self.tol = model, grid, tol
        self.eta = compute_a_priori(model, grid)
        self._radix = [1] + [model.instrument_at(k).n_outcomes for k in range(1, model.horizon + 1)]
        self._count = np.cumprod(self._radix)  # outcome strings up to each time
        self._width = max(self._radix)  # links per trie row; a replayed path's table has 1
        times, refs, self._pairs = grid.record_times, grid.reference_times, tuple(grid.pairs())
        # prefix numbers are letter * _count_at + codes @ _digits, by record time
        self._count_at, steps = self._count[list(times)], np.arange(1, model.horizon + 1)[:, None]
        self._digits = (steps <= times) * (self._count_at // self._count[np.minimum(steps, times)])
        # per pair (s, t): t, the pair before it, (s, t') (itself when t = s), the codes t'+1..t
        # by which its trie row is a child of that pair's, and the row of eta_s (s's column)
        s, t = np.array(self._pairs, dtype=np.int64).reshape(-1, 2).T
        self._ends, self._before, self._seeded = t, np.arange(len(s)) - (s < t), s == t
        gaps, self._roots = t - t[self._before], np.searchsorted(times, s)
        self._hops = [(gaps > k, t[self._before][gaps > k] + k) for k in range(gaps.max(initial=0))]
        self._trie, self._incr_deviation = None, 0.0  # the first block's table of states
        self.size, self._prefix_deviation = 0, 0.0  # of later rows from the first of their prefix
        self._runs, self._kept, self._total = [], 0, 0.0
        self._last, self._last_keys = np.full(len(times), -1), np.full(len(times), -1)
        self.keys, self.cols = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        self.probs, self.matrices = np.zeros(0), np.zeros((0, model.dim, model.dim), dtype=complex)
        self._rechecked = set()  # letters whose first record was re-checked

    def add(self, block: RecordBlock, rows) -> None:
        """Check the rows ``rows`` of ``block``, a run of records, in order; their
        prefixes are held a few runs at a time (see ``hold``), and no block is
        kept. Raises ValueError for records not of one enumeration or out of
        emission order."""
        block.check_grid(self.grid.record_times, self._pairs)
        trie = block.states
        if self._trie is None and trie.children.shape[1] == self._width:
            self._trie = trie
        if trie is not self._trie:
            raise ValueError("records of another table of states than the enumeration's trie")
        codes, given = block.codes[rows], block.conditioned[rows]
        if (given < 0).any():  # -1 marks a row never written
            raise ValueError("a record's increment string has no row in the trie")
        if block.letter not in self._rechecked:
            self._rechecked.add(block.letter)
            self._recheck(trie, codes[0], given[0])
        keys = block.letter * self._count_at + codes @ self._digits
        self._runs.append((keys, block.prob_at[rows], block.aposteriori[rows], *block.posteriors))
        self._kept += sum(map(len, block.posteriors))
        if self._kept >= 8 * _SLICE_ROWS:
            self.hold()
        # the rows eta_s reaches down the trie's links along the codes, each pair's from the row of
        # the pair before until none moves (-1 is the last row); a record's other rows deviate
        links, found, walked = trie.children[: trie.size], None, given
        while not np.array_equal(walked, found):
            found, walked = walked, np.where(self._seeded, self._roots, walked[:, self._before])
            for moving, steps in self._hops:
                walked[:, moving] = links[walked[:, moving], codes[:, steps]]
        if (found < 0).any():
            raise ValueError("a record's increment string has no row in the trie")
        other = given != found
        if other.any():
            given, found = given[other], found[other]
            gaps = _worst(np.abs(trie.mass[given] - trie.mass[found]), self._incr_deviation)
            self._incr_deviation = _worst(_norms(trie.matrices(given) - trie.matrices(found)), gaps)

    def _recheck(self, trie: IncrementTrie, codes, rows) -> None:
        """Fold into ``increment-dependence`` the deviation of a record's increment masses and
        states, the trie rows ``rows``, from eta_s pushed along its outcome ``codes``, one Kraus
        application per step for all."""
        s, t = np.take(self.grid.record_times, self._roots), self._ends
        codes, pushed = codes.tolist(), self.eta.batch.matrices[self._roots]
        for step in range(1, self.model.horizon + 1):
            moving = (s < step) & (step <= t)
            if moving.any():
                kraus = self.model.instrument_at(step).maps[codes[step - 1]]
                pushed[moving] = kraus.apply(pushed[moving])
        masses = np.trace(pushed, axis1=1, axis2=2).real
        theirs = _hermitian_part(pushed / masses[:, np.newaxis, np.newaxis])
        gaps = _worst(np.abs(trie.mass[rows] - masses), self._incr_deviation)
        self._incr_deviation = _worst(_norms(trie.matrices(rows) - theirs), gaps)

    def hold(self) -> None:
        """Hold the prefixes of the runs kept, column by column, in emission order, where a
        column's numbers only grow. A row whose number differs from the one before it (across
        runs too) is new; any other is compared with the first of its prefix, unless it has
        the state row and probability of the row before it."""
        if not self._runs:
            return
        keys, probs, sources, *stacks = zip(*self._runs)  # stacks by column, then run
        sizes, self._runs, self._kept, stacks = [len(run) for run in keys], [], 0, sum(stacks, ())
        keys, probs = np.concatenate(keys), np.concatenate(probs)
        # added one by one, as the records came
        self._total = float(np.cumsum(np.append(self._total, probs[:, -1]))[-1])
        # the a-posteriori rows of every run and column, as rows of one stack with each stack once
        distinct = {id(s): s for s in stacks}
        at = dict(zip(distinct, np.cumsum([0] + [len(s) for s in distinct.values()]).tolist()))
        offsets = np.array([at[id(s)] for s in stacks]).reshape(-1, len(sizes)).T
        sources = np.concatenate(sources) + np.repeat(offsets, sizes, axis=0)
        stack = np.concatenate(list(distinct.values()))
        before = np.concatenate([self._last_keys[np.newaxis], keys[:-1]])
        if (keys < before).any():
            raise ValueError("prefix numbers fall: the records are not in emission order")
        new = keys != before
        counts = np.cumsum(new, axis=0)
        starts = self.size + np.cumsum(counts[-1]) - counts[-1]
        held = np.where(counts > 0, starts + counts - 1, self._last)
        rows = slice(self.size, self.size + int(counts[-1].sum()))
        _grow(self, ("keys", "cols", "probs", "matrices"), rows.stop)
        self.keys[rows], self.cols[rows] = keys.T[new.T], np.nonzero(new.T)[0]
        self.probs[rows] = probs.T[new.T]  # and the matrices in place ("raise" would copy them)
        np.take(stack, sources.T[new.T], axis=0, out=self.matrices[rows], mode="clip")
        self.size, self._last, self._last_keys = rows.stop, held[-1], keys[-1]
        later = ~new
        later[1:] &= (sources[1:] != sources[:-1]) | (probs[1:] != probs[:-1])
        held, probs, sources = held[later], probs[later], sources[later]
        gaps = _worst(np.abs(self.probs[held] - probs), self._prefix_deviation)
        self._prefix_deviation = _worst(_norms(self.matrices[held] - stack[sources]), gaps)

    def _strings(self, children) -> Iterator[tuple]:
        """Per record time t, by a breadth-first walk of the links: the numbers, rows and s
        (its index) of the strings s+1..t of each reference time s < t in (s, string) order,
        and each one's place at the record time before: in what was yielded there, then eta's."""
        refs = self.grid.reference_times
        keys = rows = of = origins = np.zeros(0, dtype=np.int64)
        for t in range(self.model.horizon + 1):
            below = children[rows, : self._radix[t]]
            kept, counts = below >= 0, (below >= 0).sum(axis=1)
            keys = (keys[:, None] * self._radix[t] + np.arange(self._radix[t]))[kept]
            rows, of, origins = below[kept], np.repeat(of, counts), np.repeat(origins, counts)
            if t in self.grid.record_times:
                yield keys, rows, of, origins
                origins = np.arange(len(rows))
            if t in refs:
                eta = (0, self.grid.record_times.index(t), refs.index(t), len(rows))
                keys, rows, of, origins = map(np.append, (keys, rows, of, origins), eta)

    def _pushed(self, stack, keys, s, t):
        """``stack``, a matrix per key (a string ending at t), pushed in place
        through the maps of steps s+1..t along the key's digits: one Kraus
        application per (step, outcome) group of up to _SLICE_ROWS rows."""
        for step in range(s + 1, t + 1):
            labels = keys // (self._count[t] // self._count[step]) % self._radix[step]
            for v, kraus in enumerate(self.model.instrument_at(step).maps):
                group = np.flatnonzero(labels == v)
                for i in range(0, len(group), _SLICE_ROWS):
                    rows = group[i : i + _SLICE_ROWS]
                    stack[rows] = kraus.apply(stack[rows])
        return stack

    def finalize(self) -> CheckReport:
        """One check per identity; each margin is minus its residual. Lets go of
        the trie but its links, masses and pushed matrices (see README)."""
        trie, self._trie = copy.copy(self._trie or IncrementTrie(self.eta.batch, self._width)), None
        self.hold()
        del trie.log_support, trie.null
        times, refs = self.grid.record_times, self.grid.reference_times
        order = np.argsort(self.cols[: self.size], kind="stable")  # by column, in prefix order
        bounds = np.searchsorted(self.cols[order], np.arange(len(times) + 1)).tolist()
        keys, probs = self.keys[order], self.probs[order]
        martingale, measurability, apriori, composition, recursion = {}, {}, [], 0.0, 0.0
        for i, (t, level) in enumerate(zip(times, self._strings(trie.children))):
            (strings, rows, of, origins), (a, b) = level, bounds[i : i + 2]
            entries, keys_t, probs_t = order[a:b], keys[a:b], probs[a:b]
            # the prefixes at t by their prefix at each s before: every record has one at
            # each time, so the k-th run of equal prefixes at s is the k-th held prefix there
            for j, s in enumerate(times[:i]):
                first = np.diff(keys_t // (self._count[t] // self._count[s]), prepend=-1) != 0
                parents, held = np.cumsum(first) - 1, probs[bounds[j] : bounds[j + 1]]
                martingale[(s, t)] = _worst(np.abs(np.bincount(parents, probs_t, len(held)) - held))
            # the prefixes at t, weighted once, summed per string of each s <= t (last t - s digits)
            rows, starts = np.append(rows, i), np.searchsorted(of, range(len(refs) + 1)).tolist()
            spans = [(s, j, k) for s, j, k in zip(refs, starts, starts[1:]) if s < t]
            spans += [(t, len(strings), len(rows))]
            weighted = self.matrices[entries]
            weighted *= probs_t[:, None, None]
            sums = np.empty((len(rows),) + weighted.shape[1:], dtype=complex)
            mass, hits = np.empty(len(rows)), np.empty(len(rows), dtype=np.int64)
            for s, j, k in spans:
                z = np.searchsorted(strings[j:k], keys_t % (self._count[t] // self._count[s]))
                _group_sums(z, k - j, weighted, sums[j:k])
                mass[j:k], hits[j:k] = np.bincount(z, probs_t, k - j), np.bincount(z, None, k - j)
            del weighted
            apriori.append(_worst(_norms(sums[-1:] - self.eta[t].matrix)))
            masses, matrices = trie.mass[rows], np.empty_like(sums)
            for j in range(0, len(rows), _SLICE_ROWS):
                matrices[j : j + _SLICE_ROWS] = trie.matrices(rows[j : j + _SLICE_ROWS])
            sums /= np.where(mass > 0.0, mass, 1.0)[:, None, None]
            gaps = np.where(mass > 0.0, _norms(sums, matrices.__getitem__), 0.0)
            gaps = np.where(hits > 0, np.maximum(gaps, np.abs(mass - masses)), 0.0)
            del sums
            for s, j, k in spans:
                total, pair = sum(masses[j:k].tolist()), (s, t)
                measurability[pair] = (Check("increment-total", -abs(total - 1.0), self.tol, pair),
                                       Check("measurability", -_worst(gaps[j:k]), self.tol, pair))
            matrices *= masses[:, None, None]  # times their masses, as composition compares them
            if i:  # push the strings of each s < t, then the prefixes, from times[i - 1]
                via = self._pushed(before[origins], strings, times[i - 1], t)
                composition = _worst(_norms(via, matrices[:-1].__getitem__), composition)
                del via, before
                pushed = self.matrices[order[bounds[i - 1] + parents]]  # their prefixes there
                pushed = self._pushed(pushed, keys_t, times[i - 1], t)
                trace = np.trace(pushed, axis1=1, axis2=2).real
                positive = ~(trace <= 0.0)
                pushed /= np.where(positive, trace, 1.0)[:, None, None]
                residuals = _norms(pushed, lambda part: self.matrices[entries[part]])
                recursion = _worst(np.where(positive, residuals, 1.0), recursion)
            before, pushed = matrices, None
        checks = [Check("total-probability", -abs(self._total - 1.0), self.tol)]
        checks += [Check("martingale", -r, self.tol, p) for p, r in sorted(martingale.items())]
        checks += [check for pair in self._pairs for check in measurability[pair]]
        checks += [Check("apriori-mean", -r, self.tol, (t,)) for t, r in zip(times, apriori)]
        checks += [Check("prefix-dependence", -self._prefix_deviation, 1e-12),
                   Check("increment-dependence", -self._incr_deviation, 1e-12),
                   Check("composition", -composition, 1e-12),
                   Check("state-recursion", -recursion, 1e-10)]
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
    block = rows = None  # the last run's block holds the trie, which finalize lets go
    return acc.finalize()
