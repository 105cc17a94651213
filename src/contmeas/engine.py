"""Trajectory engine: exhaustive enumeration of the outcome tree and seeded
Monte-Carlo sampling.

A trajectory is one (letter, outcome string) path. Along each path the
engine carries the unnormalized conditional state of the system. The
outcome-only conditioned state of a reference time s is the a-priori state
at s pushed through the outcome maps of the later steps; it depends only on
the increments s+1..t, which is what the outcome-only conditioning requires.
The walk reads these states (a node's tracks) from one route only, the rows
of a table of states: enumeration keeps them once per (s, increment
string), in an increment trie shared by all letters and prefixes; a
replayed path (and so the sampler) pushes them with its own state, seeded
with the a-priori state when it passes depth s, and copies them into rows
of a table of its own at each record time. The sampler draws its paths in
arrays and replays each distinct path once, into one record that carries
its number of draws.

All probabilities are plain probabilities under the physical law; the
uniform reference-measure densities differ from them by constant factors
that cancel in every information functional (see the model module).

Emission order is deterministic: letters ascending, outcome labels in
sorted order, depth first. Zero-probability branches are pruned, never
normalized.
"""

from __future__ import annotations

import copy
import math
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
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
# at most this many, in emission order, each one (n, L, d, d) array.
BLOCK_NODES = 32
# Default cap on letters x outcome strings for exhaustive enumeration.
DEFAULT_LEAF_BUDGET = 10**7
# At most this many increment-trie rows are allocated before the walk.
_TRIE_ROWS = 4096
# The consistency checks form their (m, d, d) temporaries at most this many
# rows at a time, so that finalize's peak memory stays near the walk's.
_SLICE_ROWS = 256
# The sampler draws at most this many paths as one set of arrays.
_DRAW_ROWS = 1024


_TIME_COLUMNS = ("prob_at", "aposteriori", "entropy", "chi_at_term")
_PAIR_COLUMNS = ("incr_prob", "conditioned", "cond_entropy", "chi_term")


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
    s+1..t), kept as arrays: the pushed (unnormalized) matrix, its mass, the
    entropy and spectrum of the state, and the child row of each outcome.
    The normalized matrix is worked out from the first two by the steps
    DensityOperator.from_stack takes, so it has the same bits. Row i < R is
    eta_s of the i-th reference time s (mass 1), given as ``roots``. A row
    is validated and decomposed when a record time first needs it (done).
    Enumeration grows one table per run by ``step``, a trie per s rooted at
    eta_s; a replay copies the tracks it pushes into a table of its own."""

    ARRAYS = ("mass", "pushed", "entropy", "eigenvalues", "eigenvectors", "children", "done")

    def __init__(self, roots, width=1, capacity=0):
        self.size = len(roots[0])
        for name, values in zip(self.ARRAYS, roots):
            setattr(self, name, values.copy())
        self.children = np.full((self.size, width), -1)
        self.done = np.ones(self.size, dtype=bool)
        _grow(self, self.ARRAYS, capacity)

    def reserve(self, count) -> np.ndarray:
        """``count`` new rows with no children, not written or decomposed."""
        rows = np.arange(self.size, self.size + count)
        _grow(self, self.ARRAYS, self.size + count)
        self.size += count
        self.children[rows], self.done[rows] = -1, False
        return rows

    def write(self, rows, masses, batch: StateBatch, start: int) -> None:
        """Rows ``rows`` hold the states batch[start:] of masses ``masses``."""
        self.mass[rows], self.entropy[rows] = masses, batch.entropies[start:]
        self.eigenvalues[rows] = batch.eigenvalues[start:]
        self.eigenvectors[rows] = batch.eigenvectors[start:]
        self.done[rows] = True

    def matrices(self, rows) -> np.ndarray:
        """The normalized matrices of ``rows``."""
        return _hermitian_part(self.pushed[rows] / self.mass[rows, ..., None, None])

    def state(self, row) -> DensityOperator:
        return DensityOperator(self.matrices(row), self.entropy.item(row))

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
    of (letter, outcomes up to t); aposteriori, the state given them (a
    DensityOperator, shared by the rows of a subtree); its entropy; and
    chi_at_term, its relative entropy against the a-priori state. By pair
    (s, t), (n, len(pairs)): incr_prob, the mass of the outcomes s+1..t
    alone from the a-priori state at s; conditioned, the row in ``states``
    of the state given them; its cond_entropy; and chi_term, the relative
    entropy of aposteriori[t] against it. ``codes`` holds each node's
    outcome index at each step. A column not reached yet holds NaN (None
    for states, -1 for rows)."""

    __slots__ = ("letter", "times", "pairs", "index", "states", "codes")
    __slots__ += _TIME_COLUMNS + _PAIR_COLUMNS

    def __init__(self, letter, times, pairs, index, states, horizon):
        """The one-row block of a letter's root; ``index`` maps each time and
        each pair to its column."""
        self.letter, self.times, self.pairs, self.states = letter, times, pairs, states
        self.index = index
        self.codes = np.zeros((1, horizon), dtype=np.int64)
        fills = {"aposteriori": (None, object), "conditioned": (-1, np.int64)}
        for name in _TIME_COLUMNS + _PAIR_COLUMNS:
            width = len(times) if name in _TIME_COLUMNS else len(pairs)
            fill, dtype = fills.get(name, (np.nan, float))
            setattr(self, name, np.full((1, width), fill, dtype=dtype))

    def take(self, rows) -> "RecordBlock":
        """A new block of copies of the given rows, on the same states."""
        block = copy.copy(self)
        for name in ("codes",) + _TIME_COLUMNS + _PAIR_COLUMNS:
            setattr(block, name, getattr(self, name)[rows])
        return block

    def check_grid(self, times, pairs) -> None:
        if self.times != tuple(times) or self.pairs != tuple(pairs):
            raise GridMiss("the records were made on another time grid")


class RecordRow(Mapping):
    """One record's entries of one column, keyed by time or by (s, t) pair;
    a lookup reads one element. A ``conditioned`` entry is the state of its
    row in the block's states."""

    __slots__ = ("_block", "_row", "_name", "_index")

    def __init__(self, block: RecordBlock, row: int, name: str):
        self._block, self._row, self._name = block, row, name
        self._index = block.index[name in _PAIR_COLUMNS]

    def __getitem__(self, key):
        value = getattr(self._block, self._name).item(self._row, self._index[key])
        return self._block.states.state(value) if self._name == "conditioned" else value

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One enumerated trajectory, or one distinct sampled path with
    ``count``, its number of draws (1 in enumeration): row ``row`` of a
    block of leaves. Each column of the block reads as a read-only mapping
    of this row, keyed by time or by (s, t) pair: ``rec.prob_at[t]``,
    ``rec.conditioned[(s, t)]`` (see RecordBlock and RecordRow). The
    entropic terms are cached so that report building never re-decomposes
    a matrix."""

    letter: int
    outcomes: tuple
    block: RecordBlock
    row: int
    count: int = 1

    def __getattr__(self, name):
        if name not in _TIME_COLUMNS + _PAIR_COLUMNS:
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
    """What enumeration and sampling share: the letter roots, and the step
    taken at every node of a path. Nodes are stepped in blocks of siblings
    at one depth, held as one (n, L, d, d) array, and the per-node step
    ``visit`` writes each record time. A node's outcome-only conditioned
    states (its tracks, one per reference time passed so far, in seeding
    order) are rows of its block's table of states: of the increment trie
    in enumeration, of the record's own table in a replay."""

    def __init__(
        self, model: MeasurementModel, grid: TimeGrid, apriori: Optional[APrioriTrack], stats=None
    ):
        self.model = model
        self.eta = _track(model, grid, apriori)
        self.roots = _letter_roots(model)
        # states decomposed: "path states" (main states), "increment states"
        self.stats = Counter() if stats is None else stats
        refs = grid.reference_times
        d = model.dim
        spectra = [self.eta.spectra[s] for s in refs]
        # the rows of the reference times in every table of conditioned states
        self.root_row = {s: i for i, s in enumerate(refs)}
        self.root_states = (
            np.ones(len(refs)),
            np.array([self.eta[s].matrix for s in refs], dtype=complex).reshape(-1, d, d),
            np.array([self.eta[s].entropy for s in refs], dtype=float),
            np.array([lam for lam, _ in spectra], dtype=float).reshape(-1, d),
            np.array([vec for _, vec in spectra], dtype=complex).reshape(-1, d, d),
        )
        self.times = grid.record_times
        self.pairs = tuple(grid.pairs())
        pair_col = {pair: col for col, pair in enumerate(self.pairs)}
        self.index = ({t: col for col, t in enumerate(self.times)}, pair_col)
        # per record time: its column, the pair columns of the tracks seeded
        # before it and the pair column of the track seeded at it (or None)
        self.columns = {
            t: (
                col,
                np.array([pair_col[(s, t)] for s in refs if s < t], dtype=int),
                pair_col[(t, t)] if t in self.root_row else None,
            )
            for col, t in enumerate(self.times)
        }

    def root(self, letter, states=None) -> RecordBlock:
        """The root block of a letter; its tracks go to ``states``, by
        default a table of their own."""
        if states is None:
            states = IncrementTrie(self.root_states, capacity=len(self.pairs))
        return RecordBlock(letter, self.times, self.pairs, self.index, states, self.model.horizon)

    def visit(self, paths, t, stacks, block, rows):
        """Seed the reference track of time t in every node of a block and
        write its record-time columns into ``block``; ``paths`` holds the
        nodes' outcome strings in emission order, ``stacks`` (n, L, d, d)
        their main states first and ``rows`` (n, k) their tracks as rows of
        ``block.states``. One validated batch holds the main states and the
        rows not decomposed before; an error names the trajectory of the
        first failing node. Returns the rows with the track seeded at t."""
        n, root = len(stacks), self.root_row.get(t)
        if root is not None:
            rows = np.concatenate([rows, np.full((n, 1), root)], axis=1)
        if t not in self.columns:
            return rows
        states = block.states
        own = rows[:, : len(self.columns[t][1])]
        new = np.unique(own[~states.done[own]])
        try:
            masses, batch = _node_states(np.concatenate([stacks[:, 0], states.pushed[new]]))
        except (NotPositiveSemidefinite, NumericRangeError):
            # the first failing node raises the same error on its own
            for i, path in enumerate(paths):
                try:
                    _node_states(np.concatenate([stacks[i, :1], states.pushed[own[i]]]))
                except (NotPositiveSemidefinite, NumericRangeError) as exc:
                    name = _path_name(block.letter, path, t)
                    raise type(exc)(f"{name}: {exc}") from exc
            raise
        states.write(new, masses[n:], batch, n)
        self.stats["path states"] += n
        self.stats["increment states"] += len(new)
        self._write(block, t, own, masses[:n], batch)
        return rows

    def _write(self, block, t, rows, masses, batch) -> None:
        """Write record time t into the rows of ``block``: the main states
        (the first n of ``batch``) and their masses, and the tracks at rows
        ``rows`` (n, k) of ``block.states``; one relative-entropy pass of
        each main state against eta_t and its tracks. A track seeded at t is
        eta_t itself: its root row."""
        col, track_cols, seeded = self.columns[t]
        states = block.states
        n, k = rows.shape
        lam, vec = batch.eigenvalues[:n], batch.eigenvectors[:n]
        lam2 = np.empty((n, 1 + k) + lam.shape[1:])
        vec2 = np.empty((n, 1 + k) + vec.shape[1:], dtype=complex)
        lam2[:, 0], vec2[:, 0] = self.eta.spectra[t]
        lam2[:, 1:], vec2[:, 1:] = states.eigenvalues[rows], states.eigenvectors[rows]
        chis = relative_entropies(lam, vec, lam2, vec2)
        objects = np.empty(n, dtype=object)
        objects[:] = StateBatch(*(a[:n] for a in batch)).states
        values = (masses, objects, batch.entropies[:n], chis[:, 0])
        for name, value in zip(_TIME_COLUMNS, values):
            getattr(block, name)[:, col] = value
        values = (states.mass[rows], rows, states.entropy[rows], chis[:, 1:])
        for name, value in zip(_PAIR_COLUMNS, values):
            getattr(block, name)[:, track_cols] = value
        if seeded is not None:
            root = self.root_row[t]
            values = (states.mass[root], root, states.entropy[root], chis[:, 0])
            for name, value in zip(_PAIR_COLUMNS, values):
                getattr(block, name)[:, seeded] = value

    def replay(self, letter, outcomes, count=1) -> TrajectoryRecord:
        """Rebuild the full record for a known path (no randomness involved),
        drawn ``count`` times, as a one-node walk: its stack carries the
        tracks after the main state, seeded with eta_s at depth s and pushed
        with it, and each record time copies them into new rows of the
        record's own table."""
        stacks = self.roots[letter][np.newaxis, np.newaxis]
        block = self.root(letter)
        states = block.states
        free = states.reserve(len(self.pairs) - len(self.root_row))
        for t in range(self.model.horizon + 1):
            k = stacks.shape[1] - 1 if t in self.columns else 0
            rows, free = free[np.newaxis, :k], free[k:]
            states.pushed[rows[0]] = stacks[0, 1 : 1 + k]
            self.visit((outcomes,), t, stacks, block, rows)
            if t in self.root_row:
                seed = self.eta[t].matrix[np.newaxis, np.newaxis]
                stacks = np.concatenate([stacks, seed], axis=1)
            if t == self.model.horizon:
                break
            instrument = self.model.instrument_at(t + 1)
            block.codes[0, t] = code = instrument.outcomes.index(outcomes[t])
            stacks = instrument.maps[code].apply(stacks)
        return TrajectoryRecord(letter, outcomes, block, 0, count)


def enumerate_trajectories(
    model: MeasurementModel,
    grid: TimeGrid,
    apriori: Optional[APrioriTrack] = None,
    budget: int = DEFAULT_LEAF_BUDGET,
    stats: Optional[Counter] = None,
) -> Iterator[TrajectoryRecord]:
    """Depth-first walk over all (letter, outcome string) paths, in blocks
    of at most BLOCK_NODES nodes at one depth. The nodes carry their main
    states; the outcome-only conditioned states come from one increment
    trie per reference time, grown only for the strings a kept node reaches.

    Yields one record per positive-probability leaf, a block of leaves row
    by row; the emitted probabilities sum to 1 up to the pruning tolerance.
    ``apriori`` is compute_a_priori's track (computed when omitted; anything
    else raises TypeError). ``stats``, when given, counts the states
    decomposed: "path states" (one per node at a record time) and
    "increment states" (one per trie row). Raises BudgetExceeded before
    doing any work when the leaf count is too large.
    """
    leaves = model.leaf_count()
    if leaves > budget:
        raise BudgetExceeded(f"{leaves} leaves exceed the budget of {budget}")
    walk = _Walk(model, grid, apriori, stats)
    horizon = model.horizon
    radix = [model.instrument_at(k).n_outcomes for k in range(1, horizon + 1)]
    # the rows of the unpruned trie, allocated at once when they are few
    refs = grid.reference_times
    size = sum(math.prod(radix[s:t]) for s in refs for t in range(s, horizon + 1))
    trie = IncrementTrie(walk.root_states, max(radix, default=1), min(size, _TRIE_ROWS))

    for letter, (p, root) in enumerate(zip(model.ensemble.prior, walk.roots)):
        if p <= 0.0:
            continue
        # pending blocks: (depth, (n, 1, d, d) main states, (n, k) trie rows,
        # record block, outcome strings)
        no_rows = np.zeros((1, 0), dtype=np.int64)
        pending = [(0, root[np.newaxis, np.newaxis], no_rows, walk.root(letter, trie), [()])]
        while pending:
            t, stacks, rows, block, paths = pending.pop()
            rows = walk.visit(paths, t, stacks, block, rows)
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
            child_rows = trie.step(rows[parents], codes, instrument.maps)
            labels = instrument.outcomes
            paths = [paths[i] + (labels[v],) for i, v in zip(parents.tolist(), codes.tolist())]
            for j in reversed(range(0, len(kept), BLOCK_NODES)):
                part = slice(j, j + BLOCK_NODES)
                child = block.take(parents[part])
                child.codes[:, t] = codes[part]
                pending.append((t + 1, children[part], child_rows[part], child, paths[part]))


def _draw_paths(model: MeasurementModel, n_samples: int, seed: int) -> list:
    """The (letter, outcomes) paths of ``n_samples`` draws, in draw order:
    the letter from the prior, then each outcome with probability equal to
    the trace its Kraus map leaves on the current state. Drawn in arrays of
    _DRAW_ROWS paths, with the bits of one draw at a time: the uniforms as
    one block of the same stream, the weights clipped at 0 and summed in
    outcome order. Raises NumericRangeError for the first draw whose weights
    at a step sum below the smallest normal float."""
    rng = np.random.default_rng(seed)
    prior = model.ensemble.prior
    prior_cum = np.cumsum(prior / prior.sum())
    roots = np.array(_letter_roots(model))
    steps = [model.instrument_at(t) for t in range(1, model.horizon + 1)]
    effects = [[km.normalization() for km in instrument.maps] for instrument in steps]
    labels = [np.array(instrument.outcomes, dtype=object) for instrument in steps]
    paths = []
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
        outcomes = zip(*(labels[t][codes[:, t]] for t in range(model.horizon)))
        paths.extend(zip(letters.tolist(), outcomes))
        if failed:
            t, total = failed[min(failed)]
            letter, outcomes = paths[start + min(failed)]
            raise NumericRangeError(
                f"{_path_name(letter, outcomes[:t], t)}: outcome weights sum to {total!r}, "
                "below the smallest normal float"
            )
    return paths


def sample_trajectories(
    model: MeasurementModel,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    apriori: Optional[APrioriTrack] = None,
    stats: Optional[Counter] = None,
) -> Iterator[TrajectoryRecord]:
    """Draw trajectories under the physical law; deterministic in the seed.

    Records carry the same attached states as enumeration, with prob_at
    holding the true path probability (not the 1/N estimator weight). A
    record is a pure function of its path, so all paths are drawn first
    (``_draw_paths``), and each distinct path is replayed once and yielded
    once, in first-draw order, as a record whose ``count`` is its number of
    draws; the counts sum to ``n_samples``. The generator holds no record
    once it yields the next. ``stats``, when given, counts the "distinct
    paths" and the states decomposed, as in enumerate_trajectories. Raises
    NumericRangeError when the outcome weights or a path's mass fall below
    the smallest normal float.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    walk = _Walk(model, grid, apriori, stats)
    counts = Counter(_draw_paths(model, n_samples, seed))
    walk.stats["distinct paths"] += len(counts)
    for path, count in counts.items():
        yield walk.replay(*path, count)


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
    kept in first-seen order, in arrays that grow by doubling; ``origins``
    holds the row of states an entry was copied from (-1 when none)."""

    ARRAYS = ("keys", "probs", "matrices", "origins")

    def __init__(self, width, dim):
        self.width = width
        self.index = {}  # key -> row
        self.keys = np.zeros(0, dtype=np.int64)
        self.probs = np.zeros(0)
        self.matrices = np.zeros((0, dim, dim), dtype=complex)
        self.origins = np.zeros(0, dtype=np.int64)
        self.deviation = 0.0  # of later entries from the held ones

    def hold(self, strings, probs, sources, matrix_of, shared=False) -> None:
        """Hold the first entry of each key and fold the deviation of every
        other one; (n, width) arrays, a row per record in the order the
        records came. ``sources`` identify the entries' matrices, which
        ``matrix_of`` returns. When ``shared``, the sources are rows of the
        one table of states of the run: an entry from the row its held entry
        came from has its matrix, and only its probability is compared."""
        n = len(strings)
        # down a column, a run of rows with one key and one entry (records
        # of one subtree share their states) takes one lookup and comparison
        start = np.ones(strings.shape, dtype=bool)
        start[1:] = (strings[1:] != strings[:-1]) | (sources[1:] != sources[:-1])
        start[1:] |= probs[1:] != probs[:-1]
        firsts = np.flatnonzero(start.T)
        keys = strings.T.ravel()[firsts] * self.width + firsts // n
        probs, sources = probs.T.ravel()[firsts], sources.T.ravel()[firsts]
        size = len(self.index)
        rows = np.array([self.index.setdefault(key, len(self.index)) for key in keys.tolist()])
        # a new row first shows above every row before it
        new = rows > np.maximum.accumulate(np.append(size - 1, rows[:-1]))
        n = len(self.index)
        if n > size:
            _grow(self, self.ARRAYS, n)
            self.keys[size:n], self.probs[size:n] = keys[new], probs[new]
            self.matrices[size:n] = matrix_of(sources[new])
            self.origins[size:n] = sources[new] if shared else -1
        later = np.flatnonzero(~new)
        if len(later):
            held = rows[later]
            self.deviation = _worst(np.abs(self.probs[held] - probs[later]), self.deviation)
            if shared:
                other = self.origins[held] != sources[later]
                held, later = held[other], later[other]
            diffs = self.matrices[held] - matrix_of(sources[later])
            self.deviation = _worst(_norms(diffs), self.deviation)

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


def _matrices_of(states) -> np.ndarray:
    return np.array([state.matrix for state in states])


class ConsistencyAccumulator:
    """Streaming verifier of the structural identities of the enumerated
    table: probability conservation, martingale marginals, measurability of
    the outcome-only states, a-priori averaging, map composition, the
    normalized-state recursion and the agreement of records that share a
    prefix or an increment string.

    ``add`` queues a record; the queued rows of one block are checked
    together when a record of another block comes, or at ``finalize``. A
    prefix (letter, outcomes up to t) or an increment string (outcomes
    s+1..t) is numbered in mixed radix, outcome indices as digits.
    Records of one increment string share one trie row, so ``_recheck``
    compares the first record of each letter with an independent route."""

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
        self._states = None  # the states of the first block: the run's trie
        self._rechecked = set()  # letters whose first record was re-checked

    def _span(self, s, t):
        """The number of outcome strings of steps s+1..t."""
        return self._count[t] // self._count[s]

    def add(self, rec: TrajectoryRecord) -> None:
        if rec.block is not self._block:
            self._flush()
            self._block = rec.block
        self._rows.append(rec.row)
        if rec.letter not in self._rechecked:
            self._rechecked.add(rec.letter)
            self._recheck(rec)

    def _recheck(self, rec: TrajectoryRecord) -> None:
        """Fold into ``increment-dependence`` the deviation of a record's
        increment masses and conditioned states from each eta_s pushed along
        the record's own outcomes, one Kraus application per step."""
        block, row = rec.block, rec.row
        block.check_grid(self.grid.record_times, self._pairs)
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
        mine = block.states.matrices(block.conditioned[row])
        gaps = np.abs(block.incr_prob[row] - masses)
        self.incr.deviation = _worst(_norms(mine - theirs), _worst(gaps, self.incr.deviation))

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
        s, t = np.array(self._pairs, dtype=np.int64).reshape(-1, 2).T
        prefixes = block.letter * self._count[times] + strings[:, times]
        self.prefix.hold(prefixes, prob_at, block.aposteriori[rows], _matrices_of)
        increments = strings[:, t] - strings[:, s] * self._span(s, t)
        if self._states is None:
            self._states = block.states
        self.incr.hold(
            increments,
            block.incr_prob[rows],
            block.conditioned[rows],
            block.states.matrices,
            shared=block.states is self._states,
        )

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
        self._states = None
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
