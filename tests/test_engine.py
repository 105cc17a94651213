import dataclasses
import gc
import math
import sys
import tracemalloc
import weakref
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmeas import engine
from contmeas.engine import (
    _PAIR_COLUMNS,
    _DRAW_ROWS,
    _SLICE_ROWS,
    _STATE_FACTS,
    _TIME_COLUMNS,
    BLOCK_NODES,
    ConsistencyAccumulator,
    IncrementTrie,
    RecordBlock,
    TrajectoryRecord,
    _draw_paths,
    _group_sums,
    _letter_roots,
    _path_name,
    _Walk,
    compute_a_priori,
    consistency_checks,
    enumerate_trajectories,
    format_outcomes,
    runs,
    sample_trajectories,
)
from contmeas.entropics import EntropyReportBuilder
from contmeas.errors import BudgetExceeded, GridMiss, NotPositiveSemidefinite, NumericRangeError
from contmeas.model import Ensemble, MeasurementModel, TimeGrid, builtin_scenario, random_model
from contmeas.quantum import DensityOperator

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def full_grid(model):
    return TimeGrid.make(model.horizon)


def labelled(model, codes):
    """The outcome labels of the outcome ``codes`` of steps 1, 2, ..."""
    return tuple(model.instrument_at(k + 1).outcomes[code] for k, code in enumerate(codes))


def fold(records, builder=None, acc=None):
    """Add each run of ``records`` to the report ``builder`` and to the
    consistency ``acc``, as the pipeline does; holds no run once it
    returns."""
    for block, rows, counts in runs(records):
        if builder is not None:
            builder.add(block, rows, counts)
        if acc is not None:
            acc.add(block, rows)


def with_entry(rec, field, key, value):
    """A copy of ``rec``, as a one-row block, whose ``field`` holds ``value``
    at ``key`` (a time or an (s, t) pair). An a-posteriori state goes into a
    new row of the stack of its time. A conditioned state, or an increment
    mass, goes into a new row of the record's table of states: a copy of
    the row it replaces but for its state or its mass (the pushed matrix is
    the state times the mass). Every other row stays as it was."""
    block = rec.block.take([rec.row])
    if field == "aposteriori":
        col = block.times.index(key)
        stack = block.posteriors[col]
        block.posteriors[col] = np.concatenate([stack, value.matrix[np.newaxis]])
        block.aposteriori[0, col] = len(stack)
    elif field in ("conditioned", "incr_prob"):
        col = block.pairs.index(key)
        states, old = block.states, block.conditioned[0, col]
        row = states.reserve(1)[0]
        for name in IncrementTrie.ARRAYS:
            getattr(states, name)[row] = getattr(states, name)[old]
        if field == "conditioned":
            states.pushed[row] = value.matrix * states.mass[row]
            states.entropy[row] = value.entropy
        else:
            states.pushed[row] = states.matrices(old) * value
            states.mass[row], states.log_mass[row] = value, math.log(value)
        block.conditioned[0, col] = row
    else:
        labels = block.pairs if isinstance(key, tuple) else block.times
        getattr(block, field)[0, labels.index(key)] = value
    return TrajectoryRecord(block, 0)


class TestAPriori:
    def test_identity_scenario_fixed(self):
        model = builtin_scenario("identity", horizon=3)
        track = compute_a_priori(model, full_grid(model))
        for t in range(4):
            assert np.allclose(track[t].matrix, track[0].matrix, atol=1e-12)

    def test_projective_first_step(self):
        model = builtin_scenario("qubit-projective", horizon=2)
        track = compute_a_priori(model, full_grid(model))
        assert np.allclose(track[0].matrix, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)
        assert np.allclose(track[1].matrix, np.diag([0.75, 0.25]), atol=1e-12)

    def test_trace_one(self):
        model = random_model(2, dim=3, n_outcomes=2, kraus_per_outcome=2, horizon=3)
        track = compute_a_priori(model, full_grid(model))
        for t in range(4):
            assert abs(np.trace(track[t].matrix).real - 1.0) <= 1e-10

    def test_semigroup(self):
        model = random_model(4, dim=2, n_outcomes=2, horizon=4)
        grid = full_grid(model)
        track = compute_a_priori(model, grid)
        for s in range(5):
            for t in range(s, 5):
                pushed = track[s].matrix
                for step in range(s + 1, t + 1):
                    pushed = model.instrument_at(step).apply_total(pushed)
                assert np.linalg.norm(pushed - track[t].matrix) <= 1e-10


class TestEnumerate:
    def test_identity_scenario(self):
        model = builtin_scenario("identity", horizon=3)
        records = list(enumerate_trajectories(model, full_grid(model)))
        assert len(records) == 2
        for rec, p, state in zip(records, [0.5, 0.5], model.ensemble.states):
            assert abs(rec.prob - p) <= 1e-12
            for t in range(4):
                assert np.allclose(rec.aposteriori[t].matrix, state, atol=1e-10)

    def test_projective_one_step_born_table(self):
        model = builtin_scenario("qubit-projective", horizon=1)
        records = list(enumerate_trajectories(model, full_grid(model)))
        table = {(r.letter, r.outcomes): r.prob for r in records}
        assert set(table) == {(0, ("0",)), (1, ("0",)), (1, ("1",))}
        assert abs(table[(0, ("0",))] - 0.5) <= 1e-12
        assert abs(table[(1, ("0",))] - 0.25) <= 1e-12
        assert abs(table[(1, ("1",))] - 0.25) <= 1e-12

    def test_projective_two_steps_repeats_outcome(self):
        model = builtin_scenario("qubit-projective", horizon=2)
        records = list(enumerate_trajectories(model, full_grid(model)))
        table = {(r.letter, r.outcomes): r.prob for r in records}
        assert set(table) == {(0, ("0", "0")), (1, ("0", "0")), (1, ("1", "1"))}
        assert abs(table[(1, ("1", "1"))] - 0.25) <= 1e-12

    def test_total_probability(self):
        model = random_model(6, dim=3, n_outcomes=3, kraus_per_outcome=2, n_letters=3, horizon=3)
        records = list(enumerate_trajectories(model, full_grid(model)))
        assert abs(sum(r.prob for r in records) - 1.0) <= 1e-9

    def test_prob_telescopes(self):
        model = random_model(7, horizon=3)
        for rec in enumerate_trajectories(model, full_grid(model)):
            assert rec.prob_at[0] >= rec.prob_at[1] >= rec.prob_at[3] > 0.0

    def test_budget(self):
        model = builtin_scenario("qubit-projective", horizon=25)
        with pytest.raises(BudgetExceeded):
            next(iter(enumerate_trajectories(model, full_grid(model))))

    def test_conditioned_depends_only_on_increments(self):
        model = random_model(8, dim=2, n_outcomes=2, kraus_per_outcome=2, horizon=3)
        grid = full_grid(model)
        by_increment = {}
        for rec in enumerate_trajectories(model, grid):
            for (s, t) in grid.pairs():
                key = (s, t, rec.outcomes[s:t])
                if key in by_increment:
                    prev = by_increment[key]
                    assert np.linalg.norm(prev - rec.conditioned[(s, t)].matrix) <= 1e-12
                else:
                    by_increment[key] = rec.conditioned[(s, t)].matrix

    def test_conditioned_at_reference_time_is_a_priori(self):
        model = builtin_scenario("damped-qubit", horizon=2)
        grid = full_grid(model)
        track = compute_a_priori(model, grid)
        for rec in enumerate_trajectories(model, grid):
            for s in grid.reference_times:
                # the root row of the trie of s holds eta_s, bit for bit
                state = rec.conditioned[(s, s)]
                assert np.array_equal(state.matrix, track[s].matrix)
                assert state.entropy == track[s].entropy
                assert rec.incr_prob[(s, s)] == 1.0

    def test_aposteriori_mean_is_a_priori(self):
        model = random_model(9, dim=3, n_outcomes=2, n_letters=2, horizon=3)
        grid = full_grid(model)
        track = compute_a_priori(model, grid)
        for t in grid.record_times:
            seen = {}
            for rec in enumerate_trajectories(model, grid):
                seen[(rec.letter, rec.outcomes[:t])] = (
                    rec.prob_at[t],
                    rec.aposteriori[t].matrix,
                )
            acc = sum(p * m for p, m in seen.values())
            assert np.linalg.norm(acc - track[t].matrix) <= 1e-9

    def test_pruned_branches_not_emitted(self):
        model = builtin_scenario("qubit-projective", horizon=2)
        records = list(enumerate_trajectories(model, full_grid(model)))
        assert all(r.prob > 0.0 for r in records)
        assert len(records) == 3  # the flipped-outcome branches are null

    def test_zero_prior_letters_skipped(self):
        base = builtin_scenario("qubit-projective", horizon=1)
        ensemble = Ensemble(prior=np.array([1.0, 0.0]), states=base.ensemble.states)
        model = MeasurementModel(
            dim=2, horizon=1, ensemble=ensemble, steps=base.steps, homogeneous=True
        )
        records = list(enumerate_trajectories(model, full_grid(model)))
        assert {r.letter for r in records} == {0}

    def test_psd_failure_carries_trajectory_context(self):
        # the letter states are individually invalid but average to a valid
        # a-priori state, so the failure surfaces inside the walk
        base = builtin_scenario("qubit-projective", horizon=1)
        ensemble = Ensemble(
            prior=np.array([0.5, 0.5]),
            states=(
                np.diag([1.5, -0.5]).astype(complex),
                np.diag([-0.5, 1.5]).astype(complex),
            ),
        )
        model = MeasurementModel(
            dim=2, horizon=1, ensemble=ensemble, steps=base.steps, homogeneous=True
        )
        with pytest.raises(NotPositiveSemidefinite, match="letter 0"):
            list(enumerate_trajectories(model, full_grid(model)))


def _zero_prior_model():
    base = random_model(12, dim=2, n_outcomes=3, n_letters=3, horizon=3)
    ensemble = Ensemble(prior=np.array([0.5, 0.0, 0.5]), states=base.ensemble.states)
    return dataclasses.replace(base, ensemble=ensemble)


SCALAR_FIELDS = ("prob_at", "incr_prob", "entropy", "cond_entropy", "chi_term", "chi_at_term")


class TestBlocks:
    """Enumeration steps blocks of up to BLOCK_NODES nodes; replay steps a
    one-node block. Both must give every leaf the very same record."""

    CASES = {
        # 81 nodes per letter at depth 4: blocks split at the cap
        "split-seed1": lambda: (random_model(1, dim=3, n_outcomes=3, horizon=4), None),
        "split-seed2": lambda: (random_model(2, dim=3, n_outcomes=3, horizon=4), None),
        # null branches pruned inside a block
        "pruned": lambda: (builtin_scenario("qubit-projective", horizon=3), None),
        "zero-prior": lambda: (_zero_prior_model(), None),
        "sparse-grid": lambda: (
            random_model(5, dim=2, n_outcomes=3, horizon=4),
            ([0, 2, 3, 4], [0, 3]),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_leaves_equal_replay(self, case):
        model, times = self.CASES[case]()
        grid = full_grid(model) if times is None else TimeGrid.make(model.horizon, *times)
        walk = _Walk(model, grid)
        records = list(enumerate_trajectories(model, grid))
        if case.startswith("split"):
            assert len(records) == model.leaf_count() > 2 * BLOCK_NODES
        # depth-first emission: letters ascending, then outcomes in instrument order
        order = [
            [rec.letter]
            + [model.instrument_at(s + 1).outcomes.index(x) for s, x in enumerate(rec.outcomes)]
            for rec in records
        ]
        assert order == sorted(order)
        if case == "pruned":
            assert len(records) < model.leaf_count()
        if case == "zero-prior":
            assert {rec.letter for rec in records} == {0, 2}
        for rec in records:
            one = walk.replay(rec.letter, rec.block.codes[rec.row])
            for field in SCALAR_FIELDS:
                assert getattr(rec, field) == getattr(one, field), field
            for field in ("aposteriori", "conditioned"):
                mine, theirs = getattr(rec, field), getattr(one, field)
                assert mine.keys() == theirs.keys()
                for key, state in mine.items():
                    assert np.array_equal(state.matrix, theirs[key].matrix), (field, key)
                    assert state.entropy == theirs[key].entropy
                    # a view into a block would keep the whole block alive
                    assert state.matrix.base is None

    def test_block_size_invariance(self, monkeypatch):
        # the block size changes how nodes are stepped together, never what
        # a leaf's record holds or what the consistency checks find
        model = random_model(1, dim=3, n_outcomes=3, horizon=4)
        grid = full_grid(model)
        runs = []
        for size in (1, 7, 64):
            monkeypatch.setattr(engine, "BLOCK_NODES", size)
            records = list(enumerate_trajectories(model, grid))
            margins = [c.margin for c in consistency_checks(model, grid, records).checks]
            runs.append((records, margins))
        (first, margins), others = runs[0], runs[1:]
        assert max(rec.row for rec in runs[-1][0]) > 7
        for records, other_margins in others:
            assert other_margins == margins
            assert len(records) == len(first) == model.leaf_count()
            for rec, one in zip(records, first):
                assert (rec.letter, rec.outcomes, rec.count) == (one.letter, one.outcomes, 1)
                assert np.array_equal(rec.block.codes[rec.row], one.block.codes[one.row])
                for field in SCALAR_FIELDS:
                    assert getattr(rec, field) == getattr(one, field), field
                for field in ("aposteriori", "conditioned"):
                    for key, state in getattr(rec, field).items():
                        theirs = getattr(one, field)[key]
                        assert np.array_equal(state.matrix, theirs.matrix), (field, key)
                        assert state.entropy == theirs.entropy

    BAD = {
        "negative": np.diag([-1e-3, 1.0 + 1e-3]).astype(complex),
        "massless": np.zeros((2, 2), dtype=complex),
    }

    @pytest.mark.parametrize(
        "faults, first, error",
        [
            # node 1's state fails before node 2's mass
            ([(1, 0, "negative"), (2, 0, "massless")], 1, NotPositiveSemidefinite),
            # node 1's track mass fails before node 2's main state
            ([(2, 0, "negative"), (1, 1, "massless")], 1, NumericRangeError),
            # within a node, the main state comes before its track
            (
                [(1, 1, "massless"), (1, 0, "negative"), (3, 0, "massless")],
                1,
                NotPositiveSemidefinite,
            ),
            # within a node, the main state's mass comes before its track's state
            ([(2, 0, "negative"), (0, 1, "negative"), (0, 0, "massless")], 0, NumericRangeError),
        ],
    )
    def test_first_failing_node_raises(self, faults, first, error):
        model = random_model(3, dim=2, n_outcomes=4, horizon=2)
        grid = full_grid(model)
        walk = _Walk(model, grid)
        # four nodes at time 1, each with its main state and the track seeded at 0
        stacks = np.array([[0.3 * KET0 + 0.2 * KET1, 0.5 * np.eye(2)]] * 4, dtype=complex)
        for node, member, kind in faults:
            stacks[node, member] = self.BAD[kind]
        # the tracks are trie rows not decomposed yet
        trie = IncrementTrie(walk.eta.batch, 4)
        rows = trie.reserve(4)[:, np.newaxis]
        trie.pushed[rows[:, 0]] = stacks[:, 1]
        # node i took outcome i at step 1: its codes name it
        block = walk.root(1, trie).take([0] * 4)
        block.codes[:, 0] = np.arange(4)
        with pytest.raises(error) as info:
            walk.visit(1, stacks[:, 0], block, rows)
        label = model.instrument_at(1).outcomes[first]
        assert str(info.value).startswith(_path_name(1, (label,), 1) + ": ")
        assert not trie.done[rows].any()
        # the same type and message as that node alone
        one = slice(first, first + 1)
        with pytest.raises(error) as alone:
            walk.visit(1, stacks[one, 0], block.take([first]), rows[one])
        assert str(info.value) == str(alone.value)


class TestIncrementTrie:
    """Enumeration decomposes each outcome-only conditioned state once per
    (s, increment string), on a trie grown only for reached strings."""

    @pytest.mark.parametrize(
        "times", [None, ([0, 1, 2, 3, 4, 5], [0, 3]), ([0, 2, 3, 5], [0, 3])]
    )
    def test_first_rows_are_a_priori(self, times):
        # the model of the random-seed2-h5 golden cases, with sparse refs too
        model = random_model(2, dim=3, n_outcomes=3, horizon=5)
        grid = full_grid(model) if times is None else TimeGrid.make(model.horizon, *times)
        eta = compute_a_priori(model, grid)
        records = list(enumerate_trajectories(model, grid))
        rec = records[7]
        replayed = _Walk(model, grid).replay(rec.letter, rec.block.codes[rec.row])
        for states in (records[0].block.states, replayed.block.states):
            assert states.size >= len(grid.record_times)
            for row, t in enumerate(grid.record_times):
                assert states.mass[row] == 1.0 and states.done[row]
                assert np.array_equal(states.pushed[row], eta[t].matrix)
                assert np.array_equal(states.matrices(row), eta[t].matrix)
                assert states.entropy[row] == eta[t].entropy
                assert np.array_equal(states.eigenvalues[row], eta.batch.eigenvalues[row])
                assert np.array_equal(states.eigenvectors[row], eta.batch.eigenvectors[row])

    def test_each_state_decomposed_once(self, monkeypatch):
        model = random_model(2, dim=3, n_outcomes=3, horizon=4)
        grid = full_grid(model)
        counted = []
        eigh = np.linalg.eigh

        def counting(a):
            counted.append(math.prod(a.shape[:-2]))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        stats = Counter()
        records = list(enumerate_trajectories(model, grid, stats=stats))
        # nothing is pruned: every node and every increment string is reached
        assert len(records) == model.leaf_count()
        nodes = model.ensemble.n_letters * sum(3**t for t in range(5))
        strings = sum(3 ** (t - s) for s in range(5) for t in range(s + 1, 5))
        assert stats == {"path states": nodes, "increment states": strings}
        assert sum(counted) == nodes + strings + len(grid.record_times)
        # the consistency checks decompose only the a-priori states, once
        # more: their re-check of the trie pushes matrices and decomposes none
        counted.clear()
        assert consistency_checks(model, grid, records=records).passed
        assert sum(counted) == len(grid.record_times)

    def test_pruned_strings_get_no_row(self):
        # a flipped outcome has zero mass: its string is never decomposed
        model = builtin_scenario("qubit-projective", horizon=3)
        grid = full_grid(model)
        stats = Counter()
        records = list(enumerate_trajectories(model, grid, stats=stats))
        leaves = [(rec.letter, "".join(rec.outcomes)) for rec in records]
        assert leaves == [(0, "000"), (1, "000"), (1, "111")]
        # "0" and "1" repeated, for every length after every s
        assert stats["increment states"] == 2 * sum(3 - s for s in range(4))
        # one row of eta_t per record time, then the reached strings
        states = records[0].block.states
        assert states.size == len(grid.record_times) + stats["increment states"]
        assert consistency_checks(model, grid, records=records).passed


class TestRecordRow:
    def test_fields_are_row_mappings(self):
        model = random_model(8, dim=2, n_outcomes=2, horizon=3)
        grid = full_grid(model)
        rec = list(enumerate_trajectories(model, grid))[5]
        block, row, states = rec.block, rec.row, rec.block.states
        # the block stores rows and numbers only; a conditioned state's mass
        # and entropy are stored once, in its row of the states
        assert not hasattr(block, "incr_prob") and not hasattr(block, "cond_entropy")
        for name in _TIME_COLUMNS + _PAIR_COLUMNS:
            assert getattr(block, name).dtype != object
        assert all(stack.dtype == complex for stack in block.posteriors)
        conditioned = block.conditioned[row]
        sources = {
            **{name: getattr(block, name)[row] for name in _TIME_COLUMNS + _PAIR_COLUMNS},
            "incr_prob": states.mass[conditioned],
            "cond_entropy": states.entropy[conditioned],
        }
        assert set(sources) == set(_TIME_COLUMNS + _PAIR_COLUMNS + tuple(_STATE_FACTS))
        for name, source in sources.items():
            field = getattr(rec, name)
            keys = block.times if name in _TIME_COLUMNS else block.pairs
            assert isinstance(field, Mapping) and not hasattr(field, "__setitem__")
            assert list(field) == list(keys) == list(field.keys()) and len(field) == len(keys)
            if name not in ("aposteriori", "conditioned"):
                assert field == dict(zip(keys, source.tolist()))
                assert all(type(value) is float for value in field.values())
        with pytest.raises(KeyError):
            rec.prob_at[(0, 1)]
        # a lookup reads the block's element when it is made
        prob_at = rec.prob_at
        block.prob_at[row, 1] = 0.25
        assert prob_at[1] == 0.25
        # a state entry is a fresh copy of the row it points at: an
        # a-posteriori state of its row of its time's stack, with the
        # block's entropy; a conditioned one of its row of the states
        for col, t in enumerate(block.times):
            state = rec.aposteriori[t]
            assert np.array_equal(state.matrix, block.posteriors[col][block.aposteriori[row, col]])
            assert state.entropy == rec.entropy[t] and state.matrix.base is None
        for col, pair in enumerate(block.pairs):
            state = rec.conditioned[pair]
            assert np.array_equal(state.matrix, states.matrices(conditioned[col]))
            assert state.entropy == rec.cond_entropy[pair] and state.matrix.base is None
        assert [key for key, _ in rec.conditioned.items()] == list(block.pairs)

    def test_record_is_a_row_of_its_block(self):
        # a record stores its block, its row and its count only; its letter
        # and its outcome labels are read from the block's letter and codes
        model = random_model(8, dim=2, n_outcomes=2, horizon=3)
        rec = list(enumerate_trajectories(model, full_grid(model)))[5]
        assert [field.name for field in dataclasses.fields(rec)] == ["block", "row", "count"]
        assert vars(rec) == {"block": rec.block, "row": rec.row, "count": 1}
        block, row = rec.block, rec.row
        assert rec.letter == block.letter
        assert rec.outcomes == labelled(model, block.codes[row].tolist()) == block.path(row)
        assert block.path(row, 2) == rec.outcomes[:2] and block.path(row, 0) == ()
        block.codes[row, 0] = 1 - block.codes[row, 0]
        assert rec.outcomes == labelled(model, block.codes[row].tolist())

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_states_are_objects_on_lookup_only(self, monkeypatch, mode):
        # the walk, the report and the consistency checks keep states as
        # rows: the a-priori tracks of the walk and of the checks are the
        # only DensityOperators they make, and a lookup makes one
        built = []
        init = DensityOperator.__init__

        def counting(self, *args):
            built.append(None)
            init(self, *args)

        monkeypatch.setattr(DensityOperator, "__init__", counting)
        model = random_model(2, dim=3, n_outcomes=3, horizon=4)
        grid = full_grid(model)
        acc, builder = ConsistencyAccumulator(model, grid), EntropyReportBuilder(grid, mode)
        if mode == "enumerate":
            records = list(enumerate_trajectories(model, grid))
        else:
            records = list(sample_trajectories(model, grid, 40, seed=1))
        # the consistency checks take one enumeration: sampled records go
        # to the builder only
        fold(records, builder, acc if mode == "enumerate" else None)
        acc.finalize()
        assert len(built) == 2 * len(grid.record_times)
        records[-1].aposteriori[2], records[-1].conditioned[(1, 3)]
        assert len(built) == 2 * len(grid.record_times) + 2


class TestRuns:
    def test_one_row_block_in_the_middle_splits_a_run(self):
        # an enumeration's runs are its blocks of leaves; when record k, in
        # the middle of a block, is moved to a one-row block of its own,
        # that block's run splits in three around it
        model = random_model(1, dim=3, n_outcomes=3, horizon=4)
        records = list(enumerate_trajectories(model, full_grid(model)))
        clean = list(runs(records))
        assert len(clean) > 2 and len({id(block) for block, _, _ in clean}) == len(clean)
        for block, rows, counts in clean:
            assert rows.tolist() == list(range(len(block.codes)))
            assert counts.tolist() == [1] * len(rows)
        assert sum(len(rows) for _, rows, _ in clean) == len(records)
        j = 1
        block, rows, _ = clean[j]
        assert len(rows) > 3
        k = sum(len(rows) for _, rows, _ in clean[:j]) + 2
        assert records[k].block is block and records[k].row == 2
        one = block.take([2])
        records[k] = TrajectoryRecord(one, 0, 5)
        found = [(b, r.tolist(), c.tolist()) for b, r, c in runs(records)]
        n = len(rows)
        expected = [(b, r.tolist(), c.tolist()) for b, r, c in clean]
        expected[j : j + 1] = [
            (block, [0, 1], [1, 1]),
            (one, [0], [5]),
            (block, list(range(3, n)), [1] * (n - 3)),
        ]
        assert len(found) == len(expected) == len(clean) + 2
        for (b, r, c), (eb, er, ec) in zip(found, expected):
            assert b is eb and (r, c) == (er, ec)


class TestSample:
    def test_identity_states(self):
        model = builtin_scenario("identity", horizon=2)
        for rec in sample_trajectories(model, full_grid(model), 20, seed=1):
            expected = model.ensemble.states[rec.letter]
            for t in range(3):
                assert np.allclose(rec.aposteriori[t].matrix, expected, atol=1e-10)

    def test_projective_frequency(self):
        model = builtin_scenario("qubit-projective", horizon=1)
        n = 4000
        hits = sum(
            rec.count * (rec.letter == 1)
            for rec in sample_trajectories(model, full_grid(model), n, seed=42)
        )
        assert abs(hits / n - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_deterministic_in_seed(self):
        model = builtin_scenario("damped-qubit", horizon=2)
        grid = full_grid(model)
        runs = [list(sample_trajectories(model, grid, 50, seed=3)) for _ in range(2)]
        a, b = ([(r.letter, r.outcomes, r.prob, r.count) for r in run] for run in runs)
        assert a == b

    def test_holds_no_earlier_record(self):
        # once the sampler yields a record, it holds neither an earlier
        # record nor the table of states of one
        model = builtin_scenario("qubit-weak", horizon=6)
        refs, draws = [], 0
        for rec in sample_trajectories(model, full_grid(model), 60, seed=5):
            assert all(ref() is None for pair in refs for ref in pair)
            refs.append((weakref.ref(rec), weakref.ref(rec.block.states)))
            draws += rec.count
            del rec
        assert 1 < len(refs) < draws == 60

    def test_event_frequencies_match_enumeration(self):
        # enumeration is the oracle for the law of (letter, outcomes)
        model = random_model(10, dim=2, n_outcomes=2, kraus_per_outcome=2, horizon=2)
        grid = full_grid(model)
        exact = {
            (r.letter, r.outcomes): r.prob for r in enumerate_trajectories(model, grid)
        }
        n = 5000
        counts = {}
        for rec in sample_trajectories(model, grid, n, seed=11):
            key = (rec.letter, rec.outcomes)
            counts[key] = counts.get(key, 0) + rec.count
        rng = np.random.default_rng(0)
        keys = sorted(exact)
        for _ in range(20):
            mask = rng.random(len(keys)) < 0.5
            p = sum(exact[k] for k, m in zip(keys, mask) if m)
            freq = sum(counts.get(k, 0) for k, m in zip(keys, mask) if m) / n
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            assert abs(freq - p) <= 3.0 * se

    def test_sampled_probability_matches_enumerated(self):
        model = builtin_scenario("damped-qubit", horizon=2)
        grid = full_grid(model)
        exact = {
            (r.letter, r.outcomes): r.prob for r in enumerate_trajectories(model, grid)
        }
        for rec in sample_trajectories(model, grid, 25, seed=5):
            assert abs(rec.prob - exact[(rec.letter, rec.outcomes)]) <= 1e-10


def scalar_draws(model, n_samples, seed):
    """The draw loop, one path and one outcome at a time, scalar weights
    and a running sum: the reference for the array draws of _draw_paths.
    Returns the (letter, outcome codes) of each draw; an error names the
    path by its outcome labels."""
    rng = np.random.default_rng(seed)
    prior = model.ensemble.prior
    prior_cum = np.cumsum(prior / prior.sum())
    roots = _letter_roots(model)
    effects = [
        [km.normalization() for km in model.instrument_at(step).maps]
        for step in range(1, model.horizon + 1)
    ]
    paths = []
    for _ in range(n_samples):
        letter = int(np.searchsorted(prior_cum, rng.random(), side="right"))
        letter = min(letter, len(prior) - 1)
        main = roots[letter]
        outcomes, codes = (), ()
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
            codes = codes + (pick,)
        paths.append((letter, codes))
    return paths


class TestArrayDraws:
    """_draw_paths draws in arrays what the scalar loop draws one by one."""

    CASES = {
        **{
            f"damped-qubit-seed{seed}": (lambda: builtin_scenario("damped-qubit", 3), 500, seed)
            for seed in range(1, 11)
        },
        "qubit-weak-h20": (lambda: builtin_scenario("qubit-weak", horizon=20), 200, 101),
        "random-dim4": (lambda: random_model(4, dim=4, n_outcomes=3, horizon=5), 300, 2),
        # more draws than one chunk holds
        "chunks": (lambda: random_model(6, dim=3, n_outcomes=3, horizon=2), 2 * _DRAW_ROWS + 7, 5),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_paths_as_scalar_loop(self, case):
        make, n, seed = self.CASES[case]
        model = make()
        paths = list(_draw_paths(model, n, seed))
        assert paths == scalar_draws(model, n, seed)
        assert all(type(codes) is tuple for _, codes in paths)
        assert all(type(code) is int for _, codes in paths[:5] for code in codes)

    def test_yields_codes_not_labels(self):
        # a path stays its outcome codes from the draw to the record; labels
        # are made from them only for the record's outcomes
        base = random_model(3, dim=2, n_outcomes=3, horizon=3)
        names = ("dn", "mid", "up")
        steps = tuple(dataclasses.replace(inst, outcomes=names) for inst in base.steps)
        model = dataclasses.replace(base, steps=steps)
        paths = list(_draw_paths(model, 300, 4))
        assert paths == scalar_draws(model, 300, 4)
        assert {code for _, codes in paths for code in codes} == {0, 1, 2}
        records = list(sample_trajectories(model, full_grid(model), 300, 4))
        assert [(rec.letter, rec.block.codes[rec.row].tolist()) for rec in records] == [
            (letter, list(codes)) for letter, codes in dict.fromkeys(paths)
        ]
        for rec in records:
            assert rec.outcomes == tuple(names[code] for code in rec.block.codes[rec.row])

    def test_records_come_in_draw_order(self):
        # one record per distinct path, in first-draw order, with its draws
        model = builtin_scenario("damped-qubit", horizon=3)
        grid = full_grid(model)
        records = sample_trajectories(model, grid, 500, 1)
        pairs = [((rec.letter, rec.outcomes), rec.count) for rec in records]
        draws = Counter(scalar_draws(model, 500, 1)).items()
        assert pairs == [((letter, labelled(model, codes)), n) for (letter, codes), n in draws]
        assert 1 < len(pairs) < 500

    def test_memory_bounded_by_distinct_paths(self):
        # three distinct paths: the draws are counted as they come, so the
        # peak does not grow with the number of draws (the whole list of
        # 80k paths alone would take about 9 MB)
        model = builtin_scenario("qubit-projective", horizon=3)
        grid = full_grid(model)

        def peak(n_samples):
            tracemalloc.start()
            try:
                records = list(sample_trajectories(model, grid, n_samples, 1))
                return tracemalloc.get_traced_memory()[1], len(records)
            finally:
                tracemalloc.stop()

        peak(1000)  # warm-up: first-call caches are not the sampler's
        small, big = peak(10_000), peak(80_000)
        assert small[1] == big[1] == 3
        assert big[0] <= 2 * small[0]

    def test_same_underflow_error(self):
        # the configuration of test_cli's underflow run: every draw's weights
        # fall short, those of draws 1 and 2 at earlier steps than draw 0's;
        # draw 0 raises, with the weight total of the step at which it fell
        # short
        base = random_model(3, dim=2, n_outcomes=4)
        model = dataclasses.replace(base, horizon=600, steps=(base.steps[0],) * 600)
        with pytest.raises(NumericRangeError) as scalar:
            scalar_draws(model, 3, 1)
        with pytest.raises(NumericRangeError) as arrays:
            list(_draw_paths(model, 3, 1))
        assert str(arrays.value) == str(scalar.value)
        assert "letter " in str(arrays.value) and "e-30" in str(arrays.value)


@st.composite
def grouped_terms(draw):
    """Arguments of _group_sums: either group sizes from 0 (an empty group)
    to beyond _SLICE_ROWS, the group ids in random order, or every group once
    a round, as the prefixes of a full tree meet their strings; the terms
    are p * rho, with probabilities of mixed magnitudes (some 0) and
    matrices with some -0.0 entries."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        count = draw(st.integers(1, 40))
        groups = np.tile(np.arange(count), draw(st.integers(0, _SLICE_ROWS + 40)))
    else:
        sizes = draw(
            st.lists(
                st.one_of(st.integers(0, 3), st.integers(_SLICE_ROWS - 2, _SLICE_ROWS + 40)),
                min_size=1,
                max_size=40,
            )
        )
        count = len(sizes)
        groups = rng.permutation(np.repeat(np.arange(count), sizes))
    probs = rng.random(len(groups)) * 10.0 ** rng.integers(-12, 2, len(groups))
    probs[rng.random(len(groups)) < 0.05] = 0.0
    shape = (20, dim, dim)
    matrices = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    matrices[rng.random(shape) < 0.1] = -0.0
    rows = rng.integers(0, len(matrices), len(groups))
    return groups, count, probs[:, None, None] * matrices[rows]


@settings(max_examples=200, deadline=None)
@given(grouped_terms())
def test_group_sums_add_each_group_in_order(args):
    groups, count, terms = args
    expected = np.zeros((count,) + terms.shape[1:], dtype=complex)
    for g, term in zip(groups, terms):
        expected[g] = expected[g] + term
    out = np.full_like(expected, np.nan)
    assert _group_sums(*args, out) is out and out.tobytes() == expected.tobytes()


def skewed_groups(count, scale):
    """Group ids of a pruned tree's prefixes by string, prefix by prefix:
    group k has scale // (k + 1) terms (at least one), so a few strings
    follow most prefixes and most strings only the first few."""
    sizes = np.maximum(1, scale // np.arange(1, count + 1))
    return np.concatenate([np.flatnonzero(sizes > rank) for rank in range(sizes[0])])


@pytest.mark.parametrize("dim", [2, 4])
def test_group_sums_memory_stays_near_slice_rows(dim):
    # one group of 5,000 terms beside 5,000 singletons, in random order, and
    # a pruned tree's skewed groups in prefix order (500 strings, 6,569
    # terms): a (groups, width) layout of either would take millions of
    # matrices
    rng = np.random.default_rng(dim)
    one_big = rng.permutation(np.concatenate([np.zeros(5000, dtype=np.int64), np.arange(1, 5001)]))
    for groups, count in ((one_big, 5001), (skewed_groups(500, 1000), 500)):
        terms = rng.standard_normal((len(groups), dim, dim)) + 0j
        tracemalloc.start()
        try:
            _group_sums(groups, count, terms, np.empty((count, dim, dim), dtype=complex))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (_SLICE_ROWS + count) * 16 * dim * dim


def reference_sums(grid, records, eta):
    """Martingale, measurability and a-priori-mean residuals by per-entry
    dict loops over the first record of each prefix: the reference for the
    grouped array sums of ConsistencyAccumulator.finalize."""
    prefix = {t: {} for t in grid.record_times}
    incr = {pair: {} for pair in grid.pairs()}
    for rec in records:
        for t in grid.record_times:
            entry = (rec.prob_at[t], rec.aposteriori[t].matrix)
            prefix[t].setdefault((rec.letter, rec.outcomes[:t]), entry)
        for (s, t) in grid.pairs():
            entry = (rec.incr_prob[(s, t)], rec.conditioned[(s, t)].matrix)
            incr[(s, t)].setdefault(rec.outcomes[s:t], entry)
    out = {}
    times = grid.record_times
    for i, s in enumerate(times):
        for t in times[i + 1 :]:
            grouped = {}
            for (letter, xs), (prob, _) in prefix[t].items():
                grouped[(letter, xs[:s])] = grouped.get((letter, xs[:s]), 0.0) + prob
            out[("martingale", (s, t))] = max(
                abs(total - prefix[s][key][0]) for key, total in grouped.items()
            )
    for (s, t) in grid.pairs():
        sums = {}
        for (letter, xs), (prob, rho) in prefix[t].items():
            mass, acc = sums.get(xs[s:t], (0.0, 0.0))
            sums[xs[s:t]] = (mass + prob, acc + prob * rho)
        devs = [0.0]
        for z, (mass, acc) in sums.items():
            weight, conditioned = incr[(s, t)][z]
            devs += [abs(mass - weight), np.linalg.norm(acc / mass - conditioned)]
        out[("measurability", (s, t))] = max(devs)
    for t in times:
        acc = np.zeros_like(eta[t].matrix)
        for prob, rho in prefix[t].values():
            acc += prob * rho
        out[("apriori-mean", (t,))] = np.linalg.norm(acc - eta[t].matrix)
    return out


class TestConsistency:
    @pytest.mark.parametrize("seed, times", [(2, None), (5, ([0, 2, 3, 4], [0, 3]))])
    def test_grouped_sums_equal_entry_loops(self, seed, times):
        # each group is added up in first-seen order, as the loops do
        model = random_model(seed, dim=3, n_outcomes=3, horizon=4)
        grid = full_grid(model) if times is None else TimeGrid.make(4, *times)
        eta = compute_a_priori(model, grid)
        records = list(enumerate_trajectories(model, grid))
        expected = reference_sums(grid, records, eta)
        report = consistency_checks(model, grid, records=records)
        for (name, times), residual in expected.items():
            assert report.find(name, times).margin == -residual, (name, times)

    def test_identity_scenario(self):
        model = builtin_scenario("identity", horizon=3)
        report = consistency_checks(model, full_grid(model))
        assert report.passed
        assert report.max_residual() <= 1e-12

    def test_projective(self):
        model = builtin_scenario("qubit-projective", horizon=2)
        report = consistency_checks(model, full_grid(model))
        assert report.passed
        assert report.max_residual() <= 1e-10

    def test_random_model(self):
        model = random_model(3, dim=2, n_outcomes=2, horizon=3)
        report = consistency_checks(model, full_grid(model))
        assert report.passed, str(report)
        assert report.max_residual() <= 1e-9

    def test_reports_every_family(self):
        model = builtin_scenario("qubit-weak", horizon=2)
        report = consistency_checks(model, full_grid(model))
        names = {c.name.split("(")[0] for c in report.checks}
        assert names >= {
            "total-probability",
            "martingale",
            "increment-total",
            "measurability",
            "apriori-mean",
            "prefix-dependence",
            "increment-dependence",
            "composition",
            "state-recursion",
        }

    @pytest.fixture(scope="class")
    def table(self):
        model = random_model(3, dim=2, n_outcomes=2, horizon=3)
        grid = full_grid(model)
        records = list(enumerate_trajectories(model, grid))
        # record 1 shares its letter and its first two outcomes with record 0
        assert (records[1].letter, records[1].outcomes[:2]) == (0, records[0].outcomes[:2])
        return model, grid, records

    def test_wrong_trie_row_fails(self, table):
        # a later record points its (0, 3) entry at the row of record 0's
        # increment string, which differs from its own in the last outcome
        model, grid, records = table
        rec, other = records[1], records[0]
        col = other.block.pairs.index((0, 3))
        assert rec.outcomes != other.outcomes
        block = rec.block.take([rec.row])
        block.conditioned[0, col] = other.block.conditioned[other.row, col]
        corrupted = list(records)
        corrupted[1] = TrajectoryRecord(block, 0)
        report = consistency_checks(model, grid, records=corrupted)
        assert "increment-dependence" in {c.name for c in report.failures()}

    def test_wrong_row_before_a_gap_deviates_alone(self):
        # on a grid with a gap (record times 0, 2, 4), a later record points
        # its (0, 2) entry at an earlier record's row: that entry alone
        # deviates, and its (0, 4) entry, a child of the right (0, 2) row by
        # two steps, still reads as right
        model = random_model(3, dim=2, n_outcomes=2, horizon=4)
        grid = TimeGrid.make(4, (0, 2, 4), (0,))
        records = list(enumerate_trajectories(model, grid))
        col = grid.pairs().index((0, 2))
        rec, other = records[-1], records[0]
        right, wrong = rec.block.conditioned[rec.row, col], other.block.conditioned[other.row, col]
        assert right != wrong
        block = rec.block.take([rec.row])
        block.conditioned[0, col] = wrong
        report = consistency_checks(model, grid, records=records[:-1] + [TrajectoryRecord(block, 0)])
        states = block.states
        gap = abs(states.mass[wrong] - states.mass[right])
        norm = np.linalg.norm(states.matrices([wrong]) - states.matrices([right]), axis=(1, 2))[0]
        assert report.find("increment-dependence", ()).margin == -max(gap, norm)

    def test_string_leaving_the_trie_between_record_times_refused(self):
        # qubit-projective repeats its outcomes, so the trie has no row for a
        # string that changes outcome: a record whose codes leave the trie
        # between two record times is refused, as at a record time
        model = builtin_scenario("qubit-projective", horizon=4)
        grid = TimeGrid.make(4, (0, 4), (0,))
        records = list(enumerate_trajectories(model, grid))
        rec = records[-1]
        block = rec.block.take([rec.row])
        block.codes[0, 1] = 1 - block.codes[0, 1]
        with pytest.raises(ValueError, match="no row in the trie"):
            consistency_checks(model, grid, records=records[:-1] + [TrajectoryRecord(block, 0)])

    def test_swapped_trie_entries_fail(self):
        # every record agrees with the trie, but record 0's row holds another
        # string's state: only its replay along its own outcomes shows it
        model = random_model(3, dim=2, n_outcomes=2, horizon=3)
        grid = full_grid(model)
        records = list(enumerate_trajectories(model, grid))
        assert consistency_checks(model, grid, records=records).passed
        col = grid.pairs().index((0, 3))
        rows = [rec.block.conditioned[rec.row, col] for rec in records[:2]]
        states = records[0].block.states
        for name in ("mass", "pushed", "entropy", "eigenvalues", "eigenvectors"):
            values = getattr(states, name)
            values[rows] = values[rows[::-1]]
        report = consistency_checks(model, grid, records=records)
        assert "increment-dependence" in {c.name for c in report.failures()}

    @pytest.mark.parametrize(
        "field, key, index, scale, check",
        [
            ("aposteriori", 1, 1, 1e-6, "prefix-dependence"),
            ("conditioned", (1, 2), 1, 1e-6, "increment-dependence"),
            ("conditioned", (0, 2), 0, 1e-6, "increment-dependence"),
            ("aposteriori", 3, 0, 1e-6, "state-recursion"),
            ("conditioned", (1, 2), 1, math.nan, "increment-dependence"),
            ("aposteriori", 1, 1, math.nan, "prefix-dependence"),
            ("incr_prob", (1, 2), 1, math.nan, "increment-dependence"),
        ],
        ids=[
            "later-aposteriori",
            "later-conditioned",
            "first-conditioned",
            "first-aposteriori",
            "nan-conditioned",
            "nan-aposteriori",
            "nan-incr-prob",
        ],
    )
    def test_corrupted_entry_fails(self, table, field, key, index, scale, check):
        # record 0 is the first to carry every key; record 1 is a later one
        model, grid, records = table
        rec = records[index]
        entries = getattr(rec, field)
        value = entries[key]
        if isinstance(value, DensityOperator):
            value = DensityOperator(value.matrix + scale * np.diag([1.0, -1.0]), value.entropy)
        else:
            value = value + scale
        corrupted = list(records)
        corrupted[index] = with_entry(rec, field, key, value)
        # a table row's state is its pushed matrix over its mass, a complex
        # division that numpy flags as invalid when the mass is NaN
        with np.errstate(invalid="ignore" if field == "incr_prob" else "warn"):
            report = consistency_checks(model, grid, records=corrupted)
        assert check in {c.name for c in report.failures()}

    def test_corrupted_trie_row_fails(self):
        # the trie row of record 0's (0, 2) string holds another state of the
        # same mass, in place: every record of the string points at it, and
        # conditioning 0 -> 1 -> 2 no longer composes to it
        model = random_model(3, dim=2, n_outcomes=2, horizon=3)
        grid = full_grid(model)
        records = list(enumerate_trajectories(model, grid))
        rec, states = records[0], records[0].block.states
        row = rec.block.conditioned[rec.row, grid.pairs().index((0, 2))]
        states.pushed[row] += 1e-6 * states.mass[row] * np.diag([1.0, -1.0])
        report = consistency_checks(model, grid, records=records)
        assert "composition" in {c.name for c in report.failures()}

    def test_sampled_records_refused(self):
        # each sampled record has a table of states of its own, not linked
        # as an enumeration's trie is
        model = random_model(3, dim=2, n_outcomes=2, horizon=3)
        grid = full_grid(model)
        records = list(sample_trajectories(model, grid, 40, seed=1))
        with pytest.raises(ValueError, match="another table of states"):
            consistency_checks(model, grid, records=records)

    def test_reversed_enumeration_refused(self):
        # the prefixes are held in emission order, where their numbers grow
        model = random_model(3, dim=2, n_outcomes=2, horizon=3)
        grid = full_grid(model)
        records = list(enumerate_trajectories(model, grid))
        assert consistency_checks(model, grid, records=records).passed
        with pytest.raises(ValueError, match="emission order"):
            consistency_checks(model, grid, records=records[::-1])


def watched(records, refs):
    """``records``, appending weak references to each record and to its
    block's table of states (which every block of an enumeration shares,
    so a dead table means that no block is alive)."""
    for rec in records:
        refs.append((weakref.ref(rec), weakref.ref(rec.block.states)))
        yield rec


def array_bytes(obj, skip, seen=None) -> int:
    """Bytes of the numpy arrays reachable from ``obj`` through attributes,
    containers and dict values, each counted once, except through ``skip``."""
    seen = set() if seen is None else seen
    if obj is skip or id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(array_bytes(item, skip, seen) for item in obj)
    return 0


class TestConsistencyTables:
    def test_tables_hold_copies_not_records(self):
        # each held prefix entry is a copy of one record's probability and
        # matrix, never a reference to a record's state or block; the
        # increment strings are rows of the run's trie, which finalize lets go
        model = random_model(2, dim=3, n_outcomes=3, horizon=4)
        grid = full_grid(model)
        acc = ConsistencyAccumulator(model, grid)
        refs = []
        fold(watched(enumerate_trajectories(model, grid), refs), acc=acc)
        assert len(refs) == model.leaf_count()
        assert all(rec() is None for rec, _ in refs)
        trie = refs[0][1]()
        assert trie is not None and all(states() is trie for _, states in refs)
        assert not [o for o in gc.get_objects() if isinstance(o, RecordBlock) and o.states is trie]
        del trie
        assert acc.finalize().passed
        assert refs[0][1]() is None
        table, n = acc.prefix, acc.prefix.size
        assert n > 2 * BLOCK_NODES and table.matrices.base is None
        assert table.probs.shape[0] >= n and table.matrices.shape[1:] == (3, 3)
        # the first entry of the last leaf's full prefix is that leaf's own state
        last = list(enumerate_trajectories(model, grid))[-1]
        row = np.flatnonzero(table.cols[:n] == len(grid.record_times) - 1)[-1]
        assert np.array_equal(table.matrices[row], last.aposteriori[4].matrix)
        assert table.matrices[row] is not last.aposteriori[4].matrix

    def test_trie_dead_inside_finalize(self, monkeypatch):
        # consistency_checks lets go of its last run before finalize, so the
        # walk's trie, spectra and all, is dead once finalize has let go of
        # it (by the pushes of composition and recursion)
        model = random_model(2, dim=3, n_outcomes=3, horizon=4)
        tries, dead = [], []
        add, pushed = ConsistencyAccumulator.add, ConsistencyAccumulator._pushed

        def watching_add(self, block, rows):
            tries.append(weakref.ref(block.states))
            add(self, block, rows)

        def watching_pushed(self, *args):
            dead.append(tries[-1]() is None)
            return pushed(self, *args)

        monkeypatch.setattr(ConsistencyAccumulator, "add", watching_add)
        monkeypatch.setattr(ConsistencyAccumulator, "_pushed", watching_pushed)
        assert consistency_checks(model, full_grid(model)).passed
        assert len(tries) > 1 and dead and all(dead)

    def test_holds_no_array_sized_by_increment_strings(self):
        # the same prefixes with and without reference times: the arrays the
        # accumulator holds after a fold, outside the run's trie, differ by a
        # few numbers per pair, not by a state per increment string
        model = random_model(2, dim=3, n_outcomes=3, horizon=4)
        held, strings = [], []
        for refs in (None, ()):
            grid = TimeGrid.make(model.horizon, None, refs)
            acc, stats = ConsistencyAccumulator(model, grid), Counter()
            records = list(enumerate_trajectories(model, grid, stats))
            fold(records, acc=acc)
            held.append(array_bytes(acc, skip=records[0].block.states))
            strings.append(stats["increment states"])
        assert strings[0] > 100 and strings[1] == 0
        assert 0 <= held[0] - held[1] <= 4 * 8 * len(TimeGrid.make(model.horizon).pairs())

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_report_add_keeps_no_block(self, mode):
        # the report builder folds runs of one block and keeps none of them
        model = random_model(2, dim=3, n_outcomes=3, horizon=4)
        grid = full_grid(model)
        if mode == "enumerate":
            records = enumerate_trajectories(model, grid)
        else:
            records = sample_trajectories(model, grid, 40, seed=1)
        builder = EntropyReportBuilder(grid, mode)
        refs = []
        fold(watched(records, refs), builder)
        assert len(refs) > 1 and all(ref() is None for pair in refs for ref in pair)
        assert builder.count == (model.leaf_count() if mode == "enumerate" else 40)

    def test_records_of_another_grid_refused(self):
        model = random_model(5, dim=2, n_outcomes=3, horizon=3)
        records = enumerate_trajectories(model, TimeGrid.make(3, (0, 2, 3), (0,)))
        with pytest.raises(GridMiss):
            consistency_checks(model, full_grid(model), records=records)

    def test_keys_must_fit_int64(self):
        # 2 x 2**63 leaves: enumeration refuses them, and so do the tables
        model = builtin_scenario("qubit-projective", horizon=63)
        grid = TimeGrid.make(63, (0, 63))
        with pytest.raises(BudgetExceeded):
            ConsistencyAccumulator(model, grid)


class TestDump:
    def test_format_outcomes(self):
        assert format_outcomes(("0", "1", "0")) == "010"
        assert format_outcomes(("up", "dn")) == "up|dn"
