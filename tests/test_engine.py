import dataclasses
import math
import sys
import weakref
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest

from contmeas.engine import (
    _PAIR_COLUMNS,
    _DRAW_ROWS,
    _TIME_COLUMNS,
    BLOCK_NODES,
    ConsistencyAccumulator,
    IncrementTrie,
    TrajectoryRecord,
    _draw_paths,
    _letter_roots,
    _path_name,
    _Walk,
    compute_a_priori,
    consistency_checks,
    enumerate_trajectories,
    format_outcomes,
    sample_trajectories,
)
from contmeas.errors import BudgetExceeded, GridMiss, NotPositiveSemidefinite, NumericRangeError
from contmeas.model import Ensemble, MeasurementModel, TimeGrid, builtin_scenario, random_model
from contmeas.quantum import DensityOperator

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def full_grid(model):
    return TimeGrid.make(model.horizon)


def with_entry(rec, field, key, value):
    """A copy of ``rec``, as a one-row block, whose ``field`` holds ``value``
    at ``key`` (a time or an (s, t) pair). A conditioned state goes into a
    new row of the record's table of states (mass 1), with the spectrum of
    the row it replaces; every other row stays as it was."""
    block = rec.block.take([rec.row])
    labels = block.pairs if isinstance(key, tuple) else block.times
    if field == "conditioned":
        states, old = block.states, block.conditioned[0, labels.index(key)]
        row = states.reserve(1)[0]
        for name in ("eigenvalues", "eigenvectors"):
            getattr(states, name)[row] = getattr(states, name)[old]
        states.pushed[row], states.mass[row] = value.matrix, 1.0
        states.entropy[row] = value.entropy
        value = row
    getattr(block, field)[0, labels.index(key)] = value
    return TrajectoryRecord(rec.letter, rec.outcomes, block, 0)


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


class TestAPrioriArgument:
    """Only the track that compute_a_priori returns carries the spectra the
    walk reuses; anything else is refused at entry."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda model, grid, eta: list(enumerate_trajectories(model, grid, apriori=eta)),
            lambda model, grid, eta: list(sample_trajectories(model, grid, 5, 1, apriori=eta)),
            lambda model, grid, eta: consistency_checks(model, grid, apriori=eta),
        ],
        ids=["enumerate", "sample", "consistency"],
    )
    def test_plain_dict_raises_type_error(self, run):
        model = builtin_scenario("qubit-weak", horizon=2)
        grid = full_grid(model)
        plain = dict(compute_a_priori(model, grid))
        with pytest.raises(TypeError, match="compute_a_priori"):
            run(model, grid, plain)


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
        for rec in enumerate_trajectories(model, grid, apriori=track):
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
            for rec in enumerate_trajectories(model, grid, apriori=track):
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
        walk = _Walk(model, grid, None)
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
            one = walk.replay(rec.letter, rec.outcomes)
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
        walk = _Walk(model, grid, None)
        # four nodes at time 1, each with its main state and the track seeded at 0
        stacks = np.array([[0.3 * KET0 + 0.2 * KET1, 0.5 * np.eye(2)]] * 4, dtype=complex)
        for node, member, kind in faults:
            stacks[node, member] = self.BAD[kind]
        paths = [(label,) for label in model.instrument_at(1).outcomes]
        # the tracks are trie rows not decomposed yet
        trie = IncrementTrie(walk.root_states, 4)
        rows = trie.reserve(4)[:, np.newaxis]
        trie.pushed[rows[:, 0]] = stacks[:, 1]
        block = walk.root(1, trie).take([0] * 4)
        with pytest.raises(error) as info:
            walk.visit(paths, 1, stacks[:, :1], block, rows)
        assert str(info.value).startswith(_path_name(1, paths[first], 1) + ": ")
        assert not trie.done[rows].any()
        # the same type and message as that node alone
        one = slice(first, first + 1)
        with pytest.raises(error) as alone:
            walk.visit(paths[one], 1, stacks[one, :1], block.take([first]), rows[one])
        assert str(info.value) == str(alone.value)


class TestIncrementTrie:
    """Enumeration decomposes each outcome-only conditioned state once per
    (s, increment string), on a trie grown only for reached strings."""

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
        states = records[0].block.states
        assert states.size == len(grid.reference_times) + stats["increment states"]
        assert consistency_checks(model, grid, records=records).passed


class TestRecordRow:
    def test_fields_are_row_mappings(self):
        model = random_model(8, dim=2, n_outcomes=2, horizon=3)
        grid = full_grid(model)
        rec = list(enumerate_trajectories(model, grid))[5]
        block, row = rec.block, rec.row
        for name in _TIME_COLUMNS + _PAIR_COLUMNS:
            field = getattr(rec, name)
            keys = block.pairs if name in _PAIR_COLUMNS else block.times
            assert isinstance(field, Mapping) and not hasattr(field, "__setitem__")
            assert list(field) == list(keys) == list(field.keys()) and len(field) == len(keys)
            if name not in ("aposteriori", "conditioned"):
                assert field == dict(zip(keys, getattr(block, name)[row].tolist()))
                assert all(type(value) is float for value in field.values())
        with pytest.raises(KeyError):
            rec.prob_at[(0, 1)]
        # a lookup reads the block's element when it is made
        prob_at = rec.prob_at
        block.prob_at[row, 1] = 0.25
        assert prob_at[1] == 0.25
        # a conditioned entry is the state of the row it points at
        col = block.pairs.index((1, 3))
        state = rec.conditioned[(1, 3)]
        assert np.array_equal(state.matrix, block.states.matrices(block.conditioned[row, col]))
        assert state.entropy == rec.cond_entropy[(1, 3)] and state.matrix.base is None
        assert [key for key, _ in rec.conditioned.items()] == list(block.pairs)


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
    and a running sum: the reference for the array draws of _draw_paths."""
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
        paths.append((letter, outcomes))
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
        paths = _draw_paths(model, n, seed)
        assert paths == scalar_draws(model, n, seed)
        assert all(type(label) is str for _, outcomes in paths[:5] for label in outcomes)

    def test_records_come_in_draw_order(self):
        # one record per distinct path, in first-draw order, with its draws
        model = builtin_scenario("damped-qubit", horizon=3)
        grid = full_grid(model)
        records = sample_trajectories(model, grid, 500, 1)
        pairs = [((rec.letter, rec.outcomes), rec.count) for rec in records]
        assert pairs == list(Counter(scalar_draws(model, 500, 1)).items())
        assert 1 < len(pairs) < 500

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
            _draw_paths(model, 3, 1)
        assert str(arrays.value) == str(scalar.value)
        assert "letter " in str(arrays.value) and "e-30" in str(arrays.value)


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
        records = list(enumerate_trajectories(model, grid, apriori=eta))
        expected = reference_sums(grid, records, eta)
        report = consistency_checks(model, grid, records=records, apriori=eta)
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
        corrupted[1] = TrajectoryRecord(rec.letter, rec.outcomes, block, 0)
        report = consistency_checks(model, grid, records=corrupted)
        assert "increment-dependence" in {c.name for c in report.failures()}

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
            ("conditioned", (0, 2), 0, 1e-6, "composition"),
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
        report = consistency_checks(model, grid, records=corrupted)
        assert check in {c.name for c in report.failures()}


class TestConsistencyTables:
    def test_tables_hold_copies_not_records(self):
        # each held entry is a copy of one record's probability and matrix,
        # never a reference to a record's state or block
        model = random_model(2, dim=3, n_outcomes=3, horizon=4)
        grid = full_grid(model)
        acc = ConsistencyAccumulator(model, grid, compute_a_priori(model, grid))
        records = list(enumerate_trajectories(model, grid))
        for rec in records:
            acc.add(rec)
        assert acc.finalize().passed
        assert acc._block is None and acc._rows == []
        for table in (acc.prefix, acc.incr):
            n = len(table.index)
            assert n > 2 * BLOCK_NODES and table.matrices.base is None
            assert table.probs.shape[0] >= n and table.matrices.shape[1:] == (3, 3)
        # the first entry of the last leaf's full prefix is that leaf's own state
        last = records[-1]
        row = acc.prefix.column(len(grid.record_times) - 1)[1][-1]
        assert np.array_equal(acc.prefix.matrices[row], last.aposteriori[4].matrix)
        assert acc.prefix.matrices[row] is not last.aposteriori[4].matrix

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
            ConsistencyAccumulator(model, grid, compute_a_priori(model, grid))


class TestDump:
    def test_format_outcomes(self):
        assert format_outcomes(("0", "1", "0")) == "010"
        assert format_outcomes(("up", "dn")) == "up|dn"
