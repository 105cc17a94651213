import math

import numpy as np
import pytest

from contmeas.engine import (
    compute_a_priori,
    consistency_checks,
    enumerate_trajectories,
    format_outcomes,
    sample_trajectories,
)
from contmeas.errors import BudgetExceeded, NotPositiveSemidefinite
from contmeas.model import Ensemble, MeasurementModel, TimeGrid, builtin_scenario, random_model

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def full_grid(model):
    return TimeGrid.make(model.horizon)


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
        for rec in enumerate_trajectories(model, grid, apriori=track):
            for s in grid.reference_times:
                assert rec.conditioned[(s, s)] is track[s]
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
            rec.letter == 1
            for rec in sample_trajectories(model, full_grid(model), n, seed=42)
        )
        assert abs(hits / n - 0.5) <= 3.0 * math.sqrt(0.25 / n)

    def test_deterministic_in_seed(self):
        model = builtin_scenario("damped-qubit", horizon=2)
        grid = full_grid(model)
        a = [(r.letter, r.outcomes, r.prob) for r in sample_trajectories(model, grid, 50, seed=3)]
        b = [(r.letter, r.outcomes, r.prob) for r in sample_trajectories(model, grid, 50, seed=3)]
        assert a == b

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
            counts[key] = counts.get(key, 0) + 1
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


class TestConsistency:
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
            "increment-dependence",
            "composition",
            "state-recursion",
        }


class TestDump:
    def test_format_outcomes(self):
        assert format_outcomes(("0", "1", "0")) == "010"
        assert format_outcomes(("up", "dn")) == "up|dn"
