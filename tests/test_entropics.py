import dataclasses
import io
import math

import numpy as np
import pytest

from contmeas.engine import TrajectoryRecord, enumerate_trajectories, sample_trajectories
from contmeas.entropics import (
    EntropyReport,
    EntropyReportBuilder,
    build_entropy_report,
    check_bounds,
    mutual_entropy_hybrid,
    report_to_json_dict,
    write_bounds_csv,
)
from contmeas.errors import GridMiss
from contmeas.model import TimeGrid, builtin_scenario, is_pure_preserving, random_model
from contmeas.quantum import chi_quantity

IC_01 = 0.21576155433883565  # H(3/4,1/4) - (1/2) ln 2
H_34 = 0.5623351446188083  # H(3/4,1/4)
CHI_0 = 0.4164955306996875  # binary entropy of (1 +- 1/sqrt 2)/2


def full_grid(model):
    return TimeGrid.make(model.horizon)


@pytest.fixture(scope="module")
def projective_records():
    model = builtin_scenario("qubit-projective", horizon=2)
    grid = full_grid(model)
    return model, grid, list(enumerate_trajectories(model, grid))


@pytest.fixture(scope="module")
def projective_report(projective_records):
    _, grid, records = projective_records
    return build_entropy_report(records, grid)


class MeanAccumulator:
    """Scalar reference for one report entry: weighted streaming mean and
    variance (West's update), with an infinity flag for diverging
    relative-entropy contributions."""

    __slots__ = ("count", "total_weight", "_mean", "m2", "infinite")

    def __init__(self):
        self.count = 0
        self.total_weight = 0.0
        self._mean = 0.0
        self.m2 = 0.0
        self.infinite = False

    def add(self, value: float, weight: float = 1.0, draws: int = 1) -> None:
        if weight <= 0.0:
            return
        self.count += draws
        if math.isinf(value):
            self.infinite = True
            return
        self.total_weight += weight
        delta = value - self._mean
        self._mean += (weight / self.total_weight) * delta
        self.m2 += weight * delta * (value - self._mean)

    @property
    def mean(self) -> float:
        if self.infinite:
            return math.inf
        return self._mean

    def standard_error(self) -> float:
        """Standard error of the mean for sampling streams, whose weights
        are draw counts."""
        if self.infinite or self.count < 2:
            return 0.0
        variance = self.m2 / (self.count - 1)
        return math.sqrt(max(variance, 0.0) / self.count)


def reference_report(records, grid, mode="enumerate"):
    """Every report entry through its own MeanAccumulator, in the builder's
    key order: the per-key reference for the column-wise builder. A sampled
    record weighs its draw count."""
    keys = EntropyReportBuilder(grid, mode).keys
    accs = {key: MeanAccumulator() for key in keys}
    count = 0
    for rec in records:
        count += rec.count
        weight = rec.prob if mode == "enumerate" else rec.count
        for key, acc in accs.items():
            kind, times = key[0], key[1:]
            if kind == "Ic":
                r, t = times
                value = (
                    math.log(rec.prob_at[t])
                    - math.log(rec.prob_at[r])
                    - math.log(rec.incr_prob[(r, t)])
                )
            elif kind == "chi_bar":
                value = rec.chi_term[times]
            elif kind == "chi_at":
                value = rec.chi_at_term[times[0]]
            elif kind == "Iq":
                value = rec.entropy[times[0]] - rec.entropy[times[1]]
            else:
                r, s, t = times
                value = rec.cond_entropy[(r, s)] - rec.cond_entropy[(r, t)]
            acc.add(value, weight, rec.count)
    return count, accs


def weighted_mean(records, term):
    """Probability-weighted mean of a per-record term, summed directly."""
    return sum(rec.prob * term(rec) for rec in records) / sum(rec.prob for rec in records)


class TestClassicalInformation:
    def test_identity_zero(self):
        model = builtin_scenario("identity", horizon=3)
        grid = full_grid(model)
        report = build_entropy_report(enumerate_trajectories(model, grid), grid)
        for (r, t) in grid.pairs():
            assert abs(report.Ic[(r, t)]) <= 1e-12

    def test_projective_hand_values(self, projective_report):
        assert abs(projective_report.Ic[(0, 1)] - IC_01) <= 1e-6
        assert abs(projective_report.Ic[(0, 2)] - IC_01) <= 1e-6
        assert abs(projective_report.Ic[(1, 2)] - H_34) <= 1e-6

    def test_self_pair_is_zero(self, projective_report):
        for t in (0, 1, 2):
            assert projective_report.Ic[(t, t)] == 0.0

    def test_grid_miss(self, projective_records):
        _, _, records = projective_records
        with pytest.raises(GridMiss):
            mutual_entropy_hybrid(records, 0, 7)


class TestMeanChi:
    def test_projective(self, projective_report):
        assert abs(projective_report.chi_bar[(0, 1)]) <= 1e-10
        assert abs(projective_report.chi_bar[(0, 2)]) <= 1e-10
        assert abs(projective_report.chi_bar[(1, 1)] - H_34) <= 1e-6
        assert abs(projective_report.chi_bar[(0, 0)] - CHI_0) <= 1e-9

    def test_reduces_to_chi_quantity(self):
        model = builtin_scenario("damped-qubit", horizon=2)
        grid = full_grid(model)
        records = list(enumerate_trajectories(model, grid))
        report = build_entropy_report(records, grid)
        for t in grid.record_times:
            members = {}
            for rec in records:
                members[(rec.letter, rec.outcomes[:t])] = (
                    rec.prob_at[t],
                    rec.aposteriori[t],
                )
            chi = chi_quantity(list(members.values()))
            assert abs(report.chi_bar[(t, t)] - chi) <= 1e-10


class TestQuantumInfoGain:
    def test_pure_preserving_zero(self, projective_report):
        for (s, t) in [(0, 1), (0, 2), (1, 2)]:
            assert abs(projective_report.Iq[(s, t)]) <= 1e-12

    def test_initial_gain_is_average_entropy(self, projective_report):
        assert abs(projective_report.Iq_cond[(0, 0, 1)] - CHI_0) <= 1e-4

    def test_additivity_exact(self):
        model = builtin_scenario("damped-qubit", horizon=3)
        grid = full_grid(model)
        report = build_entropy_report(enumerate_trajectories(model, grid), grid)
        for r, s, t in [(0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 1, 3)]:
            lhs = report.Iq[(r, s)] + report.Iq[(s, t)]
            assert abs(lhs - report.Iq[(r, t)]) <= 1e-12
            lhs_c = report.Iq_cond[(0, r, s)] + report.Iq_cond[(0, s, t)]
            assert abs(lhs_c - report.Iq_cond[(0, r, t)]) <= 1e-12


class TestReportBuilder:
    def test_matches_single_ops(self):
        # the streaming builder against each entry's plain weighted sum
        model = builtin_scenario("damped-qubit", horizon=2)
        grid = full_grid(model)
        records = list(enumerate_trajectories(model, grid))
        report = build_entropy_report(records, grid)
        for (r, t) in grid.pairs():
            ic = weighted_mean(
                records,
                lambda rec: math.log(rec.prob_at[t])
                - math.log(rec.prob_at[r])
                - math.log(rec.incr_prob[(r, t)]),
            )
            assert abs(report.Ic[(r, t)] - ic) <= 1e-12
            chi = weighted_mean(records, lambda rec: rec.chi_term[(r, t)])
            assert abs(report.chi_bar[(r, t)] - chi) <= 1e-12
        for t in grid.record_times:
            chi = weighted_mean(records, lambda rec: rec.chi_term[(t, t)])
            assert abs(report.chi_at[t] - chi) <= 1e-12
        assert report.mode == "enumerate"
        assert all(v == 0.0 for v in report.se.values())

    def test_chi_at_equals_diagonal_chi_bar(self):
        model = builtin_scenario("qubit-weak", horizon=3)
        grid = full_grid(model)
        report = build_entropy_report(enumerate_trajectories(model, grid), grid)
        for t in grid.reference_times:
            assert abs(report.chi_at[t] - report.chi_bar[(t, t)]) <= 1e-10

    def test_ic_diagonal_zero(self):
        model = builtin_scenario("qubit-weak", horizon=2)
        grid = full_grid(model)
        report = build_entropy_report(enumerate_trajectories(model, grid), grid)
        for t in grid.record_times:
            assert report.Ic[(t, t)] == 0.0
            assert report.Ic[(0, t)] >= -1e-9
            assert report.chi_bar[(0, t)] >= -1e-9

    def test_sampled_report_close_to_enumerated(self):
        model = builtin_scenario("qubit-projective", horizon=2)
        grid = full_grid(model)
        exact = build_entropy_report(enumerate_trajectories(model, grid), grid)
        sampled = build_entropy_report(
            sample_trajectories(model, grid, 20000, seed=9), grid, mode="sample"
        )
        for key, value in exact.Ic.items():
            se = sampled.se[("Ic",) + key]
            assert abs(sampled.Ic[key] - value) <= 3.0 * se + 1e-12
        for key, value in exact.chi_at.items():
            se = sampled.se[("chi_at", key)]
            assert abs(sampled.chi_at[key] - value) <= 3.0 * se + 1e-12


class TestColumnBuilder:
    """The column-wise builder against one scalar MeanAccumulator per key."""

    @staticmethod
    def assert_matches_reference(report, records, grid, mode):
        count, accs = reference_report(records, grid, mode)
        assert report.count == count
        for key, acc in accs.items():
            kind = key[0]
            value = getattr(report, kind)[key[1] if kind == "chi_at" else key[1:]]
            expected = (acc.mean, acc.standard_error() if mode == "sample" else 0.0)
            assert (value, report.se[key]) == expected, key

    def test_enumerate_bit_for_bit(self):
        model = random_model(4, dim=3, n_outcomes=3, horizon=3)
        grid = full_grid(model)
        records = list(enumerate_trajectories(model, grid))
        report = build_entropy_report(records, grid)
        self.assert_matches_reference(report, records, grid, "enumerate")

    @pytest.fixture(scope="class")
    def sampled_with_inf(self):
        model = builtin_scenario("damped-qubit", horizon=3)
        grid = full_grid(model)
        records = list(sample_trajectories(model, grid, 300, seed=3))
        # one record, as a one-row block, carries an infinite relative entropy
        rec = records[7]
        block = rec.block.take([rec.row])
        block.chi_term[0, block.pairs.index((0, 2))] = math.inf
        records[7] = TrajectoryRecord(rec.letter, rec.outcomes, block, 0, rec.count)
        return grid, records

    def test_sample_with_inf_bit_for_bit(self, sampled_with_inf):
        grid, records = sampled_with_inf
        report = build_entropy_report(records, grid, mode="sample")
        assert math.isinf(report.chi_bar[(0, 2)]) and report.se[("chi_bar", 0, 2)] == 0.0
        self.assert_matches_reference(report, records, grid, "sample")

    def test_counts_equal_repeated_draws(self):
        # a record of count k folds like k records of count 1, within rounding
        model = builtin_scenario("damped-qubit", horizon=3)
        grid = full_grid(model)
        records = list(sample_trajectories(model, grid, 300, seed=3))
        assert max(rec.count for rec in records) > 1
        draws = [dataclasses.replace(rec, count=1) for rec in records for _ in range(rec.count)]
        folded = build_entropy_report(records, grid, mode="sample")
        repeated = build_entropy_report(draws, grid, mode="sample")
        assert folded.count == repeated.count == len(draws) == 300
        for key in folded.se:
            kind = key[0]
            times = key[1] if kind == "chi_at" else key[1:]
            value, other = getattr(folded, kind)[times], getattr(repeated, kind)[times]
            assert abs(value - other) <= 1e-12, key
            assert abs(folded.se[key] - repeated.se[key]) <= 1e-12, key

    def test_records_own_their_matrices(self, sampled_with_inf):
        # a view into a node's stack would keep the whole stack alive
        model = random_model(4, dim=3, n_outcomes=3, horizon=3)
        _, sampled = sampled_with_inf
        for rec in list(enumerate_trajectories(model, full_grid(model))) + sampled:
            for state in [*rec.aposteriori.values(), *rec.conditioned.values()]:
                assert state.matrix.base is None


class TestHybridRoute:
    def test_agrees_with_log_density_route(self):
        for name in ("qubit-projective", "qubit-weak", "damped-qubit"):
            model = builtin_scenario(name, horizon=2)
            grid = full_grid(model)
            records = list(enumerate_trajectories(model, grid))
            report = build_entropy_report(records, grid)
            for (r, s) in grid.pairs():
                hybrid = mutual_entropy_hybrid(records, r, s)
                expected = report.Ic[(r, s)] + report.chi_bar[(r, s)]
                assert abs(hybrid.direct - expected) <= 1e-8
                assert abs(hybrid.direct - hybrid.decomposed) <= 1e-9


class TestCheckBounds:
    def test_identity_scenario(self):
        model = builtin_scenario("identity", horizon=3)
        grid = full_grid(model)
        report = build_entropy_report(enumerate_trajectories(model, grid), grid)
        bounds = check_bounds(report, pure_preserving=is_pure_preserving(model))
        assert bounds.passed
        # the Holevo budget is untouched: B3 saturates at 0 = 0 everywhere? No:
        # chi_at stays constant and chi_bar equals it, so lhs = rhs = 0.
        for (s, t) in grid.pairs():
            c = bounds.find("B3", (s, t))
            assert abs(c.lhs) <= 1e-12 and abs(c.rhs) <= 1e-9

    def test_projective_saturation(self, projective_records):
        model, grid, records = projective_records
        report = build_entropy_report(records, grid)
        bounds = check_bounds(report, pure_preserving=is_pure_preserving(model))
        assert bounds.passed
        c = bounds.find("B3", (1, 2))
        assert abs(c.lhs - H_34) <= 1e-6
        assert abs(c.rhs - H_34) <= 1e-6
        assert abs(c.margin) <= 1e-9

    def test_random_models(self):
        for seed in range(8):
            model = random_model(seed, dim=2, n_outcomes=2, kraus_per_outcome=2, horizon=3)
            grid = full_grid(model)
            records = list(enumerate_trajectories(model, grid))
            report = build_entropy_report(records, grid)
            bounds = check_bounds(report)
            assert bounds.min_margin("B1") >= -1e-9
            assert bounds.min_margin("B2") >= -1e-9
            assert bounds.min_margin("B3") >= -1e-9
            assert bounds.min_margin("B4") >= -1e-9
            assert bounds.min_margin("B5") >= -1e-9
            assert bounds.min_margin("B6") >= -1e-12

    def test_extended_reals(self):
        grid = TimeGrid.make(1)
        inf = math.inf
        report = EntropyReport(
            grid=grid,
            mode="enumerate",
            count=1,
            Ic={(0, 0): 0.0, (0, 1): 0.1, (1, 1): 0.0},
            chi_bar={(0, 0): inf, (0, 1): 0.2, (1, 1): 0.0},
            chi_at={0: inf, 1: 0.5},
            Iq={(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0},
            Iq_cond={
                (0, 0, 0): 0.0,
                (0, 0, 1): 0.3,
                (0, 1, 1): 0.3,
                (1, 1, 1): 0.0,
            },
            se={},
        )
        bounds = check_bounds(report)
        # chi_bar(0,0) infinite dominates the first part of the B2 chain;
        # the min slack is then the Ic-difference part
        c = bounds.find("B2", (0, 0, 1))
        assert c.passed and math.isinf(c.rhs)
        assert c.margin == pytest.approx(0.1)
        # chi_at(0) infinite dominates B3 and B4
        assert bounds.find("B3", (0, 1)).passed
        assert bounds.find("B4", (0, 1)).passed
        # finite chi_at(1) against finite chi_bar(1,1) still checked normally
        assert bounds.find("B3", (1, 1)).passed

    def test_failing_margin_detected(self):
        grid = TimeGrid.make(1)
        report = EntropyReport(
            grid=grid,
            mode="enumerate",
            count=1,
            Ic={(0, 0): 0.0, (0, 1): 0.9, (1, 1): 0.0},
            chi_bar={(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0},
            chi_at={0: 0.5, 1: 0.5},
            Iq={(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0},
            Iq_cond={(0, 0, 0): 0.0, (0, 0, 1): 1.0, (0, 1, 1): 1.0, (1, 1, 1): 0.0},
            se={},
        )
        bounds = check_bounds(report)
        assert not bounds.passed
        assert not bounds.find("B4", (0, 1)).passed
        assert bounds.find("B4", (0, 1)).margin == pytest.approx(-0.4)


class TestSerialization:
    def test_json_shape(self, projective_records):
        _, grid, records = projective_records
        report = build_entropy_report(records, grid)
        doc = report_to_json_dict(report)
        assert set(doc) == {"Ic", "chi_bar", "chi_at", "Iq", "Iq_cond"}
        assert doc["Ic"]["0,1"]["value"] == pytest.approx(IC_01, abs=1e-9)
        assert doc["chi_at"]["1"]["value"] == pytest.approx(H_34, abs=1e-9)
        assert doc["Ic"]["0,1"]["se"] == 0.0

    def test_bits_rescale(self, projective_records):
        _, grid, records = projective_records
        report = build_entropy_report(records, grid)
        nats = report_to_json_dict(report, units="nats")
        bits = report_to_json_dict(report, units="bits")
        for kind in nats:
            for key in nats[kind]:
                a = nats[kind][key]["value"]
                b = bits[kind][key]["value"]
                assert b == pytest.approx(a / math.log(2.0), rel=1e-12, abs=1e-300)

    def test_inf_serializes_as_string(self):
        grid = TimeGrid.make(1, record_times=[0, 1], reference_times=[0])
        report = EntropyReport(
            grid=grid,
            mode="enumerate",
            count=1,
            Ic={(0, 0): 0.0, (0, 1): 0.0},
            chi_bar={(0, 0): math.inf, (0, 1): 0.0},
            chi_at={0: 0.0, 1: 0.0},
            Iq={(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0},
            Iq_cond={(0, 0, 0): 0.0, (0, 0, 1): 0.0, (0, 1, 1): 0.0},
            se={("chi_bar", 0, 0): 0.0},
        )
        report.se.update({k: 0.0 for k in [("Ic", 0, 0), ("Ic", 0, 1), ("chi_bar", 0, 1)]})
        report.se.update({("chi_at", 0): 0.0, ("chi_at", 1): 0.0})
        report.se.update({k: 0.0 for k in [("Iq", 0, 0), ("Iq", 0, 1), ("Iq", 1, 1)]})
        report.se.update(
            {k: 0.0 for k in [("Iq_cond", 0, 0, 0), ("Iq_cond", 0, 0, 1), ("Iq_cond", 0, 1, 1)]}
        )
        doc = report_to_json_dict(report)
        assert doc["chi_bar"]["0,0"]["value"] == "inf"

    def test_bounds_csv(self, projective_records):
        model, grid, records = projective_records
        report = build_entropy_report(records, grid)
        bounds = check_bounds(report, pure_preserving=True)
        buf = io.StringIO()
        n = write_bounds_csv(bounds, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bound_id,times,lhs,rhs,margin,pass"
        assert n == len(lines) - 1
        assert any(line.startswith('B3,"1,2"') for line in lines)


class TestMeanAccumulator:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(500)
        acc = MeanAccumulator()
        for x in xs:
            acc.add(float(x))
        assert acc.mean == pytest.approx(float(np.mean(xs)), abs=1e-12)
        assert acc.standard_error() == pytest.approx(
            float(np.std(xs, ddof=1) / math.sqrt(len(xs))), abs=1e-12
        )

    def test_weighted_mean(self):
        acc = MeanAccumulator()
        acc.add(1.0, 0.25)
        acc.add(3.0, 0.75)
        assert acc.mean == pytest.approx(2.5)

    def test_infinite_flag(self):
        acc = MeanAccumulator()
        acc.add(1.0)
        acc.add(math.inf)
        assert math.isinf(acc.mean)
