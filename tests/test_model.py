import json
import math

import numpy as np
import pytest

from contmeas.errors import InvalidParameters, ModelSyntaxError, ShapeError, UnknownScenario
from contmeas.model import (
    SCENARIO_NAMES,
    Ensemble,
    MeasurementModel,
    TimeGrid,
    builtin_scenario,
    is_pure_preserving,
    parse_model,
    random_model,
    serialize_model,
    validate_model,
)
from contmeas.quantum import Instrument, KrausMap


def models_close(a, b, tol=1e-12):
    if (a.dim, a.horizon, a.homogeneous) != (b.dim, b.horizon, b.homogeneous):
        return False
    if not np.allclose(a.ensemble.prior, b.ensemble.prior, atol=tol):
        return False
    for sa, sb in zip(a.ensemble.states, b.ensemble.states):
        if not np.allclose(sa, sb, atol=tol):
            return False
    for ia, ib in zip(a.steps, b.steps):
        if ia.outcomes != ib.outcomes:
            return False
        for ka, kb in zip(ia.maps, ib.maps):
            if len(ka.operators) != len(kb.operators):
                return False
            for ma, mb in zip(ka.operators, kb.operators):
                if not np.allclose(ma, mb, atol=tol):
                    return False
    return True


class TestParse:
    def test_identity_scenario_roundtrip(self):
        model = builtin_scenario("identity")
        parsed = parse_model(serialize_model(model))
        assert parsed.steps[0].n_outcomes == 1
        assert np.allclose(parsed.steps[0].maps[0].operators[0], np.eye(2))
        assert models_close(model, parsed)

    def test_wrong_kraus_shape(self):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["instruments"]["0"][0] = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 2
        with pytest.raises(ShapeError):
            parse_model(json.dumps(doc))

    def test_complex_entries(self):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["ensemble"][1]["state"] = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        parsed = parse_model(json.dumps(doc))
        assert np.allclose(parsed.ensemble.states[1], np.full((2, 2), 0.5))

    def test_malformed_json_carries_position(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model('{"dim": 2,,}')
        assert err.value.line == 1

    def test_unknown_field_rejected(self):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["extra"] = 1
        with pytest.raises(ShapeError):
            parse_model(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        del doc["horizon"]
        with pytest.raises(ShapeError):
            parse_model(json.dumps(doc))

    def test_bare_number_entry_rejected(self):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["ensemble"][0]["state"] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ShapeError):
            parse_model(json.dumps(doc))

    def test_per_step_schedule(self):
        base = json.loads(serialize_model(builtin_scenario("qubit-projective", horizon=2)))
        inst = base["instruments"]
        base["instruments"] = [inst, inst]
        parsed = parse_model(json.dumps(base))
        assert not parsed.homogeneous
        assert len(parsed.steps) == 2

    def test_per_step_length_mismatch(self):
        base = json.loads(serialize_model(builtin_scenario("qubit-projective", horizon=3)))
        base["instruments"] = [base["instruments"]]
        with pytest.raises(ShapeError):
            parse_model(json.dumps(base))


class TestSerialize:
    def test_roundtrip_all_scenarios(self):
        for name in SCENARIO_NAMES:
            model = builtin_scenario(name, horizon=2)
            assert models_close(model, parse_model(serialize_model(model)))

    def test_roundtrip_random(self):
        model = random_model(5, dim=3, n_outcomes=2, kraus_per_outcome=2, n_letters=3, horizon=2)
        text = serialize_model(model)
        parsed = parse_model(text)
        assert models_close(model, parsed)
        assert serialize_model(parsed) == text


class TestValidate:
    def test_builtin_scenarios_pass(self):
        for name in SCENARIO_NAMES:
            report = validate_model(builtin_scenario(name))
            assert report.passed, f"{name}: {report}"

    def test_projective_residual_tiny(self):
        report = validate_model(builtin_scenario("qubit-projective"))
        completeness = [c for c in report.checks if "completeness" in c.name]
        assert completeness and all(-c.margin <= 1e-15 for c in completeness)

    def test_double_counted_identity_fails(self):
        inst = Instrument(
            outcomes=("0", "1"),
            maps=(KrausMap((np.eye(2, dtype=complex),)), KrausMap((np.eye(2, dtype=complex),))),
        )
        ensemble = builtin_scenario("identity").ensemble
        model = MeasurementModel(dim=2, horizon=1, ensemble=ensemble, steps=(inst,), homogeneous=True)
        report = validate_model(model)
        assert not report.passed
        bad = [c for c in report.failures() if "completeness" in c.name]
        assert bad and abs(-bad[0].margin - math.sqrt(2.0)) <= 1e-12

    def test_bad_prior_reported(self):
        base = builtin_scenario("identity")
        ensemble = Ensemble(prior=np.array([0.6, 0.5]), states=base.ensemble.states)
        model = MeasurementModel(
            dim=2, horizon=1, ensemble=ensemble, steps=base.steps[:1], homogeneous=True
        )
        report = validate_model(model)
        bad = [c for c in report.failures() if c.name == "prior:sum"]
        assert bad and abs(-bad[0].margin - 0.1) <= 1e-12


class TestScenarios:
    def test_unknown_name(self):
        with pytest.raises(UnknownScenario):
            builtin_scenario("nope")

    def test_identity_fixes_states(self):
        model = builtin_scenario("identity")
        for state in model.ensemble.states:
            assert np.allclose(model.steps[0].apply_total(state), state)

    def test_projective_rank_one_kraus(self):
        model = builtin_scenario("qubit-projective")
        assert model.steps[0].n_outcomes == 2
        for km in model.steps[0].maps:
            assert len(km.operators) == 1
            assert np.linalg.matrix_rank(km.operators[0]) == 1

    def test_pure_preserving_random_deterministic(self):
        a = builtin_scenario("pure-preserving-random", seed=7)
        b = builtin_scenario("pure-preserving-random", seed=7)
        assert serialize_model(a) == serialize_model(b)
        for km in a.steps[0].maps:
            assert len(km.operators) == 1
        assert is_pure_preserving(a)

    def test_pure_preserving_flag(self):
        assert is_pure_preserving(builtin_scenario("qubit-projective"))
        assert not is_pure_preserving(builtin_scenario("damped-qubit"))  # mixed ensemble

    def test_flag_false_for_multi_kraus(self):
        model = random_model(1, kraus_per_outcome=2)
        assert not is_pure_preserving(model)


class TestRandomModel:
    def test_validates_by_construction(self):
        report = validate_model(random_model(1, dim=2, n_outcomes=2))
        assert report.passed

    def test_deterministic(self):
        a = random_model(3, dim=3, n_outcomes=3, kraus_per_outcome=2, n_letters=2, horizon=2)
        b = random_model(3, dim=3, n_outcomes=3, kraus_per_outcome=2, n_letters=2, horizon=2)
        assert serialize_model(a) == serialize_model(b)

    def test_seeds_differ(self):
        a = random_model(1)
        b = random_model(2)
        dist = sum(
            np.linalg.norm(ka.operators[0] - kb.operators[0])
            for ka, kb in zip(a.steps[0].maps, b.steps[0].maps)
        )
        assert dist > 1e-3

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            random_model(1, dim=1)
        with pytest.raises(InvalidParameters):
            random_model(1, n_letters=0)

    def test_many_seeds_validate(self):
        for seed in range(10):
            assert validate_model(random_model(seed, dim=3, n_outcomes=2, kraus_per_outcome=2)).passed


class TestTimeGrid:
    def test_default_full(self):
        grid = TimeGrid.make(3)
        assert grid.record_times == (0, 1, 2, 3)
        assert grid.reference_times == (0, 1, 2, 3)

    def test_subset_refs(self):
        grid = TimeGrid.make(4, record_times=[0, 2, 4], reference_times=[0, 2])
        assert grid.pairs() == [(0, 0), (0, 2), (0, 4), (2, 2), (2, 4)]

    def test_requires_endpoints(self):
        with pytest.raises(ValueError):
            TimeGrid.make(3, record_times=[1, 2, 3])

    def test_refs_subset_of_records(self):
        with pytest.raises(ValueError):
            TimeGrid.make(3, record_times=[0, 3], reference_times=[1])

    def test_bounds(self):
        with pytest.raises(ValueError):
            TimeGrid.make(3, record_times=[0, 3, 4])

    def test_leaf_count(self):
        assert builtin_scenario("qubit-projective", horizon=3).leaf_count() == 2 * 8
