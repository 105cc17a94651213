import json
import math

import pytest

from contmeas.cli import main
from contmeas.model import builtin_scenario, random_model, serialize_model


def run_cli(args):
    return main([str(a) for a in args])


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestScenarioList:
    def test_lists_names(self, capsys):
        assert run_cli(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("identity", "qubit-projective", "damped-qubit"):
            assert name in out


class TestValidate:
    def test_good_scenario(self):
        assert run_cli(["validate", "--scenario", "qubit-projective"]) == 0

    def test_incomplete_instrument_names_culprit(self, tmp_path, capsys):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["instruments"] = {"0": doc["instruments"]["0"], "1": doc["instruments"]["0"]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", "--model", bad]) == 1
        err = capsys.readouterr().err
        assert "completeness" in err
        assert "1.414" in err  # the sqrt(2) residual is reported numerically

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["validate", "--model", bad]) == 1

    def test_missing_file(self, tmp_path):
        assert run_cli(["validate", "--model", tmp_path / "absent.json"]) == 3

    def test_model_and_scenario_exclusive(self, tmp_path):
        assert run_cli(["validate", "--scenario", "identity", "--model", "x"]) == 3


class TestCheck:
    def test_identity_all_zero(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            ["check", "--scenario", "identity", "--horizon", "3", "--out", out]
        )
        assert code == 0
        report = read_report(out)
        for entry in report["Ic"].values():
            assert abs(entry["value"]) <= 1e-9
        assert (out / "bounds.csv").exists()

    def test_projective_saturation_row(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            [
                "check",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "2",
                "--grid",
                "0,1,2",
                "--out",
                out,
            ]
        )
        assert code == 0
        rows = (out / "bounds.csv").read_text().strip().splitlines()
        b3 = [r for r in rows if r.startswith('B3,"1,2"')]
        assert len(b3) == 1
        margin = float(b3[0].rsplit(",", 2)[1])
        assert abs(margin) <= 1e-9

    def test_incomplete_instrument_exit_1(self, tmp_path, capsys):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["instruments"] = {"0": doc["instruments"]["0"], "1": doc["instruments"]["0"]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["check", "--model", bad, "--out", tmp_path / "o"]) == 1
        assert "completeness" in capsys.readouterr().err

    def test_budget_exceeded_exit_3(self, tmp_path):
        code = run_cli(
            [
                "check",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "25",
                "--grid",
                "0,25",
                "--out",
                tmp_path / "o",
            ]
        )
        assert code == 3

    def test_negative_tolerance_forces_exit_2(self, tmp_path):
        # saturated margins sit at 0; demanding margin >= 1e-3 must fail
        code = run_cli(
            [
                "check",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "2",
                "--tol=-1e-3",
                "--out",
                tmp_path / "o",
            ]
        )
        assert code == 2

    def test_horizon_override_rejected_for_per_step_models(self, tmp_path):
        doc = json.loads(serialize_model(builtin_scenario("qubit-projective", horizon=2)))
        doc["instruments"] = [doc["instruments"], doc["instruments"]]
        path = tmp_path / "scheduled.json"
        path.write_text(json.dumps(doc))
        code = run_cli(
            ["check", "--model", path, "--horizon", "4", "--out", tmp_path / "o"]
        )
        assert code == 3

    def test_bad_grid_exit_3(self, tmp_path):
        code = run_cli(
            [
                "check",
                "--scenario",
                "identity",
                "--horizon",
                "2",
                "--grid",
                "1,2",
                "--out",
                tmp_path / "o",
            ]
        )
        assert code == 3


class TestRun:
    def test_writes_report_without_bounds(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--scenario", "qubit-weak", "--horizon", "2", "--out", out]) == 0
        assert (out / "report.json").exists()
        assert not (out / "bounds.csv").exists()

    def test_dump_trajectories(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            [
                "run",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "2",
                "--dump-trajectories",
                "--out",
                out,
            ]
        )
        assert code == 0
        lines = (out / "trajectories.csv").read_text().strip().splitlines()
        assert lines[0] == "letter,outcomes,prob,S_0,S_1,S_2"
        assert len(lines) == 4

    def test_long_horizon_underflow_exit_3(self, tmp_path, capsys):
        # a sampled path loses about a factor 4 of mass per step, so its mass
        # falls below the smallest normal float long before step 600
        path = tmp_path / "model.json"
        path.write_text(serialize_model(random_model(3, dim=2, n_outcomes=4)))
        code = run_cli(
            ["run", "--model", path, "--horizon", "600", "--grid", "0,600", "--mode", "sample",
             "--samples", "3", "--seed", "1", "--out", tmp_path / "o"]
        )
        assert code == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("error: trajectory (letter ")
        assert "outcomes" in errors[0] and "time" in errors[0]


class TestDeterminism:
    def test_enumerate_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli(["check", "--scenario", "damped-qubit", "--out", out]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_sample_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run_cli(
                [
                    "run",
                    "--scenario",
                    "damped-qubit",
                    "--horizon",
                    "2",
                    "--mode",
                    "sample",
                    "--samples",
                    "500",
                    "--seed",
                    "42",
                    "--out",
                    out,
                ]
            )
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_bits_rescales_everything(self, tmp_path):
        args = ["run", "--scenario", "qubit-projective", "--horizon", "2"]
        out_nats = tmp_path / "nats"
        out_bits = tmp_path / "bits"
        assert run_cli(args + ["--units", "nats", "--out", out_nats]) == 0
        assert run_cli(args + ["--units", "bits", "--out", out_bits]) == 0
        nats = read_report(out_nats)
        bits = read_report(out_bits)
        for kind in ("Ic", "chi_bar", "chi_at", "Iq", "Iq_cond"):
            for key, entry in nats[kind].items():
                expected = entry["value"] / math.log(2.0)
                got = bits[kind][key]["value"]
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)
