"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from contmeas.cli import main as cli_main
from contmeas.engine import (
    compute_a_priori,
    consistency_checks,
    enumerate_trajectories,
    sample_trajectories,
)
from contmeas.entropics import build_entropy_report, check_bounds, mutual_entropy_hybrid
from contmeas.model import TimeGrid, builtin_scenario, is_pure_preserving, random_model
from contmeas.quantum import DensityOperator, KrausMap, Instrument, quantum_relative_entropy

IC_01 = 0.2157615  # mutual information, letter vs first outcome
H_34 = 0.5623351  # binary entropy of (3/4, 1/4)
CHI_0 = 0.416496  # binary entropy of ((1 +- 1/sqrt 2)/2)


def announce(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")


@pytest.fixture(scope="module")
def projective():
    model = builtin_scenario("qubit-projective", horizon=2)
    grid = TimeGrid.make(2)
    apriori = compute_a_priori(model, grid)
    records = list(enumerate_trajectories(model, grid))
    report = build_entropy_report(records, grid)
    return model, grid, apriori, records, report


@pytest.fixture(scope="module")
def model_sweep():
    """Shared sweep for the theorem suite and the hybrid cross-check:
    144 seeded models covering d, outcome count, Kraus multiplicity,
    letter count and horizon."""
    combos = list(
        itertools.product((2, 3), (2, 3), (1, 2), (2, 3), (2, 3, 4))
    )  # (dim, outcomes, kraus, letters, horizon)
    results = []
    theorem_elapsed = 0.0
    hybrid_elapsed = 0.0
    for seed_round in range(3):
        for index, (d, m, k, n, horizon) in enumerate(combos):
            seed = 1000 * seed_round + index
            model = random_model(
                seed, dim=d, n_outcomes=m, kraus_per_outcome=k, n_letters=n, horizon=horizon
            )
            grid = TimeGrid.make(horizon)

            start = time.perf_counter()
            records = list(enumerate_trajectories(model, grid))
            report = build_entropy_report(records, grid)
            bounds = check_bounds(report)
            consistency = consistency_checks(model, grid, records=records)
            theorem_elapsed += time.perf_counter() - start

            start = time.perf_counter()
            hybrid_dev = 0.0
            for (r, s) in grid.pairs():
                hybrid = mutual_entropy_hybrid(records, r, s)
                expected = report.Ic[(r, s)] + report.chi_bar[(r, s)]
                hybrid_dev = max(hybrid_dev, abs(hybrid.direct - expected))
            hybrid_elapsed += time.perf_counter() - start

            results.append(
                {
                    "seed": seed,
                    "min_margins": {
                        bid: bounds.min_margin(bid) for bid in ("B1", "B2", "B3", "B4", "B5")
                    },
                    "consistency_max": consistency.max_residual(),
                    "consistency_pass": consistency.passed,
                    "hybrid_dev": hybrid_dev,
                }
            )
    return {
        "results": results,
        "theorem_elapsed": theorem_elapsed,
        "hybrid_elapsed": hybrid_elapsed,
    }


def test_criterion_1_hand_oracle_values(projective):
    _, _, apriori, records, report = projective
    checks = [
        abs(report.Ic[(0, 1)] - IC_01) <= 1e-6,
        abs(report.Ic[(0, 2)] - IC_01) <= 1e-6,
        abs(report.Ic[(1, 2)] - H_34) <= 1e-6,
        abs(report.chi_at[0] - CHI_0) <= 1e-4,
        abs(report.chi_bar[(0, 1)]) <= 1e-6,
        abs(report.chi_bar[(0, 2)]) <= 1e-6,
        abs(report.chi_at[1] - H_34) <= 1e-6,
        bool(
            np.allclose(apriori[1].matrix, np.diag([0.75, 0.25]), atol=1e-6)
        ),
    ]
    ok = all(checks)
    announce(1, ok, "hand-derived values of the projective-readout scenario")
    assert ok, checks


def test_criterion_2_bound_saturation(projective):
    model, _, _, _, report = projective
    bounds = check_bounds(report, pure_preserving=is_pure_preserving(model))
    entry = bounds.find("B3", (1, 2))
    ok = entry is not None and abs(entry.margin) <= 1e-9
    announce(2, ok, "B3 attained with zero margin at (s,t) = (1,2)")
    assert ok, entry


def test_criterion_3_theorem_suite(model_sweep):
    results = model_sweep["results"]
    elapsed = model_sweep["theorem_elapsed"]
    n_models = len(results)
    worst_margin = min(min(r["min_margins"].values()) for r in results)
    worst_residual = max(r["consistency_max"] for r in results)
    ok = (
        n_models >= 100
        and worst_margin >= -1e-9
        and worst_residual <= 1e-9
        and all(r["consistency_pass"] for r in results)
        and elapsed < 60.0
    )
    announce(
        3,
        ok,
        f"{n_models} random models: min margin {worst_margin:.3e}, "
        f"max consistency residual {worst_residual:.3e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_identity_scenario(tmp_path):
    out = tmp_path / "identity"
    code = cli_main(
        ["check", "--scenario", "identity", "--horizon", "3", "--out", str(out)]
    )
    doc = json.loads((out / "report.json").read_text())
    ic_zero = all(abs(e["value"]) <= 1e-9 for e in doc["Ic"].values())
    iq_zero = all(abs(e["value"]) <= 1e-9 for e in doc["Iq"].values())
    chi_constant = all(
        abs(e["value"] - CHI_0) <= 1e-4 for e in doc["chi_bar"].values()
    )
    ok = code == 0 and ic_zero and iq_zero and chi_constant
    announce(4, ok, "identity scenario: no information flow, exit code 0")
    assert ok, (code, ic_zero, iq_zero, chi_constant)


def test_criterion_5_pure_preserving_suite():
    ok = True
    detail = []
    for seed in range(5):
        model = builtin_scenario("pure-preserving-random", horizon=5, seed=seed)
        grid = TimeGrid.make(5)
        assert is_pure_preserving(model)
        records = list(enumerate_trajectories(model, grid))
        max_entropy = max(
            rec.entropy[t] for rec in records for t in grid.record_times
        )
        report = build_entropy_report(records, grid)
        max_iq = max(abs(v) for v in report.Iq.values())
        gain_path = [report.Iq_cond[(0, 0, t)] for t in grid.record_times]
        monotone = all(b - a >= -1e-9 for a, b in zip(gain_path, gain_path[1:]))
        zero_start = abs(gain_path[0]) <= 1e-12
        seed_ok = max_entropy <= 1e-9 and max_iq <= 1e-9 and monotone and zero_start
        ok = ok and seed_ok
        detail.append((seed, max_entropy, max_iq, monotone, zero_start))
    announce(5, ok, "pure-preserving models: zero branch entropy, monotone gain")
    assert ok, detail


def test_criterion_6_hybrid_identity(model_sweep):
    worst = max(r["hybrid_dev"] for r in model_sweep["results"])
    ok = worst <= 1e-8
    announce(
        6,
        ok,
        f"hybrid vs log-density route agree: max deviation {worst:.3e} "
        f"({model_sweep['hybrid_elapsed']:.1f}s)",
    )
    assert ok


def test_criterion_7_monte_carlo(projective, tmp_path):
    model, grid, _, _, exact = projective
    sampled = build_entropy_report(
        sample_trajectories(model, grid, 100_000, seed=42),
        grid,
        mode="sample",
    )
    deviations = []
    for kind in ("Ic", "chi_bar", "chi_at", "Iq", "Iq_cond"):
        exact_table = getattr(exact, kind)
        sampled_table = getattr(sampled, kind)
        for key, value in exact_table.items():
            se_key = (kind, key) if kind == "chi_at" else (kind,) + key
            se = sampled.se[se_key]
            within = abs(sampled_table[key] - value) <= 3.0 * se + 1e-12
            deviations.append((kind, key, within))
    entries_ok = all(w for _, _, w in deviations)

    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(
            [
                "run",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "2",
                "--mode",
                "sample",
                "--samples",
                "100000",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payloads.append((out / "report.json").read_bytes())
    bytes_ok = payloads[0] == payloads[1]

    ok = entries_ok and bytes_ok
    announce(7, ok, "Monte-Carlo agrees within 3 SE; same-seed runs byte-identical")
    assert ok, [d for d in deviations if not d[2]]


def test_criterion_8_uhlmann_monotonicity():
    def random_density(rng, dim):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        return DensityOperator.from_matrix(m / np.trace(m).real)

    def random_instrument(rng, dim, n_outcomes, kraus_per_outcome):
        rows = dim * n_outcomes * kraus_per_outcome
        g = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
        q, _ = np.linalg.qr(g)
        blocks = [q[i * dim : (i + 1) * dim, :] for i in range(n_outcomes * kraus_per_outcome)]
        maps = tuple(
            KrausMap(tuple(blocks[v * kraus_per_outcome + j] for j in range(kraus_per_outcome)))
            for v in range(n_outcomes)
        )
        return Instrument(outcomes=tuple(str(v) for v in range(n_outcomes)), maps=maps)

    rng = np.random.default_rng(2024)
    worst = -math.inf
    for i in range(200):
        dim = 2 + (i % 2)
        rho = random_density(rng, dim)
        tau = random_density(rng, dim)
        inst = random_instrument(rng, dim, 1 + (i % 3), 1 + (i % 2))
        phi_rho = DensityOperator.from_matrix(inst.apply_total(rho.matrix))
        phi_tau = DensityOperator.from_matrix(inst.apply_total(tau.matrix))
        decrease = quantum_relative_entropy(rho, tau) - quantum_relative_entropy(
            phi_rho, phi_tau
        )
        worst = max(worst, -decrease)
    ok = worst <= 1e-9
    announce(8, ok, f"200 channel applications never increase relative entropy "
                    f"(worst violation {worst:.3e})")
    assert ok
