import math

import numpy as np
import pytest

from contmeas.errors import DimensionMismatch, NotPositiveSemidefinite
from contmeas.quantum import (
    ClassicalDistribution,
    DensityOperator,
    Instrument,
    KrausMap,
    UnnormalizedState,
    average_state,
    chi_quantity,
    classical_relative_entropy,
    hybrid_relative_entropy,
    quantum_relative_entropy,
    von_neumann_entropy,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def binary_entropy(p):
    q = 1.0 - p
    return -(p * math.log(p) + q * math.log(q))


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator.from_matrix(m / np.trace(m).real)


def random_instrument(rng, dim, n_outcomes, kraus_per_outcome=1):
    rows = dim * n_outcomes * kraus_per_outcome
    g = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    q, _ = np.linalg.qr(g)
    blocks = [q[i * dim : (i + 1) * dim, :] for i in range(n_outcomes * kraus_per_outcome)]
    maps = tuple(
        KrausMap(tuple(blocks[v * kraus_per_outcome + j] for j in range(kraus_per_outcome)))
        for v in range(n_outcomes)
    )
    return Instrument(outcomes=tuple(str(v) for v in range(n_outcomes)), maps=maps)


class TestDensityOperator:
    def test_valid(self):
        rho = DensityOperator.from_matrix(PLUS)
        assert rho.dim == 2
        assert np.allclose(rho.eigenvalues, [0.0, 1.0], atol=1e-12)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator.from_matrix(2.0 * KET0)

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityOperator.from_matrix(np.diag([1.5, -0.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityOperator.from_matrix(np.diag([np.nan, 1.0]))

    def test_rank(self):
        assert DensityOperator.from_matrix(KET0).rank() == 1
        assert DensityOperator.from_matrix(np.eye(2) / 2).rank() == 2


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(KET0) == 0.0
        assert abs(von_neumann_entropy(PLUS)) <= 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - math.log(2.0)) <= 1e-12

    def test_half_zero_half_plus(self):
        # eigenvalues of (|0><0| + |+><+|)/2 are (1 +- 1/sqrt(2))/2
        eta = 0.5 * (KET0 + PLUS)
        expected = binary_entropy((1.0 + 2.0**-0.5) / 2.0)
        got = von_neumann_entropy(eta)
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.416496) <= 1e-4

    def test_range(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            for _ in range(5):
                s = von_neumann_entropy(random_density(rng, dim))
                assert 0.0 <= s <= math.log(dim) + 1e-9


class TestQuantumRelativeEntropy:
    def test_identical_states(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_density(rng, 3)
            assert abs(quantum_relative_entropy(rho, rho)) <= 1e-10

    def test_orthogonal_supports(self):
        assert math.isinf(quantum_relative_entropy(KET0, KET1))

    def test_pure_vs_mixed(self):
        got = quantum_relative_entropy(KET0, np.eye(2) / 2)
        assert abs(got - math.log(2.0)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quantum_relative_entropy(KET0, np.eye(3) / 3)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_density(rng, 3), random_density(rng, 3)
            assert quantum_relative_entropy(a, b) >= -1e-10

    def test_uhlmann_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            dim = int(rng.integers(2, 4))
            rho, tau = random_density(rng, dim), random_density(rng, dim)
            inst = random_instrument(rng, dim, int(rng.integers(1, 4)))
            phi_rho = DensityOperator.from_matrix(inst.apply_total(rho.matrix))
            phi_tau = DensityOperator.from_matrix(inst.apply_total(tau.matrix))
            before = quantum_relative_entropy(rho, tau)
            after = quantum_relative_entropy(phi_rho, phi_tau)
            assert after <= before + 1e-9

    def test_uhlmann_under_outcome_coarse_graining(self):
        # merging outcome atoms is a channel, so it cannot raise the
        # relative entropy of two hybrid states
        rng = np.random.default_rng(21)
        for _ in range(10):
            w1 = rng.random(4) + 0.05
            w1 /= w1.sum()
            w2 = rng.random(4) + 0.05
            w2 /= w2.sum()
            fine1 = [UnnormalizedState(w * random_density(rng, 2).matrix) for w in w1]
            fine2 = [UnnormalizedState(w * random_density(rng, 2).matrix) for w in w2]
            coarse1 = [
                UnnormalizedState(fine1[0].matrix + fine1[1].matrix),
                UnnormalizedState(fine1[2].matrix + fine1[3].matrix),
            ]
            coarse2 = [
                UnnormalizedState(fine2[0].matrix + fine2[1].matrix),
                UnnormalizedState(fine2[2].matrix + fine2[3].matrix),
            ]
            before = hybrid_relative_entropy(fine1, fine2).direct
            after = hybrid_relative_entropy(coarse1, coarse2).direct
            assert after <= before + 1e-9

    def test_joint_convexity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r1, r2 = random_density(rng, 3), random_density(rng, 3)
            t1, t2 = random_density(rng, 3), random_density(rng, 3)
            mix_r = DensityOperator.from_matrix(0.5 * r1.matrix + 0.5 * r2.matrix)
            mix_t = DensityOperator.from_matrix(0.5 * t1.matrix + 0.5 * t2.matrix)
            lhs = quantum_relative_entropy(mix_r, mix_t)
            rhs = 0.5 * quantum_relative_entropy(r1, t1) + 0.5 * quantum_relative_entropy(r2, t2)
            assert lhs <= rhs + 1e-9


class TestClassicalRelativeEntropy:
    def test_equal(self):
        assert classical_relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_vs_fair_coin(self):
        assert abs(classical_relative_entropy([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) <= 1e-12

    def test_two_term_evaluation(self):
        # oracle: 0.75 ln(3/2) + 0.25 ln(1/2)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        got = classical_relative_entropy([0.75, 0.25], [0.5, 0.5])
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.1308120) <= 1e-6

    def test_infinite(self):
        assert math.isinf(classical_relative_entropy([0.5, 0.5], [1.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            classical_relative_entropy([1.0], [0.5, 0.5])


class TestHybridRelativeEntropy:
    def test_identical(self):
        side = [UnnormalizedState(0.5 * KET0), UnnormalizedState(0.5 * PLUS)]
        out = hybrid_relative_entropy(side, side)
        assert abs(out.direct) <= 1e-10
        assert abs(out.decomposed) <= 1e-10

    def test_equal_classical_parts(self):
        rng = np.random.default_rng(8)
        s1 = [UnnormalizedState(0.5 * random_density(rng, 2).matrix) for _ in range(2)]
        s2 = [UnnormalizedState(0.5 * random_density(rng, 2).matrix) for _ in range(2)]
        out = hybrid_relative_entropy(s1, s2)
        assert abs(out.classical) <= 1e-12
        expected = sum(
            0.5 * quantum_relative_entropy(a.normalized(), b.normalized())
            for a, b in zip(s1, s2)
        )
        assert abs(out.quantum - expected) <= 1e-9
        assert abs(out.direct - out.decomposed) <= 1e-9

    def test_identical_conditionals_reduce_to_classical(self):
        rho = random_density(np.random.default_rng(9), 2)
        s1 = [UnnormalizedState(0.75 * rho.matrix), UnnormalizedState(0.25 * rho.matrix)]
        s2 = [UnnormalizedState(0.5 * rho.matrix), UnnormalizedState(0.5 * rho.matrix)]
        out = hybrid_relative_entropy(s1, s2)
        expected = classical_relative_entropy([0.75, 0.25], [0.5, 0.5])
        assert abs(out.direct - expected) <= 1e-9
        assert abs(out.quantum) <= 1e-10

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            w1 = rng.random(3) + 0.05
            w1 /= w1.sum()
            w2 = rng.random(3) + 0.05
            w2 /= w2.sum()
            s1 = [UnnormalizedState(w * random_density(rng, 2).matrix) for w in w1]
            s2 = [UnnormalizedState(w * random_density(rng, 2).matrix) for w in w2]
            out = hybrid_relative_entropy(s1, s2)
            assert abs(out.direct - out.decomposed) <= 1e-9

    def test_null_branch_dropped(self):
        s1 = [UnnormalizedState(1.0 * KET0), UnnormalizedState(0.0 * KET1)]
        s2 = [UnnormalizedState(0.5 * KET0), UnnormalizedState(0.5 * KET1)]
        out = hybrid_relative_entropy(s1, s2)
        assert abs(out.direct - math.log(2.0)) <= 1e-10

    def test_infinite_on_unmatched_mass(self):
        s1 = [UnnormalizedState(0.5 * KET0), UnnormalizedState(0.5 * KET1)]
        s2 = [UnnormalizedState(1.0 * KET0), UnnormalizedState(0.0 * KET1)]
        out = hybrid_relative_entropy(s1, s2)
        assert math.isinf(out.direct) and math.isinf(out.decomposed)


class TestKrausAndInstruments:
    def test_identity_map(self):
        out = UnnormalizedState(KrausMap((np.eye(2),)).apply(PLUS))
        assert np.allclose(out.matrix, PLUS)
        assert abs(out.weight - 1.0) <= 1e-12

    def test_projective_born_rule(self):
        out = UnnormalizedState(KrausMap((KET0,)).apply(PLUS))
        assert np.allclose(out.matrix, 0.5 * KET0)
        assert abs(out.weight - 0.5) <= 1e-12

    def test_outcome_weights_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            inst = random_instrument(rng, dim, int(rng.integers(2, 4)), kraus_per_outcome=2)
            assert inst.completeness_residual() <= 1e-12
            rho = random_density(rng, dim)
            weights = [UnnormalizedState(km.apply(rho.matrix)).weight for km in inst.maps]
            assert abs(sum(weights) - 1.0) <= 1e-10

    def test_a_priori_identity_instrument(self):
        inst = Instrument(outcomes=("0",), maps=(KrausMap((np.eye(2),)),))
        assert np.allclose(inst.apply_total(PLUS), PLUS)

    def test_a_priori_dephasing(self):
        inst = Instrument(outcomes=("0", "1"), maps=(KrausMap((KET0,)), KrausMap((KET1,))))
        assert np.allclose(inst.apply_total(PLUS), np.eye(2) / 2)

    def test_a_priori_trace_preserved(self):
        rng = np.random.default_rng(13)
        inst = random_instrument(rng, 3, 3, kraus_per_outcome=2)
        rho = random_density(rng, 3)
        out = UnnormalizedState(inst.apply_total(rho.matrix))
        assert abs(out.weight - 1.0) <= 1e-10


class TestChiQuantity:
    def test_singleton(self):
        assert chi_quantity([(1.0, DensityOperator.from_matrix(KET0))]) == 0.0

    def test_orthogonal_pure_pair(self):
        members = [(0.5, DensityOperator.from_matrix(KET0)), (0.5, DensityOperator.from_matrix(KET1))]
        assert abs(chi_quantity(members) - math.log(2.0)) <= 1e-10

    def test_zero_plus_ensemble(self):
        members = [(0.5, DensityOperator.from_matrix(KET0)), (0.5, DensityOperator.from_matrix(PLUS))]
        expected = binary_entropy((1.0 + 2.0**-0.5) / 2.0)
        assert abs(chi_quantity(members) - expected) <= 1e-9
        assert abs(chi_quantity(members) - 0.416496) <= 1e-4

    def test_entropy_difference_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            probs = rng.random(n) + 0.05
            probs /= probs.sum()
            members = [(float(p), random_density(rng, 3)) for p in probs]
            chi = chi_quantity(members)
            avg = average_state(members)
            alt = avg.entropy - sum(p * s.entropy for p, s in members)
            assert abs(chi - alt) <= 1e-9
            assert -1e-12 <= chi <= math.log(3.0) + 1e-9


class TestClassicalDistribution:
    def test_valid(self):
        d = ClassicalDistribution.from_weights([0.25, 0.75])
        assert len(d) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ClassicalDistribution.from_weights([-0.1, 1.1])

    def test_sum_rejected(self):
        with pytest.raises(ValueError):
            ClassicalDistribution.from_weights([0.6, 0.5])
