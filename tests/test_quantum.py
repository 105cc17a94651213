import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmeas.engine import _node_states
from contmeas.errors import (
    DimensionMismatch,
    NonHermitianInput,
    NotPositiveSemidefinite,
    NumericRangeError,
)
from contmeas.quantum import (
    DensityOperator,
    Instrument,
    KrausMap,
    _clip_nonnegative,
    _relent_spectra,
    average_state,
    chi_quantity,
    hybrid_relative_entropy,
    quantum_relative_entropy,
    relative_entropies,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def binary_entropy(p):
    q = 1.0 - p
    return -(p * math.log(p) + q * math.log(q))


def entropy(matrix):
    return DensityOperator.from_matrix(matrix).entropy


def spectrum(matrix):
    """Clipped eigenvalues and eigenvectors of one state, from from_stack."""
    batch = DensityOperator.from_stack(np.asarray(matrix)[np.newaxis])
    return batch.eigenvalues[0], batch.eigenvectors[0]


def trace(matrix):
    return float(np.trace(matrix).real)


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
        assert np.allclose(spectrum(PLUS)[0], [0.0, 1.0], atol=1e-12)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator.from_matrix(2.0 * KET0)

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityOperator.from_matrix(np.diag([1.5, -0.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityOperator.from_matrix(np.diag([np.nan, 1.0]))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert entropy(KET0) == 0.0
        assert abs(entropy(PLUS)) <= 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(entropy(np.eye(2) / 2) - math.log(2.0)) <= 1e-12

    def test_half_zero_half_plus(self):
        # eigenvalues of (|0><0| + |+><+|)/2 are (1 +- 1/sqrt(2))/2
        eta = 0.5 * (KET0 + PLUS)
        expected = binary_entropy((1.0 + 2.0**-0.5) / 2.0)
        got = entropy(eta)
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.416496) <= 1e-4

    def test_range(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 5):
            for _ in range(5):
                s = random_density(rng, dim).entropy
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
            fine1 = [w * random_density(rng, 2).matrix for w in w1]
            fine2 = [w * random_density(rng, 2).matrix for w in w2]
            coarse1 = [fine1[0] + fine1[1], fine1[2] + fine1[3]]
            coarse2 = [fine2[0] + fine2[1], fine2[2] + fine2[3]]
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


def hybrid_classical(w1, w2):
    """The classical part of the hybrid relative entropy of two sides that
    share one conditional state: the Kullback-Leibler divergence of the
    weights."""
    rho = np.diag([0.25, 0.75]).astype(complex)
    return hybrid_relative_entropy([w * rho for w in w1], [w * rho for w in w2]).classical


class TestClassicalRelativeEntropy:
    def test_equal(self):
        assert hybrid_classical([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_point_vs_fair_coin(self):
        assert abs(hybrid_classical([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) <= 1e-12

    def test_two_term_evaluation(self):
        # oracle: 0.75 ln(3/2) + 0.25 ln(1/2)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        got = hybrid_classical([0.75, 0.25], [0.5, 0.5])
        assert abs(got - expected) <= 1e-12
        assert abs(got - 0.1308120) <= 1e-6

    def test_infinite(self):
        assert math.isinf(hybrid_classical([0.5, 0.5], [1.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hybrid_classical([1.0], [0.5, 0.5])


class TestHybridRelativeEntropy:
    def test_identical(self):
        side = [0.5 * KET0, 0.5 * PLUS]
        out = hybrid_relative_entropy(side, side)
        assert abs(out.direct) <= 1e-10
        assert abs(out.decomposed) <= 1e-10

    def test_equal_classical_parts(self):
        rng = np.random.default_rng(8)
        s1 = [0.5 * random_density(rng, 2).matrix for _ in range(2)]
        s2 = [0.5 * random_density(rng, 2).matrix for _ in range(2)]
        out = hybrid_relative_entropy(s1, s2)
        assert abs(out.classical) <= 1e-12
        expected = sum(
            0.5 * quantum_relative_entropy(a / trace(a), b / trace(b)) for a, b in zip(s1, s2)
        )
        assert abs(out.quantum - expected) <= 1e-9
        assert abs(out.direct - out.decomposed) <= 1e-9

    def test_identical_conditionals_reduce_to_classical(self):
        rho = random_density(np.random.default_rng(9), 2)
        s1 = [0.75 * rho.matrix, 0.25 * rho.matrix]
        s2 = [0.5 * rho.matrix, 0.5 * rho.matrix]
        out = hybrid_relative_entropy(s1, s2)
        # 0.75 ln(0.75 / 0.5) + 0.25 ln(0.25 / 0.5)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert abs(out.direct - expected) <= 1e-9
        assert abs(out.quantum) <= 1e-10

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            w1 = rng.random(3) + 0.05
            w1 /= w1.sum()
            w2 = rng.random(3) + 0.05
            w2 /= w2.sum()
            s1 = [w * random_density(rng, 2).matrix for w in w1]
            s2 = [w * random_density(rng, 2).matrix for w in w2]
            out = hybrid_relative_entropy(s1, s2)
            assert abs(out.direct - out.decomposed) <= 1e-9

    def test_null_branch_dropped(self):
        s1 = [1.0 * KET0, 0.0 * KET1]
        s2 = [0.5 * KET0, 0.5 * KET1]
        out = hybrid_relative_entropy(s1, s2)
        assert abs(out.direct - math.log(2.0)) <= 1e-10

    def test_infinite_on_unmatched_mass(self):
        s1 = [0.5 * KET0, 0.5 * KET1]
        s2 = [1.0 * KET0, 0.0 * KET1]
        out = hybrid_relative_entropy(s1, s2)
        assert math.isinf(out.direct) and math.isinf(out.decomposed)

    def test_rejects_nan_weight(self):
        # a NaN trace must not pass the weight-sum check as agreement
        s1 = [np.diag([math.nan, 0.0])]
        s2 = [np.diag([1.0, 0.0])]
        with pytest.raises(ValueError):
            hybrid_relative_entropy(s1, s2)

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_non_hermitian_member(self, side, position):
        # weights still sum to 1; the offending member is named
        sides = [[0.25 * KET0, 0.25 * PLUS, 0.5 * KET1] for _ in range(2)]
        sides[side][position] = sides[side][position] + np.array([[0.0, 0.1], [0.0, 0.0]])
        with pytest.raises(NonHermitianInput, match=f"member {position}"):
            hybrid_relative_entropy(*sides)

    def test_rejects_mixed_member_dimensions(self):
        s1 = [0.5 * KET0, 0.5 * np.eye(3) / 3]
        s2 = [0.5 * KET1, 0.5 * np.eye(3) / 3]
        with pytest.raises(DimensionMismatch):
            hybrid_relative_entropy(s1, s2)


class TestKrausAndInstruments:
    def test_identity_map(self):
        out = KrausMap((np.eye(2),)).apply(PLUS)
        assert np.allclose(out, PLUS)
        assert abs(trace(out) - 1.0) <= 1e-12

    def test_projective_born_rule(self):
        out = KrausMap((KET0,)).apply(PLUS)
        assert np.allclose(out, 0.5 * KET0)
        assert abs(trace(out) - 0.5) <= 1e-12

    def test_outcome_weights_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            inst = random_instrument(rng, dim, int(rng.integers(2, 4)), kraus_per_outcome=2)
            assert inst.completeness_residual() <= 1e-12
            rho = random_density(rng, dim)
            weights = [trace(km.apply(rho.matrix)) for km in inst.maps]
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
        assert abs(trace(inst.apply_total(rho.matrix)) - 1.0) <= 1e-10


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


def ensemble(weights):
    return list(zip(weights, (KET0, PLUS)))


class TestClassicalDistribution:
    """The ensemble weights that average_state accepts."""

    def test_valid(self):
        avg = average_state(ensemble([0.25, 0.75]))
        assert np.allclose(avg.matrix, 0.25 * KET0 + 0.75 * PLUS)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            average_state(ensemble([-0.1, 1.1]))

    def test_sum_rejected(self):
        with pytest.raises(ValueError):
            average_state(ensemble([0.6, 0.5]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            average_state(ensemble([math.nan, 1.0]))
        with pytest.raises(ValueError):
            hybrid_classical([math.nan, 1.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# The batched kernels against their one-matrix forms
# ---------------------------------------------------------------------------


def _clipped_spectrum(matrix):
    lam, vec = np.linalg.eigh(matrix)
    return _clip_nonnegative(lam), vec


@st.composite
def spectrum_stacks(draw):
    """A first spectrum and a stack of others. Ranks run from 0 (the zero
    matrix) to full; with a shared eigenbasis the supports are coordinate
    subsets of it, so disjoint and nested supports both occur."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.booleans())
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis, _ = np.linalg.qr(g)
    spectra = []
    for rank in draw(st.lists(st.integers(0, dim), min_size=2, max_size=6)):
        if shared:
            cols = basis[:, rng.permutation(dim)[:rank]]
        else:
            cols = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        m = (cols * rng.uniform(0.05, 1.0, rank)) @ cols.conj().T
        if rank:
            m /= np.trace(m).real
        spectra.append(_clipped_spectrum(m))
    (lam1, v1), rest = spectra[0], spectra[1:]
    return lam1, v1, np.array([lam for lam, _ in rest]), np.array([v for _, v in rest])


@settings(max_examples=300, deadline=None)
@given(spectrum_stacks())
def test_relative_entropies_match_scalar_kernel(stacks):
    lam1, v1, lam2, v2 = stacks
    batched = relative_entropies(lam1, v1, lam2, v2)
    for i in range(len(lam2)):
        expected = _relent_spectra(lam1, v1, lam2[i], v2[i])
        if math.isinf(expected) or math.isinf(batched[i]):
            assert batched[i] == expected
        else:
            assert abs(batched[i] - expected) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(spectrum_stacks())
def test_relative_entropies_of_a_block_match_scalar_kernel(stacks):
    # every drawn spectrum is a first argument, against all of them in a
    # per-row rotated order: zero first arguments and disjoint supports occur
    lam1, v1, lam2, v2 = stacks
    lam = np.concatenate([lam1[np.newaxis], lam2])
    vec = np.concatenate([v1[np.newaxis], v2])
    k = len(lam)
    order = (np.arange(k)[:, np.newaxis] + np.arange(k)) % k
    block = relative_entropies(lam, vec, lam[order], vec[order])
    assert block.shape == (k, k)
    for i in range(k):
        row = relative_entropies(lam[i], vec[i], lam[order[i]], vec[order[i]])
        assert np.array_equal(block[i], row)
        for j in range(k):
            expected = _relent_spectra(lam[i], vec[i], lam[order[i, j]], vec[order[i, j]])
            if math.isinf(expected) or math.isinf(block[i, j]):
                assert block[i, j] == expected
            elif lam[i][-1] <= 0.0:
                assert block[i, j] == expected == 0.0
            else:
                assert abs(block[i, j] - expected) <= 1e-12


@st.composite
def walk_blocks(draw):
    """First and second arguments at the shapes of the walk: 64 to 80
    first spectra, each against 7 others, drawn from a pool of states of
    random rank (0 to full) with a shared eigenbasis or not."""
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(64, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.booleans())
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    pool = []
    for rank in rng.integers(0, dim + 1, 24).tolist():
        if shared:
            cols = basis[:, rng.permutation(dim)[:rank]]
        else:
            cols = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        m = (cols * rng.uniform(0.05, 1.0, rank)) @ cols.conj().T
        if rank:
            m /= np.trace(m).real
        pool.append(_clipped_spectrum(m))
    lam = np.array([lam for lam, _ in pool])
    vec = np.array([v for _, v in pool])
    first, second = rng.integers(0, len(pool), n), rng.integers(0, len(pool), (n, 7))
    return lam[first], vec[first], lam[second], vec[second]


@settings(max_examples=30, deadline=None)
@given(walk_blocks())
def test_relative_entropies_at_walk_shapes(block):
    # the wide products run at block scale: each row has the bits of its
    # one-row call, and matches the scalar kernel entry by entry
    lam1, v1, lam2, v2 = block
    out = relative_entropies(lam1, v1, lam2, v2)
    assert out.shape == (len(lam1), 7)
    for i in range(len(lam1)):
        row = relative_entropies(lam1[i], v1[i], lam2[i], v2[i])
        assert out[i].tobytes() == row.tobytes()
        for j in range(7):
            expected = _relent_spectra(lam1[i], v1[i], lam2[i, j], v2[i, j])
            if math.isinf(expected) or math.isinf(out[i, j]):
                assert out[i, j] == expected
            else:
                assert abs(out[i, j] - expected) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(spectrum_stacks(), st.integers(0, 2**32 - 1))
def test_relative_entropies_ignore_eigenvector_phases(stacks, seed):
    # every quantity uses eigenvalues and |<a|b>|^2 only, so no phase
    # convention is needed: a unit phase on any eigenvector changes nothing
    lam1, v1, lam2, v2 = stacks
    rng = np.random.default_rng(seed)

    def rotated(v):
        return v * np.exp(2j * np.pi * rng.random(v.shape[:-2] + (1, v.shape[-1])))

    w1, w2 = rotated(v1), rotated(v2)
    batched = zip(relative_entropies(lam1, v1, lam2, v2), relative_entropies(lam1, w1, lam2, w2))
    scalar = (
        (_relent_spectra(lam1, v1, lam2[i], v2[i]), _relent_spectra(lam1, w1, lam2[i], w2[i]))
        for i in range(len(lam2))
    )
    for before, after in (*batched, *scalar):
        if math.isinf(before) or math.isinf(after):
            assert before == after
        else:
            assert abs(before - after) <= 1e-13


def test_relative_entropies_edge_cases():
    zero = _clipped_spectrum(np.zeros((2, 2)))
    ket0, ket1, plus = (_clipped_spectrum(m) for m in (KET0, KET1, PLUS))
    lam2 = np.array([ket0[0], ket1[0], zero[0], plus[0]])
    v2 = np.array([ket0[1], ket1[1], zero[1], plus[1]])
    # disjoint support and a zero second argument are infinite
    assert relative_entropies(*ket0, lam2, v2).tolist()[:3] == [0.0, math.inf, math.inf]
    # a zero first argument gives 0 against anything
    assert relative_entropies(*zero, lam2, v2).tolist() == [0.0] * 4
    # the same, with both first arguments in one block
    lam1, v1 = (np.array(pair) for pair in zip(ket0, zero))
    block = relative_entropies(lam1, v1, np.array([lam2, lam2]), np.array([v2, v2]))
    assert block.tolist() == [[0.0, math.inf, math.inf, block[0, 3]], [0.0] * 4]


VALID = [
    KET0,
    PLUS,
    np.diag([0.25, 0.75]).astype(complex),
]
BAD = {
    "non-hermitian": np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex),
    "negative": np.diag([-1e-3, 1.0 + 1e-3]).astype(complex),
    "trace": 2.0 * KET0,
    "nan": np.diag([math.nan, 1.0]).astype(complex),
}


def _raised(fn, arg):
    with pytest.raises(Exception) as info:
        fn(arg)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("position", [0, 1, 3])
def test_from_stack_raises_like_from_matrix(kind, position):
    stack = list(VALID)
    stack.insert(position, BAD[kind])
    assert _raised(DensityOperator.from_stack, np.array(stack)) == _raised(
        DensityOperator.from_matrix, BAD[kind]
    )


@pytest.mark.parametrize(
    "first, second",
    [("non-hermitian", "negative"), ("trace", "nan"), ("negative", "non-hermitian"), ("nan", "trace")],
)
def test_from_stack_earliest_member_wins(first, second):
    stack = np.array([KET0, BAD[first], PLUS, BAD[second]])
    assert _raised(DensityOperator.from_stack, stack) == _raised(
        DensityOperator.from_matrix, BAD[first]
    )


def test_from_stack_matches_from_matrix():
    rng = np.random.default_rng(12)
    stack = np.array([random_density(rng, 3).matrix for _ in range(4)])
    batch = DensityOperator.from_stack(stack)
    for i, op in enumerate(batch.states):
        one = DensityOperator.from_matrix(stack[i])
        assert np.array_equal(op.matrix, one.matrix) and op.matrix.base is None
        assert op.entropy == one.entropy
        lam, vec = spectrum(stack[i])
        assert np.array_equal(batch.eigenvalues[i], lam)
        assert np.array_equal(batch.eigenvectors[i], vec)


def test_from_stack_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        DensityOperator.from_stack(KET0)


@pytest.mark.parametrize(
    "masses, bad, error",
    [
        # the main state's mass is checked before anything else
        ((0.0, 1.0, 1.0), (1, "negative"), NumericRangeError),
        # a track's state failure comes before a later track's mass
        ((1.0, 1.0, 0.0), (1, "negative"), NotPositiveSemidefinite),
        # a track's mass comes before a later track's state
        ((1.0, 0.0, 1.0), (2, "non-hermitian"), NumericRangeError),
        ((1.0, 1.0, 1.0), (2, "non-hermitian"), NonHermitianInput),
    ],
)
def test_node_states_failure_order(masses, bad, error):
    live = np.array([m * PLUS for m in masses])
    position, kind = bad
    live[position] = BAD[kind] * masses[position]
    with pytest.raises(error):
        _node_states(live[np.newaxis])
