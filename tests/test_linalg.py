"""The linear algebra beneath every state: the eigendecomposition that
``DensityOperator.from_stack`` takes of a stack, the one route by which a
state is validated and decomposed."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmeas.errors import DimensionMismatch, NonHermitianInput, NotPositiveSemidefinite
from contmeas.quantum import DensityOperator


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def decompose(*matrices):
    """Clipped eigenvalues and eigenvectors of a stack of states."""
    batch = DensityOperator.from_stack(np.array(matrices))
    return batch.eigenvalues, batch.eigenvectors


def spectral_apply(m, f):
    """V diag(f(lambda)) V* from the decomposition of one state: the spectral
    calculus that the entropies rely on, written out against it."""
    (lam,), (v,) = decompose(m)
    return (v * np.array([f(float(x)) for x in lam])) @ v.conj().T


def test_identity_eigenvalues():
    (lam,), _ = decompose(np.eye(2) / 2)
    assert np.allclose(lam, [0.5, 0.5])


def test_diagonal_already_sorted_ascending():
    (lam,), _ = decompose(np.diag([0.75, 0.25]))
    assert np.allclose(lam, [0.25, 0.75])


def test_random_2x2_matches_characteristic_polynomial():
    # oracle: roots of t^2 - tr t + det via the quadratic formula
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_density(rng, 2)
        tr = float(np.trace(m).real)
        det = float(np.linalg.det(m).real)
        disc = math.sqrt(tr * tr - 4.0 * det)
        roots = sorted([(tr - disc) / 2.0, (tr + disc) / 2.0])
        (lam,), _ = decompose(m)
        assert np.allclose(lam, roots, atol=1e-10)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianInput):
        DensityOperator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        DensityOperator.from_matrix(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_spectrum_invariants(dim):
    rng = np.random.default_rng(100 + dim)
    stack = [random_density(rng, dim) for _ in range(10)]
    for m, lam, v in zip(stack, *decompose(*stack)):
        assert np.linalg.norm((v * lam) @ v.conj().T - m) <= 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(lam) >= -1e-14)
        # trace and Frobenius norm match the spectrum
        assert abs(np.sum(lam) - 1.0) <= 1e-10
        assert abs(np.sum(lam**2) - np.linalg.norm(m) ** 2) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=5), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_spectral_sums_property(diag, seed):
    # conjugating a real diagonal by a random unitary preserves trace and norm
    rng = np.random.default_rng(seed)
    d = len(diag)
    p = np.array(diag) / sum(diag)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    (lam,), _ = decompose(q @ np.diag(p) @ q.conj().T)
    assert abs(np.sum(lam) - 1.0) <= 1e-9
    assert abs(np.sum(lam**2) - np.sum(p**2)) <= 1e-8


def test_spectral_apply_identity_function():
    m = random_density(np.random.default_rng(3), 3)
    assert np.allclose(spectral_apply(m, lambda x: x), m, atol=1e-10)


def test_spectral_apply_exp_diagonal():
    out = spectral_apply(np.diag([0.25, 0.75]), math.exp)
    assert np.allclose(out, np.diag([math.exp(0.25), math.exp(0.75)]), atol=1e-10)


def test_spectral_apply_xlogx():
    f = lambda x: 0.0 if x <= 0.0 else x * math.log(x)
    out = spectral_apply(np.diag([0.5, 0.5]), f)
    assert abs(np.trace(out).real + math.log(2.0)) <= 1e-10


def test_spectral_apply_composition():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_density(rng, 4) + 0.1 * np.eye(4)  # positive definite, safe domain
        m /= np.trace(m).real
        # exp(log(x) / 2) is the square root: applied twice it gives m back
        root = spectral_apply(m, lambda x: math.exp(0.5 * math.log(x)))
        assert np.linalg.norm(root @ root - m) <= 1e-9
        assert np.linalg.norm(root - spectral_apply(m, math.sqrt)) <= 1e-9


# A state's spectrum is clipped where it is built: rounding-scale negative
# eigenvalues become 0, genuine negativity is refused.
def test_clip_spectrum_rounding_noise():
    (out,), _ = decompose(np.diag([-1e-15, 0.5, 0.5]))
    assert np.allclose(out, [0.0, 0.5, 0.5])
    assert out[0] == 0.0


def test_clip_spectrum_no_change():
    (out,), _ = decompose(np.diag([0.25, 0.75]))
    assert np.allclose(out, [0.25, 0.75])


def test_clip_spectrum_genuine_negativity():
    with pytest.raises(NotPositiveSemidefinite):
        DensityOperator.from_stack(np.array([np.eye(2) / 2, np.diag([-1e-3, 1.0 + 1e-3])]))


def test_spectrum_reconstruct_roundtrip():
    (lam,), (v,) = decompose(np.diag([0.25, 0.75]))
    assert np.allclose((v * lam) @ v.conj().T, np.diag([0.25, 0.75]))
