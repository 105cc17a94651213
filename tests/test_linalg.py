import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmeas.errors import DimensionMismatch, NonHermitianInput, NotPositiveSemidefinite
from contmeas.linalg import Spectrum, hermitian_eig
from contmeas.quantum import DensityOperator


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def spectral_apply(m, f):
    """V diag(f(lambda)) V* from hermitian_eig: the spectral calculus that
    the entropies rely on, written out against the eigendecomposition."""
    spec = hermitian_eig(m)
    v = spec.eigenvectors
    return (v * np.array([f(float(lam)) for lam in spec.eigenvalues])) @ v.conj().T


def test_identity_eigenvalues():
    spec = hermitian_eig(np.eye(2))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0])


def test_diagonal_already_sorted_ascending():
    spec = hermitian_eig(np.diag([1.0, -1.0]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_random_2x2_matches_characteristic_polynomial():
    # oracle: roots of t^2 - tr t + det via the quadratic formula
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_hermitian(rng, 2)
        tr = float(np.trace(m).real)
        det = float(np.linalg.det(m).real)
        disc = math.sqrt(tr * tr - 4.0 * det)
        roots = sorted([(tr - disc) / 2.0, (tr + disc) / 2.0])
        spec = hermitian_eig(m)
        assert np.allclose(spec.eigenvalues, roots, atol=1e-10)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_spectrum_invariants(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(10):
        m = random_hermitian(rng, dim)
        spec = hermitian_eig(m)
        scale = max(1.0, np.linalg.norm(m))
        v = spec.eigenvectors
        assert np.linalg.norm((v * spec.eigenvalues) @ v.conj().T - m) <= 1e-10 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= -1e-14)
        # trace and Frobenius norm match the spectrum
        assert abs(np.sum(spec.eigenvalues) - np.trace(m).real) <= 1e-10 * scale
        assert abs(np.sum(spec.eigenvalues**2) - np.linalg.norm(m) ** 2) <= 1e-9 * scale**2


def test_eigenvector_phase_fixed():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 4)
    v = hermitian_eig(m).eigenvectors
    for k in range(4):
        pivot = v[np.argmax(np.abs(v[:, k])), k]
        assert pivot.real > 0.0
        assert abs(pivot.imag) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_spectral_sums_property(diag, seed):
    # conjugating a real diagonal by a random unitary preserves trace and norm
    rng = np.random.default_rng(seed)
    d = len(diag)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = q @ np.diag(diag) @ q.conj().T
    spec = hermitian_eig(m)
    assert abs(np.sum(spec.eigenvalues) - sum(diag)) <= 1e-9
    assert abs(np.sum(spec.eigenvalues**2) - sum(x * x for x in diag)) <= 1e-8


def test_spectral_apply_identity_function():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 3)
    assert np.allclose(spectral_apply(m, lambda x: x), m, atol=1e-10)


def test_spectral_apply_exp_diagonal():
    out = spectral_apply(np.diag([0.0, math.log(2.0)]), math.exp)
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-10)


def test_spectral_apply_xlogx():
    f = lambda x: 0.0 if x <= 0.0 else x * math.log(x)
    out = spectral_apply(np.diag([0.5, 0.5]), f)
    assert abs(np.trace(out).real + math.log(2.0)) <= 1e-10


def test_spectral_apply_composition():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_hermitian(rng, 4)
        m = m @ m.conj().T + 0.1 * np.eye(4)  # positive definite, safe domain
        via_compose = spectral_apply(m, lambda x: math.exp(0.5 * math.log(x)))
        via_stages = spectral_apply(spectral_apply(m, math.log), lambda x: math.exp(0.5 * x))
        assert np.linalg.norm(via_compose - via_stages) <= 1e-9 * max(1.0, np.linalg.norm(via_compose))


# A state's spectrum is clipped where it is built: rounding-scale negative
# eigenvalues become 0, genuine negativity is refused.
def test_clip_spectrum_rounding_noise():
    out = DensityOperator.from_matrix(np.diag([-1e-15, 0.5, 0.5])).eigenvalues
    assert np.allclose(out, [0.0, 0.5, 0.5])


def test_clip_spectrum_no_change():
    assert np.allclose(DensityOperator.from_matrix(np.diag([0.25, 0.75])).eigenvalues, [0.25, 0.75])


def test_clip_spectrum_genuine_negativity():
    with pytest.raises(NotPositiveSemidefinite):
        DensityOperator.from_matrix(np.diag([-1e-3, 1.0]))


def test_spectrum_reconstruct_roundtrip():
    spec = Spectrum(eigenvalues=np.array([0.25, 0.75]), eigenvectors=np.eye(2, dtype=complex))
    v = spec.eigenvectors
    assert np.allclose((v * spec.eigenvalues) @ v.conj().T, np.diag([0.25, 0.75]))
