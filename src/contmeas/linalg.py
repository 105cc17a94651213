"""Dense complex-matrix kernel: Hermitian eigendecomposition.

Every spectrum in this package comes from here. Eigenvalues are returned
ascending and eigenvector phases are fixed (largest-magnitude component made
real positive) so that repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Relative Hermiticity tolerance for the kernels.
HERMITICITY_TOL = 1e-10


def _as_square_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m)))


def hermiticity_residual(m) -> float:
    """Relative Frobenius distance of m from its Hermitian part."""
    a = _as_square_matrix(m)
    return frobenius(a - a.conj().T) / max(1.0, frobenius(a))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns, phase-fixed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    v = np.asarray(vectors, dtype=complex)
    idx = np.argmax(np.abs(v), axis=0)
    pivots = v[idx, np.arange(v.shape[1])]
    mags = np.abs(pivots)
    phases = np.where(mags > 0, np.conj(pivots) / np.where(mags > 0, mags, 1.0), 1.0)
    return v * phases[np.newaxis, :]


def eigh_phase_fixed(hermitian_matrix: np.ndarray):
    """Ascending eigenvalues and phase-fixed eigenvectors of an (assumed)
    Hermitian matrix; no Hermiticity check, for validated callers."""
    eigenvalues, eigenvectors = np.linalg.eigh(hermitian_matrix)
    return eigenvalues, _fix_phases(eigenvectors)


def hermitian_eig(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Raises NonHermitianInput when the relative Hermiticity residual exceeds
    HERMITICITY_TOL and DimensionMismatch for non-square input. The
    decomposition is taken of the Hermitian part (m + m*)/2, which is within
    that tolerance of m.
    """
    a = _as_square_matrix(m)
    residual = hermiticity_residual(a)
    if residual > HERMITICITY_TOL:
        raise NonHermitianInput(
            f"Hermiticity residual {residual:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    herm = (a + a.conj().T) / 2.0
    eigenvalues, eigenvectors = eigh_phase_fixed(herm)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
