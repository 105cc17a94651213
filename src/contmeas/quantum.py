"""States, entropies, Kraus maps and instruments.

Conventions used throughout:

* all entropies are in nats (natural logarithm);
* a relative entropy whose first argument has mass outside the support of
  the second is ``math.inf`` (a real flag value, never a large float);
* an eigenvalue belongs to the support iff it exceeds 1e-12 times the
  largest eigenvalue;
* zero-weight branches of hybrid (classical/quantum) states are dropped,
  never normalized.

A state is its matrix and its entropy. ``DensityOperator.from_stack`` is the
one place where states are validated and decomposed, with one
``np.linalg.eigh`` call per stack; the engine takes the spectra it needs
from that call, and the independent oracles (``quantum_relative_entropy``,
``hybrid_relative_entropy``) decompose their own inputs. Every quantity
depends only on eigenvalues and on the overlaps |<a|b>|^2, so eigenvectors
are used exactly as LAPACK returns them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, NotPositiveSemidefinite

# Eigenvalues above SUPPORT_REL_TOL * lambda_max count as support.
SUPPORT_REL_TOL = 1e-12
# First-argument mass tolerated outside the second argument's support
# (relative to the first argument's trace) before flagging infinity.
SUPPORT_MASS_TOL = 1e-12
# Validation tolerances for states: relative Hermiticity residual, trace
# deviation from 1, smallest eigenvalue.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-12


def hermiticity_residual(m):
    """Relative Frobenius distance of m from its Hermitian part; for a
    (k, d, d) stack, the array of each member's residual."""
    diff = m - np.swapaxes(m.conj(), -1, -2)
    norm = np.linalg.norm(m, axis=(-2, -1))
    return np.linalg.norm(diff, axis=(-2, -1)) / np.maximum(1.0, norm)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of each row of clipped eigenvalues, 0 log 0 = 0."""
    s = -np.sum(lam * np.log(np.where(lam > 0.0, lam, 1.0)), axis=-1)
    # clamp rounding-scale negatives and normalize -0.0
    return np.where((s > -1e-12) & (s <= 0.0), 0.0, s)


def _clip_nonnegative(lam: np.ndarray) -> np.ndarray:
    out = lam.copy()
    out[out <= 0.0] = 0.0
    return out


class StateBatch(NamedTuple):
    """Validated states of one stack as arrays, with their spectra."""

    matrices: np.ndarray  # (k, d, d), the Hermitian parts
    entropies: np.ndarray  # (k,)
    eigenvalues: np.ndarray  # (k, d), ascending, clipped at zero
    eigenvectors: np.ndarray  # (k, d, d), orthonormal columns

    @property
    def states(self) -> list:
        """A DensityOperator per member, in stack order, each owning a copy
        of its matrix."""
        copies = map(np.ndarray.copy, self.matrices)
        return list(map(DensityOperator, copies, self.entropies.tolist()))


def _first_false(ok: np.ndarray) -> int:
    """Index of the first False entry, or len(ok) when there is none."""
    return len(ok) if ok.all() else int(np.argmin(ok))


@dataclass(frozen=True, eq=False, slots=True)
class DensityOperator:
    """Positive semidefinite unit-trace matrix with its entropy."""

    matrix: np.ndarray
    entropy: float  # von Neumann entropy in nats

    @classmethod
    def from_stack(cls, matrices) -> StateBatch:
        """Validate and wrap every member of a (k, d, d) stack with one
        eigendecomposition call: Hermitian within HERMITICITY_TOL (relative
        Frobenius), eigenvalues >= EIGENVALUE_FLOOR, trace 1 within
        TRACE_TOL. Each test is written so that a NaN fails it. Members are
        checked in order; the first failing member raises the error that
        from_matrix raises for it alone. The batch keeps the states as
        arrays; ``.states`` wraps them one by one."""
        a = np.asarray(matrices, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionMismatch(f"state stack must be (k, d, d), got {a.shape}")
        residual = hermiticity_residual(a)
        n = _first_false(residual <= HERMITICITY_TOL)
        herm = _hermitian_part(a[:n])
        eigenvalues, eigenvectors = np.linalg.eigh(herm)
        trace = np.trace(herm, axis1=-2, axis2=-1).real
        psd = eigenvalues[:, 0] >= EIGENVALUE_FLOOR
        i = _first_false(psd & (np.abs(trace - 1.0) <= TRACE_TOL))
        if i < n and not psd[i]:
            raise NotPositiveSemidefinite(f"state eigenvalue {eigenvalues[i, 0]:.3e} < -1e-12")
        if i < n:
            raise ValueError(
                f"state trace {float(trace[i])!r} deviates from 1 beyond {TRACE_TOL:.1e}"
            )
        if n < len(a):
            raise NonHermitianInput(f"state Hermiticity residual {residual[n]:.3e}")
        # clip rounding-scale negatives to zero
        lam = _clip_nonnegative(eigenvalues)
        return StateBatch(herm, _entropies(lam), lam, eigenvectors)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityOperator":
        """Validate and wrap one matrix: the one-member case of from_stack."""
        a = np.asarray(matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"state matrix must be square, got {a.shape}")
        return cls.from_stack(a[np.newaxis]).states[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Completely positive map in Kraus form: m -> sum_j K_j m K_j*."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise DimensionMismatch("a Kraus map needs at least one operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (d, d):
                raise DimensionMismatch(f"Kraus operators must all be {d}x{d}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        out = None
        for k in self.operators:
            term = k @ matrix @ k.conj().T
            out = term if out is None else out + term
        return out

    def normalization(self) -> np.ndarray:
        """sum_j K_j* K_j; equals the identity for outcome families that
        together form an instrument."""
        return sum(k.conj().T @ k for k in self.operators)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Finite outcome alphabet with one Kraus map per outcome.

    Completeness (sum over all outcomes and Kraus indices of K*K equal to
    the identity) is not enforced at construction; model validation reports
    the residual numerically.
    """

    outcomes: tuple
    maps: tuple

    def __post_init__(self):
        outcomes = tuple(str(v) for v in self.outcomes)
        maps = tuple(self.maps)
        if len(outcomes) < 1 or len(outcomes) != len(maps):
            raise DimensionMismatch("need one Kraus map per outcome, at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise DimensionMismatch("outcome labels must be distinct")
        d = maps[0].dim
        for km in maps:
            if km.dim != d:
                raise DimensionMismatch("all outcome maps must share one dimension")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "maps", maps)

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def map_for(self, outcome: str) -> KrausMap:
        return self.maps[self.outcomes.index(outcome)]

    def completeness_residual(self) -> float:
        total = sum(km.normalization() for km in self.maps)
        return float(np.linalg.norm(total - np.eye(self.dim)))

    def apply_total(self, matrix: np.ndarray) -> np.ndarray:
        """One a-priori step: sum of all outcome maps (trace preserving
        when the instrument is complete)."""
        out = None
        for km in self.maps:
            term = km.apply(matrix)
            out = term if out is None else out + term
        return out


# ---------------------------------------------------------------------------
# Entropic functionals
# ---------------------------------------------------------------------------


def _as_density(state) -> DensityOperator:
    if isinstance(state, DensityOperator):
        return state
    return DensityOperator.from_matrix(state)


def _relent_spectra(lam1, v1, lam2, v2) -> float:
    """Tr{A (log A - log B)} from the (clipped, PSD) spectra of A and B.

    Returns math.inf when A carries mass outside the support of B beyond
    SUPPORT_MASS_TOL relative to Tr A. A = 0 gives 0 by the 0 log 0
    convention.
    """
    a_max = float(lam1[-1])
    if a_max <= 0.0:
        return 0.0
    b_max = float(lam2[-1])
    supp1 = lam1 > SUPPORT_REL_TOL * a_max
    if b_max <= 0.0:
        return math.inf
    supp2 = lam2 > SUPPORT_REL_TOL * b_max
    overlaps = np.abs(v1.conj().T @ v2) ** 2
    trace_a = float(np.sum(lam1))
    outside = float(lam1[supp1] @ overlaps[np.ix_(supp1, ~supp2)].sum(axis=1))
    if outside > SUPPORT_MASS_TOL * trace_a:
        return math.inf
    lam_in = lam1[supp1]
    term1 = float(np.sum(lam_in * np.log(lam_in)))
    log2 = np.log(lam2[supp2])
    term2 = float(lam_in @ (overlaps[np.ix_(supp1, supp2)] @ log2))
    return term1 - term2


def relative_entropies(lam1, v1, lam2, v2) -> np.ndarray:
    """Tr{A_n (log A_n - log B_nj)} of first spectra (lam1 of shape (..., d),
    v1 of shape (..., d, d)) against stacks of spectra (lam2 of shape
    (..., m, d), v2 of shape (..., m, d, d)) in one pass; shape (..., m).

    Same support rule, infinity flag and 0 log 0 convention as
    _relent_spectra, entry by entry; that scalar form stays separate for
    the independent oracles. Each first argument meets all m of its second
    arguments in one (d, d) x (d, m*d) product of eigenvectors and one
    (1, d) x (d, m*d) product of its support weights, so a row's bits do
    not depend on how many rows come with it.
    """
    a_max = lam1[..., -1:]
    supp1 = lam1 > SUPPORT_REL_TOL * a_max
    weights = np.where(supp1, lam1, 0.0)
    term1 = (weights * np.log(np.where(supp1, lam1, 1.0))).sum(axis=-1, keepdims=True)
    b_max = lam2[..., -1]
    supp2 = lam2 > SUPPORT_REL_TOL * b_max[..., np.newaxis]
    m, d = lam2.shape[-2:]
    # [..., a, (j, b)] = <a_a|b_jb>, then |.|^2
    right = np.swapaxes(v2, -3, -2).reshape(v2.shape[:-3] + (d, m * d))
    z = v1.conj().swapaxes(-1, -2) @ right
    overlaps = z.real**2 + z.imag**2
    # [..., j, b] = sum_a weights_a |<a_a|b_jb>|^2, the mass of A on b_jb
    mass = (weights[..., np.newaxis, :] @ overlaps).reshape(lam2.shape)
    outside = np.where(supp2, 0.0, mass).sum(axis=-1)
    log2 = np.log(np.where(supp2, lam2, 1.0))  # zero off the support
    term2 = (mass * log2).sum(axis=-1)
    infinite = (b_max <= 0.0) | (outside > SUPPORT_MASS_TOL * lam1.sum(axis=-1, keepdims=True))
    # every term of a zero first argument vanishes: 0 against anything
    return np.where(infinite & (a_max > 0.0), math.inf, term1 - term2)


def quantum_relative_entropy(sigma, tau) -> float:
    """S_q(sigma|tau) = Tr{sigma (log sigma - log tau)}, or math.inf when
    the support of sigma is not contained in the support of tau. Both
    arguments (states or matrices) are validated and decomposed together."""
    pair = [s.matrix if isinstance(s, DensityOperator) else np.asarray(s) for s in (sigma, tau)]
    if pair[0].shape != pair[1].shape:
        raise DimensionMismatch(f"shapes {pair[0].shape} and {pair[1].shape} differ")
    batch = DensityOperator.from_stack(np.array(pair))
    lam, vec = batch.eigenvalues, batch.eigenvectors
    return _relent_spectra(lam[0], vec[0], lam[1], vec[1])


class HybridRelativeEntropy(NamedTuple):
    """Relative entropy of two classical/quantum states, both as the direct
    trace form and decomposed into classical + conditional quantum parts."""

    direct: float
    classical: float
    quantum: float

    @property
    def decomposed(self) -> float:
        return self.classical + self.quantum


def hybrid_relative_entropy(side1: Sequence, side2: Sequence) -> HybridRelativeEntropy:
    """Relative entropy of two states over a finite hybrid sample space.

    Each side is a sequence (or stack) of PSD matrices indexed by the same
    finite outcome set; a matrix's real trace is its weight, and each side's
    weights sum to 1 within TRACE_TOL. Each side is checked for Hermiticity
    and decomposed as one stack. Returns the direct form (one trace
    expression per outcome) and the decomposition into a classical
    divergence of the weights plus the mean conditional quantum relative
    entropy; the two forms agree within numerical error whenever finite.
    """
    if len(side1) != len(side2):
        raise DimensionMismatch(f"index sets differ: {len(side1)} vs {len(side2)}")
    if len(side1) == 0:
        raise DimensionMismatch("empty hybrid state")
    if len({np.shape(m) for m in (*side1, *side2)}) != 1:
        raise DimensionMismatch("hybrid members must share one dimension")
    stacks = [np.asarray(side, dtype=complex) for side in (side1, side2)]
    if stacks[0].ndim != 3 or stacks[0].shape[1] != stacks[0].shape[2]:
        raise DimensionMismatch(f"hybrid members must be square, got {stacks[0].shape[1:]}")
    weights = []
    for name, a in zip(("first", "second"), stacks):
        w = np.trace(a, axis1=1, axis2=2).real
        if not abs(float(np.sum(w)) - 1.0) <= TRACE_TOL:
            raise ValueError(f"{name} side weights sum to {float(np.sum(w))!r}, not 1")
        weights.append(w.tolist())
    for name, a in zip(("first", "second"), stacks):
        residual = hermiticity_residual(a)
        i = _first_false(residual <= HERMITICITY_TOL)
        if i < len(a):
            raise NonHermitianInput(
                f"{name} side member {i}: Hermiticity residual {residual[i]:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e}"
            )
    (lam1, v1), (lam2, v2) = (np.linalg.eigh(_hermitian_part(a)) for a in stacks)
    lam1, lam2 = _clip_nonnegative(lam1), _clip_nonnegative(lam2)

    classical = 0.0
    quantum = 0.0
    direct = 0.0
    for i, (w1, w2) in enumerate(zip(*weights)):
        if w1 <= 0.0:
            continue  # P-null branch
        if w2 <= 0.0:
            return HybridRelativeEntropy(math.inf, math.inf, math.inf)
        classical += w1 * math.log(w1 / w2)
        direct += _relent_spectra(lam1[i], v1[i], lam2[i], v2[i])
        quantum += w1 * _relent_spectra(lam1[i] / w1, v1[i], lam2[i] / w2, v2[i])
    return HybridRelativeEntropy(direct=direct, classical=classical, quantum=quantum)


def average_state(members: Sequence[tuple]) -> DensityOperator:
    """Probability-weighted average of an ensemble's states. The weights
    must be nonnegative and sum to 1 within 1e-12; a NaN fails both."""
    probs = np.asarray([p for p, _ in members], dtype=float)
    if probs.size < 1:
        raise DimensionMismatch("an ensemble needs at least one member")
    if not np.all(probs >= 0.0):
        raise ValueError(f"negative or NaN weight {float(np.min(probs))!r}")
    if not abs(float(np.sum(probs)) - 1.0) <= 1e-12:
        raise ValueError(f"weights sum to {float(np.sum(probs))!r}, not 1")
    states = [_as_density(s) for _, s in members]
    d = states[0].dim
    for s in states:
        if s.dim != d:
            raise DimensionMismatch("ensemble members must share one dimension")
    avg = np.zeros((d, d), dtype=complex)
    for p, s in zip(probs, states):
        avg += p * s.matrix
    return DensityOperator.from_matrix(avg)


def chi_quantity(members: Sequence[tuple]) -> float:
    """Average relative entropy of ensemble members against the ensemble
    average (the Holevo quantity), sum_y p_y S_q(rho_y | rho_bar)."""
    avg = average_state(members)
    total = 0.0
    for p, s in members:
        if p <= 0.0:
            continue
        r = quantum_relative_entropy(s, avg)
        if math.isinf(r):
            return math.inf
        total += p * r
    return total
