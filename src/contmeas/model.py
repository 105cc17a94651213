"""Measurement models: document parsing, validation, built-in scenarios and
seeded random generation.

A model bundles a finite letter ensemble (prior probabilities plus one state
per letter), a schedule of instruments (one per time step, or a single
instrument repeated), and an integer horizon. Reference measures are fixed
uniform: the uniform letter measure and the uniform product measure on
outcome strings. With that convention every probability density appearing in
the information functionals differs from the corresponding plain probability
by a constant factor that cancels inside the functionals, so the engine
stores probabilities throughout.

Model documents are JSON; see ``parse_model`` for the schema. Parsing checks
shape only; ``validate_model`` reports the numeric residuals (instrument
completeness, state positivity, prior normalization).

``Check`` and ``CheckReport`` are the one check type of the package: model
validation, the engine's consistency identities and the bound audit all
report through them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameters, ModelSyntaxError, ShapeError, UnknownScenario
from .quantum import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    Instrument,
    KrausMap,
    hermiticity_residual,
)

INSTRUMENT_COMPLETENESS_TOL = 1e-10
PRIOR_SUM_TOL = 1e-12

SCENARIO_NAMES = (
    "identity",
    "qubit-projective",
    "qubit-weak",
    "pure-preserving-random",
    "damped-qubit",
)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Letters with prior probabilities and one state per letter.

    States are stored as raw matrices so that invalid documents can still be
    parsed and then reported on by ``validate_model``.
    """

    prior: np.ndarray
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=float))
        object.__setattr__(
            self, "states", tuple(np.asarray(s, dtype=complex) for s in self.states)
        )
        if self.prior.ndim != 1 or self.prior.size != len(self.states) or not self.states:
            raise ShapeError("ensemble needs one prior weight per state, at least one letter")

    @property
    def n_letters(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Validated-shape measurement model over a finite horizon."""

    dim: int
    horizon: int
    ensemble: Ensemble
    steps: tuple  # one Instrument per step 1..horizon
    homogeneous: bool = False

    def __post_init__(self):
        if self.dim < 1 or self.horizon < 1:
            raise ShapeError("dim and horizon must be positive")
        if len(self.steps) != self.horizon:
            raise ShapeError(
                f"schedule length {len(self.steps)} does not match horizon {self.horizon}"
            )
        for inst in self.steps:
            if inst.dim != self.dim:
                raise ShapeError("instrument dimension differs from model dimension")
        for s in self.ensemble.states:
            if s.shape != (self.dim, self.dim):
                raise ShapeError(f"ensemble state must be {self.dim}x{self.dim}, got {s.shape}")

    def instrument_at(self, step: int) -> Instrument:
        """Instrument applied between times step-1 and step (1-based)."""
        if not 1 <= step <= self.horizon:
            raise IndexError(f"step {step} outside 1..{self.horizon}")
        return self.steps[step - 1]

    def leaf_count(self) -> int:
        count = self.ensemble.n_letters
        for inst in self.steps:
            count *= inst.n_outcomes
        return count


@dataclass(frozen=True)
class TimeGrid:
    """Record times (where states and entropies are kept) and reference
    times (where the outcome-only conditioning is reseeded)."""

    record_times: tuple
    reference_times: tuple

    @classmethod
    def make(cls, horizon: int, record_times=None, reference_times=None) -> "TimeGrid":
        records = sorted(set(int(t) for t in record_times)) if record_times is not None else list(
            range(horizon + 1)
        )
        refs = sorted(set(int(t) for t in reference_times)) if reference_times is not None else list(
            records
        )
        for t in records + refs:
            if not 0 <= t <= horizon:
                raise ValueError(f"grid time {t} outside 0..{horizon}")
        if 0 not in records or horizon not in records:
            raise ValueError("record times must contain 0 and the horizon")
        if not set(refs) <= set(records):
            raise ValueError("reference times must be a subset of record times")
        return cls(record_times=tuple(records), reference_times=tuple(refs))

    def pairs(self):
        """(s, t) with s a reference time, t a record time, s <= t."""
        return [
            (s, t) for s in self.reference_times for t in self.record_times if s <= t
        ]


@dataclass(frozen=True)
class Check:
    """One audited statement at one grid tuple (``times``, empty when it has
    none). ``margin`` is its signed slack, minus the residual for identities
    and validation residuals; it passes iff ``margin >= -tol``, so a NaN
    fails and +inf passes. Bounds also record their two compared sides."""

    name: str
    margin: float
    tol: float
    times: tuple = ()
    lhs: Optional[float] = None
    rhs: Optional[float] = None

    @property
    def passed(self) -> bool:
        return bool(self.margin >= -self.tol)

    def __str__(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        label = self.name
        if self.times:
            label += "(" + ",".join(str(t) for t in self.times) + ")"
        sides = "" if self.lhs is None else f"lhs {self.lhs!r} rhs {self.rhs!r} "
        return f"[{mark}] {label}: {sides}margin {self.margin:.3e} (tol {self.tol:.1e})"


@dataclass(frozen=True)
class CheckReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def find(self, name: str, times: tuple) -> Optional[Check]:
        for c in self.checks:
            if c.name == name and c.times == times:
                return c
        return None

    def min_margin(self, prefix: str = "") -> float:
        margins = [c.margin for c in self.checks if c.name.startswith(prefix)]
        return min(margins, default=math.inf)

    def max_residual(self) -> float:
        return -self.min_margin()

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def validate_model(model: MeasurementModel) -> CheckReport:
    """Numeric validation: instrument completeness, state positivity and
    normalization, prior normalization. Never raises; the report carries
    one named residual per check."""
    checks = []
    prior = model.ensemble.prior
    checks.append(Check("prior:nonnegative", -max(0.0, -float(np.min(prior))), PRIOR_SUM_TOL))
    checks.append(Check("prior:sum", -abs(float(np.sum(prior)) - 1.0), PRIOR_SUM_TOL))
    for i, state in enumerate(model.ensemble.states):
        herm = float(hermiticity_residual(state))
        checks.append(Check(f"state[{i}]:hermitian", -herm, HERMITICITY_TOL))
        sym = (state + state.conj().T) / 2.0
        lam_min = float(np.linalg.eigvalsh(sym)[0])
        checks.append(Check(f"state[{i}]:psd", -max(0.0, -lam_min), -EIGENVALUE_FLOOR))
        checks.append(Check(f"state[{i}]:trace", -abs(float(np.trace(sym).real) - 1.0), TRACE_TOL))
    if model.homogeneous:
        residual = model.steps[0].completeness_residual()
        checks.append(Check("instrument:completeness", -residual, INSTRUMENT_COMPLETENESS_TOL))
    else:
        for k, inst in enumerate(model.steps, start=1):
            checks.append(
                Check(
                    f"instrument[{k}]:completeness",
                    -inst.completeness_residual(),
                    INSTRUMENT_COMPLETENESS_TOL,
                )
            )
    return CheckReport(checks=tuple(checks))


def is_pure_preserving(model: MeasurementModel) -> bool:
    """Syntactic sufficient condition for purity preservation: every outcome
    map has exactly one Kraus operator and every letter state is rank one."""
    for inst in model.steps:
        if any(len(km.operators) != 1 for km in inst.maps):
            return False
    for state in model.ensemble.states:
        sym = (state + state.conj().T) / 2.0
        lam = np.linalg.eigvalsh(sym)
        lam_max = float(np.max(np.abs(lam)))
        if lam_max <= 0.0 or int(np.sum(lam > 1e-12 * lam_max)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, keys: set, where: str):
    missing = keys - set(obj)
    extra = set(obj) - keys
    if missing:
        raise ShapeError(f"{where}: missing field(s) {sorted(missing)}")
    if extra:
        raise ShapeError(f"{where}: unknown field(s) {sorted(extra)}")


def _parse_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_matrix(value, dim: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise ShapeError(f"{where}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ShapeError(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ShapeError(f"{where}: entry ({i},{j}) must be a [re, im] pair")
            re = _parse_number(entry[0], f"{where} entry ({i},{j})")
            im = _parse_number(entry[1], f"{where} entry ({i},{j})")
            out[i, j] = complex(re, im)
    return out


def _parse_instrument(value, dim: int, where: str) -> Instrument:
    if not isinstance(value, dict) or not value:
        raise ShapeError(f"{where}: expected a nonempty object of outcome -> Kraus list")
    outcomes = sorted(value.keys())
    maps = []
    for label in outcomes:
        kraus_list = value[label]
        if not isinstance(kraus_list, list) or not kraus_list:
            raise ShapeError(f"{where}: outcome {label!r} needs a nonempty list of matrices")
        ops = tuple(
            _parse_matrix(m, dim, f"{where} outcome {label!r} Kraus {j}")
            for j, m in enumerate(kraus_list)
        )
        maps.append(KrausMap(ops))
    return Instrument(outcomes=tuple(outcomes), maps=tuple(maps))


def parse_model(text: str) -> MeasurementModel:
    """Parse a JSON model document.

    Schema: an object with exactly the fields ``dim`` (int), ``horizon``
    (int), ``ensemble`` (array of {"p": number, "state": matrix}), and
    ``instruments`` (a single object mapping outcome label to an array of
    Kraus matrices, or an array of such objects, one per step). A matrix is
    an array of rows; every complex entry is a [re, im] pair. Unknown
    fields are rejected. Shape is checked here; numerics are checked by
    ``validate_model``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ShapeError("model document must be a JSON object")
    _require_keys(doc, {"dim", "horizon", "ensemble", "instruments"}, "model")
    dim = doc["dim"]
    horizon = doc["horizon"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ShapeError(f"dim must be a positive integer, got {dim!r}")
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ShapeError(f"horizon must be a positive integer, got {horizon!r}")

    raw_ensemble = doc["ensemble"]
    if not isinstance(raw_ensemble, list) or not raw_ensemble:
        raise ShapeError("ensemble must be a nonempty array")
    prior = []
    states = []
    for i, member in enumerate(raw_ensemble):
        if not isinstance(member, dict):
            raise ShapeError(f"ensemble[{i}] must be an object")
        _require_keys(member, {"p", "state"}, f"ensemble[{i}]")
        prior.append(_parse_number(member["p"], f"ensemble[{i}].p"))
        states.append(_parse_matrix(member["state"], dim, f"ensemble[{i}].state"))
    ensemble = Ensemble(prior=np.array(prior), states=tuple(states))

    raw_instruments = doc["instruments"]
    if isinstance(raw_instruments, dict):
        inst = _parse_instrument(raw_instruments, dim, "instruments")
        steps = tuple([inst] * horizon)
        homogeneous = True
    elif isinstance(raw_instruments, list):
        if len(raw_instruments) != horizon:
            raise ShapeError(
                f"per-step instruments array has length {len(raw_instruments)}, horizon is {horizon}"
            )
        steps = tuple(
            _parse_instrument(obj, dim, f"instruments[{k}]")
            for k, obj in enumerate(raw_instruments)
        )
        homogeneous = False
    else:
        raise ShapeError("instruments must be an object or an array of objects")

    return MeasurementModel(
        dim=dim, horizon=horizon, ensemble=ensemble, steps=steps, homogeneous=homogeneous
    )


def _matrix_doc(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _instrument_doc(inst: Instrument):
    return {
        label: [_matrix_doc(k) for k in inst.map_for(label).operators]
        for label in sorted(inst.outcomes)
    }


def serialize_model(model: MeasurementModel) -> str:
    """Serialize to the JSON document format; deterministic byte-for-byte
    for equal models."""
    doc = {
        "dim": model.dim,
        "horizon": model.horizon,
        "ensemble": [
            {"p": float(p), "state": _matrix_doc(s)}
            for p, s in zip(model.ensemble.prior, model.ensemble.states)
        ],
        "instruments": _instrument_doc(model.steps[0])
        if model.homogeneous
        else [_instrument_doc(inst) for inst in model.steps],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Built-in scenarios and random models
# ---------------------------------------------------------------------------

_KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_PLUS = np.full((2, 2), 0.5, dtype=complex)


def _default_qubit_ensemble() -> Ensemble:
    return Ensemble(prior=np.array([0.5, 0.5]), states=(_KET0.copy(), _PLUS.copy()))


def _random_isometry_blocks(rng, dim: int, n_blocks: int):
    """Stack of n_blocks dim x dim matrices whose column stack is an
    isometry, so the blocks form a complete Kraus family by construction."""
    g = rng.standard_normal((dim * n_blocks, dim)) + 1j * rng.standard_normal(
        (dim * n_blocks, dim)
    )
    q, r = np.linalg.qr(g)
    # canonical sign: make diag(r) real positive so the result is unique
    phases = np.diagonal(r).copy()
    phases = np.where(np.abs(phases) > 0, phases / np.abs(phases), 1.0)
    q = q * phases.conj()
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_blocks)]


def _random_pure_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_mixed_state(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def builtin_scenario(name: str, horizon: int = 3, seed: int = 7) -> MeasurementModel:
    """One of the named example models. ``seed`` only affects the random
    scenario; ``horizon`` sets the schedule length (all scenarios are
    homogeneous in time)."""
    if name == "identity":
        inst = Instrument(outcomes=("0",), maps=(KrausMap((np.eye(2, dtype=complex),)),))
        ensemble = _default_qubit_ensemble()
    elif name == "qubit-projective":
        inst = Instrument(
            outcomes=("0", "1"), maps=(KrausMap((_KET0.copy(),)), KrausMap((_KET1.copy(),)))
        )
        ensemble = _default_qubit_ensemble()
    elif name == "qubit-weak":
        theta = math.pi / 8.0
        k0 = math.cos(theta) * _KET0 + _KET1
        k1 = math.sin(theta) * _KET0
        inst = Instrument(outcomes=("0", "1"), maps=(KrausMap((k0,)), KrausMap((k1,))))
        ensemble = _default_qubit_ensemble()
    elif name == "pure-preserving-random":
        rng = np.random.default_rng(seed)
        blocks = _random_isometry_blocks(rng, 2, 2)
        inst = Instrument(
            outcomes=("0", "1"), maps=(KrausMap((blocks[0],)), KrausMap((blocks[1],)))
        )
        ensemble = Ensemble(
            prior=np.array([0.5, 0.5]),
            states=(_random_pure_state(rng, 2), _random_pure_state(rng, 2)),
        )
    elif name == "damped-qubit":
        gamma = 0.3
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
        k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        inst = Instrument(outcomes=("0", "1"), maps=(KrausMap((k0,)), KrausMap((k1,))))
        ensemble = Ensemble(
            prior=np.array([0.6, 0.4]),
            states=(
                np.array([[0.8, 0.15], [0.15, 0.2]], dtype=complex),
                np.array([[0.3, -0.1], [-0.1, 0.7]], dtype=complex),
            ),
        )
    else:
        raise UnknownScenario(f"no scenario named {name!r}; choose from {SCENARIO_NAMES}")
    return MeasurementModel(
        dim=2, horizon=horizon, ensemble=ensemble, steps=tuple([inst] * horizon), homogeneous=True
    )


def random_model(
    seed: int,
    dim: int = 2,
    n_outcomes: int = 2,
    kraus_per_outcome: int = 1,
    n_letters: int = 2,
    horizon: int = 3,
) -> MeasurementModel:
    """Seeded random model whose instrument is complete by construction.

    The Kraus family is cut from the row blocks of a random isometry (QR of
    a seeded complex Gaussian matrix), so sum K*K = identity up to rounding.
    Letter states are normalized random PSD matrices with a random prior.
    Deterministic in the seed.
    """
    if dim < 2 or n_outcomes < 1 or kraus_per_outcome < 1 or n_letters < 1 or horizon < 1:
        raise InvalidParameters(
            "need dim >= 2, n_outcomes >= 1, kraus_per_outcome >= 1, n_letters >= 1, horizon >= 1"
        )
    rng = np.random.default_rng(seed)
    blocks = _random_isometry_blocks(rng, dim, n_outcomes * kraus_per_outcome)
    maps = tuple(
        KrausMap(tuple(blocks[v * kraus_per_outcome + j] for j in range(kraus_per_outcome)))
        for v in range(n_outcomes)
    )
    # labels must already be in sorted order (parsing canonicalizes by sort)
    width = len(str(n_outcomes - 1))
    labels = tuple(f"{v:0{width}d}" for v in range(n_outcomes))
    inst = Instrument(outcomes=labels, maps=maps)
    weights = rng.random(n_letters) + 0.5
    weights /= weights.sum()
    states = tuple(_random_mixed_state(rng, dim) for _ in range(n_letters))
    ensemble = Ensemble(prior=weights, states=states)
    return MeasurementModel(
        dim=dim,
        horizon=horizon,
        ensemble=ensemble,
        steps=tuple([inst] * horizon),
        homogeneous=True,
    )
