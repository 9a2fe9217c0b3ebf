"""Bloch-vector algebra for qubit states, dichotomic effects, and two-qubit operators.

Everything downstream (joint-measurability checks, behaviour tables, witness
pipelines) is built on 2x2 Hermitian operators written as ``s*I + v.sigma``
with real ``s`` and real 3-vector ``v``.  In this form eigenvalues, operator
norms, traces of products and white-noise mixing are all closed form, so no
iterative eigensolver is ever needed.  Dense 4x4 matrices appear only where a
tensor product is unavoidable (the maximally entangled state and Bell-type
operators).  Input checks raise ValueError: validate() names the first invalid
state or effect, check_visibility() any visibility outside [0, 1], and
check_unbiased() the first biased measurement.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Sequence, Union

import numpy as np

# Validity checks (positivity, normalisation) use ATOL_VALID; closed-form
# algebraic identities are held to the tighter ATOL_ALGEBRA.
ATOL_VALID = 1e-10
ATOL_ALGEBRA = 1e-12


def is_json_number(x) -> bool:
    """True for a float or an int within float range; JSON's true and false are not numbers."""
    return isinstance(x, float) or (
        isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
    )


def is_json_numbers(x, length: int | None = None) -> bool:
    """True for a JSON array of numbers, of the given length when one is given."""
    return isinstance(x, list) and length in (None, len(x)) and all(map(is_json_number, x))


def all_ints(values, allowed: set | None = None) -> bool:
    """True when every value is a Python int, in the set allowed when one is given.
    A bool, float or numpy integer fails: 1 == 1.0 == True pass a set test alike."""
    values = tuple(values)
    return {int}.issuperset(map(type, values)) and (allowed is None or allowed.issuperset(values))


def is_integer(x) -> bool:
    """True for a Python or numpy integer, the sizes and counts range() takes; not a bool."""
    return hasattr(type(x), "__index__") and not isinstance(x, bool)


def check_visibility(eta: float) -> None:
    """Raise ValueError unless 0 <= eta <= 1; NaN does not pass."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {eta}")


def frozen(x, dtype=float) -> np.ndarray:
    """A read-only copy of x as an array of dtype."""
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


_SCALARS = (str, int, float)  # JSON scalars other than null, bool among the ints


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """The names of a dataclass's fields, in order, looked up once per class."""
    return tuple(f.name for f in fields(cls))


class _Record:
    """Base of the frozen dataclass records; each array they hold comes from
    frozen.  A record with an array field is declared eq=False and compares
    and hashes here, each array by its shape and entries (so -0.0 equals 0.0).
    to_json_dict maps each field name to its value (see _json); a record whose
    keys are not its fields builds its JSON object with _dict instead."""

    def _key(self) -> tuple:
        values = (getattr(self, name) for name in _field_names(type(self)))
        return tuple(
            (v.shape, *v.ravel().tolist()) if isinstance(v, np.ndarray) else v for v in values
        )

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def to_json_dict(self) -> dict:
        return {name: self._json(getattr(self, name)) for name in _field_names(type(self))}

    @staticmethod
    def _dict(*pairs) -> dict:
        """The JSON object of the (key, value) pairs whose value is not None."""
        return {key: _Record._json(value) for key, value in pairs if value is not None}

    @staticmethod
    def _json(value):
        """Arrays, tuples and operator lists as lists, records as dicts, else as is."""
        if value is None or isinstance(value, _SCALARS):  # the most common
            return value
        if isinstance(value, tuple):  # its scalars are listed without a call each
            return [v if isinstance(v, _SCALARS) else _Record._json(v) for v in value]
        if isinstance(value, _Record):
            return value.to_json_dict()
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value.to_json_list() if isinstance(value, _OperatorList) else value


def _as_vec3(v: Iterable[float]) -> np.ndarray:
    """v as a float array of shape (3,); an array is read as is, any other iterable
    (a generator too) as its tuple.  The result may share the caller's array."""
    arr = np.asarray(v if isinstance(v, np.ndarray) else tuple(v), dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a real 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class QubitOperator(_Record):
    """Hermitian 2x2 operator ``s*I + v[0]*sx + v[1]*sy + v[2]*sz``.

    Hermiticity is structural: ``s`` and ``v`` are real by construction.
    Eigenvalues are ``s + |v|`` and ``s - |v|``.
    """

    s: float
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "v", frozen(_as_vec3(self.v)))

    @property
    def vnorm(self) -> float:
        return float(np.linalg.norm(self.v))

    def trace(self) -> float:
        return 2.0 * self.s

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues in increasing order."""
        r = self.vnorm
        return (self.s - r, self.s + r)

    def matrix(self) -> np.ndarray:
        """Dense 2x2 complex matrix in the computational basis."""
        vx, vy, vz = self.v
        return np.array(
            [[self.s + vz, vx - 1j * vy], [vx + 1j * vy, self.s - vz]],
            dtype=complex,
        )

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        return QubitOperator(self.s + other.s, self.v + other.v)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return QubitOperator(self.s - other.s, self.v - other.v)

    def __neg__(self) -> "QubitOperator":
        return QubitOperator(-self.s, -self.v)

    def __mul__(self, scalar: float) -> "QubitOperator":
        return QubitOperator(self.s * scalar, self.v * scalar)

    __rmul__ = __mul__

    def isclose(self, other: "QubitOperator", atol: float = ATOL_ALGEBRA) -> bool:
        return abs(self.s - other.s) <= atol and bool(
            np.all(np.abs(self.v - other.v) <= atol)
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "QubitOperator":
        """Decode ``{"s": number, "v": [3 numbers]}``; anything else raises ValueError."""
        if not (
            isinstance(data, dict)
            and is_json_number(data.get("s"))
            and is_json_numbers(data.get("v"))
        ):
            raise ValueError('expected an operator object {"s": .., "v": [..]}')
        return cls(data["s"], data["v"])

    @classmethod
    def identity(cls) -> "QubitOperator":
        return cls(1.0, (0.0, 0.0, 0.0))

    @classmethod
    def zero(cls) -> "QubitOperator":
        return cls(0.0, (0.0, 0.0, 0.0))

    @classmethod
    def pauli(cls, axis: str) -> "QubitOperator":
        v = {"x": (1.0, 0, 0), "y": (0, 1.0, 0), "z": (0, 0, 1.0)}[axis]
        return cls(0.0, v)


def trace_product(a: QubitOperator, b: QubitOperator) -> float:
    """tr(A B) = 2(s_A s_B + v_A . v_B) for Hermitian Bloch-form operators."""
    return 2.0 * (a.s * b.s + float(np.dot(a.v, b.v)))


def operator_norm(op: QubitOperator) -> float:
    """Spectral norm, max(|s + |v||, |s - |v||)."""
    r = op.vnorm
    return max(abs(op.s + r), abs(op.s - r))


def transpose(op: QubitOperator) -> QubitOperator:
    """Matrix transpose in the computational basis: flips the sigma_y component."""
    vx, vy, vz = op.v
    return QubitOperator(op.s, (vx, -vy, vz))


@dataclass(frozen=True)
class QubitState(_Record):
    """Density operator; ``op`` must have s = 1/2 and |v| <= 1/2 to be valid."""

    op: QubitOperator

    @property
    def bloch(self) -> np.ndarray:
        """Conventional Bloch vector ``r`` with rho = (I + r.sigma)/2, so r = 2v."""
        return 2.0 * self.op.v

    @property
    def is_pure(self) -> bool:
        return abs(np.linalg.norm(self.bloch) - 1.0) <= ATOL_VALID

    @classmethod
    def from_bloch(cls, r: Iterable[float]) -> "QubitState":
        return cls(QubitOperator(0.5, 0.5 * _as_vec3(r)))

    @classmethod
    def pure(cls, direction: Iterable[float]) -> "QubitState":
        """Pure state along a (not necessarily normalised) Bloch direction."""
        d = _as_vec3(direction)
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("pure state needs a nonzero direction")
        return cls.from_bloch(d / n)

    @classmethod
    def maximally_mixed(cls) -> "QubitState":
        return cls(QubitOperator(0.5, (0.0, 0.0, 0.0)))

    def complement(self) -> "QubitState":
        """The state I - rho (trace one again for qubits)."""
        return QubitState(QubitOperator(1.0 - self.op.s, -self.op.v))

    def to_json_dict(self) -> dict:
        return self.op.to_json_dict()

    @classmethod
    def from_json_dict(cls, data: dict) -> "QubitState":
        return cls(QubitOperator.from_json_dict(data))


@dataclass(frozen=True)
class DichotomicMeasurement(_Record):
    """Two-outcome POVM stored through its first effect; effect1 = I - effect0."""

    effect0: QubitOperator

    @property
    def effect1(self) -> QubitOperator:
        return QubitOperator(1.0 - self.effect0.s, -self.effect0.v)

    @property
    def observable(self) -> QubitOperator:
        """effect0 - effect1 = (2s - 1) I + 2 v . sigma."""
        return QubitOperator(2.0 * self.effect0.s - 1.0, 2.0 * self.effect0.v)

    @property
    def is_unbiased(self) -> bool:
        """True when tr(effect0) = 1, i.e. the observable is traceless."""
        return abs(self.effect0.s - 0.5) <= ATOL_VALID

    @property
    def visibility(self) -> float:
        """|2v|; for an unbiased noisy projective measurement this is eta."""
        return 2.0 * self.effect0.vnorm

    @classmethod
    def projective(cls, direction: Iterable[float]) -> "DichotomicMeasurement":
        return cls.noisy_projective(direction, 1.0)

    @classmethod
    def noisy_projective(
        cls, direction: Iterable[float], eta: float
    ) -> "DichotomicMeasurement":
        """effect0 = eta |phi><phi| + (1 - eta) I/2 along the given Bloch direction."""
        check_visibility(eta)
        d = _as_vec3(direction)
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("projective measurement needs a nonzero direction")
        return cls(QubitOperator(0.5, (0.5 * eta / n) * d))

    @classmethod
    def trivial(cls) -> "DichotomicMeasurement":
        return cls(QubitOperator(0.5, (0.0, 0.0, 0.0)))

    def to_json_dict(self) -> dict:
        return self.effect0.to_json_dict()

    @classmethod
    def from_json_dict(cls, data: dict) -> "DichotomicMeasurement":
        return cls(QubitOperator.from_json_dict(data))


def apply_white_noise(
    m: DichotomicMeasurement, eta: float
) -> DichotomicMeasurement:
    """Mix each effect with tr(effect) I/2: keeps s, scales v by eta."""
    check_visibility(eta)
    e = m.effect0
    return DichotomicMeasurement(QubitOperator(e.s, eta * e.v))


def born_pm(rho: QubitState, m: DichotomicMeasurement) -> tuple[float, float]:
    """Outcome probabilities (tr(rho B_0), tr(rho B_1))."""
    p0 = trace_product(rho.op, m.effect0)
    return (p0, 1.0 - p0)


@dataclass(frozen=True, eq=False)
class TwoQubitOperator(_Record):
    """Dense 4x4 Hermitian operator on C^2 (x) C^2."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_ALGEBRA:
            raise ValueError("matrix is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", frozen(mat, complex))

    def norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))

    def expectation(self, vec: np.ndarray) -> float:
        """<vec| M |vec> for a normalised 4-vector."""
        return float(np.real(np.conj(vec) @ (self.matrix @ vec)))

    def to_json_dict(self) -> dict:
        m = self.matrix
        return self._dict(("matrix", np.stack((m.real, m.imag), axis=-1)))

    @classmethod
    def from_json_dict(cls, data: dict) -> "TwoQubitOperator":
        """Decode ``{"matrix": 4 rows of 4 [re, im] pairs}``; else ValueError."""
        rows = data.get("matrix") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(is_json_numbers(z, 2) for z in row) for row in rows
        ):
            raise ValueError('expected {"matrix": rows of [re, im] pairs}')
        return cls(np.array([[complex(re, im) for re, im in row] for row in rows]))


PHI_PLUS_VEC = frozen(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0), complex)


def max_entangled_2() -> TwoQubitOperator:
    """Projector onto (|00> + |11>)/sqrt(2)."""
    return TwoQubitOperator(np.outer(PHI_PLUS_VEC, PHI_PLUS_VEC.conj()))


def born_bell_phi_plus(
    a: DichotomicMeasurement, b: DichotomicMeasurement
) -> np.ndarray:
    """Joint table p(i, j) = <phi+| A_i (x) B_j |phi+>, computed densely."""
    a_eff = (a.effect0.matrix(), a.effect1.matrix())
    b_eff = (b.effect0.matrix(), b.effect1.matrix())
    table = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            op = np.kron(a_eff[i], b_eff[j])
            table[i, j] = np.real(np.conj(PHI_PLUS_VEC) @ (op @ PHI_PLUS_VEC))
    return table


class _OperatorList:
    """A tuple of states or measurements behind a one-field dataclass.  A
    subclass names the field, its member type, a member's operator, the word
    for that operator and the message for an empty list."""

    def __post_init__(self) -> None:
        object.__setattr__(self, self._field, tuple(getattr(self, self._field)))

    def __len__(self) -> int:
        return len(getattr(self, self._field))

    def __iter__(self):
        return iter(getattr(self, self._field))

    def __getitem__(self, idx):
        return getattr(self, self._field)[idx]

    def to_json_list(self) -> list:
        return [m.to_json_dict() for m in self]

    @classmethod
    def from_json_list(cls, data: Sequence[dict]):
        if not isinstance(data, list):
            raise ValueError("expected a JSON array of operators")
        return cls(tuple(cls._member.from_json_dict(d) for d in data))


@dataclass(frozen=True)
class Ensemble(_OperatorList):
    """Ordered list of trusted preparations, indexed by Alice's input x."""

    states: tuple[QubitState, ...]

    _field, _member, _operator = "states", QubitState, attrgetter("op")
    _what, _empty = "state", "ensemble has no states"

    @classmethod
    def from_bloch_vectors(cls, vectors: Iterable[Iterable[float]]) -> "Ensemble":
        return cls(tuple(QubitState.from_bloch(r) for r in vectors))


@dataclass(frozen=True)
class Assemblage(_OperatorList):
    """Ordered list of dichotomic measurements, indexed by Bob's input y."""

    measurements: tuple[DichotomicMeasurement, ...]

    _field, _member, _operator = "measurements", DichotomicMeasurement, attrgetter("effect0")
    _what, _empty = "effect", "assemblage has no measurements"

    @property
    def all_unbiased(self) -> bool:
        return all(m.is_unbiased for m in self.measurements)


def _check_operator(op: QubitOperator, name: str, is_state: bool) -> None:
    """Raise ValueError naming op and its first broken invariant, within 1e-10."""
    s, r = op.s, op.vnorm
    if not (math.isfinite(s) and np.isfinite(op.v).all()):
        problem = "a non-finite coefficient"
    elif is_state and abs(s - 0.5) > ATOL_VALID:
        problem = f"trace {2.0 * s:.6g} != 1"
    elif not is_state and not -ATOL_VALID <= s <= 1.0 + ATOL_VALID:
        problem = f"s = {s:.6g} outside [0, 1]"
    elif r > s + ATOL_VALID:
        problem = f"|v| = {r:.6g} > s = {s:.6g}"
    elif not is_state and s + r > 1.0 + ATOL_VALID:
        problem = f"s + |v| = {s + r:.6g} > 1"
    else:
        return
    raise ValueError(f"{name} has {problem}")


def validate(obj: Union[Ensemble, Assemblage]) -> None:
    """Raise ValueError naming the first invalid state or effect of obj (or its
    emptiness); return None when obj is valid, every invariant held to 1e-10."""
    if not isinstance(obj, _OperatorList):
        raise TypeError(f"validate expects Ensemble or Assemblage, got {type(obj)!r}")
    if not len(obj):
        raise ValueError(obj._empty)
    for idx, member in enumerate(obj):
        _check_operator(obj._operator(member), f"{obj._what} {idx}", obj._what == "state")


def check_unbiased(measurements: Iterable[DichotomicMeasurement], purpose: str) -> None:
    """Raise ValueError naming the first biased measurement and why it matters."""
    for idx, m in enumerate(measurements):
        if not m.is_unbiased:
            raise ValueError(f"measurement {idx} is biased (tr(effect0) != 1); {purpose}")
