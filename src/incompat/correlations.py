"""Behaviour tables and correlator tables for prepare-and-measure and Bell runs.

A PM behaviour is the array p(b|x,y); a Bell behaviour is p(a,b|x,y).  For
dichotomic outcomes both compress losslessly to correlators: the single
correlator P_xy = p(0|x,y) - p(1|x,y) on the PM side and the full correlator
C_xy = p(a=b|x,y) - p(a!=b|x,y) on the Bell side.  On the maximally entangled
state the full correlator has the closed form tr(A^T B)/2 in terms of the two
observables, which is what makes the PM <-> Bell transfer machinery work.

Both table classes share one base (kind, read-only float ``data``, JSON codec)
and add their own check, which refuses an empty table and NaN entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    ATOL_ALGEBRA,
    Assemblage,
    Ensemble,
    PHI_PLUS_VEC,
    QubitOperator,
    _Record,
    frozen,
    is_json_numbers,
    trace_product,
    transpose,
)


@dataclass(frozen=True, eq=False)
class _Table(_Record):
    """Read-only float array of a kind in _KINDS (kind -> axes), named _NAME."""

    kind: str
    data: np.ndarray

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and self.kind in self._KINDS):
            kinds = " or ".join(repr(k) for k in self._KINDS)
            raise ValueError(f"kind must be {kinds}, got {self.kind!r}")
        arr = frozen(self.data)
        if arr.ndim != (n := self._KINDS[self.kind]):
            raise ValueError(f"{self.kind} table needs {n} axes, got {arr.ndim}")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _check_not_empty(self) -> None:
        if self.data.size == 0:
            raise ValueError(f"{self._NAME} has no entries")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "shape": list(self.shape), "data": self.data.ravel().tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "_Table":
        """Decode ``{"kind", "shape": [sizes], "data": [numbers]}``; else ValueError."""
        if not (
            isinstance(data, dict)
            and "kind" in data
            and isinstance(data.get("shape"), list)
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in data["shape"])
            and is_json_numbers(data.get("data"))
        ):
            raise ValueError(f"expected a {cls._NAME} object")
        return cls(data["kind"], np.asarray(data["data"], dtype=float).reshape(data["shape"]))


@dataclass(frozen=True, eq=False)
class BehaviorTable(_Table):
    """Conditional probability table.

    kind "pm":   data[x, y, b]    = p(b|x, y)
    kind "bell": data[x, y, a, b] = p(a, b|x, y)
    """

    _KINDS = {"pm": 3, "bell": 4}
    _NAME = "behaviour table"

    def normalization_error(self) -> float:
        axis = -1 if self.kind == "pm" else (-2, -1)
        return float(np.max(np.abs(self.data.sum(axis=axis) - 1.0)))

    def check(self, atol: float = ATOL_ALGEBRA) -> None:
        """Raise ValueError unless nonempty, nonnegative and normalised; NaN is neither."""
        self._check_not_empty()
        if not np.min(self.data) >= -atol:
            raise ValueError("behaviour table has negative or NaN entries")
        if self.normalization_error() > atol:
            raise ValueError("behaviour table is not normalised per (x, y) cell")


@dataclass(frozen=True, eq=False)
class CorrelatorTable(_Table):
    """Matrix of expectation values in [-1, 1], kind 'single' (PM) or 'full' (Bell)."""

    _KINDS = {"single": 2, "full": 2}
    _NAME = "correlator table"

    @property
    def values(self) -> np.ndarray:
        return self.data

    def check(self, atol: float = ATOL_ALGEBRA) -> None:
        """Raise ValueError unless nonempty with every entry in [-1, 1]; NaN is not."""
        self._check_not_empty()
        if not np.max(np.abs(self.data)) <= 1.0 + atol:
            raise ValueError("correlator entries must lie in [-1, 1]")


def pm_behavior(e: Ensemble, a: Assemblage) -> BehaviorTable:
    """p(b|x, y) = tr(rho_x B_{b|y}) for every state/measurement pair.

    born_pm for all pairs at once, with the same arithmetic: the Bloch dot
    products come from one stacked product of 1x3 by 3x1 blocks, which
    numpy computes with the same dot routine as np.dot on each pair.
    """
    s_rho = np.array([rho.op.s for rho in e])
    v_rho = np.array([rho.op.v for rho in e]).reshape(len(e), 1, 1, 3)
    s_b = np.array([m.effect0.s for m in a])
    v_b = np.array([m.effect0.v for m in a]).reshape(1, len(a), 3, 1)
    p0 = 2.0 * (s_rho[:, None] * s_b + (v_rho @ v_b)[:, :, 0, 0])
    return BehaviorTable("pm", np.stack([p0, 1.0 - p0], axis=-1))


def bell_behavior_phi_plus(alice: Assemblage, bob: Assemblage) -> BehaviorTable:
    """p(a, b|x, y) on the maximally entangled state, via the dense Born rule.

    born_bell_phi_plus for all pairs at once, with the same arithmetic: one
    broadcast product builds every A_a|x (x) B_b|y, axes (x, y, a, b, i, j,
    k, l) for entry [2i + j, 2k + l], and one stacked product sandwiches them.
    """
    A = np.array([(m.effect0.matrix(), m.effect1.matrix()) for m in alice]).reshape(-1, 2, 2, 2)
    B = np.array([(m.effect0.matrix(), m.effect1.matrix()) for m in bob]).reshape(-1, 2, 2, 2)
    ops = A[:, None, :, None, :, None, :, None] * B[None, :, None, :, None, :, None, :]
    ops = ops.reshape(len(alice), len(bob), 2, 2, 4, 4)
    table = np.real(np.conj(PHI_PLUS_VEC) @ (ops @ PHI_PLUS_VEC)[..., None])[..., 0]
    return BehaviorTable("bell", table)


def to_correlators(t: BehaviorTable) -> CorrelatorTable:
    """Reduce a dichotomic behaviour to its correlator matrix."""
    if t.kind == "pm":
        if t.data.shape[-1] != 2:
            raise ValueError("single correlators need dichotomic outcomes")
        return CorrelatorTable("single", t.data[..., 0] - t.data[..., 1])
    if t.data.shape[-2:] != (2, 2):
        raise ValueError("full correlators need dichotomic outcomes on both sides")
    values = (
        t.data[..., 0, 0] - t.data[..., 0, 1] - t.data[..., 1, 0] + t.data[..., 1, 1]
    )
    return CorrelatorTable("full", values)


def from_correlators(c: CorrelatorTable) -> BehaviorTable:
    """Inverse of to_correlators on its image.

    PM tables are recovered exactly from p(0|x,y) = (1 + P)/2.  Bell tables
    assume uniform marginals, p(a,b|x,y) = (1 + (-1)^(a xor b) C)/4, which is
    exact whenever both observables are traceless.
    """
    c.check()
    if c.kind == "single":
        p0 = (1.0 + c.values) / 2.0
        return BehaviorTable("pm", np.stack([p0, 1.0 - p0], axis=-1))
    same = (1.0 + c.values) / 4.0
    diff = (1.0 - c.values) / 4.0
    table = np.stack(
        [np.stack([same, diff], axis=-1), np.stack([diff, same], axis=-1)], axis=-2
    )
    return BehaviorTable("bell", table)


def phi_plus_correlator(a_obs: QubitOperator, b_obs: QubitOperator) -> float:
    """Full correlator tr(A^T B)/2 of two observables on the phi+ state."""
    return 0.5 * trace_product(transpose(a_obs), b_obs)


def pm_correlators(e: Ensemble, a: Assemblage) -> CorrelatorTable:
    """Single correlators P_xy = tr(rho_x B_y) without building the behaviour."""
    values = np.empty((len(e), len(a)))
    for x, rho in enumerate(e):
        for y, m in enumerate(a):
            values[x, y] = trace_product(rho.op, m.observable)
    return CorrelatorTable("single", values)
