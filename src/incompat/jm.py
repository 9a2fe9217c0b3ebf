"""Joint-measurability decisions for finite sets of dichotomic qubit measurements.

Three routes are provided, matching how much structure the input has, and
decide() tries them in this order:

* a closed-form norm criterion for pairs of unbiased measurements,
* the exact visibility threshold for the noisy Pauli triple,
* a two-sided feasibility search for arbitrary finite assemblages that looks
  for a mother POVM whose deterministic post-processings reproduce every
  measurement, or for a dual witness that no such mother exists.

The feasibility search parametrises the mother by one effect per deterministic
response function lambda: y -> b (2^N outcomes for N measurements).  In Bloch
coordinates the constraint set is the intersection of a product of ice-cream
cones (positivity of each effect) with the affine subspace incidence @ E =
targets (completeness plus the marginalisation identities), so Dykstra's
alternating projections apply with closed-form projections on both sides.
One response table gives incidence and targets; they also drive the parent
check (MotherPOVM.is_valid_for, on the parent's own table) and the exact
witness check.  When the two sets do not meet, Dykstra's displacement
converges to the gap vector between them (Bauschke and Borwein, J. Approx.
Theory 79, 1994), which is a Farkas certificate of incompatibility.  The
search returns a verified mother POVM, a witness re-verified in exact
rational arithmetic, or Undecided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    ATOL_VALID,
    Assemblage,
    DichotomicMeasurement,
    QubitOperator,
    _Record,
    all_ints,
    check_unbiased,
    check_visibility,
    is_integer,
    is_json_number,
    operator_norm,
    validate,
)

MAX_SETTINGS = 10  # 2^10 mother outcomes; beyond this the parent blows up


def _incidence(responses) -> np.ndarray:
    """(N+1) x K 0/1 matrix: row 0 all ones (completeness), row y+1 marks k(y) = 0."""
    table = np.asarray(responses)
    # C order keeps the rounding of Dykstra's products, and so its reports, unchanged
    return np.ascontiguousarray(np.vstack((np.ones(len(table)), table.T == 0)))


def _targets(a) -> np.ndarray:
    """(N+1) x 4 right-hand side: the identity (1, 0, 0, 0), then each (s, v) of effect0."""
    return np.array([(1.0, 0.0, 0.0, 0.0), *((m.effect0.s, *m.effect0.v) for m in a)])


@dataclass(frozen=True)
class MotherPOVM(_Record):
    """Parent measurement plus the deterministic response table.

    responses[k][y] is the outcome assigned to measurement y when the parent
    yields outcome k, so marginalising the effects over response classes must
    reproduce the original assemblage.
    """

    effects: tuple[QubitOperator, ...]
    responses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.responses
        if not (
            rows
            and len(rows) == len(self.effects)
            and len({len(row) for row in rows}) == 1
            and len(rows[0]) > 0
            and all_ints(itertools.chain(*rows), {0, 1})
        ):
            raise ValueError("need one response row of 0s and 1s per effect, all one length")

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    def _rows(self) -> np.ndarray:
        return np.array([(e.s, *e.v) for e in self.effects])

    def _residual(self, a: Assemblage) -> np.ndarray:
        """|incidence @ E - targets| over completeness and the first len(a) settings."""
        incidence = _incidence(self.responses)[: len(a) + 1]
        return np.abs(incidence @ self._rows() - _targets(a))

    def marginal(self, y: int, b: int) -> QubitOperator:
        """Sum of parent effects mapped to outcome b of measurement y."""
        total = self._rows()[np.asarray(self.responses)[:, y] == b].sum(axis=0)
        return QubitOperator(total[0], total[1:])

    def completeness_error(self) -> float:
        return float(np.max(self._residual(Assemblage(()))))

    def min_eigenvalue(self) -> float:
        return min(e.s - e.vnorm for e in self.effects)

    def reconstruction_error(self, a: Assemblage) -> float:
        """Largest Bloch-coordinate deviation between marginals and targets."""
        return float(np.max(self._residual(a)[1:], initial=0.0))

    def is_valid_for(self, a: Assemblage, tol: float) -> bool:
        """Positive, complete and marginalising onto a; False for another setting count."""
        return (
            len(a) == len(self.responses[0])
            and self.min_eigenvalue() >= -tol
            and float(np.max(self._residual(a))) <= tol
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "MotherPOVM":
        """Decode ``{"effects": [operators], "responses": [[0 or 1, ..]]}``; else ValueError."""
        if not (
            isinstance(data, dict)
            and isinstance(data.get("effects"), list)
            and isinstance(data.get("responses"), list)
            and all(isinstance(row, list) for row in data["responses"])
        ):
            raise ValueError('expected a parent object {"effects": [..], "responses": [[..]]}')
        return cls(
            tuple(QubitOperator.from_json_dict(e) for e in data["effects"]),
            tuple(tuple(row) for row in data["responses"]),
        )


def _dyadic(values) -> tuple[list[int], int]:
    """Finite floats as integer numerators over one power-of-two denominator."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _exact_witness_check(
    ops: tuple[QubitOperator, ...], a: Assemblage
) -> tuple[bool, float]:
    """(ops = (z, *f) proves a incompatible, the witness value), both exact.

    Every float is a dyadic rational, so scaling all coefficients of the
    witness, and separately all of the assemblage, by one power of two makes
    every comparison an integer one.
    """
    coeffs = [c for op in ops for c in (op.s, *op.v)]
    t_coeffs = _targets(a).ravel().tolist()
    if len(ops) != len(a) + 1 or not all(map(math.isfinite, coeffs + t_coeffs)):
        return False, math.nan
    w, w_den = _dyadic(coeffs)
    t, t_den = _dyadic(t_coeffs)
    blocks = [w[:4]]
    for y in range(1, len(ops)):
        row = w[4 * y : 4 * y + 4]
        blocks += [[b + c for b, c in zip(block, row)] for block in blocks]
    psd = all(s >= 0 and s * s >= x * x + u * u + v * v for s, x, u, v in blocks)
    dot = sum(wi * ti for wi, ti in zip(w, t))
    # tr(P Q) is twice the Bloch inner product of P and Q.
    return psd and dot < 0, 2 * dot / (w_den * t_den)


@dataclass(frozen=True)
class JMWitness(_Record):
    """Farkas certificate that no mother POVM reproduces an assemblage.

    One Hermitian operator per affine constraint of the mother search: z for
    completeness (sum_k E_k = I) and f[y] for the outcome-0 class of
    measurement y.  It proves incompatibility when every block
    z + sum_{y: k(y)=0} f[y], one per response function k, is positive
    semidefinite while value = tr(z) + sum_y tr(f[y] B_{0|y}) < 0, since a
    mother POVM would give value = sum_k tr(block_k E_k) >= 0.
    """

    z: QubitOperator
    f: tuple[QubitOperator, ...]
    value: float

    def verify(self, a: Assemblage) -> bool:
        """Exact re-check that the witness proves a incompatible."""
        return _exact_witness_check((self.z, *self.f), a)[0]

    @classmethod
    def from_json_dict(cls, data: dict) -> "JMWitness":
        """Decode ``{"z": operator, "f": [operators], "value": number}``; else ValueError."""
        if not (
            isinstance(data, dict)
            and isinstance(data.get("f"), list)
            and is_json_number(data.get("value"))
        ):
            raise ValueError('expected a witness object {"z": .., "f": [..], "value": ..}')
        return cls(
            QubitOperator.from_json_dict(data.get("z")),
            tuple(QubitOperator.from_json_dict(op) for op in data["f"]),
            float(data["value"]),
        )


@dataclass(frozen=True)
class JMVerdict(_Record):
    """Outcome of a joint-measurability decision.

    status is one of "jm" (with a verified mother POVM), "not_jm" (with the
    criterion that rejected and its evidence: the rejected pair and its
    margin, the triple's visibility, or an exactly verified Dykstra gap
    witness), or "undecided" (feasibility residual after the iteration
    budget).
    """

    status: str
    mother: MotherPOVM | None = None
    reason: str | None = None
    residual: float | None = None
    iterations: int | None = None
    pair: tuple[int, int] | None = None
    margin: float | None = None
    visibility: float | None = None
    witness: JMWitness | None = None

    @property
    def is_jm(self) -> bool:
        return self.status == "jm"

    def to_json_dict(self) -> dict:
        keys = ("mother", "witness", "reason", "residual", "iterations", "pair", "margin",
                "visibility")
        return self._dict(("verdict", self.status), *((k, getattr(self, k)) for k in keys))


def busch_pair_criterion(
    m0: DichotomicMeasurement, m1: DichotomicMeasurement
) -> tuple[bool, float]:
    """Norm criterion for a pair of unbiased dichotomic qubit measurements.

    The pair is jointly measurable iff ||B0 + B1|| + ||B0 - B1|| <= 2 for the
    observables B_y; the returned margin is 2 minus that sum, so nonnegative
    margins certify compatibility.  Raises for biased inputs, where this
    criterion does not apply.
    """
    check_unbiased((m0, m1), "the pair norm criterion applies to unbiased measurements only")
    b0, b1 = m0.observable, m1.observable
    margin = 2.0 - operator_norm(b0 + b1) - operator_norm(b0 - b1)
    return (margin >= -ATOL_VALID, margin)


def mother_povm_xz(eta: float) -> MotherPOVM:
    """Four-outcome parent E_ij = (I + eta (i sx + j sz))/4 for the noisy X/Z pair.

    Positivity requires eta <= 1/sqrt(2).  Marginalising over j reproduces the
    noisy x measurement, marginalising over i the noisy z measurement.
    """
    if not 0.0 <= eta <= 1.0 / math.sqrt(2.0) + ATOL_VALID:
        raise ValueError(
            f"eta = {eta} leaves the parent non-positive; need 0 <= eta <= 1/sqrt(2)"
        )
    responses = tuple(itertools.product((0, 1), repeat=2))
    effects = tuple(
        QubitOperator(0.25, (0.25 * eta * (1 - 2 * i), 0.0, 0.25 * eta * (1 - 2 * j)))
        for i, j in responses
    )
    return MotherPOVM(effects, responses)


def noisy_pauli_triple_jm(eta: float) -> bool:
    """Exact threshold for the noisy Pauli triple: compatible iff eta <= 1/sqrt(3)."""
    check_visibility(eta)
    return eta <= 1.0 / math.sqrt(3.0) + 1e-12


def _orthogonal_triple_visibility(a: Assemblage) -> float | None:
    """Common visibility when the assemblage is an orthogonal unbiased triple.

    Such a triple is a rotated noisy Pauli triple, so the exact threshold
    applies to it unchanged.
    """
    if len(a) != 3 or not a.all_unbiased:
        return None
    etas = [m.visibility for m in a]
    if max(etas) - min(etas) > 1e-12 or min(etas) == 0.0:
        return None
    dirs = [2.0 * m.effect0.v / eta for m, eta in zip(a, etas)]
    for u, v in itertools.combinations(dirs, 2):
        if abs(float(np.dot(u, v))) > 1e-12:
            return None
    return etas[0]


def _check_search_args(max_iter: int, tol: float) -> None:
    if not (is_integer(max_iter) and max_iter >= 0 and tol > 0.0):
        raise ValueError(f"need max_iter >= 0 and tol > 0, got {max_iter} and {tol}")


def decide(a: Assemblage, max_iter: int = 5000, tol: float = 1e-9) -> JMVerdict:
    """Joint-measurability verdict from the cheapest screen that settles it.

    An incompatible pair makes the whole set incompatible, so every unbiased
    pair is first screened with the analytic norm criterion; then an
    orthogonal unbiased triple meets its exact threshold; the rest goes to
    the two-sided feasibility search.  A max_iter that is not a nonnegative
    integer, a tolerance that is not positive, or an assemblage that
    validate() rejects raises before any screen runs.
    """
    _check_search_args(max_iter, tol)
    validate(a)
    for i, j in itertools.combinations(range(len(a)), 2):
        if a[i].is_unbiased and a[j].is_unbiased:
            is_jm, margin = busch_pair_criterion(a[i], a[j])
            if not is_jm:
                return JMVerdict(
                    "not_jm", reason="pair-norm-criterion", pair=(i, j), margin=margin
                )
    eta = _orthogonal_triple_visibility(a)
    if eta is not None and not noisy_pauli_triple_jm(eta):
        return JMVerdict("not_jm", reason="orthogonal-triple-threshold", visibility=eta)
    return jm_feasibility(a, max_iter=max_iter, tol=tol)


def _vnorm(rows: np.ndarray) -> np.ndarray:
    """|v| of each row (s, vx, vy, vz): np.linalg.norm's own arithmetic, without its overhead."""
    v = rows[:, 1:]
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _cone_project(rows: np.ndarray) -> np.ndarray:
    """Project rows (s, vx, vy, vz) onto the PSD (ice-cream) cone |v| <= s."""
    out = rows.copy()
    s = rows[:, 0]
    r = _vnorm(rows)
    inside = s >= r
    below = s <= -r
    boundary = ~inside & ~below
    out[below] = 0.0
    if np.any(boundary):
        # strictly -r < s < r here, so r > 0
        t = 0.5 * (s[boundary] + r[boundary])
        out[boundary, 0] = t
        out[boundary, 1:] = rows[boundary, 1:] * (t / r[boundary])[:, None]
    return out


def _cone_violation(rows: np.ndarray) -> float:
    return float(np.max(np.maximum(_vnorm(rows) - rows[:, 0], 0.0)))


def _gap_witness(
    r: np.ndarray, incidence: np.ndarray, a: Assemblage
) -> JMWitness | None:
    """Witness from the affine residual r = A y - T of a Dykstra step, if it verifies.

    The dual rows W = (A A^T)^-1 r give the step's displacement A^T W, one
    block per response function.  Raising z's s by the largest cone violation
    of those blocks (plus a margin for the rounding of this float computation)
    puts every block in the cone and raises the value by the same amount; the
    exact check decides.
    """
    rows = np.linalg.solve(incidence @ incidence.T, r)
    mu = _cone_violation(incidence.T @ rows)
    rows[0, 0] += mu + 2.0**-40 * float(np.abs(rows).sum())
    ops = tuple(QubitOperator(row[0], row[1:]) for row in rows)
    certified, value = _exact_witness_check(ops, a)
    return JMWitness(ops[0], ops[1:], value) if certified else None


def jm_feasibility(
    a: Assemblage, max_iter: int = 5000, tol: float = 1e-9
) -> JMVerdict:
    """Search for a mother POVM reproducing the assemblage, or a witness against one.

    Runs Dykstra's alternating projections between the product of positivity
    cones and the affine subspace {sum_k E_k = I, sum_{k: k(y)=b} E_k = B_b|y}.
    Returns a verified mother on success.  Each affine projection moves the
    cone point y by d = A^T W, with W = (A A^T)^-1 (A y - T) one dual row per
    constraint.  Once <d, x> = <W, T> is negative by more than the cone
    violation of d, W is turned into a JMWitness and checked in exact
    arithmetic; a witness that passes gives not_jm.  Undecided otherwise.
    Raises unless max_iter is a nonnegative integer and tol is positive.
    """
    _check_search_args(max_iter, tol)
    if not 0 < len(a) <= MAX_SETTINGS:
        raise ValueError(f"need 1 to {MAX_SETTINGS} measurements, got {len(a)}")
    responses = tuple(itertools.product((0, 1), repeat=len(a)))
    # The affine constraints act identically on each Bloch coordinate.
    incidence = _incidence(responses)
    pinv = np.linalg.pinv(incidence)
    targets = _targets(a)

    x = pinv @ targets
    correction = np.zeros_like(x)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        shifted = x + correction
        y_cone = _cone_project(shifted)
        correction = shifted - y_cone
        r = incidence @ y_cone - targets
        d = pinv @ r
        x = y_cone - d
        residual = _cone_violation(x)
        if residual < tol:
            break
        # x lies in the affine set, so <d, x> = <W, T>: the witness value up
        # to the raise that puts every block of d in the cone.
        gap = float(np.vdot(d, x))
        if gap < 0.0 and gap + _cone_violation(d) < 0.0:
            witness = _gap_witness(r, incidence, a)
            if witness is not None:
                return JMVerdict(
                    "not_jm",
                    reason="dykstra-gap-witness",
                    residual=residual,
                    iterations=iterations,
                    witness=witness,
                )

    if residual >= tol:
        return JMVerdict("undecided", residual=residual, iterations=iterations)

    # Final cleanup: make positivity exact; affine constraints then hold to
    # within the residual, which the validity check re-verifies.
    effects = tuple(QubitOperator(row[0], row[1:]) for row in _cone_project(x))
    mother = MotherPOVM(effects, responses)
    check_tol = max(10.0 * tol, 1e-8)
    if not mother.is_valid_for(a, check_tol):
        return JMVerdict("undecided", residual=residual, iterations=iterations)
    return JMVerdict("jm", mother=mother, iterations=iterations)
